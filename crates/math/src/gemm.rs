//! Tuned f64 GEMM kernels: cache-blocked, B packed into column panels,
//! and multi-threaded over row panels.
//!
//! The naive triple loop in [`crate::Mat::matmul_reference`] is the
//! correctness-grade seed; every kernel here reproduces it **bit for
//! bit**. The trick is that bit-identity only pins down the per-cell
//! reduction: each output element must accumulate its `k` products in
//! ascending-`k` order, one `mul` + one `add` at a time, starting from
//! `0.0`. Everything else — packing `B` into [`NR`]-column panels so the
//! micro-kernel loads one short contiguous `B` stripe per `k` step,
//! register-tiling `MR × NR` output blocks of independent accumulators
//! that the compiler keeps in SIMD registers (the inner loop is a
//! broadcast-multiply-add across lanes, with no cross-lane reduction to
//! block vectorization), and splitting row/column panels across worker
//! threads — reorders *between* cells, never *within* one, so the result
//! is identical for any thread count.
//!
//! Parallel dispatch goes through the persistent [`crate::pool`] worker
//! pool instead of spawning threads per call; [`gemm_scoped`] keeps the
//! original `std::thread::scope` dispatch as a differential baseline
//! (same panel split, same kernels) for the verify matrix and the
//! `pool_vs_scope` microbench.
//!
//! Thread count comes from [`default_threads`]: the `PDAC_THREADS`
//! environment variable when set, else [`std::thread::available_parallelism`].
//! Small products stay on the calling thread (dispatch costs more than it
//! saves below [`PAR_MIN_MACS`] multiply-adds). Weight matrices that are
//! multiplied repeatedly can be packed once into a [`PackedB`] and fed to
//! [`gemm_prepacked`], skipping the per-call packing pass entirely.

use crate::pool::WorkerPool;
use std::sync::OnceLock;

/// Register-tile rows: the micro-kernel produces `MR × NR` output cells
/// per pass with independent accumulators.
const MR: usize = 4;
/// Register-tile columns (one packed `B` panel width): a multiple of the
/// widest f64 SIMD lane count so the accumulator rows vectorize cleanly.
const NR: usize = 8;

/// Minimum multiply-add count before the packed kernel is worth its
/// `B`-packing pass; below this the axpy loop (no allocation) wins.
const PACK_MIN_MACS: usize = 32 * 32 * 32;

/// Minimum multiply-add count before spawning worker threads pays for
/// itself.
pub const PAR_MIN_MACS: usize = 64 * 64 * 64;

/// The process-wide worker-thread count for GEMM and matvec: the
/// `PDAC_THREADS` environment variable when set to a positive integer,
/// otherwise [`std::thread::available_parallelism`]. Cached after the
/// first call; results are bit-identical for every value.
pub fn default_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("PDAC_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            })
    })
}

/// Strict ascending-order dot product: the per-cell reduction shared by
/// every kernel (and by the reference loop).
#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

/// `MR × NR` micro-kernel: `MR · NR` independent ascending-`k` reductions
/// over `MR` rows of `A` and one packed `B` column panel (`k` contiguous
/// stripes of `NR` values). Each `k` step broadcasts one `A` value per
/// row against the panel stripe — lane-parallel multiply-adds with no
/// cross-lane dependency, which LLVM turns into SIMD.
#[inline]
fn micro_kernel(a_rows: [&[f64]; MR], panel: &[f64], k: usize) -> [[f64; NR]; MR] {
    let mut acc = [[0.0f64; NR]; MR];
    for kk in 0..k {
        let stripe: &[f64; NR] = panel[kk * NR..kk * NR + NR].try_into().expect("stripe");
        for (acc_row, a_row) in acc.iter_mut().zip(&a_rows) {
            let a = a_row[kk];
            for (cell, &b) in acc_row.iter_mut().zip(stripe) {
                *cell += a * b;
            }
        }
    }
    acc
}

/// Single-row variant of [`micro_kernel`] for the `m % MR` tail.
#[inline]
fn micro_kernel_row(a_row: &[f64], panel: &[f64], k: usize) -> [f64; NR] {
    let mut acc = [0.0f64; NR];
    for kk in 0..k {
        let stripe: &[f64; NR] = panel[kk * NR..kk * NR + NR].try_into().expect("stripe");
        let a = a_row[kk];
        for (cell, &b) in acc.iter_mut().zip(stripe) {
            *cell += a * b;
        }
    }
    acc
}

/// Packs row-major `b` (`k × n`) into `NR`-column panels: panel `p`
/// holds columns `p·NR ..` as `k` contiguous stripes of `NR` values
/// (ragged tail zero-padded), so the micro-kernel streams `B`
/// sequentially. Reuses `bp`'s allocation.
fn pack_b_panels(b: &[f64], k: usize, n: usize, bp: &mut Vec<f64>) {
    let panels = n.div_ceil(NR);
    bp.clear();
    bp.resize(panels * k * NR, 0.0);
    for (kk, b_row) in b.chunks_exact(n).enumerate() {
        for (p, cols) in b_row.chunks(NR).enumerate() {
            let at = p * k * NR + kk * NR;
            bp[at..at + cols.len()].copy_from_slice(cols);
        }
    }
}

/// Multiplies a row panel of `A` (`rows × k`, row-major) by panel-packed
/// `B` (see [`pack_b_panels`]) into the matching output panel
/// (`rows × n`, row-major, fully overwritten).
fn gemm_panel_packed(a_panel: &[f64], bp: &[f64], k: usize, n: usize, out_panel: &mut [f64]) {
    let rows = out_panel.len().checked_div(n).unwrap_or(0);
    let panel_len = k * NR;
    let mut r = 0;
    while r + MR <= rows {
        let a_rows = [
            &a_panel[r * k..(r + 1) * k],
            &a_panel[(r + 1) * k..(r + 2) * k],
            &a_panel[(r + 2) * k..(r + 3) * k],
            &a_panel[(r + 3) * k..(r + 4) * k],
        ];
        for (p, panel) in bp.chunks_exact(panel_len).enumerate() {
            let c = p * NR;
            let w = NR.min(n - c);
            let acc = micro_kernel(a_rows, panel, k);
            for (i, acc_row) in acc.iter().enumerate() {
                out_panel[(r + i) * n + c..(r + i) * n + c + w].copy_from_slice(&acc_row[..w]);
            }
        }
        r += MR;
    }
    while r < rows {
        let a_row = &a_panel[r * k..(r + 1) * k];
        for (p, panel) in bp.chunks_exact(panel_len).enumerate() {
            let c = p * NR;
            let w = NR.min(n - c);
            let acc = micro_kernel_row(a_row, panel, k);
            out_panel[r * n + c..r * n + c + w].copy_from_slice(&acc[..w]);
        }
        r += 1;
    }
}

/// Axpy-ordered fallback for thin/small products: no packing, no
/// allocation. `out_panel` must be zeroed. Per cell this is still an
/// ascending-`k` reduction — the loop order only interleaves cells.
fn gemm_panel_axpy(a_panel: &[f64], b: &[f64], k: usize, n: usize, out_panel: &mut [f64]) {
    for (a_row, out_row) in a_panel.chunks_exact(k).zip(out_panel.chunks_exact_mut(n)) {
        for (&a_rk, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += a_rk * bv;
            }
        }
    }
}

/// A `*mut f64` that may cross thread boundaries.
///
/// Safety contract: every user hands disjoint index ranges to each pool
/// task, so no two tasks alias the same elements.
#[derive(Clone, Copy)]
struct SendPtr(*mut f64);

impl SendPtr {
    /// Accessor (rather than field access) so closures capture the
    /// whole `Send + Sync` wrapper, not the raw pointer field.
    #[inline]
    fn get(self) -> *mut f64 {
        self.0
    }
}

// SAFETY: see the struct docs — all uses partition the output buffer
// into disjoint per-task regions.
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

/// One column chunk of the row-vector × matrix product, ascending-`k`
/// per cell (shared by the pooled and scoped vecmat dispatches).
#[inline]
fn vecmat_chunk(a_row: &[f64], b: &[f64], k: usize, n: usize, c0: usize, out_chunk: &mut [f64]) {
    out_chunk.fill(0.0);
    for kk in 0..k {
        let a_k = a_row[kk];
        let b_seg = &b[kk * n + c0..kk * n + c0 + out_chunk.len()];
        for (o, &bv) in out_chunk.iter_mut().zip(b_seg) {
            *o += a_k * bv;
        }
    }
}

/// Row-vector × matrix with the output columns split across pool workers
/// (the decode-step shape `1 × k · k × n`, where row-panel splitting has
/// nothing to distribute).
fn vecmat(a_row: &[f64], b: &[f64], k: usize, n: usize, out: &mut [f64], threads: usize) {
    let threads = threads.clamp(1, n);
    if threads == 1 {
        vecmat_chunk(a_row, b, k, n, 0, out);
        return;
    }
    let chunk = n.div_ceil(threads);
    let tasks = n.div_ceil(chunk);
    let out_ptr = SendPtr(out.as_mut_ptr());
    WorkerPool::global().run(tasks, &move |t| {
        let c0 = t * chunk;
        let width = chunk.min(n - c0);
        // SAFETY: column chunks are disjoint per task index.
        let out_chunk = unsafe { std::slice::from_raw_parts_mut(out_ptr.get().add(c0), width) };
        vecmat_chunk(a_row, b, k, n, c0, out_chunk);
    });
}

/// Computes the `m × n` product of row-major `a` (`m × k`) and `b`
/// (`k × n`) into `out` (fully overwritten), using up to `threads`
/// worker threads.
///
/// The result is bit-identical to the reference triple loop for every
/// `threads` value (see module docs for why).
///
/// # Panics
///
/// Panics if slice lengths disagree with the given dimensions.
pub fn gemm(a: &[f64], b: &[f64], m: usize, k: usize, n: usize, out: &mut [f64], threads: usize) {
    assert_eq!(a.len(), m * k, "lhs length");
    assert_eq!(b.len(), k * n, "rhs length");
    assert_eq!(out.len(), m * n, "output length");
    let macs = m * k * n;
    if m == 1 {
        let threads = if macs >= PAR_MIN_MACS { threads } else { 1 };
        vecmat(a, b, k, n, out, threads);
        return;
    }
    if macs < PACK_MIN_MACS || m < MR {
        out.fill(0.0);
        gemm_panel_axpy(a, b, k, n, out);
        return;
    }
    let mut bp = Vec::new();
    pack_b_panels(b, k, n, &mut bp);
    let threads = threads.clamp(1, m);
    if threads == 1 || macs < PAR_MIN_MACS {
        gemm_panel_packed(a, &bp, k, n, out);
        return;
    }
    gemm_packed_pooled(a, &bp, m, k, n, out, threads);
}

/// Row-panel dispatch of the packed kernel over the persistent pool.
/// The panel split matches the scoped path (`m.div_ceil(threads)` rows
/// per task), and the per-cell reduction is independent of the split, so
/// results are bit-identical for every `threads` value.
fn gemm_packed_pooled(
    a: &[f64],
    bp: &[f64],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f64],
    threads: usize,
) {
    let rows_per = m.div_ceil(threads);
    let tasks = m.div_ceil(rows_per);
    let out_ptr = SendPtr(out.as_mut_ptr());
    WorkerPool::global().run(tasks, &move |t| {
        let r0 = t * rows_per;
        let rows = rows_per.min(m - r0);
        // SAFETY: row panels are disjoint per task index.
        let out_panel =
            unsafe { std::slice::from_raw_parts_mut(out_ptr.get().add(r0 * n), rows * n) };
        gemm_panel_packed(&a[r0 * k..(r0 + rows) * k], bp, k, n, out_panel);
    });
}

/// The pre-pool GEMM dispatch: identical panel split and kernels to
/// [`gemm`], but parallel work spawns fresh `std::thread::scope` threads
/// per call. Kept as the differential baseline the verify matrix checks
/// the pooled path against, and as the "before" side of the
/// `pool_vs_scope` microbench.
pub fn gemm_scoped(
    a: &[f64],
    b: &[f64],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f64],
    threads: usize,
) {
    assert_eq!(a.len(), m * k, "lhs length");
    assert_eq!(b.len(), k * n, "rhs length");
    assert_eq!(out.len(), m * n, "output length");
    let macs = m * k * n;
    if m == 1 {
        let threads = if macs >= PAR_MIN_MACS { threads } else { 1 };
        let threads = threads.clamp(1, n);
        if threads == 1 {
            vecmat_chunk(a, b, k, n, 0, out);
            return;
        }
        let chunk = n.div_ceil(threads);
        std::thread::scope(|scope| {
            for (t, out_chunk) in out.chunks_mut(chunk).enumerate() {
                scope.spawn(move || vecmat_chunk(a, b, k, n, t * chunk, out_chunk));
            }
        });
        return;
    }
    if macs < PACK_MIN_MACS || m < MR {
        out.fill(0.0);
        gemm_panel_axpy(a, b, k, n, out);
        return;
    }
    let mut bp = Vec::new();
    pack_b_panels(b, k, n, &mut bp);
    let threads = threads.clamp(1, m);
    if threads == 1 || macs < PAR_MIN_MACS {
        gemm_panel_packed(a, &bp, k, n, out);
        return;
    }
    let rows_per = m.div_ceil(threads);
    let bp = &bp;
    std::thread::scope(|scope| {
        for (a_panel, out_panel) in a.chunks(rows_per * k).zip(out.chunks_mut(rows_per * n)) {
            scope.spawn(move || gemm_panel_packed(a_panel, bp, k, n, out_panel));
        }
    });
}

/// `B` packed once into [`NR`]-column panels for repeated products
/// against changing left operands (the decode hot path multiplies every
/// activation batch by the same weight matrices step after step).
///
/// [`gemm_prepacked`] over a `PackedB` is bit-identical to [`gemm`] over
/// the original row-major `B`: packing only changes memory layout, and
/// the per-cell reduction order is fixed (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct PackedB {
    bp: Vec<f64>,
    k: usize,
    n: usize,
}

impl PackedB {
    /// Packs row-major `b` (`k × n`).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != k * n`.
    pub fn pack(b: &[f64], k: usize, n: usize) -> Self {
        assert_eq!(b.len(), k * n, "rhs length");
        let mut bp = Vec::new();
        pack_b_panels(b, k, n, &mut bp);
        Self { bp, k, n }
    }

    /// Inner (contraction) dimension of the packed matrix.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Column count of the packed matrix.
    pub fn n(&self) -> usize {
        self.n
    }
}

/// Computes the `m × n` product of row-major `a` (`m × k`) and a
/// prepacked `B`, bit-identical to [`gemm`] with the unpacked `B` (the
/// packing pass is skipped, not changed). `m == 1` runs the packed
/// micro-kernel directly — still one ascending-`k` reduction per cell.
///
/// # Panics
///
/// Panics if slice lengths disagree with the given dimensions.
pub fn gemm_prepacked(a: &[f64], b: &PackedB, m: usize, out: &mut [f64], threads: usize) {
    let (k, n) = (b.k, b.n);
    assert_eq!(a.len(), m * k, "lhs length");
    assert_eq!(out.len(), m * n, "output length");
    let macs = m * k * n;
    if m == 1 {
        // The axpy column order and the panel micro-kernel compute the
        // same ascending-k reduction per cell; reuse the packed panels
        // so the prepack pays off even for single rows.
        gemm_panel_packed(a, &b.bp, k, n, out);
        return;
    }
    let threads = threads.clamp(1, m);
    if threads == 1 || macs < PAR_MIN_MACS {
        gemm_panel_packed(a, &b.bp, k, n, out);
        return;
    }
    gemm_packed_pooled(a, &b.bp, m, k, n, out, threads);
}

/// Grouped row-vector products: row `g` of `a` (`groups × k`, row-major)
/// times block `g` of `b` (`groups` stacked contiguous `k × n` row-major
/// blocks, so `b` is `(groups·k) × n`) into row `g` of `out`
/// (`groups × n`, fully overwritten).
///
/// This is the batched-decode attention shape: each grouped sequence has
/// its *own* transient right operand (gathered Kᵀ or V), so a single
/// dense GEMM cannot fuse them — but the `groups` independent row
/// products can still share one pool dispatch and one cache-warm pass
/// over the stacked operand. Each output row is bit-identical to
/// `gemm(&a[g*k..], &b[g*k*n..], 1, k, n, ..)` because every cell is the
/// same ascending-`k` reduction; splitting rows/columns across workers
/// reorders between cells, never within one.
///
/// # Panics
///
/// Panics if slice lengths disagree with the given dimensions.
pub fn gemm_grouped(
    a: &[f64],
    b: &[f64],
    groups: usize,
    k: usize,
    n: usize,
    out: &mut [f64],
    threads: usize,
) {
    assert_eq!(a.len(), groups * k, "lhs length");
    assert_eq!(b.len(), groups * k * n, "rhs length");
    assert_eq!(out.len(), groups * n, "output length");
    if groups == 0 {
        return;
    }
    let macs = groups * k * n;
    let threads = if macs >= PAR_MIN_MACS { threads } else { 1 };
    if threads <= 1 {
        for g in 0..groups {
            vecmat_chunk(
                &a[g * k..(g + 1) * k],
                &b[g * k * n..(g + 1) * k * n],
                k,
                n,
                0,
                &mut out[g * n..(g + 1) * n],
            );
        }
        return;
    }
    // 2-D task grid: split rows first, then columns when workers remain
    // (groups is often smaller than the pool).
    let row_tasks = threads.clamp(1, groups);
    let rows_per = groups.div_ceil(row_tasks);
    let row_tasks = groups.div_ceil(rows_per);
    let col_tasks = (threads / row_tasks).clamp(1, n);
    let col_per = n.div_ceil(col_tasks);
    let col_tasks = n.div_ceil(col_per);
    let out_ptr = SendPtr(out.as_mut_ptr());
    WorkerPool::global().run(row_tasks * col_tasks, &move |t| {
        let r0 = (t / col_tasks) * rows_per;
        let rows = rows_per.min(groups - r0);
        let c0 = (t % col_tasks) * col_per;
        let width = col_per.min(n - c0);
        for g in r0..r0 + rows {
            // SAFETY: (row, column-chunk) regions are disjoint per task
            // index.
            let out_chunk =
                unsafe { std::slice::from_raw_parts_mut(out_ptr.get().add(g * n + c0), width) };
            vecmat_chunk(
                &a[g * k..(g + 1) * k],
                &b[g * k * n..(g + 1) * k * n],
                k,
                n,
                c0,
                out_chunk,
            );
        }
    });
}

/// Matrix-vector product `out = a · v` (`a` is `m × k`, row-major) on the
/// same thread pool: each output element is one ascending-`k` dot, so the
/// result is bit-identical to the reference loop for every thread count.
///
/// # Panics
///
/// Panics if slice lengths disagree with the given dimensions.
pub fn gemv(a: &[f64], v: &[f64], m: usize, k: usize, out: &mut [f64], threads: usize) {
    assert_eq!(a.len(), m * k, "matrix length");
    assert_eq!(v.len(), k, "vector length");
    assert_eq!(out.len(), m, "output length");
    let threads = if m * k >= PAR_MIN_MACS {
        threads.clamp(1, m)
    } else {
        1
    };
    if threads == 1 {
        for (o, a_row) in out.iter_mut().zip(a.chunks_exact(k)) {
            *o = dot(a_row, v);
        }
        return;
    }
    let rows_per = m.div_ceil(threads);
    let tasks = m.div_ceil(rows_per);
    let out_ptr = SendPtr(out.as_mut_ptr());
    WorkerPool::global().run(tasks, &move |t| {
        let r0 = t * rows_per;
        let rows = rows_per.min(m - r0);
        // SAFETY: row panels are disjoint per task index.
        let out_panel = unsafe { std::slice::from_raw_parts_mut(out_ptr.get().add(r0), rows) };
        let a_panel = &a[r0 * k..(r0 + rows) * k];
        for (o, a_row) in out_panel.iter_mut().zip(a_panel.chunks_exact(k)) {
            *o = dot(a_row, v);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn random(len: usize, seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range_f64(-1.0, 1.0)).collect()
    }

    fn reference(a: &[f64], b: &[f64], m: usize, k: usize, n: usize) -> Vec<f64> {
        let mut out = vec![0.0; m * n];
        for r in 0..m {
            for kk in 0..k {
                let x = a[r * k + kk];
                for c in 0..n {
                    out[r * n + c] += x * b[kk * n + c];
                }
            }
        }
        out
    }

    #[test]
    fn packed_kernel_matches_reference_bitwise() {
        for (m, k, n) in [
            (4, 4, 4),
            (5, 7, 3),
            (16, 16, 16),
            (33, 17, 29),
            (64, 64, 64),
            (1, 64, 64),
            (2, 100, 3),
            (7, 1, 7),
        ] {
            let a = random(m * k, 1000 + (m * k) as u64);
            let b = random(k * n, 2000 + (k * n) as u64);
            let want = reference(&a, &b, m, k, n);
            for threads in [1, 2, 8] {
                let mut got = vec![f64::NAN; m * n];
                gemm(&a, &b, m, k, n, &mut got, threads);
                assert_eq!(got, want, "m={m} k={k} n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn gemv_matches_reference_bitwise() {
        for (m, k) in [(1, 1), (3, 9), (64, 64), (129, 65)] {
            let a = random(m * k, 31);
            let v = random(k, 32);
            let mut want = vec![0.0; m];
            for r in 0..m {
                let mut acc = 0.0;
                for c in 0..k {
                    acc += a[r * k + c] * v[c];
                }
                want[r] = acc;
            }
            for threads in [1, 4] {
                let mut got = vec![f64::NAN; m];
                gemv(&a, &v, m, k, &mut got, threads);
                assert_eq!(got, want, "m={m} k={k} threads={threads}");
            }
        }
    }

    #[test]
    fn large_threaded_product_is_deterministic() {
        let (m, k, n) = (96, 80, 72);
        let a = random(m * k, 7);
        let b = random(k * n, 8);
        let mut one = vec![0.0; m * n];
        let mut eight = vec![0.0; m * n];
        gemm(&a, &b, m, k, n, &mut one, 1);
        gemm(&a, &b, m, k, n, &mut eight, 8);
        assert_eq!(one, eight);
        assert_eq!(one, reference(&a, &b, m, k, n));
    }

    #[test]
    fn default_threads_is_positive_and_stable() {
        let t = default_threads();
        assert!(t >= 1);
        assert_eq!(t, default_threads());
    }

    #[test]
    fn pooled_matches_scoped_bitwise() {
        for (m, k, n) in [(1, 80, 90), (5, 7, 3), (33, 17, 29), (96, 80, 72)] {
            let a = random(m * k, 41 + m as u64);
            let b = random(k * n, 42 + n as u64);
            for threads in [1, 2, 7] {
                let mut pooled = vec![f64::NAN; m * n];
                let mut scoped = vec![f64::NAN; m * n];
                gemm(&a, &b, m, k, n, &mut pooled, threads);
                gemm_scoped(&a, &b, m, k, n, &mut scoped, threads);
                assert_eq!(pooled, scoped, "m={m} k={k} n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn grouped_matches_per_row_gemm_bitwise() {
        // Includes shapes past PAR_MIN_MACS so the pooled 2-D split runs.
        for (g, k, n) in [
            (1, 16, 16),
            (3, 7, 5),
            (4, 64, 64),
            (8, 32, 96),
            (16, 64, 512),
            (5, 1, 9),
        ] {
            let a = random(g * k, 71 + (g * k) as u64);
            let b = random(g * k * n, 72 + (k * n) as u64);
            let mut want = vec![f64::NAN; g * n];
            for r in 0..g {
                gemm(
                    &a[r * k..(r + 1) * k],
                    &b[r * k * n..(r + 1) * k * n],
                    1,
                    k,
                    n,
                    &mut want[r * n..(r + 1) * n],
                    1,
                );
            }
            for threads in [1, 2, 7, 32] {
                let mut got = vec![f64::NAN; g * n];
                gemm_grouped(&a, &b, g, k, n, &mut got, threads);
                assert_eq!(got, want, "g={g} k={k} n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn grouped_zero_groups_is_noop() {
        let mut out: Vec<f64> = vec![];
        gemm_grouped(&[], &[], 0, 4, 4, &mut out, 4);
        assert!(out.is_empty());
    }

    #[test]
    fn prepacked_matches_gemm_bitwise() {
        for (m, k, n) in [(1, 64, 64), (2, 100, 3), (16, 16, 16), (96, 80, 72)] {
            let a = random(m * k, 51);
            let b = random(k * n, 52);
            let packed = PackedB::pack(&b, k, n);
            assert_eq!((packed.k(), packed.n()), (k, n));
            for threads in [1, 2, 8] {
                let mut plain = vec![f64::NAN; m * n];
                let mut pre = vec![f64::NAN; m * n];
                gemm(&a, &b, m, k, n, &mut plain, threads);
                gemm_prepacked(&a, &packed, m, &mut pre, threads);
                assert_eq!(pre, plain, "m={m} k={k} n={n} threads={threads}");
            }
        }
    }
}
