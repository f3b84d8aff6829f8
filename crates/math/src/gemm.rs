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
//!
//! A matrix whose elements take at most [`LEVELS`] distinct values (a
//! quantized, converted weight) can instead be packed as one byte per
//! element plus a level table ([`PackedCodes`]): [`gemm_codes`] decodes
//! `levels[code]` as it streams the panels, so each product sees the
//! same f64 the f64 panels would hold, in the same per-cell order.

use crate::pool::WorkerPool;
use std::ops::Range;
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

/// Entries in a [`PackedCodes`] level table: one per `u8` code, so a code
/// indexes the table with no bounds check.
pub const LEVELS: usize = 256;

/// Rows one pass over [`PackedCodes`] serves: each `B` stripe is decoded
/// once per pass, so at decode batch sizes (≤ 8 rows) it is decoded once
/// per call.
const CODE_ROWS: usize = 8;

/// `B` stored in [`PackedB`]'s `NR`-column panel layout as one byte per
/// element — an index into a per-matrix table of at most [`LEVELS`] f64
/// values — for matrices built from a small value set (quantized,
/// converted weights). An 8-byte f64 panel element becomes a 1-byte code.
///
/// [`gemm_codes`] over a `PackedCodes` is bit-identical to
/// [`gemm_prepacked`] over [`Self::decode`]: each decoded element is the
/// table's f64, and each output cell keeps its ascending-`k` reduction.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedCodes {
    codes: Vec<u8>,
    levels: Box<[f64; LEVELS]>,
    k: usize,
    n: usize,
}

impl PackedCodes {
    /// Packs row-major `b` (`k × n`) in one pass: element `x` is stored as
    /// `code(x)`, an index into `levels` (entries past `levels.len()` are
    /// `0.0`). Lanes of a ragged last panel hold code 0; no kernel copies
    /// them out.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != k * n` or `levels` has more than [`LEVELS`]
    /// entries.
    pub fn pack_with(
        b: &[f64],
        k: usize,
        n: usize,
        levels: &[f64],
        code: impl Fn(f64) -> u8,
    ) -> Self {
        assert_eq!(b.len(), k * n, "rhs length");
        assert!(
            levels.len() <= LEVELS,
            "a level table holds at most {LEVELS} entries, got {}",
            levels.len()
        );
        let mut table = Box::new([0.0; LEVELS]);
        table[..levels.len()].copy_from_slice(levels);
        let mut codes = vec![0u8; n.div_ceil(NR) * k * NR];
        for (kk, b_row) in b.chunks_exact(n).enumerate() {
            for (p, cols) in b_row.chunks(NR).enumerate() {
                let at = p * k * NR + kk * NR;
                for (slot, &x) in codes[at..at + cols.len()].iter_mut().zip(cols) {
                    *slot = code(x);
                }
            }
        }
        Self {
            codes,
            levels: table,
            k,
            n,
        }
    }

    /// Inner (contraction) dimension of the packed matrix.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Column count of the packed matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bytes held: one per panel element (ragged lanes included) plus
    /// the level table.
    pub fn resident_bytes(&self) -> usize {
        self.codes.len() + std::mem::size_of::<[f64; LEVELS]>()
    }

    /// The f64 panels these codes stand for: [`PackedB::pack`] of the
    /// decoded row-major matrix.
    pub fn decode(&self) -> PackedB {
        let (k, n) = (self.k, self.n);
        let mut b = vec![0.0; k * n];
        for (kk, b_row) in b.chunks_exact_mut(n).enumerate() {
            for (c, x) in b_row.iter_mut().enumerate() {
                let code = self.codes[(c / NR) * k * NR + kk * NR + c % NR];
                *x = self.levels[usize::from(code)];
            }
        }
        PackedB::pack(&b, k, n)
    }
}

/// `R` rows of `A` (row-major `R × k`, `R` in `1..=8`) against `P`
/// adjacent code panels (`panels` holds `P · k` stripes). Each stripe
/// decodes as `levels[code]` and the rows accumulate against it exactly
/// like [`micro_kernel`] (ascending `k`, one `mul` + one `add`, from
/// `0.0`), so each cell is bit-identical to the f64 panels. A single
/// row takes four panels per pass: more independent accumulator chains
/// to overlap the table loads with.
#[inline]
fn code_tile<const R: usize, const P: usize>(
    a: &[f64],
    k: usize,
    panels: &[u8],
    levels: &[f64; LEVELS],
) -> [[[f64; NR]; R]; P] {
    // Slicing once here lets the compiler drop the bounds checks inside
    // the loop (`kk < k` is each slice's length).
    let rows: [&[f64]; R] = std::array::from_fn(|r| &a[r * k..(r + 1) * k]);
    let panels: [&[u8]; P] = std::array::from_fn(|q| &panels[q * k * NR..(q + 1) * k * NR]);
    let mut acc = [[[0.0f64; NR]; R]; P];
    for kk in 0..k {
        for (acc, panel) in acc.iter_mut().zip(&panels) {
            let stripe = &panel[kk * NR..kk * NR + NR];
            let b: [f64; NR] = std::array::from_fn(|j| levels[usize::from(stripe[j])]);
            for (acc_row, row) in acc.iter_mut().zip(&rows) {
                let x = row[kk];
                for (cell, &bv) in acc_row.iter_mut().zip(&b) {
                    *cell += x * bv;
                }
            }
        }
    }
    acc
}

/// All `m` rows of `A` against code panels `panels`, in passes of up to
/// [`CODE_ROWS`] rows. Each finished tile row goes to
/// `store(row, col, values)`.
fn gemm_codes_range(
    a: &[f64],
    b: &PackedCodes,
    m: usize,
    panels: Range<usize>,
    store: &mut impl FnMut(usize, usize, &[f64]),
) {
    /// Runs the `R`-row tile on every panel of the range, `P` panels at
    /// a time while `P` remain.
    fn pass<const R: usize, const P: usize>(
        a: &[f64],
        b: &PackedCodes,
        r0: usize,
        panels: Range<usize>,
        store: &mut impl FnMut(usize, usize, &[f64]),
    ) {
        let (k, n) = (b.k, b.n);
        let rows = &a[r0 * k..(r0 + R) * k];
        let mut p = panels.start;
        let mut emit = |p: usize, tile: &[[f64; NR]; R]| {
            let c = p * NR;
            for (i, acc_row) in tile.iter().enumerate() {
                // A whole panel stores a fixed-length row (no memcpy call).
                if c + NR <= n {
                    store(r0 + i, c, acc_row);
                } else {
                    store(r0 + i, c, &acc_row[..n - c]);
                }
            }
        };
        while p + P <= panels.end {
            let codes = &b.codes[p * k * NR..(p + P) * k * NR];
            for (q, tile) in code_tile::<R, P>(rows, k, codes, &b.levels)
                .iter()
                .enumerate()
            {
                emit(p + q, tile);
            }
            p += P;
        }
        for p in p..panels.end {
            let codes = &b.codes[p * k * NR..(p + 1) * k * NR];
            emit(p, &code_tile::<R, 1>(rows, k, codes, &b.levels)[0]);
        }
    }
    let mut r0 = 0;
    while r0 + CODE_ROWS <= m {
        pass::<CODE_ROWS, 1>(a, b, r0, panels.clone(), store);
        r0 += CODE_ROWS;
    }
    match m - r0 {
        0 => {}
        1 => pass::<1, 4>(a, b, r0, panels, store),
        2 => pass::<2, 1>(a, b, r0, panels, store),
        3 => pass::<3, 1>(a, b, r0, panels, store),
        4 => pass::<4, 1>(a, b, r0, panels, store),
        5 => pass::<5, 1>(a, b, r0, panels, store),
        6 => pass::<6, 1>(a, b, r0, panels, store),
        7 => pass::<7, 1>(a, b, r0, panels, store),
        _ => unreachable!("fewer than CODE_ROWS rows remain"),
    }
}

/// Computes the `m × n` product of row-major `a` (`m × k`) and code-packed
/// `B` into `out` (fully overwritten), bit-identical to
/// [`gemm_prepacked`] over [`PackedCodes::decode`]. One pass over `B`
/// serves up to 8 rows. At or above [`PAR_MIN_MACS`] the column panels
/// split across up to `threads` pool workers, for a single row too, as
/// the exact single-row product splits its columns.
///
/// # Panics
///
/// Panics if slice lengths disagree with the given dimensions.
pub fn gemm_codes(a: &[f64], b: &PackedCodes, m: usize, out: &mut [f64], threads: usize) {
    let (k, n) = (b.k, b.n);
    assert_eq!(a.len(), m * k, "lhs length");
    assert_eq!(out.len(), m * n, "output length");
    let panels = n.div_ceil(NR);
    let threads = if m * k * n >= PAR_MIN_MACS {
        threads.clamp(1, panels.max(1))
    } else {
        1
    };
    if threads == 1 {
        gemm_codes_range(a, b, m, 0..panels, &mut |r, c, v| {
            out[r * n + c..r * n + c + v.len()].copy_from_slice(v);
        });
        return;
    }
    let per = panels.div_ceil(threads);
    let tasks = panels.div_ceil(per);
    let out_ptr = SendPtr(out.as_mut_ptr());
    WorkerPool::global().run(tasks, &move |t| {
        let range = t * per..((t + 1) * per).min(panels);
        gemm_codes_range(a, b, m, range, &mut |r, c, v| {
            // SAFETY: each task owns the columns of its panel range in
            // every row, so no two tasks write the same elements, and
            // `r * n + c + v.len() <= m * n`.
            let dst =
                unsafe { std::slice::from_raw_parts_mut(out_ptr.get().add(r * n + c), v.len()) };
            dst.copy_from_slice(v);
        });
    });
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

    /// A random `k × n` matrix drawn from a random `levels`-entry table,
    /// packed as codes.
    fn random_codes(k: usize, n: usize, levels: usize, seed: u64) -> PackedCodes {
        let table = random(levels, seed);
        let mut rng = SplitMix64::seed_from_u64(seed + 1);
        let b: Vec<f64> = (0..k * n)
            .map(|_| table[rng.next_u64() as usize % levels])
            .collect();
        PackedCodes::pack_with(&b, k, n, &table, |x| {
            table
                .iter()
                .position(|&l| l == x)
                .expect("drawn from the table") as u8
        })
    }

    /// Shapes `(m, k, n)` on every branch of the code kernel: one row,
    /// each tail of 2..=7 rows, whole 8-row passes, passes plus a tail,
    /// ragged panels, `k = 1`, and products past `PAR_MIN_MACS`.
    const CODE_SHAPES: [(usize, usize, usize); 14] = [
        (1, 64, 64),
        (2, 13, 6),
        (3, 7, 16),
        (4, 16, 16),
        (5, 256, 1024),
        (6, 9, 8),
        (7, 5, 3),
        (8, 33, 40),
        (9, 13, 6),
        (19, 17, 29),
        (5, 1, 9),
        (1, 256, 1024),
        (16, 64, 512),
        (70, 64, 64),
    ];

    #[test]
    fn code_kernel_matches_decoded_panels_bitwise() {
        for (i, &(m, k, n)) in CODE_SHAPES.iter().enumerate() {
            let levels = if i % 2 == 0 { 255 } else { 15 };
            let packed = random_codes(k, n, levels, 90 + i as u64);
            let decoded = packed.decode();
            let a = random(m * k, 190 + i as u64);
            let mut want = vec![f64::NAN; m * n];
            gemm_prepacked(&a, &decoded, m, &mut want, 1);
            for threads in [1, 2, 7] {
                let mut got = vec![f64::NAN; m * n];
                gemm_codes(&a, &packed, m, &mut got, threads);
                assert_eq!(
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "m={m} k={k} n={n} levels={levels} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn all_zero_code_weight_gives_signed_zero_sums_like_the_panels() {
        // Every element decodes to the table's 0.0, so each cell is a sum
        // of signed zeros; the kernel must produce the panels' exact bits.
        let (m, k, n) = (3, 10, 11);
        let table = [0.5, 0.0, -0.5];
        let packed = PackedCodes::pack_with(&vec![0.0; k * n], k, n, &table, |_| 1);
        let a = random(m * k, 77);
        let (mut got, mut want) = (vec![f64::NAN; m * n], vec![f64::NAN; m * n]);
        gemm_codes(&a, &packed, m, &mut got, 1);
        gemm_prepacked(&a, &PackedB::pack(&vec![0.0; k * n], k, n), m, &mut want, 1);
        assert_eq!(
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn code_panels_hold_one_byte_per_element_plus_the_table() {
        let packed = random_codes(256, 1024, 255, 5);
        assert_eq!((packed.k(), packed.n()), (256, 1024));
        assert_eq!(packed.resident_bytes(), 256 * 1024 + 256 * 8);
        // A ragged last panel is stored whole.
        assert_eq!(random_codes(3, 9, 4, 6).resident_bytes(), 2 * 3 * 8 + 2048);
    }

    #[test]
    #[should_panic(expected = "at most 256 entries")]
    fn code_tables_wider_than_a_byte_are_rejected() {
        PackedCodes::pack_with(&[0.0], 1, 1, &[0.0; 257], |_| 0);
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
