//! Byte-size integer GEMM kernels for the quantized analog code domain.
//!
//! The analog pipeline quantizes every operand to signed byte-size codes
//! (`|code| ≤ 2^(b−1) − 1 ≤ 127` for `b ≤ 8` bits) before the drive path
//! ever sees it. When the driver's code→amplitude map is *exactly linear*
//! in the code, the whole f64 product collapses into the code domain:
//! accumulate `Σ ca·cb` in `i32` — which is **exact**, no rounding anywhere
//! — and apply the two scale factors once at the end. This module provides
//! that integer engine, mirroring [`crate::gemm`]'s structure: `B` packed
//! into [`NR_I8`]-column panels, an `MR × NR` register-tiled micro-kernel,
//! and row/column-panel threading over the persistent [`crate::pool`]
//! worker pool (`PDAC_THREADS` honored via [`crate::gemm::default_threads`]).
//!
//! Two layers of determinism, stronger than the f64 engine's:
//!
//! * Integer accumulation is associative, so results are bit-identical for
//!   **any** traversal order — any thread count, any blocking, any ISA.
//! * The packed layout pairs adjacent `k` steps (`k` rounded up to even,
//!   zero-padded) so the hot loop maps 1:1 onto the AVX-512 VNNI
//!   `vpdpwssd` instruction (i16×i16 pair dot-accumulate into i32 lanes).
//!   A portable micro-kernel over the *same* layout serves every other
//!   CPU; runtime feature detection picks the implementation per process.
//!
//! Drivers that are **not** code-linear (the P-DAC's approximated arccos,
//! the e-DAC's voltage-grid snap) keep the f64 pipeline: their modeled
//! conversion error is exactly what the integer domain would erase.
//!
//! Overflow: `i32` accumulation of byte-size products is exact while
//! `k · 127² < 2³¹`, i.e. `k ≤` [`MAX_K_I8`] ≈ 133 k — far beyond any
//! transformer contraction dimension here. Entry points assert it.

use crate::gemm::PAR_MIN_MACS;
use crate::pool::WorkerPool;
use std::sync::OnceLock;

/// Register-tile rows of the integer micro-kernel.
const MR: usize = 4;
/// Packed `B` panel width: one AVX-512 register of `i32` lanes.
pub const NR_I8: usize = 16;
/// Local alias so kernel code reads like `crate::gemm`.
const NR: usize = NR_I8;

/// Largest contraction dimension for which `i32` accumulation of
/// byte-size code products (`|code| ≤ 127`) cannot overflow.
pub const MAX_K_I8: usize = (i32::MAX as usize) / (127 * 127);

/// Whether the AVX-512 VNNI micro-kernel is available on this CPU.
/// Cached per process; both implementations are bit-identical, so this
/// only ever affects speed.
fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVAIL: OnceLock<bool> = OnceLock::new();
        *AVAIL.get_or_init(|| {
            is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vnni")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(target_arch = "x86_64")]
mod simd {
    use super::{MR, NR};
    use std::arch::x86_64::*;

    /// VNNI `MR × NR` micro-kernel: each `k` pair broadcasts two adjacent
    /// `A` codes as one `i32` against a 32-value interleaved `B` stripe;
    /// `vpdpwssd` multiplies the i16 pairs and accumulates both products
    /// into the matching i32 lane in one instruction.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F + AVX-512VNNI (guard with
    /// [`super::simd_available`]). `a_rows` slices must hold at least
    /// `kp` values each; `panel` at least `kp * NR`; `kp` must be even.
    #[target_feature(enable = "avx512f", enable = "avx512vnni")]
    pub unsafe fn micro_i8(a_rows: [&[i16]; MR], panel: &[i16], kp: usize) -> [[i32; NR]; MR] {
        let mut acc = [_mm512_setzero_si512(); MR];
        for kk2 in 0..kp / 2 {
            let stripe = _mm512_loadu_si512(panel.as_ptr().add(kk2 * 2 * NR) as *const _);
            for (acc_v, a_row) in acc.iter_mut().zip(&a_rows) {
                let pair = (a_row.as_ptr().add(kk2 * 2) as *const i32).read_unaligned();
                *acc_v = _mm512_dpwssd_epi32(*acc_v, _mm512_set1_epi32(pair), stripe);
            }
        }
        let mut out = [[0i32; NR]; MR];
        for (row, acc_v) in out.iter_mut().zip(&acc) {
            _mm512_storeu_si512(row.as_mut_ptr() as *mut _, *acc_v);
        }
        out
    }

    /// Single-row VNNI variant for the `m % MR` tail.
    ///
    /// # Safety
    ///
    /// Same contract as [`micro_i8`].
    #[target_feature(enable = "avx512f", enable = "avx512vnni")]
    pub unsafe fn micro_i8_row(a_row: &[i16], panel: &[i16], kp: usize) -> [i32; NR] {
        let mut acc = _mm512_setzero_si512();
        for kk2 in 0..kp / 2 {
            let stripe = _mm512_loadu_si512(panel.as_ptr().add(kk2 * 2 * NR) as *const _);
            let pair = (a_row.as_ptr().add(kk2 * 2) as *const i32).read_unaligned();
            acc = _mm512_dpwssd_epi32(acc, _mm512_set1_epi32(pair), stripe);
        }
        let mut out = [0i32; NR];
        _mm512_storeu_si512(out.as_mut_ptr() as *mut _, acc);
        out
    }
}

/// Portable `MR × NR` micro-kernel over the same pair-interleaved panel
/// layout the VNNI kernel reads — integer arithmetic is exact, so the two
/// implementations agree bit for bit.
#[inline]
fn micro_i8_portable(a_rows: [&[i16]; MR], panel: &[i16], kp: usize) -> [[i32; NR]; MR] {
    let mut acc = [[0i32; NR]; MR];
    for kk2 in 0..kp / 2 {
        let stripe: &[i16; 2 * NR] = panel[kk2 * 2 * NR..kk2 * 2 * NR + 2 * NR]
            .try_into()
            .expect("stripe");
        for (acc_row, a_row) in acc.iter_mut().zip(&a_rows) {
            let a0 = a_row[kk2 * 2] as i32;
            let a1 = a_row[kk2 * 2 + 1] as i32;
            for (j, cell) in acc_row.iter_mut().enumerate() {
                *cell += a0 * stripe[j * 2] as i32 + a1 * stripe[j * 2 + 1] as i32;
            }
        }
    }
    acc
}

/// Single-row portable variant for the `m % MR` tail.
#[inline]
fn micro_i8_portable_row(a_row: &[i16], panel: &[i16], kp: usize) -> [i32; NR] {
    let mut acc = [0i32; NR];
    for kk2 in 0..kp / 2 {
        let stripe: &[i16; 2 * NR] = panel[kk2 * 2 * NR..kk2 * 2 * NR + 2 * NR]
            .try_into()
            .expect("stripe");
        let a0 = a_row[kk2 * 2] as i32;
        let a1 = a_row[kk2 * 2 + 1] as i32;
        for (j, cell) in acc.iter_mut().enumerate() {
            *cell += a0 * stripe[j * 2] as i32 + a1 * stripe[j * 2 + 1] as i32;
        }
    }
    acc
}

#[inline]
fn run_micro(a_rows: [&[i16]; MR], panel: &[i16], kp: usize, simd: bool) -> [[i32; NR]; MR] {
    #[cfg(target_arch = "x86_64")]
    if simd {
        // SAFETY: `simd` is only true when `simd_available` detected
        // AVX-512F + VNNI, and callers uphold the slice-length contract.
        return unsafe { simd::micro_i8(a_rows, panel, kp) };
    }
    let _ = simd;
    micro_i8_portable(a_rows, panel, kp)
}

#[inline]
fn run_micro_row(a_row: &[i16], panel: &[i16], kp: usize, simd: bool) -> [i32; NR] {
    #[cfg(target_arch = "x86_64")]
    if simd {
        // SAFETY: as in `run_micro`.
        return unsafe { simd::micro_i8_row(a_row, panel, kp) };
    }
    let _ = simd;
    micro_i8_portable_row(a_row, panel, kp)
}

/// Code matrix `B` packed once into pair-interleaved [`NR_I8`]-column
/// panels for repeated integer products (the weight side of every
/// projection). Panel `p` holds columns `p·NR ..` as `kp/2` stripes of
/// `2·NR` i16 values, adjacent `k` steps interleaved per column
/// (`stripe[2j] = b[2kk2][j]`, `stripe[2j+1] = b[2kk2+1][j]`), with `k`
/// rounded up to even (`kp`) and ragged tails zero-padded. The layout
/// feeds one `vpdpwssd` per stripe; the portable kernel reads it too.
#[derive(Debug, Clone)]
pub struct PackedBi8 {
    bp: Vec<i16>,
    k: usize,
    kp: usize,
    n: usize,
}

impl PackedBi8 {
    /// Packs row-major code matrix `b` (`k × n`, `|code| ≤ 127`).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != k * n` or `k > MAX_K_I8`.
    pub fn pack(b: &[i16], k: usize, n: usize) -> Self {
        assert_eq!(b.len(), k * n, "rhs length");
        assert!(k <= MAX_K_I8, "k={k} overflows i32 code accumulation");
        let kp = k.div_ceil(2) * 2;
        let panels = n.div_ceil(NR);
        let mut bp = vec![0i16; panels * kp * NR];
        for (kk, b_row) in b.chunks_exact(n).enumerate() {
            debug_assert!(b_row.iter().all(|&c| (-127..=127).contains(&c)));
            for (p, cols) in b_row.chunks(NR).enumerate() {
                let at = p * kp * NR + (kk / 2) * 2 * NR + (kk % 2);
                for (j, &c) in cols.iter().enumerate() {
                    bp[at + j * 2] = c;
                }
            }
        }
        Self { bp, k, kp, n }
    }

    /// Inner (contraction) dimension of the packed matrix.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Column count of the packed matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Packed size in bytes (the weight-cache memory accounting hook).
    pub fn packed_bytes(&self) -> usize {
        self.bp.len() * std::mem::size_of::<i16>()
    }
}

/// Multiplies a row panel of padded `A` codes (`rows × kp`, row-major) by
/// packed panels into the matching output panel (`rows × n`, overwritten).
fn gemm_panel_i8(
    a_panel: &[i16],
    bp: &[i16],
    kp: usize,
    n: usize,
    out_panel: &mut [i32],
    simd: bool,
) {
    let rows = out_panel.len().checked_div(n).unwrap_or(0);
    let panel_len = kp * NR;
    let mut r = 0;
    while r + MR <= rows {
        let a_rows = [
            &a_panel[r * kp..(r + 1) * kp],
            &a_panel[(r + 1) * kp..(r + 2) * kp],
            &a_panel[(r + 2) * kp..(r + 3) * kp],
            &a_panel[(r + 3) * kp..(r + 4) * kp],
        ];
        for (p, panel) in bp.chunks_exact(panel_len).enumerate() {
            let c = p * NR;
            let w = NR.min(n - c);
            let acc = run_micro(a_rows, panel, kp, simd);
            for (i, acc_row) in acc.iter().enumerate() {
                out_panel[(r + i) * n + c..(r + i) * n + c + w].copy_from_slice(&acc_row[..w]);
            }
        }
        r += MR;
    }
    while r < rows {
        let a_row = &a_panel[r * kp..(r + 1) * kp];
        for (p, panel) in bp.chunks_exact(panel_len).enumerate() {
            let c = p * NR;
            let w = NR.min(n - c);
            let acc = run_micro_row(a_row, panel, kp, simd);
            out_panel[r * n + c..r * n + c + w].copy_from_slice(&acc[..w]);
        }
        r += 1;
    }
}

/// Zero-pads each `k`-length row of `a` to stride `kp` (no-op copy
/// avoided by callers when `kp == k`).
fn pad_rows(a: &[i16], m: usize, k: usize, kp: usize) -> Vec<i16> {
    let mut ap = vec![0i16; m * kp];
    for (src, dst) in a.chunks_exact(k).zip(ap.chunks_exact_mut(kp)) {
        dst[..k].copy_from_slice(src);
    }
    ap
}

/// A `*mut i32` that may cross thread boundaries; every user hands
/// disjoint index ranges to each pool task.
#[derive(Clone, Copy)]
struct SendPtrI32(*mut i32);

impl SendPtrI32 {
    #[inline]
    fn get(self) -> *mut i32 {
        self.0
    }
}

// SAFETY: see the struct docs — all uses partition the output buffer
// into disjoint per-task regions.
unsafe impl Send for SendPtrI32 {}
unsafe impl Sync for SendPtrI32 {}

/// Computes the exact `m × n` integer code product of row-major `a`
/// (`m × k`) and prepacked `b` into `out` (fully overwritten):
/// `out[r][c] = Σ_k a[r][k] · b[k][c]` in `i32`, using up to `threads`
/// pool workers. Bit-identical for every thread count and ISA (integer
/// accumulation is exact).
///
/// # Panics
///
/// Panics if slice lengths disagree with the packed dimensions.
pub fn gemm_i8_prepacked(a: &[i16], b: &PackedBi8, m: usize, out: &mut [i32], threads: usize) {
    let (k, kp, n) = (b.k, b.kp, b.n);
    assert_eq!(a.len(), m * k, "lhs length");
    assert_eq!(out.len(), m * n, "output length");
    let simd = simd_available();
    let padded;
    let a_panel: &[i16] = if kp == k {
        a
    } else {
        padded = pad_rows(a, m, k, kp);
        &padded
    };
    let macs = m * k * n;
    let threads = if macs >= PAR_MIN_MACS { threads } else { 1 };
    if m == 1 {
        let threads = threads.clamp(1, n.div_ceil(NR));
        if threads == 1 {
            gemm_panel_i8(a_panel, &b.bp, kp, n, out, simd);
            return;
        }
        // Column split at panel granularity: each task owns a contiguous
        // run of packed panels and the matching output columns.
        let panels = n.div_ceil(NR);
        let panels_per = panels.div_ceil(threads);
        let tasks = panels.div_ceil(panels_per);
        let panel_len = kp * NR;
        let bp = &b.bp;
        let out_ptr = SendPtrI32(out.as_mut_ptr());
        WorkerPool::global().run(tasks, &move |t| {
            let p0 = t * panels_per;
            let c0 = p0 * NR;
            let width = (panels_per * NR).min(n - c0);
            // SAFETY: column chunks are disjoint per task index.
            let out_chunk = unsafe { std::slice::from_raw_parts_mut(out_ptr.get().add(c0), width) };
            let bp_chunk = &bp[p0 * panel_len..((p0 + panels_per).min(panels)) * panel_len];
            gemm_panel_i8(a_panel, bp_chunk, kp, width, out_chunk, simd);
        });
        return;
    }
    let threads = threads.clamp(1, m);
    if threads == 1 {
        gemm_panel_i8(a_panel, &b.bp, kp, n, out, simd);
        return;
    }
    let rows_per = m.div_ceil(threads);
    let tasks = m.div_ceil(rows_per);
    let bp = &b.bp;
    let out_ptr = SendPtrI32(out.as_mut_ptr());
    WorkerPool::global().run(tasks, &move |t| {
        let r0 = t * rows_per;
        let rows = rows_per.min(m - r0);
        // SAFETY: row panels are disjoint per task index.
        let out_panel =
            unsafe { std::slice::from_raw_parts_mut(out_ptr.get().add(r0 * n), rows * n) };
        gemm_panel_i8(
            &a_panel[r0 * kp..(r0 + rows) * kp],
            bp,
            kp,
            n,
            out_panel,
            simd,
        );
    });
}

/// Packs `b` and runs [`gemm_i8_prepacked`] — the transient-operand entry
/// point (per-step attention scores/values, where `B` changes every call).
///
/// # Panics
///
/// Panics if slice lengths disagree with the given dimensions or
/// `k > MAX_K_I8`.
pub fn gemm_i8(
    a: &[i16],
    b: &[i16],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [i32],
    threads: usize,
) {
    let packed = PackedBi8::pack(b, k, n);
    gemm_i8_prepacked(a, &packed, m, out, threads);
}

/// One grouped row: exact ascending-`k` axpy in `i32` (ordering is
/// irrelevant for exact integer sums; axpy autovectorizes without a
/// packing pass, which transient per-group operands would not amortize).
#[inline]
fn grouped_row_i8(a_row: &[i16], b_block: &[i16], n: usize, out_row: &mut [i32]) {
    out_row.fill(0);
    for (&a_k, b_row) in a_row.iter().zip(b_block.chunks_exact(n)) {
        let a_v = a_k as i32;
        for (o, &bv) in out_row.iter_mut().zip(b_row) {
            *o += a_v * bv as i32;
        }
    }
}

/// Grouped integer row products mirroring [`crate::gemm::gemm_grouped`]:
/// row `g` of `a` (`groups × k`) times block `g` of `b` (`groups` stacked
/// `k × n` blocks) into row `g` of `out` — the batched-attention shape
/// where every group has its own transient right operand.
///
/// # Panics
///
/// Panics if slice lengths disagree with the given dimensions or
/// `k > MAX_K_I8`.
pub fn gemm_i8_grouped(
    a: &[i16],
    b: &[i16],
    groups: usize,
    k: usize,
    n: usize,
    out: &mut [i32],
    threads: usize,
) {
    assert_eq!(a.len(), groups * k, "lhs length");
    assert_eq!(b.len(), groups * k * n, "rhs length");
    assert_eq!(out.len(), groups * n, "output length");
    assert!(k <= MAX_K_I8, "k={k} overflows i32 code accumulation");
    if groups == 0 {
        return;
    }
    let macs = groups * k * n;
    let threads = if macs >= PAR_MIN_MACS {
        threads.clamp(1, groups)
    } else {
        1
    };
    if threads == 1 {
        for g in 0..groups {
            grouped_row_i8(
                &a[g * k..(g + 1) * k],
                &b[g * k * n..(g + 1) * k * n],
                n,
                &mut out[g * n..(g + 1) * n],
            );
        }
        return;
    }
    let rows_per = groups.div_ceil(threads);
    let tasks = groups.div_ceil(rows_per);
    let out_ptr = SendPtrI32(out.as_mut_ptr());
    WorkerPool::global().run(tasks, &move |t| {
        let g0 = t * rows_per;
        let rows = rows_per.min(groups - g0);
        for g in g0..g0 + rows {
            // SAFETY: group rows are disjoint per task index.
            let out_row = unsafe { std::slice::from_raw_parts_mut(out_ptr.get().add(g * n), n) };
            grouped_row_i8(
                &a[g * k..(g + 1) * k],
                &b[g * k * n..(g + 1) * k * n],
                n,
                out_row,
            );
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn random_codes(len: usize, seed: u64) -> Vec<i16> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        (0..len)
            .map(|_| (rng.gen_range_f64(-127.0, 128.0).floor() as i16).clamp(-127, 127))
            .collect()
    }

    fn reference(a: &[i16], b: &[i16], m: usize, k: usize, n: usize) -> Vec<i32> {
        let mut out = vec![0i32; m * n];
        for r in 0..m {
            for kk in 0..k {
                let x = a[r * k + kk] as i32;
                for c in 0..n {
                    out[r * n + c] += x * b[kk * n + c] as i32;
                }
            }
        }
        out
    }

    // Rectangular, prime, and degenerate shapes (satellite: property
    // tests across thread counts 1/2/7).
    const SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (1, 64, 64),
        (1, 128, 640),
        (2, 100, 3),
        (3, 31, 1),
        (4, 4, 4),
        (5, 7, 3),
        (7, 1, 7),
        (13, 17, 19),
        (16, 16, 16),
        (33, 17, 29),
        (47, 53, 61),
        (64, 64, 64),
        (65, 64, 129),
    ];

    #[test]
    fn integer_kernel_matches_reference_for_all_shapes_and_threads() {
        for &(m, k, n) in SHAPES {
            let a = random_codes(m * k, 900 + (m * k) as u64);
            let b = random_codes(k * n, 901 + (k * n) as u64);
            let want = reference(&a, &b, m, k, n);
            for threads in [1, 2, 7] {
                let mut got = vec![i32::MIN; m * n];
                gemm_i8(&a, &b, m, k, n, &mut got, threads);
                assert_eq!(got, want, "m={m} k={k} n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn prepacked_matches_packing_entry() {
        for &(m, k, n) in &[(1, 128, 640), (5, 7, 3), (33, 17, 29), (65, 64, 129)] {
            let a = random_codes(m * k, 70);
            let b = random_codes(k * n, 71);
            let packed = PackedBi8::pack(&b, k, n);
            assert_eq!((packed.k(), packed.n()), (k, n));
            assert!(packed.packed_bytes() >= k * n * 2);
            for threads in [1, 2, 7] {
                let mut plain = vec![0i32; m * n];
                let mut pre = vec![0i32; m * n];
                gemm_i8(&a, &b, m, k, n, &mut plain, threads);
                gemm_i8_prepacked(&a, &packed, m, &mut pre, threads);
                assert_eq!(pre, plain, "m={m} k={k} n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn portable_and_simd_micro_kernels_agree() {
        if !simd_available() {
            return; // portable path is the reference on this machine
        }
        for &(m, k, n) in &[(8, 34, 32), (5, 7, 19), (4, 2, 16)] {
            let a = random_codes(m * k, 81);
            let b = random_codes(k * n, 82);
            let packed = PackedBi8::pack(&b, k, n);
            let kp = packed.kp;
            let ap = pad_rows(&a, m, k, kp);
            let mut via_simd = vec![0i32; m * n];
            let mut via_portable = vec![0i32; m * n];
            gemm_panel_i8(&ap, &packed.bp, kp, n, &mut via_simd, true);
            gemm_panel_i8(&ap, &packed.bp, kp, n, &mut via_portable, false);
            assert_eq!(via_simd, via_portable, "m={m} k={k} n={n}");
        }
    }

    #[test]
    fn grouped_matches_per_group_reference() {
        for &(g, k, n) in &[
            (1, 16, 16),
            (3, 7, 5),
            (8, 32, 96),
            (16, 64, 512),
            (5, 1, 9),
        ] {
            let a = random_codes(g * k, 60 + g as u64);
            let b = random_codes(g * k * n, 61 + (k * n) as u64);
            let mut want = vec![0i32; g * n];
            for r in 0..g {
                let row = reference(
                    &a[r * k..(r + 1) * k],
                    &b[r * k * n..(r + 1) * k * n],
                    1,
                    k,
                    n,
                );
                want[r * n..(r + 1) * n].copy_from_slice(&row);
            }
            for threads in [1, 2, 7] {
                let mut got = vec![i32::MIN; g * n];
                gemm_i8_grouped(&a, &b, g, k, n, &mut got, threads);
                assert_eq!(got, want, "g={g} k={k} n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn grouped_zero_groups_is_noop() {
        let mut out: Vec<i32> = vec![];
        gemm_i8_grouped(&[], &[], 0, 4, 4, &mut out, 4);
        assert!(out.is_empty());
    }

    #[test]
    fn extreme_codes_do_not_overflow() {
        let (m, k, n) = (2, 257, 3);
        let a = vec![127i16; m * k];
        let b = vec![-127i16; k * n];
        let mut got = vec![0i32; m * n];
        gemm_i8(&a, &b, m, k, n, &mut got, 1);
        assert!(got.iter().all(|&v| v == 257 * 127 * -127));
    }

    #[test]
    fn max_k_guard_is_sane() {
        const { assert!(MAX_K_I8 > 100_000) };
        assert!((MAX_K_I8 as i64) * 127 * 127 <= i32::MAX as i64);
        assert!(((MAX_K_I8 + 1) as i64) * 127 * 127 > i32::MAX as i64);
    }
}
