//! Heap allocations per warm analog GEMM call, counted exactly by a
//! counting global allocator. The count is work, not time: it is the
//! same on every host.
//!
//! A warm call on a cached weight converts its activation into two
//! buffers (codes and values); a grouped transient call converts both
//! operands, so four. Shapes stay below `PAR_MIN_MACS`, so no kernel
//! dispatches to the worker pool, and telemetry, the drift tap and the
//! energy meter are off, as they are by default.

use pdac_core::pdac::PDac;
use pdac_math::gemm::PAR_MIN_MACS;
use pdac_math::rng::SplitMix64;
use pdac_math::Mat;
use pdac_nn::gemm::{AnalogGemm, GemmBackend};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting each allocation on the calling
/// thread, so tests running in parallel do not see each other's.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot may be gone while the thread exits.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the count itself touches only
// a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

fn random_mat(rows: usize, cols: usize, seed: u64) -> Mat {
    let mut rng = SplitMix64::seed_from_u64(seed);
    Mat::from_fn(rows, cols, |_, _| rng.gen_range_f64(-1.0, 1.0))
}

fn pdac8() -> AnalogGemm {
    AnalogGemm::new(PDac::with_optimal_approx(8).unwrap(), "pdac8")
}

#[test]
fn warm_batch_call_allocates_codes_and_values_once() {
    let (m, k, n) = (8, 64, 48);
    assert!(m * k * n < PAR_MIN_MACS);
    let (a, w) = (random_mat(m, k, 1), random_mat(k, n, 2));
    let backend = pdac8();
    let mut out = Mat::zeros(1, 1);
    // The first call converts the weight into the cache and sizes `out`.
    backend.matmul_batch_into(&a, &w, &mut out);
    for _ in 0..3 {
        let count = allocations(|| backend.matmul_batch_into(&a, &w, &mut out));
        assert_eq!(count, 2, "matmul_batch_into");
    }
    assert_eq!((backend.cache().misses(), backend.cache().hits()), (1, 3));
}

#[test]
fn warm_grouped_call_allocates_codes_and_values_per_operand() {
    let (g, k, n) = (4, 16, 40);
    assert!(g * k * n < PAR_MIN_MACS);
    let (a, b) = (random_mat(g, k, 3), random_mat(g * k, n, 4));
    let backend = pdac8();
    let mut out = Mat::zeros(1, 1);
    backend.matmul_grouped_transient_into(&a, &b, &mut out);
    for _ in 0..3 {
        let count = allocations(|| backend.matmul_grouped_transient_into(&a, &b, &mut out));
        assert_eq!(count, 4, "matmul_grouped_transient_into");
    }
}
