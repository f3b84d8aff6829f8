//! Thread-count determinism of the GEMM engine.
//!
//! `scripts/ci.sh` runs this suite twice — under `PDAC_THREADS=1` and
//! `PDAC_THREADS=8` — so the env-driven default path is exercised at both
//! extremes in separate processes (the thread count is cached per
//! process). Within one process the explicit-thread-count API must agree
//! with the reference loop bit for bit at every count.

use pdac_math::rng::SplitMix64;
use pdac_math::Mat;

fn random_mat(rows: usize, cols: usize, seed: u64) -> Mat {
    let mut rng = SplitMix64::seed_from_u64(seed);
    Mat::from_fn(rows, cols, |_, _| rng.gen_range_f64(-3.0, 3.0))
}

#[test]
fn gemm_outputs_bit_identical_across_thread_counts() {
    for (m, k, n, seed) in [
        (64, 64, 64, 1u64),
        (100, 37, 51, 2),
        (7, 129, 30, 3),
        (1, 256, 192, 4),
        (130, 130, 130, 5),
    ] {
        let a = random_mat(m, k, seed);
        let b = random_mat(k, n, seed + 100);
        let reference = a.matmul_reference(&b).unwrap();
        // The env-driven default (PDAC_THREADS when set).
        assert_eq!(a.matmul(&b).unwrap(), reference, "{m}x{k}x{n} default");
        // Every explicit thread count, including oversubscription.
        for threads in [1, 2, 3, 8, 16] {
            assert_eq!(
                a.matmul_with_threads(&b, threads).unwrap(),
                reference,
                "{m}x{k}x{n} threads={threads}"
            );
        }
    }
}

#[test]
fn matvec_outputs_bit_identical_across_thread_counts() {
    for (m, k, seed) in [(64, 64, 11u64), (300, 257, 12), (1, 500, 13)] {
        let a = random_mat(m, k, seed);
        let v: Vec<f64> = random_mat(1, k, seed + 50).row(0);
        assert_eq!(
            a.matvec(&v).unwrap(),
            a.matvec_reference(&v).unwrap(),
            "{m}x{k}"
        );
    }
}

#[test]
fn matmul_into_bit_identical_and_reuses_allocation() {
    // The in-place form shares the kernel with matmul, so it inherits the
    // same determinism obligation — including when the output buffer is
    // recycled across differently shaped products.
    let mut out = Mat::zeros(1, 1);
    for (m, k, n, seed) in [
        (64, 64, 64, 21u64),
        (100, 37, 51, 22),
        (7, 129, 30, 23),
        (1, 256, 192, 24),
    ] {
        let a = random_mat(m, k, seed);
        let b = random_mat(k, n, seed + 100);
        let reference = a.matmul_reference(&b).unwrap();
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out, reference, "{m}x{k}x{n} into");
        assert_eq!(out.shape(), (m, n), "{m}x{k}x{n} reshaped");
    }
}

#[test]
fn rectangular_and_degenerate_shapes_bit_identical() {
    // Extreme aspect ratios and prime dimensions defeat every blocking
    // assumption in the tuned kernel: single cells, single rows/columns,
    // deep inner products, and block-unaligned prime sizes must all still
    // agree with the reference loop bit for bit at every thread count.
    let mut out = Mat::zeros(1, 1);
    for (m, k, n, seed) in [
        (1, 1, 1, 31u64),  // single cell
        (1, 1, 64, 32),    // outer-product row
        (64, 1, 1, 33),    // outer-product column
        (1, 512, 1, 34),   // deep dot product
        (2, 3, 2, 35),     // smaller than any block
        (7, 13, 31, 36),   // prime everywhere
        (31, 7, 13, 37),   // prime, permuted
        (129, 2, 127, 38), // thin inner dimension, prime edges
    ] {
        let a = random_mat(m, k, seed);
        let b = random_mat(k, n, seed + 100);
        let reference = a.matmul_reference(&b).unwrap();
        assert_eq!(a.matmul(&b).unwrap(), reference, "{m}x{k}x{n} default");
        for threads in [1, 2, 8, 16] {
            assert_eq!(
                a.matmul_with_threads(&b, threads).unwrap(),
                reference,
                "{m}x{k}x{n} threads={threads}"
            );
        }
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out, reference, "{m}x{k}x{n} into");
        if n == 1 {
            // Column matrices double as matvec inputs; the two kernels
            // must agree on the same data.
            let v = b.col(0);
            assert_eq!(
                a.matvec(&v).unwrap(),
                reference.col(0),
                "{m}x{k} matvec-vs-gemm"
            );
        }
    }
}

#[test]
fn zero_dimension_matrices_are_rejected_at_construction() {
    // Degenerate 0×N shapes are unrepresentable by design: Mat::zeros
    // refuses them, so no kernel ever sees an empty operand.
    let err = std::panic::catch_unwind(|| Mat::zeros(0, 4));
    assert!(err.is_err(), "0-row matrix must be rejected");
    let err = std::panic::catch_unwind(|| Mat::zeros(4, 0));
    assert!(err.is_err(), "0-col matrix must be rejected");
}

#[test]
fn one_row_code_product_bit_identical_across_thread_counts() {
    // One row at or above PAR_MIN_MACS splits its code panels across the
    // pool, as the exact single-row product splits its columns; every
    // cell must keep the reference loop's bits at every thread count.
    use pdac_math::gemm::{gemm_codes, PackedCodes, PAR_MIN_MACS};
    // Dyadic levels, so a level maps back to its code exactly.
    let levels: Vec<f64> = (0..255).map(|i| (f64::from(i) - 127.0) / 64.0).collect();
    let code = |x: f64| (x * 64.0 + 127.0) as u8;
    for (k, n, seed) in [(256, 1024, 41u64), (300, 1031, 42)] {
        assert!(k * n >= PAR_MIN_MACS);
        let mut rng = SplitMix64::seed_from_u64(seed);
        let w = Mat::from_fn(k, n, |_, _| levels[rng.gen_range_usize(0, 254)]);
        let packed = PackedCodes::pack_with(w.as_slice(), k, n, &levels, code);
        let a = random_mat(1, k, seed + 100);
        let reference = a.matmul_reference(&w).unwrap();
        // The env-driven default (PDAC_THREADS when set).
        let mut out = Mat::zeros(1, 1);
        a.matmul_codes_into(&packed, &mut out).unwrap();
        assert_eq!(out, reference, "1x{k}x{n} default");
        for threads in [1, 2, 3, 8, 16] {
            let mut got = Mat::zeros(1, n);
            gemm_codes(a.as_slice(), &packed, 1, got.as_mut_slice(), threads);
            assert_eq!(got, reference, "1x{k}x{n} threads={threads}");
        }
    }
}
