//! The sentinel's exact replay against the golden reference loop: a
//! drift score means something only if the "exact" side is exactly the
//! reference product, bit for bit.

use pdac_math::rng::SplitMix64;
use pdac_math::Mat;
use pdac_verify::sentinel::exact_replay;

#[test]
fn grouped_samples_replay_blockwise() {
    let mut rng = SplitMix64::seed_from_u64(0x6E0);
    let (g, k, n) = (3, 8, 5);
    let mut random_mat = |rows, cols| Mat::from_fn(rows, cols, |_, _| rng.gen_range_f64(-1.0, 1.0));
    let a = random_mat(g, k);
    let b = random_mat(g * k, n);
    let mut exact = Mat::zeros(1, 1);
    exact_replay("grouped", &a, &b, &mut exact).unwrap();
    assert_eq!(exact.shape(), (g, n));
    // Row `g` of the replay is row `g` of `a` times stacked block `g` of
    // `b`, through the reference triple loop.
    let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for row in 0..g {
        let lhs = Mat::from_rows(1, k, a.row_slice(row).to_vec()).unwrap();
        let block = b.as_slice()[row * k * n..(row + 1) * k * n].to_vec();
        let want = lhs
            .matmul_reference(&Mat::from_rows(k, n, block).unwrap())
            .unwrap();
        assert_eq!(
            bits(exact.row_slice(row)),
            bits(want.as_slice()),
            "row {row}"
        );
    }
}
