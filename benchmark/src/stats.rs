//! Order statistics over raw samples.

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample such that at least `p`% of all samples are ≤ it. Always a
/// measured value, never an interpolation or a bucket edge.
///
/// # Panics
///
/// Panics if `sorted` is empty or `p` is outside `0..=100`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((0.0..=100.0).contains(&p), "percentile {p} outside 0..=100");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy of `samples` ascending.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// `(q1, median, q3)` by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads computed here match the ones a reader computes from the
/// result files. A single value is its own quartiles.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    assert!(!v.is_empty(), "quartiles of no values");
    if v.len() == 1 {
        return (v[0], v[0], v[0]);
    }
    let m = v.len() + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Median by the same rule as [`quartiles`].
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_sorted_samples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Ten samples: p90 is the 9th, p99 the 10th.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 90.0), 9.0);
        assert_eq!(percentile(&ten, 99.0), 10.0);
    }

    #[test]
    fn nearest_rank_with_one_sample_and_ties() {
        assert_eq!(percentile(&[7.5], 1.0), 7.5);
        assert_eq!(percentile(&[7.5], 99.0), 7.5);
        let ties = sorted(&[3.0, 1.0, 3.0, 3.0, 2.0]);
        assert_eq!(percentile(&ties, 50.0), 3.0);
        assert_eq!(percentile(&ties, 40.0), 2.0);
        assert_eq!(percentile(&ties, 20.0), 1.0);
        // Every percentile of a sample set is one of its samples.
        for p in 0..=100 {
            assert!(ties.contains(&percentile(&ties, f64::from(p))));
        }
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
        assert_eq!(median(&[1.0, 9.0, 3.0]), 3.0);
    }
}
