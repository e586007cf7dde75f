//! Sample statistics: median, quartiles, and the tail-percentile rule.

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// On an empty slice — every caller holds at least one sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(q1, q2, q3)` exactly as Python's `statistics.quantiles(values, n=4)`
/// (the "exclusive" method) — the rule the acceptance check applies to
/// run-to-run spread. `None` below two samples, where it is undefined.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        // Signed: the clamp can push `j` past `i*m/4` for tiny samples.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Interquartile range as a share of the median; 0 below two samples.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q2, q3)) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

/// The highest whole percentile that still has at least ten samples beyond
/// it: p90 at n = 100, p66 at n = 30. `None` when that percentile would not
/// lie above the median (n = 12 leaves only p16) — a tail figure resting on
/// fewer than ten samples is noise, so none is printed.
pub fn tail_percentile(n: usize) -> Option<u32> {
    let p = (100 * n.saturating_sub(10)).checked_div(n)? as u32;
    (p > 50).then_some(p)
}

/// Nearest-rank value of percentile `p` (1..=100).
pub fn percentile(values: &[f64], p: u32) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p as usize * v.len()).div_ceil(100).clamp(1, v.len());
    v[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some((1.5, 4.0, 12.0))
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&[1.0]), 0.0);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(30), Some(66));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(21), Some(52));
        assert_eq!(tail_percentile(20), None);
        assert_eq!(tail_percentile(12), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn percentile_leaves_the_promised_tail() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90), 90.0); // 91..=100 lie beyond: ten samples
        let v: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(percentile(&v, 66), 20.0); // 21..=30 lie beyond
        assert_eq!(percentile(&[5.0], 99), 5.0);
    }
}
