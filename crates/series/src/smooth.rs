//! Smoothing filters applied before segmentation in branch α.

/// Centered moving average with the given odd-effective window.
///
/// Window edges shrink near the series boundaries so output length equals
/// input length. `window == 0` or `1` returns the input unchanged.
pub fn moving_average(data: &[f64], window: usize) -> Vec<f64> {
    if window <= 1 || data.is_empty() {
        return data.to_vec();
    }
    let half = window / 2;
    (0..data.len())
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(data.len());
            data[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect()
}

/// Exponential smoothing with factor `alpha` in `(0, 1]`.
///
/// `alpha == 1` returns the input unchanged; the first output equals the
/// first input.
///
/// # Panics
///
/// Panics in debug builds for `alpha` outside `(0, 1]`.
pub fn exponential(data: &[f64], alpha: f64) -> Vec<f64> {
    debug_assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
    let mut out = Vec::with_capacity(data.len());
    let mut state = None;
    for &x in data {
        let next = match state {
            None => x,
            Some(prev) => alpha * x + (1.0 - alpha) * prev,
        };
        out.push(next);
        state = Some(next);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moving_average_flattens_noise() {
        let data = [0.0, 2.0, 0.0, 2.0, 0.0, 2.0];
        let smoothed = moving_average(&data, 3);
        assert_eq!(smoothed.len(), data.len());
        // Interior points average to ~2/3..4/3 band.
        for &v in &smoothed[1..5] {
            assert!(v > 0.5 && v < 1.5);
        }
    }

    #[test]
    fn moving_average_window_one_is_identity() {
        let data = [1.0, 5.0, 9.0];
        assert_eq!(moving_average(&data, 1), data.to_vec());
        assert_eq!(moving_average(&data, 0), data.to_vec());
        assert!(moving_average(&[], 3).is_empty());
    }

    #[test]
    fn moving_average_preserves_constant() {
        assert_eq!(moving_average(&[4.0; 10], 5), vec![4.0; 10]);
    }

    #[test]
    fn exponential_tracks_level() {
        let out = exponential(&[10.0; 20], 0.3);
        assert!(out.iter().all(|&v| (v - 10.0).abs() < 1e-12));
        let out = exponential(&[0.0, 10.0], 0.5);
        assert_eq!(out, vec![0.0, 5.0]);
        let out = exponential(&[1.0, 2.0, 3.0], 1.0);
        assert_eq!(out, vec![1.0, 2.0, 3.0]);
    }
}
