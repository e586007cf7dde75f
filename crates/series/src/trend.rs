//! Trend classification (the gradient step of branch β, and the per-segment
//! trend labels of branch α).

use crate::segment::Segment;

/// Qualitative trend of a segment or series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trend {
    /// Slope below `-threshold`.
    Decreasing,
    /// Slope within `±threshold`.
    Steady,
    /// Slope above `threshold`.
    Increasing,
}

impl std::fmt::Display for Trend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Trend::Decreasing => "decreasing",
            Trend::Steady => "steady",
            Trend::Increasing => "increasing",
        };
        f.write_str(s)
    }
}

/// Least-squares slope of the whole series (per index step); `0.0` for
/// fewer than two points.
pub fn gradient(data: &[f64]) -> f64 {
    if data.len() < 2 {
        return 0.0;
    }
    Segment::fit(data, 0, data.len()).slope
}

/// Classifies a slope against a non-negative threshold.
pub fn classify_slope(slope: f64, threshold: f64) -> Trend {
    if slope > threshold {
        Trend::Increasing
    } else if slope < -threshold {
        Trend::Decreasing
    } else {
        Trend::Steady
    }
}

/// Classifies a whole series by its least-squares gradient.
///
/// # Examples
///
/// ```
/// use ivnt_series::trend::{classify, Trend};
///
/// let accelerating: Vec<f64> = (0..50).map(|i| i as f64 * 0.8).collect();
/// assert_eq!(classify(&accelerating, 0.05), Trend::Increasing);
/// assert_eq!(classify(&[7.0; 50], 0.05), Trend::Steady);
/// ```
pub fn classify(data: &[f64], threshold: f64) -> Trend {
    classify_slope(gradient(data), threshold)
}

/// Point-wise discrete gradient (`x[i] - x[i-1]`; first element `0.0`).
pub fn point_gradient(data: &[f64]) -> Vec<f64> {
    if data.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(data.len());
    out.push(0.0);
    for w in data.windows(2) {
        out.push(w[1] - w[0]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gradient_of_ramp() {
        let data: Vec<f64> = (0..10).map(|i| 3.0 * i as f64).collect();
        assert!((gradient(&data) - 3.0).abs() < 1e-9);
        assert_eq!(gradient(&[5.0]), 0.0);
        assert_eq!(gradient(&[]), 0.0);
    }

    #[test]
    fn classification_thresholds() {
        assert_eq!(classify_slope(0.5, 0.1), Trend::Increasing);
        assert_eq!(classify_slope(-0.5, 0.1), Trend::Decreasing);
        assert_eq!(classify_slope(0.05, 0.1), Trend::Steady);
        assert_eq!(classify(&[1.0, 1.0, 1.0], 0.01), Trend::Steady);
        assert_eq!(
            classify(&(0..9).map(f64::from).collect::<Vec<_>>(), 0.1),
            Trend::Increasing
        );
    }

    #[test]
    fn segment_classification() {
        let data = [0.0, 1.0, 2.0, 2.0, 2.0, 2.0];
        let segs = [Segment::fit(&data, 0, 3), Segment::fit(&data, 3, 6)];
        let trends: Vec<Trend> = segs.iter().map(|s| classify_slope(s.slope, 0.1)).collect();
        assert_eq!(trends, vec![Trend::Increasing, Trend::Steady]);
    }

    #[test]
    fn point_gradient_matches_diff() {
        assert_eq!(point_gradient(&[1.0, 3.0, 2.0]), vec![0.0, 2.0, -1.0]);
        assert!(point_gradient(&[]).is_empty());
    }

    #[test]
    fn display() {
        assert_eq!(Trend::Increasing.to_string(), "increasing");
    }
}
