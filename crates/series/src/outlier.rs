//! Outlier detection for branches α and β.
//!
//! The paper removes outliers before smoothing/segmentation and *merges them
//! back* afterwards as potential errors (Sec. 4.2, Sec. 4.4 bullet 1). Each
//! detector returns a boolean mask (`true` = outlier) so callers can split
//! and re-merge.

use crate::stats::{mad, mean, median, quantile, std_dev};

/// Marks values whose z-score magnitude exceeds `threshold`.
///
/// A (near-)constant series yields no outliers.
pub fn zscore_outliers(data: &[f64], threshold: f64) -> Vec<bool> {
    let m = mean(data);
    let s = std_dev(data);
    if s < 1e-12 {
        return vec![false; data.len()];
    }
    data.iter()
        .map(|&x| ((x - m) / s).abs() > threshold)
        .collect()
}

/// Hampel filter: marks values deviating more than `n_sigmas` robust sigmas
/// (MAD-based) from the rolling median of a centered window.
///
/// Robust against masking: a spike does not inflate the local scale
/// estimate the way it inflates a standard deviation.
///
/// # Examples
///
/// ```
/// use ivnt_series::outlier::hampel_outliers;
///
/// let mut speed = vec![50.0; 20];
/// speed[10] = 800.0; // sensor glitch
/// let mask = hampel_outliers(&speed, 5, 3.0);
/// assert!(mask[10]);
/// assert_eq!(mask.iter().filter(|&&m| m).count(), 1);
/// ```
pub fn hampel_outliers(data: &[f64], window: usize, n_sigmas: f64) -> Vec<bool> {
    if data.is_empty() {
        return Vec::new();
    }
    let half = (window / 2).max(1);
    (0..data.len())
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(data.len());
            let win = &data[lo..hi];
            let med = median(win);
            let sigma = mad(win);
            if sigma < 1e-12 {
                // Constant neighbourhood: any deviation is an outlier.
                (data[i] - med).abs() > 1e-12
            } else {
                (data[i] - med).abs() > n_sigmas * sigma
            }
        })
        .collect()
}

/// Tukey's fences: marks values outside `[Q1 - k*IQR, Q3 + k*IQR]`.
pub fn iqr_outliers(data: &[f64], k: f64) -> Vec<bool> {
    if data.is_empty() {
        return Vec::new();
    }
    let q1 = quantile(data, 0.25);
    let q3 = quantile(data, 0.75);
    let iqr = q3 - q1;
    let lo = q1 - k * iqr;
    let hi = q3 + k * iqr;
    data.iter().map(|&x| x < lo || x > hi).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_spike() -> Vec<f64> {
        let mut d: Vec<f64> = (0..50).map(|i| (i as f64 * 0.3).sin()).collect();
        d[25] = 40.0;
        d
    }

    #[test]
    fn zscore_finds_spike() {
        let d = with_spike();
        let mask = zscore_outliers(&d, 3.0);
        assert!(mask[25]);
        assert_eq!(mask.iter().filter(|&&m| m).count(), 1);
    }

    #[test]
    fn zscore_constant_series_clean() {
        assert_eq!(zscore_outliers(&[2.0; 5], 3.0), vec![false; 5]);
        assert!(zscore_outliers(&[], 3.0).is_empty());
    }

    #[test]
    fn hampel_finds_spike_and_resists_masking() {
        let mut d = with_spike();
        d[26] = 40.0; // two adjacent spikes try to mask each other
        let mask = hampel_outliers(&d, 7, 3.0);
        assert!(mask[25] && mask[26]);
        assert!(mask.iter().filter(|&&m| m).count() <= 4);
    }

    #[test]
    fn hampel_constant_neighbourhood() {
        let mut d = vec![1.0; 9];
        d[4] = 2.0;
        let mask = hampel_outliers(&d, 5, 3.0);
        assert!(mask[4]);
        assert!(!mask[0]);
    }

    #[test]
    fn iqr_finds_spike() {
        let d = with_spike();
        let mask = iqr_outliers(&d, 1.5);
        assert!(mask[25]);
        assert!(iqr_outliers(&[], 1.5).is_empty());
    }
}
