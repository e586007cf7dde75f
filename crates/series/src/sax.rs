//! SAX — Symbolic Aggregate approXimation.
//!
//! Reimplementation of Lin, Keogh, Lonardi & Chiu, *"A symbolic
//! representation of time series, with implications for streaming
//! algorithms"* (DMKD 2003). The paper's branch α symbolizes each SWAB
//! segment with SAX, yielding the `(trend, symbol)` tuples of the
//! homogeneous state representation.

use crate::stats::znormalize;

/// Piecewise Aggregate Approximation: mean of each of `n_segments` equally
/// sized (up to rounding) windows.
///
/// Returns an empty vector for empty input; with fewer points than segments,
/// windows degrade gracefully (each point lands in the window
/// `i * n / len`).
pub fn paa(data: &[f64], n_segments: usize) -> Vec<f64> {
    if data.is_empty() || n_segments == 0 {
        return Vec::new();
    }
    let n = data.len();
    if n_segments >= n {
        return data.to_vec();
    }
    let mut sums = vec![0.0f64; n_segments];
    let mut counts = vec![0usize; n_segments];
    for (i, &x) in data.iter().enumerate() {
        let seg = i * n_segments / n;
        sums[seg] += x;
        counts[seg] += 1;
    }
    sums.iter()
        .zip(&counts)
        .map(|(s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
        .collect()
}

/// Inverse standard normal CDF (Acklam's rational approximation,
/// |relative error| < 1.15e-9).
///
/// # Panics
///
/// Panics in debug builds for `p` outside the open interval `(0, 1)`.
pub fn inverse_normal_cdf(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0, "p must be in (0, 1)");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Gaussian breakpoints dividing N(0,1) into `alphabet_size` equiprobable
/// regions (`alphabet_size - 1` values, ascending).
///
/// # Panics
///
/// Panics if `alphabet_size < 2`.
pub fn breakpoints(alphabet_size: usize) -> Vec<f64> {
    assert!(alphabet_size >= 2, "SAX alphabet needs at least 2 symbols");
    (1..alphabet_size)
        .map(|i| inverse_normal_cdf(i as f64 / alphabet_size as f64))
        .collect()
}

/// Maps one z-normalized value to its SAX symbol (`'a'`, `'b'`, ...).
pub fn symbol_for(value: f64, breakpoints: &[f64]) -> char {
    let idx = breakpoints.partition_point(|&b| value >= b);
    (b'a' + idx as u8) as char
}

/// Full SAX transform: z-normalize, PAA to `word_len`, symbolize with an
/// `alphabet_size`-letter alphabet.
///
/// # Panics
///
/// Panics if `alphabet_size < 2`.
///
/// # Examples
///
/// ```
/// use ivnt_series::sax::sax_word;
///
/// let data: Vec<f64> = (0..64).map(|i| i as f64).collect();
/// let word = sax_word(&data, 8, 4);
/// assert_eq!(word.len(), 8);
/// // A ramp sweeps the alphabet from low to high symbols.
/// assert_eq!(word.first(), Some(&'a'));
/// assert_eq!(word.last(), Some(&'d'));
/// ```
pub fn sax_word(data: &[f64], word_len: usize, alphabet_size: usize) -> Vec<char> {
    if data.is_empty() || word_len == 0 {
        return Vec::new();
    }
    let z = znormalize(data);
    let approx = paa(&z, word_len);
    let bps = breakpoints(alphabet_size);
    approx.iter().map(|&v| symbol_for(v, &bps)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paa_means_windows() {
        let d = [1.0, 1.0, 3.0, 3.0];
        assert_eq!(paa(&d, 2), vec![1.0, 3.0]);
        assert_eq!(paa(&d, 4), vec![1.0, 1.0, 3.0, 3.0]);
        assert_eq!(paa(&d, 8), d.to_vec());
        assert!(paa(&[], 4).is_empty());
        assert!(paa(&d, 0).is_empty());
    }

    #[test]
    fn paa_uneven_split() {
        let d = [0.0, 0.0, 0.0, 6.0, 6.0];
        let p = paa(&d, 2);
        assert_eq!(p.len(), 2);
        // window assignment i*2/5: indices 0..=2 -> window 0, 3..=4 -> window 1
        assert_eq!(p[0], 0.0);
        assert_eq!(p[1], 6.0);
    }

    #[test]
    fn inverse_normal_known_values() {
        assert!(inverse_normal_cdf(0.5).abs() < 1e-9);
        assert!((inverse_normal_cdf(0.975) - 1.959964).abs() < 1e-5);
        assert!((inverse_normal_cdf(0.025) + 1.959964).abs() < 1e-5);
        assert!((inverse_normal_cdf(0.001) + 3.090232).abs() < 1e-5);
    }

    #[test]
    fn breakpoints_match_sax_table() {
        // Classic SAX table for alphabet size 4: -0.67, 0, 0.67.
        let bp = breakpoints(4);
        assert_eq!(bp.len(), 3);
        assert!((bp[0] + 0.6745).abs() < 1e-3);
        assert!(bp[1].abs() < 1e-9);
        assert!((bp[2] - 0.6745).abs() < 1e-3);
        // Size 3: -0.43, 0.43.
        let bp = breakpoints(3);
        assert!((bp[0] + 0.4307).abs() < 1e-3);
        assert!((bp[1] - 0.4307).abs() < 1e-3);
    }

    #[test]
    fn symbols_cover_alphabet() {
        let bps = breakpoints(3);
        assert_eq!(symbol_for(-10.0, &bps), 'a');
        assert_eq!(symbol_for(0.0, &bps), 'b');
        assert_eq!(symbol_for(10.0, &bps), 'c');
    }

    #[test]
    fn sax_word_of_sine_is_symmetric() {
        let data: Vec<f64> = (0..128)
            .map(|i| (i as f64 * std::f64::consts::TAU / 128.0).sin())
            .collect();
        let word = sax_word(&data, 8, 4);
        assert_eq!(word.len(), 8);
        // First half above mean, second half below.
        assert!(word[1] >= 'c');
        assert!(word[5] <= 'b');
    }

    #[test]
    fn constant_series_maps_to_middle_symbols() {
        let word = sax_word(&[5.0; 32], 4, 4);
        // z-normalized constant = 0 -> symbol 'c' (first cell >= 0 boundary).
        assert!(word.iter().all(|&c| c == 'c'));
    }

    #[test]
    #[should_panic]
    fn tiny_alphabet_panics() {
        let _ = breakpoints(1);
    }
}
