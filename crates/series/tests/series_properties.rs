//! Property tests for the time-series algorithms.

use ivnt_series::sax::{breakpoints, paa, sax_word, symbol_for};
use ivnt_series::segment::Segment;
use ivnt_series::smooth::{exponential, moving_average};
use ivnt_series::stats;
use ivnt_series::swab::{bottom_up, bottom_up_naive, is_contiguous, swab, swab_naive, SwabConfig};
use ivnt_series::trend::{classify_slope, point_gradient, Trend};
use proptest::prelude::*;

fn arb_series() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e3f64..1e3, 0..300)
}

/// Series drawn from a tiny integer alphabet, so equal merge costs (the
/// tie-breaking cases of the heap segmenter) occur constantly.
fn arb_tie_series() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-2i32..3, 0..200).prop_map(|v| v.into_iter().map(f64::from).collect())
}

proptest! {
    /// Segments always tile the series contiguously, for bottom-up and SWAB.
    #[test]
    fn segmentation_tiles_series(
        data in arb_series(),
        max_error in 0.0f64..100.0,
        buffer in 4usize..80,
    ) {
        let b = bottom_up(&data, max_error);
        prop_assert!(is_contiguous(&b, data.len()));
        let s = swab(&data, SwabConfig { max_error, buffer_len: buffer });
        prop_assert!(is_contiguous(&s, data.len()));
    }

    /// Merged (length > 2) segments never exceed the error budget.
    #[test]
    fn segments_respect_budget(data in arb_series(), max_error in 0.0f64..50.0) {
        for s in bottom_up(&data, max_error) {
            if s.len() > 2 {
                prop_assert!(s.error <= max_error + 1e-6);
            }
        }
    }

    /// A least-squares fit error never beats the fit of its own segment
    /// (regression sanity: recomputing gives the same error).
    #[test]
    fn segment_fit_is_deterministic(data in prop::collection::vec(-100f64..100.0, 2..50)) {
        let s1 = Segment::fit(&data, 0, data.len());
        let s2 = Segment::fit(&data, 0, data.len());
        prop_assert_eq!(s1, s2);
    }

    /// PAA output length is min(word_len, n) and preserves the global mean.
    #[test]
    fn paa_preserves_mean_for_divisible(
        word in 1usize..16,
        reps in 1usize..16,
        base in -100f64..100.0,
    ) {
        // Build a series whose length is word * reps so windows are equal.
        let data: Vec<f64> = (0..word * reps).map(|i| base + (i % 7) as f64).collect();
        let p = paa(&data, word);
        prop_assert_eq!(p.len(), word);
        let mean_p = stats::mean(&p);
        let mean_d = stats::mean(&data);
        prop_assert!((mean_p - mean_d).abs() < 1e-9);
    }

    /// SAX words only use the declared alphabet.
    #[test]
    fn sax_alphabet_respected(data in arb_series(), word in 1usize..12, alpha in 2usize..10) {
        let w = sax_word(&data, word, alpha);
        let max = (b'a' + alpha as u8 - 1) as char;
        prop_assert!(w.iter().all(|&c| c >= 'a' && c <= max));
    }

    /// Breakpoints are strictly increasing and symmetric.
    #[test]
    fn breakpoints_monotone_symmetric(alpha in 2usize..12) {
        let bp = breakpoints(alpha);
        prop_assert!(bp.windows(2).all(|w| w[0] < w[1]));
        for (lo, hi) in bp.iter().zip(bp.iter().rev()) {
            prop_assert!((lo + hi).abs() < 1e-9);
        }
    }

    /// symbol_for is monotone in its argument.
    #[test]
    fn symbols_monotone(a in -5f64..5.0, b in -5f64..5.0, alpha in 2usize..8) {
        let bp = breakpoints(alpha);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(symbol_for(lo, &bp) <= symbol_for(hi, &bp));
    }

    /// Smoothing preserves length and stays within data bounds.
    #[test]
    fn smoothing_bounded(data in prop::collection::vec(-100f64..100.0, 1..200), w in 0usize..9) {
        let lo = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for out in [moving_average(&data, w), exponential(&data, 0.4)] {
            prop_assert_eq!(out.len(), data.len());
            prop_assert!(out.iter().all(|&v| v >= lo - 1e-9 && v <= hi + 1e-9));
        }
    }

    /// point_gradient sums to last - first.
    #[test]
    fn gradient_telescopes(data in prop::collection::vec(-100f64..100.0, 1..100)) {
        let g = point_gradient(&data);
        let sum: f64 = g.iter().sum();
        prop_assert!((sum - (data[data.len() - 1] - data[0])).abs() < 1e-6);
    }

    /// classify_slope partitions the real line.
    #[test]
    fn classification_total(slope in -10f64..10.0, thr in 0f64..5.0) {
        let t = classify_slope(slope, thr);
        match t {
            Trend::Increasing => prop_assert!(slope > thr),
            Trend::Decreasing => prop_assert!(slope < -thr),
            Trend::Steady => prop_assert!(slope.abs() <= thr),
        }
    }

    /// The heap bottom-up segmenter is bit-identical to the retained
    /// O(n²) reference — same segments, same fits, same errors — and its
    /// output is NaN-free for finite input.
    #[test]
    fn heap_bottom_up_matches_naive(data in arb_series(), max_error in 0.0f64..100.0) {
        let heap = bottom_up(&data, max_error);
        prop_assert_eq!(&heap, &bottom_up_naive(&data, max_error));
        let finite = heap
            .iter()
            .all(|s| s.slope.is_finite() && s.intercept.is_finite() && s.error.is_finite());
        prop_assert!(finite);
    }

    /// Same equivalence under heavy cost ties (tiny integer alphabet).
    #[test]
    fn heap_bottom_up_matches_naive_on_ties(
        data in arb_tie_series(),
        max_error in 0.0f64..5.0,
    ) {
        prop_assert_eq!(bottom_up(&data, max_error), bottom_up_naive(&data, max_error));
    }

    /// The windowed SWAB driver inherits the equivalence.
    #[test]
    fn heap_swab_matches_naive(
        data in arb_series(),
        max_error in 0.0f64..100.0,
        buffer in 4usize..80,
    ) {
        let config = SwabConfig { max_error, buffer_len: buffer };
        prop_assert_eq!(swab(&data, config), swab_naive(&data, config));
    }

    /// Constant series collapse identically on both paths, with exact
    /// zero-error fits.
    #[test]
    fn constant_series_matches_naive(
        v in -1e3f64..1e3,
        n in 0usize..200,
        max_error in 0.0f64..10.0,
    ) {
        let data = vec![v; n];
        let heap = bottom_up(&data, max_error);
        prop_assert_eq!(&heap, &bottom_up_naive(&data, max_error));
        prop_assert!(heap.iter().all(|s| s.error.is_finite()));
    }

    /// Degenerate inputs (n <= 3, below the first merge) agree too.
    #[test]
    fn tiny_inputs_match_naive(
        data in prop::collection::vec(-1e3f64..1e3, 0..4),
        max_error in 0.0f64..10.0,
    ) {
        prop_assert_eq!(bottom_up(&data, max_error), bottom_up_naive(&data, max_error));
    }

    /// Outlier masks have the series' length and all-clean data yields no
    /// z-score outliers at high threshold.
    #[test]
    fn outlier_mask_lengths(data in arb_series()) {
        use ivnt_series::outlier::*;
        prop_assert_eq!(zscore_outliers(&data, 3.0).len(), data.len());
        prop_assert_eq!(hampel_outliers(&data, 5, 3.0).len(), data.len());
        prop_assert_eq!(iqr_outliers(&data, 1.5).len(), data.len());
        prop_assert!(zscore_outliers(&data, 1e12).iter().all(|&m| !m));
    }
}
