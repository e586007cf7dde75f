//! Kernel-level carry-over proof: the incremental SWAB segmenter and the
//! SWAB + SAX symbolizer must reproduce their batch counterparts
//! bit-for-bit under arbitrary feed boundaries — including boundaries
//! landing mid-segment, single-element feeds and series shorter than one
//! buffer window.

use ivnt_series::swab::{swab, SwabConfig};
use ivnt_stream::{symbolize_batch, IncrementalSwab, IncrementalSymbolizer, SymbolizeOptions};
use proptest::prelude::*;

/// A value series with structure SWAB actually segments: piecewise trends
/// with noise, rather than i.i.d. noise that collapses to one segment.
fn series(len: usize, seed: u64) -> Vec<f64> {
    let mut state = seed | 1;
    let mut level = 0.0f64;
    let mut slope = 0.1f64;
    let mut out = Vec::with_capacity(len);
    for i in 0..len {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let r = ((state >> 33) as f64) / (u32::MAX as f64) - 0.5;
        if i % 23 == 0 {
            slope = r * 2.0;
        }
        if i % 57 == 0 {
            level = r * 40.0;
        }
        level += slope;
        out.push(level + r * 0.3);
    }
    out
}

fn chunks<'a>(values: &'a [f64], sizes: &'a [usize]) -> Vec<&'a [f64]> {
    let mut out = Vec::new();
    let mut offset = 0;
    let mut pick = 0;
    while offset < values.len() {
        let size = sizes[pick % sizes.len()].max(1);
        pick += 1;
        let end = (offset + size).min(values.len());
        out.push(&values[offset..end]);
        offset = end;
    }
    out
}

#[test]
fn single_element_feeds_match_batch_swab() {
    let values = series(300, 7);
    let cfg = SwabConfig::default();
    let expect = swab(&values, cfg);
    let mut inc = IncrementalSwab::new(cfg);
    let mut got = Vec::new();
    for v in &values {
        got.extend(inc.feed(&[*v]));
    }
    got.extend(inc.close());
    assert_eq!(expect, got);
}

#[test]
fn short_series_never_reaching_the_window_match() {
    for len in 0..12 {
        let values = series(len, 11);
        let cfg = SwabConfig {
            buffer_len: 64,
            ..SwabConfig::default()
        };
        let expect = swab(&values, cfg);
        let mut inc = IncrementalSwab::new(cfg);
        let mut got = inc.feed(&values);
        got.extend(inc.close());
        assert_eq!(expect, got, "len {len}");
    }
}

#[test]
fn boundary_exactly_on_the_buffer_multiple_matches() {
    let cfg = SwabConfig {
        buffer_len: 32,
        ..SwabConfig::default()
    };
    for len in [32, 64, 96, 33, 65] {
        let values = series(len, 3);
        let expect = swab(&values, cfg);
        let mut inc = IncrementalSwab::new(cfg);
        let mut got = Vec::new();
        for chunk in values.chunks(32) {
            got.extend(inc.feed(chunk));
        }
        got.extend(inc.close());
        assert_eq!(expect, got, "len {len}");
    }
}

proptest! {
    /// Any feed boundary placement — including mid-segment — reproduces
    /// the batch segmentation exactly.
    #[test]
    fn incremental_swab_matches_batch(
        len in 0usize..600,
        seed in 1u64..10_000,
        buffer_len in 4usize..80,
        max_error_tenths in 1u32..60,
        sizes in prop::collection::vec(1usize..90, 1..8),
    ) {
        let values = series(len, seed);
        let cfg = SwabConfig {
            buffer_len,
            max_error: f64::from(max_error_tenths) / 10.0,
        };
        let expect = swab(&values, cfg);
        let mut inc = IncrementalSwab::new(cfg);
        let mut got = Vec::new();
        for chunk in chunks(&values, &sizes) {
            got.extend(inc.feed(chunk));
        }
        got.extend(inc.close());
        prop_assert_eq!(expect, got);
    }

    /// The full symbolizer (SWAB + per-segment mean → SAX) is likewise
    /// boundary-invariant against its batch oracle.
    #[test]
    fn incremental_symbolizer_matches_batch(
        len in 0usize..500,
        seed in 1u64..10_000,
        buffer_len in 4usize..64,
        alphabet in 2usize..10,
        sizes in prop::collection::vec(1usize..70, 1..8),
    ) {
        let values = series(len, seed);
        let options = SymbolizeOptions {
            swab: SwabConfig { buffer_len, ..SwabConfig::default() },
            alphabet_size: alphabet,
        };
        let expect = symbolize_batch(&values, options);
        let mut inc = IncrementalSymbolizer::new(options);
        let mut got = Vec::new();
        for chunk in chunks(&values, &sizes) {
            got.extend(inc.feed(chunk));
        }
        got.extend(inc.close());
        prop_assert_eq!(expect, got);
    }
}
