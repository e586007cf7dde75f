//! Motif mining over symbol sequences.
//!
//! After homogenization every signal is a symbol sequence, so recurring
//! behaviour patterns become literal substrings ("motifs"). Counting
//! n-grams over a state-representation column finds both the dominant
//! behaviour motifs and — at the other end of the ranking — rare motifs
//! worth inspecting (the same rare-is-suspicious logic as transitions).

use std::collections::HashMap;

use ivnt_frame::prelude::*;

use crate::error::{Error, Result};

/// One mined motif: a window of consecutive symbols with its count.
#[derive(Debug, Clone, PartialEq)]
pub struct Motif {
    /// The symbol window, oldest first.
    pub symbols: Vec<String>,
    /// Occurrences in the sequence.
    pub count: u64,
    /// Count divided by the number of windows.
    pub frequency: f64,
}

impl std::fmt::Display for Motif {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] x{}", self.symbols.join(" -> "), self.count)
    }
}

/// Counts all length-`n` symbol windows of a state-representation column,
/// returned most frequent first (ties broken lexicographically).
///
/// # Errors
///
/// Returns [`Error::InvalidArgument`] for `n == 0` and propagates unknown
/// columns.
pub fn count_motifs(state: &DataFrame, column: &str, n: usize) -> Result<Vec<Motif>> {
    if n == 0 {
        return Err(Error::InvalidArgument("motif length must be > 0".into()));
    }
    let values = state.column_values(column)?;
    let symbols: Vec<String> = values
        .iter()
        .filter_map(|v| v.as_str().map(str::to_string))
        .collect();
    let windows = symbols.len().saturating_sub(n - 1);
    let mut counts: HashMap<&[String], u64> = HashMap::new();
    for w in symbols.windows(n) {
        *counts.entry(w).or_default() += 1;
    }
    let mut motifs: Vec<Motif> = counts
        .into_iter()
        .map(|(w, count)| Motif {
            symbols: w.to_vec(),
            count,
            frequency: count as f64 / windows.max(1) as f64,
        })
        .collect();
    motifs.sort_by(|a, b| {
        b.count
            .cmp(&a.count)
            .then_with(|| a.symbols.cmp(&b.symbols))
    });
    Ok(motifs)
}

/// The rarest motifs (count below `max_count`), rarest first — candidates
/// for event chains preceding errors.
///
/// # Errors
///
/// Same conditions as [`count_motifs`].
pub fn rare_motifs(
    state: &DataFrame,
    column: &str,
    n: usize,
    max_count: u64,
) -> Result<Vec<Motif>> {
    let mut motifs = count_motifs(state, column, n)?;
    motifs.retain(|m| m.count <= max_count);
    motifs.reverse();
    Ok(motifs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(symbols: &[&str]) -> DataFrame {
        let schema = Schema::from_pairs([("t", DataType::Float), ("s", DataType::Str)])
            .unwrap()
            .into_shared();
        DataFrame::from_rows(
            schema,
            symbols
                .iter()
                .enumerate()
                .map(|(i, &s)| vec![Value::Float(i as f64), Value::from(s)]),
        )
        .unwrap()
    }

    #[test]
    fn counts_bigrams() {
        let st = state(&["a", "b", "a", "b", "c"]);
        let motifs = count_motifs(&st, "s", 2).unwrap();
        // windows: ab, ba, ab, bc
        assert_eq!(motifs[0].symbols, vec!["a", "b"]);
        assert_eq!(motifs[0].count, 2);
        assert_eq!(motifs[0].frequency, 0.5);
        assert_eq!(motifs.len(), 3);
    }

    #[test]
    fn rare_motifs_rarest_first() {
        let st = state(&["a", "b", "a", "b", "c", "a", "b"]);
        let rare = rare_motifs(&st, "s", 2, 1).unwrap();
        assert!(rare.iter().all(|m| m.count == 1));
        assert_eq!(rare.len(), 3); // ba, bc, ca (ab occurs 3x)
    }

    #[test]
    fn invalid_length_rejected() {
        let st = state(&["a"]);
        assert!(matches!(
            count_motifs(&st, "s", 0),
            Err(Error::InvalidArgument(_))
        ));
    }

    #[test]
    fn window_longer_than_sequence() {
        let st = state(&["a", "b"]);
        let motifs = count_motifs(&st, "s", 5).unwrap();
        assert!(motifs.is_empty());
    }
}
