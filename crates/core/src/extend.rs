//! Extension rules (Algorithm 1, line 12).
//!
//! Extensions associate meta-data with the trace: applying a function to a
//! reduced sequence `K_red` yields new elements `ŵ = (v, w_id)` — e.g. the
//! temporal gap to the previous element (the paper's `wposGap`, Table 2),
//! violations of expected cycle times, or computations over the signal's
//! values.

use std::sync::Arc;

use ivnt_frame::prelude::*;

use crate::error::Result;
use crate::split::SignalSequence;
use crate::tabular::columns as c;

/// Schema of an extension sequence `W`: `(t, w_id, b_id, value)`.
pub fn extension_schema() -> Arc<Schema> {
    Schema::from_pairs([
        (c::T, DataType::Float),
        ("w_id", DataType::Str),
        (c::BUS, DataType::Str),
        ("value", DataType::Float),
    ])
    .expect("static schema is valid")
    .into_shared()
}

/// Signature of custom extension functions: consumes the reduced sequence,
/// returns `(t, value)` pairs.
pub type ExtensionFn =
    dyn Fn(&SignalSequence) -> crate::error::Result<Vec<(f64, f64)>> + Send + Sync;

/// One extension rule producing a meta-data sequence `W`.
#[derive(Clone)]
pub enum ExtensionRule {
    /// Gap to the previous element of the signal (Table 2's `wposGap`).
    Gap {
        /// Signal the gap is computed over.
        signal: String,
        /// `w_id` of the produced elements.
        alias: String,
    },
    /// Emits `1.0` at elements whose gap exceeds the expected cycle time,
    /// flagging cycle-time violations (Sec. 4.4 application).
    CycleViolation {
        /// Signal to check.
        signal: String,
        /// Expected cycle time in seconds.
        expected_cycle_s: f64,
        /// Tolerance factor: a gap over `factor * expected` is a violation.
        factor: f64,
        /// `w_id` of the produced elements.
        alias: String,
    },
    /// User-defined extension.
    Custom {
        /// Signal the function consumes.
        signal: String,
        /// `w_id` of the produced elements.
        alias: String,
        /// The function.
        func: Arc<ExtensionFn>,
    },
}

impl std::fmt::Debug for ExtensionRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExtensionRule::Gap { signal, alias } => write!(f, "Gap({signal} -> {alias})"),
            ExtensionRule::CycleViolation {
                signal,
                expected_cycle_s,
                factor,
                alias,
            } => write!(
                f,
                "CycleViolation({signal}, {expected_cycle_s}s x{factor} -> {alias})"
            ),
            ExtensionRule::Custom { signal, alias, .. } => {
                write!(f, "Custom({signal} -> {alias})")
            }
        }
    }
}

impl ExtensionRule {
    /// The signal this rule consumes.
    pub fn signal(&self) -> &str {
        match self {
            ExtensionRule::Gap { signal, .. }
            | ExtensionRule::CycleViolation { signal, .. }
            | ExtensionRule::Custom { signal, .. } => signal,
        }
    }

    /// The `w_id` of the produced elements.
    pub fn alias(&self) -> &str {
        match self {
            ExtensionRule::Gap { alias, .. }
            | ExtensionRule::CycleViolation { alias, .. }
            | ExtensionRule::Custom { alias, .. } => alias,
        }
    }

    /// Applies the rule to a reduced sequence, producing the extension
    /// frame `W` (empty when the rule targets another signal).
    ///
    /// # Errors
    ///
    /// Propagates tabular-engine and custom-function failures.
    pub fn apply(&self, seq: &SignalSequence) -> Result<DataFrame> {
        if seq.signal != self.signal() {
            return Ok(DataFrame::empty(extension_schema()));
        }
        let times = seq.times()?;
        let channel = seq.channels()?.into_iter().next().unwrap_or_default();
        let pairs: Vec<(f64, f64)> = match self {
            ExtensionRule::Gap { .. } => times.windows(2).map(|w| (w[1], w[1] - w[0])).collect(),
            ExtensionRule::CycleViolation {
                expected_cycle_s,
                factor,
                ..
            } => times
                .windows(2)
                .filter(|w| w[1] - w[0] > expected_cycle_s * factor)
                .map(|w| (w[1], w[1] - w[0]))
                .collect(),
            ExtensionRule::Custom { func, .. } => func(seq)?,
        };
        let alias = self.alias();
        let rows = pairs.into_iter().map(|(t, v)| {
            vec![
                Value::Float(t),
                Value::from(alias),
                Value::from(channel.as_str()),
                Value::Float(v),
            ]
        });
        Ok(DataFrame::from_rows(extension_schema(), rows)?)
    }
}

/// Applies every extension rule to every sequence, returning one combined
/// extension frame `W` (line 12's `F_E`).
///
/// # Errors
///
/// Propagates tabular-engine failures.
pub fn extend_all(seqs: &[SignalSequence], rules: &[ExtensionRule]) -> Result<DataFrame> {
    let mut parts = Vec::new();
    for rule in rules {
        for seq in seqs {
            let w = rule.apply(seq)?;
            if !w.is_empty() {
                parts.extend(w.into_partitions());
            }
        }
    }
    Ok(DataFrame::from_partitions(extension_schema(), parts)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpret::signal_schema;

    fn seq(name: &str, times: &[f64]) -> SignalSequence {
        let frame = DataFrame::from_rows(
            signal_schema(),
            times.iter().map(|&t| {
                vec![
                    Value::Float(t),
                    Value::from(name),
                    Value::from("FC"),
                    Value::Float(t * 10.0),
                    Value::Null,
                ]
            }),
        )
        .unwrap();
        SignalSequence {
            signal: name.into(),
            frame,
        }
    }

    #[test]
    fn gap_extension_matches_table2() {
        // Table 2: wpos at 2.0, 2.5, 2.9, 3.35 -> gaps 0.5, 0.4, 0.45.
        let s = seq("wpos", &[2.0, 2.5, 2.9, 3.35]);
        let rule = ExtensionRule::Gap {
            signal: "wpos".into(),
            alias: "wposGap".into(),
        };
        let w = rule.apply(&s).unwrap();
        assert_eq!(w.num_rows(), 3);
        let rows = w.collect_rows().unwrap();
        assert_eq!(rows[0][0], Value::Float(2.5));
        assert!((rows[0][3].as_float().unwrap() - 0.5).abs() < 1e-9);
        assert!((rows[1][3].as_float().unwrap() - 0.4).abs() < 1e-9);
        assert!((rows[2][3].as_float().unwrap() - 0.45).abs() < 1e-9);
        assert_eq!(rows[0][1], Value::from("wposGap"));
    }

    #[test]
    fn cycle_violation_flags_only_excessive_gaps() {
        let s = seq("wpos", &[0.0, 0.1, 0.2, 0.9, 1.0]);
        let rule = ExtensionRule::CycleViolation {
            signal: "wpos".into(),
            expected_cycle_s: 0.1,
            factor: 2.0,
            alias: "wposCycleViolation".into(),
        };
        let w = rule.apply(&s).unwrap();
        assert_eq!(w.num_rows(), 1);
        let rows = w.collect_rows().unwrap();
        assert_eq!(rows[0][0], Value::Float(0.9));
        assert!((rows[0][3].as_float().unwrap() - 0.7).abs() < 1e-9);
    }

    #[test]
    fn rule_skips_other_signals() {
        let s = seq("other", &[0.0, 1.0]);
        let rule = ExtensionRule::Gap {
            signal: "wpos".into(),
            alias: "wposGap".into(),
        };
        assert!(rule.apply(&s).unwrap().is_empty());
    }

    #[test]
    fn custom_extension() {
        let s = seq("wpos", &[1.0, 2.0]);
        let rule = ExtensionRule::Custom {
            signal: "wpos".into(),
            alias: "doubledT".into(),
            func: Arc::new(|seq| Ok(seq.times()?.into_iter().map(|t| (t, 2.0 * t)).collect())),
        };
        let w = rule.apply(&s).unwrap();
        assert_eq!(w.num_rows(), 2);
        assert_eq!(w.collect_rows().unwrap()[1][3], Value::Float(4.0));
    }

    #[test]
    fn extend_all_combines_rules() {
        let seqs = vec![seq("a", &[0.0, 1.0]), seq("b", &[0.0, 2.0])];
        let rules = vec![
            ExtensionRule::Gap {
                signal: "a".into(),
                alias: "aGap".into(),
            },
            ExtensionRule::Gap {
                signal: "b".into(),
                alias: "bGap".into(),
            },
        ];
        let w = extend_all(&seqs, &rules).unwrap();
        assert_eq!(w.num_rows(), 2);
        let ids: Vec<Value> = w.column_values("w_id").unwrap();
        assert!(ids.contains(&Value::from("aGap")));
        assert!(ids.contains(&Value::from("bGap")));
    }

    #[test]
    fn single_element_sequence_has_no_gaps() {
        let s = seq("wpos", &[1.0]);
        let rule = ExtensionRule::Gap {
            signal: "wpos".into(),
            alias: "g".into(),
        };
        assert!(rule.apply(&s).unwrap().is_empty());
    }

    #[test]
    fn debug_formats() {
        let rule = ExtensionRule::Gap {
            signal: "wpos".into(),
            alias: "wposGap".into(),
        };
        assert_eq!(format!("{rule:?}"), "Gap(wpos -> wposGap)");
    }
}
