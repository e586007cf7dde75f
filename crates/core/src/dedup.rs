//! Gateway deduplication (Algorithm 1, line 9).
//!
//! Signals forwarded through gateways are recorded once per channel. The
//! equality check `e : K_s^{s_id} -> (K_rep, K_cor)` verifies the channel
//! copies carry identical value sequences and keeps one *representative*
//! channel for processing; results then apply to all *corresponding*
//! channels, cutting computational cost by the duplication factor.

use std::borrow::Cow;
use std::sync::Arc;

use ivnt_frame::prelude::*;

use crate::error::Result;
use crate::rules::RuleSet;
use crate::split::SignalSequence;
use crate::tabular::columns as c;

/// Outcome of the equality check `e` for one signal.
#[derive(Debug, Clone)]
pub struct Dedup<S = SignalSequence> {
    /// The representative sequence `K_rep` (single channel, time-ordered).
    pub representative: S,
    /// Channel chosen as representative.
    pub representative_channel: String,
    /// Channels whose copies matched the representative (`K_cor`).
    pub corresponding: Vec<String>,
    /// Channels whose copies disagreed — kept out of `K_cor`, reported for
    /// diagnosis (a forwarding fault is itself a finding).
    pub mismatched: Vec<String>,
}

/// Runs the equality check for one signal's multi-channel sequence.
///
/// The representative is the signal's home channel when the rules identify
/// one, otherwise the lexicographically smallest channel. Two channel
/// copies are equal when their value sequences (numeric and textual) agree
/// element-wise in time order — timestamps may differ by the gateway
/// forwarding delay and are not compared. The representative keeps the
/// input's partition structure.
///
/// # Errors
///
/// Propagates tabular-engine failures.
pub fn deduplicate(seq: &SignalSequence, rules: &RuleSet) -> Result<Dedup> {
    Ok(check(Cow::Borrowed(seq), rules)?.into_owned())
}

/// A [`Dedup`] whose representative is still a [`Cow`]: a single-channel
/// sequence (every signal no gateway forwards) is its own representative,
/// moved when the caller handed it over and borrowed when it lent it — a
/// deep copy only when an owned [`Dedup`] is asked for.
pub(crate) type Checked<'a> = Dedup<Cow<'a, SignalSequence>>;

impl Checked<'_> {
    pub(crate) fn into_owned(self) -> Dedup {
        Dedup {
            representative: self.representative.into_owned(),
            representative_channel: self.representative_channel,
            corresponding: self.corresponding,
            mismatched: self.mismatched,
        }
    }
}

/// Runs [`deduplicate`] over every sequence.
///
/// # Errors
///
/// Propagates tabular-engine failures.
pub fn deduplicate_all(seqs: &[SignalSequence], rules: &RuleSet) -> Result<Vec<Dedup>> {
    seqs.iter().map(|s| deduplicate(s, rules)).collect()
}

/// Channel code of a row whose `b_id` cell is null: it belongs to no copy.
const NO_CHANNEL: u32 = u32::MAX;

/// The equality check `e` behind [`deduplicate`].
pub(crate) fn check<'a>(seq: Cow<'a, SignalSequence>, rules: &RuleSet) -> Result<Checked<'a>> {
    let schema = seq.frame.schema();
    let bus_idx = schema.index_of(c::BUS)?;
    let num_idx = schema.index_of(c::VALUE_NUM)?;
    let text_idx = schema.index_of(c::VALUE_TEXT)?;
    let parts = seq.frame.partitions();

    // One pass: a channel code per row. A split sequence shares one `Arc`
    // per channel, so a cell resolves by pointer; by content only when
    // every cell is its own `Arc`.
    let mut names: Vec<&Arc<str>> = Vec::new();
    let mut codes: Vec<Vec<u32>> = Vec::with_capacity(parts.len());
    for batch in parts {
        let buses = batch.column(bus_idx).as_str_slice().unwrap_or(&[]);
        let mut part_codes = Vec::with_capacity(buses.len());
        for bus in buses {
            part_codes.push(match bus {
                None => NO_CHANNEL,
                Some(bus) => names
                    .iter()
                    .position(|n| Arc::ptr_eq(n, bus))
                    .or_else(|| names.iter().position(|n| *n == bus))
                    .unwrap_or_else(|| {
                        names.push(bus);
                        names.len() - 1
                    }) as u32,
            });
        }
        codes.push(part_codes);
    }
    if names.len() <= 1 {
        // At most one channel (none when no row names one): the sequence
        // is its own representative.
        let representative_channel = names.first().map(|n| n.to_string()).unwrap_or_default();
        return Ok(Checked {
            representative: seq,
            representative_channel,
            corresponding: Vec::new(),
            mismatched: Vec::new(),
        });
    }

    // Channel codes in lexicographic name order.
    let mut by_name: Vec<u32> = (0..names.len() as u32).collect();
    by_name.sort_by_key(|&code| names[code as usize]);
    let rep = rules
        .rules()
        .iter()
        .find(|r| r.signal == seq.signal && r.info.home_channel)
        .and_then(|r| names.iter().position(|n| n.as_ref() == r.bus.as_str()))
        .map_or(by_name[0], |home| home as u32);

    // A channel's value stream — the compared element of `e` is
    // `(v_num bits, v_text content)` — read in place, in time order.
    let values_of = |channel: u32| {
        parts.iter().zip(&codes).flat_map(move |(batch, codes)| {
            let nums = batch.column(num_idx).as_float_slice();
            let texts = batch.column(text_idx).as_str_slice();
            (0..codes.len())
                .filter(move |&row| codes[row] == channel)
                .map(move |row| {
                    (
                        nums.and_then(|v| v[row]).map(f64::to_bits),
                        texts.and_then(|v| v[row].as_deref()),
                    )
                })
        })
    };
    let mut corresponding = Vec::new();
    let mut mismatched = Vec::new();
    for &channel in by_name.iter().filter(|&&channel| channel != rep) {
        let list = if values_of(channel).eq(values_of(rep)) {
            &mut corresponding
        } else {
            &mut mismatched
        };
        list.push(names[channel as usize].to_string());
    }

    // Gather the representative's rows only, partition by partition.
    let rep_parts = parts
        .iter()
        .zip(&codes)
        .map(|(batch, codes)| {
            let rows: Vec<usize> = (0..codes.len()).filter(|&row| codes[row] == rep).collect();
            batch.take(&rows)
        })
        .collect();
    Ok(Checked {
        representative: Cow::Owned(SignalSequence {
            signal: seq.signal.clone(),
            frame: DataFrame::from_partitions(schema.clone(), rep_parts)?,
        }),
        representative_channel: names[rep as usize].to_string(),
        corresponding,
        mismatched,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpret::signal_schema;
    use crate::rules::{Rule, RuleInfo, RuleSet};
    use ivnt_protocol::signal::SignalSpec;

    fn seq(rows: Vec<(f64, &str, Option<f64>)>) -> SignalSequence {
        let frame = DataFrame::from_rows(
            signal_schema(),
            rows.into_iter().map(|(t, bus, v)| {
                vec![
                    Value::Float(t),
                    Value::from("wpos"),
                    Value::from(bus),
                    Value::from(v),
                    Value::Null,
                ]
            }),
        )
        .unwrap();
        SignalSequence {
            signal: "wpos".into(),
            frame,
        }
    }

    fn rules_with_home(home: &str) -> RuleSet {
        let mut rs = RuleSet::new();
        for bus in ["FC", "DC"] {
            rs.push(Rule {
                signal: "wpos".into(),
                bus: bus.into(),
                message_id: 3,
                info: RuleInfo {
                    spec: SignalSpec::builder("wpos", 0, 16).build().unwrap(),
                    packing: crate::rules::Packing::Fixed {
                        first_byte: 0,
                        num_bytes: 2,
                    },
                    home_channel: bus == home,
                    comparable: true,
                    expected_cycle_s: None,
                },
            });
        }
        rs
    }

    #[test]
    fn identical_copies_deduplicate() {
        let s = seq(vec![
            (2.0, "FC", Some(45.0)),
            (2.0001, "DC", Some(45.0)),
            (2.5, "FC", Some(60.0)),
            (2.5001, "DC", Some(60.0)),
        ]);
        let d = deduplicate(&s, &rules_with_home("FC")).unwrap();
        assert_eq!(d.representative_channel, "FC");
        assert_eq!(d.corresponding, vec!["DC".to_string()]);
        assert!(d.mismatched.is_empty());
        assert_eq!(d.representative.len(), 2);
        assert_eq!(
            d.representative.numeric_values().unwrap(),
            vec![Some(45.0), Some(60.0)]
        );
    }

    #[test]
    fn home_channel_preferred() {
        let s = seq(vec![(1.0, "FC", Some(1.0)), (1.1, "DC", Some(1.0))]);
        let d = deduplicate(&s, &rules_with_home("DC")).unwrap();
        assert_eq!(d.representative_channel, "DC");
    }

    #[test]
    fn single_channel_passthrough() {
        let s = seq(vec![(1.0, "FC", Some(1.0)), (2.0, "FC", Some(2.0))]);
        let d = deduplicate(&s, &RuleSet::new()).unwrap();
        assert_eq!(d.representative_channel, "FC");
        assert!(d.corresponding.is_empty());
        assert_eq!(d.representative.len(), 2);
    }

    #[test]
    fn corrupted_copy_reported_as_mismatch() {
        let s = seq(vec![
            (2.0, "FC", Some(45.0)),
            (2.0001, "DC", Some(44.0)), // forwarding corrupted the value
            (2.5, "FC", Some(60.0)),
            (2.5001, "DC", Some(60.0)),
        ]);
        let d = deduplicate(&s, &rules_with_home("FC")).unwrap();
        assert!(d.corresponding.is_empty());
        assert_eq!(d.mismatched, vec!["DC".to_string()]);
    }

    #[test]
    fn missing_copy_reported_as_mismatch() {
        let s = seq(vec![
            (2.0, "FC", Some(45.0)),
            (2.5, "FC", Some(60.0)),
            (2.0001, "DC", Some(45.0)), // DC missed one frame
        ]);
        let d = deduplicate(&s, &rules_with_home("FC")).unwrap();
        assert_eq!(d.mismatched, vec!["DC".to_string()]);
    }

    #[test]
    fn no_home_falls_back_to_smallest_channel() {
        let s = seq(vec![(1.0, "ZC", Some(1.0)), (1.1, "AC", Some(1.0))]);
        let d = deduplicate(&s, &RuleSet::new()).unwrap();
        assert_eq!(d.representative_channel, "AC");
    }

    /// The equality check as it was before it compared in place: the
    /// channels from a sort of every bus cell, one filter pass and one
    /// materialized `(v_num bits, v_text)` signature vector per channel.
    fn oracle(seq: &SignalSequence, rules: &RuleSet) -> Dedup {
        let channels = seq.channels().unwrap();
        if channels.len() <= 1 {
            return Dedup {
                representative: seq.clone(),
                representative_channel: channels.into_iter().next().unwrap_or_default(),
                corresponding: Vec::new(),
                mismatched: Vec::new(),
            };
        }
        let home = rules
            .rules()
            .iter()
            .find(|r| r.signal == seq.signal && r.info.home_channel)
            .map(|r| r.bus.clone());
        let representative_channel = home
            .filter(|h| channels.contains(h))
            .unwrap_or_else(|| channels[0].clone());
        let schema = seq.frame.schema();
        let bus_idx = schema.index_of(c::BUS).unwrap();
        let per_channel = |bus: &str| {
            let parts = seq.frame.partitions().iter().map(|batch| {
                let buses = batch.column(bus_idx).as_str_slice().unwrap();
                let mask: Vec<bool> = buses.iter().map(|b| b.as_deref() == Some(bus)).collect();
                batch.filter(&mask).unwrap()
            });
            DataFrame::from_partitions(schema.clone(), parts.collect()).unwrap()
        };
        let signature = |frame: &DataFrame| -> Vec<(Option<u64>, Option<Arc<str>>)> {
            let seq = SignalSequence {
                signal: String::new(),
                frame: frame.clone(),
            };
            let nums = seq.numeric_values().unwrap();
            let texts = seq.text_values().unwrap();
            nums.into_iter()
                .map(|v| v.map(f64::to_bits))
                .zip(texts)
                .collect()
        };
        let rep_frame = per_channel(&representative_channel);
        let rep_values = signature(&rep_frame);
        let (mut corresponding, mut mismatched) = (Vec::new(), Vec::new());
        for ch in channels.iter().filter(|ch| **ch != representative_channel) {
            if signature(&per_channel(ch)) == rep_values {
                corresponding.push(ch.clone());
            } else {
                mismatched.push(ch.clone());
            }
        }
        Dedup {
            representative: SignalSequence {
                signal: seq.signal.clone(),
                frame: rep_frame,
            },
            representative_channel,
            corresponding,
            mismatched,
        }
    }

    /// `check` on a borrowed and an owned sequence against the oracle: channel
    /// verdicts, and the representative partition by partition, cell by
    /// cell (floats by bit pattern).
    fn checked(seq: &SignalSequence, rules: &RuleSet) -> Dedup {
        let cells = |d: &Dedup| -> Vec<Vec<Vec<String>>> {
            let parts = d.representative.frame.partitions().iter();
            parts
                .map(|b| {
                    let cell = |v: Value| match v {
                        Value::Float(f) => format!("{:#x}", f.to_bits()),
                        other => format!("{other:?}"),
                    };
                    (0..b.num_rows())
                        .map(|r| b.row(r).into_iter().map(cell).collect())
                        .collect()
                })
                .collect()
        };
        let expect = oracle(seq, rules);
        let borrowed = deduplicate(seq, rules).unwrap();
        let owned = check(Cow::Owned(seq.clone()), rules).unwrap().into_owned();
        for got in [&borrowed, &owned] {
            assert_eq!(got.representative_channel, expect.representative_channel);
            assert_eq!(got.corresponding, expect.corresponding);
            assert_eq!(got.mismatched, expect.mismatched);
            assert_eq!(got.representative.signal, expect.representative.signal);
            assert_eq!(cells(got), cells(&expect));
        }
        borrowed
    }

    /// A `wpos` sequence from `(t, bus, v_num, v_text)` rows, one inner
    /// vector per partition; every cell is its own `Arc`.
    #[allow(clippy::type_complexity)]
    fn seq_parts(
        parts: Vec<Vec<(f64, Option<&str>, Option<f64>, Option<&str>)>>,
    ) -> SignalSequence {
        let batches = parts.into_iter().map(|rows| {
            Batch::from_rows(
                signal_schema(),
                rows.into_iter().map(|(t, bus, num, text)| {
                    vec![
                        Value::Float(t),
                        Value::from("wpos"),
                        bus.map_or(Value::Null, Value::from),
                        Value::from(num),
                        text.map_or(Value::Null, Value::from),
                    ]
                }),
            )
            .unwrap()
        });
        SignalSequence {
            signal: "wpos".into(),
            frame: DataFrame::from_partitions(signal_schema(), batches.collect()).unwrap(),
        }
    }

    #[test]
    fn existing_cases_match_the_oracle() {
        let rules = rules_with_home("FC");
        for rows in [
            vec![(2.0, "FC", Some(45.0)), (2.1, "DC", Some(45.0))],
            vec![(2.0, "FC", Some(45.0)), (2.1, "DC", Some(44.0))],
            vec![(1.0, "FC", Some(1.0)), (2.0, "FC", Some(2.0))],
            vec![(1.0, "ZC", Some(1.0)), (1.1, "AC", Some(1.0))],
            vec![],
        ] {
            checked(&seq(rows), &rules);
        }
    }

    #[test]
    fn representative_keeps_the_partition_structure() {
        let s = seq_parts(vec![
            vec![
                (1.0, Some("FC"), Some(1.0), None),
                (1.1, Some("DC"), Some(1.0), None),
            ],
            vec![(1.2, Some("DC"), Some(2.0), None)], // no representative row
            vec![],
            vec![
                (2.0, Some("FC"), Some(2.0), None),
                (2.1, None, Some(9.0), None), // null channel: in no copy
                (3.0, Some("FC"), Some(3.0), None),
                (3.1, Some("DC"), Some(3.0), None),
            ],
        ]);
        let d = checked(&s, &rules_with_home("FC"));
        assert_eq!(d.corresponding, ["DC"]);
        let rows: Vec<usize> = d
            .representative
            .frame
            .partitions()
            .iter()
            .map(Batch::num_rows)
            .collect();
        assert_eq!(rows, [1, 0, 0, 2]);
    }

    #[test]
    fn three_channels_last_row_and_length_mismatches() {
        let mut rows = Vec::new();
        for i in 0..50 {
            let v = Some(f64::from(i));
            rows.push((f64::from(i), Some("FC"), v, None));
            // BC disagrees in its last row only; AC lacks the last row.
            let bc = if i == 49 { Some(-1.0) } else { v };
            rows.push((f64::from(i) + 0.1, Some("BC"), bc, None));
            if i < 49 {
                rows.push((f64::from(i) + 0.2, Some("AC"), v, None));
            }
            rows.push((f64::from(i) + 0.3, Some("DC"), v, None));
        }
        let d = checked(&seq_parts(vec![rows]), &rules_with_home("FC"));
        assert_eq!(d.representative_channel, "FC");
        assert_eq!(d.corresponding, ["DC"]);
        assert_eq!(d.mismatched, ["AC", "BC"]);
        assert_eq!(d.representative.len(), 50);
    }

    #[test]
    fn text_values_compare_by_content() {
        // Every label cell is a distinct `Arc`: pointer equality would call
        // the copies different.
        let s = seq_parts(vec![vec![
            (1.0, Some("FC"), None, Some("ON")),
            (1.1, Some("DC"), None, Some("ON")),
            (1.2, Some("EC"), None, Some("ON")),
            (2.0, Some("FC"), None, Some("OFF")),
            (2.1, Some("DC"), None, Some("OFF")),
            (2.2, Some("EC"), None, Some("off")),
        ]]);
        let d = checked(&s, &rules_with_home("FC"));
        assert_eq!(d.corresponding, ["DC"]);
        assert_eq!(d.mismatched, ["EC"]);
    }

    #[test]
    fn numeric_values_compare_by_bit_pattern() {
        let quiet = f64::NAN;
        let payload = f64::from_bits(quiet.to_bits() | 1);
        let s = seq_parts(vec![vec![
            (1.0, Some("FC"), Some(0.0), None),
            (1.1, Some("DC"), Some(-0.0), None), // equal as floats, not as bits
            (1.2, Some("EC"), Some(0.0), None),
            (1.3, Some("GC"), Some(0.0), None),
            (2.0, Some("FC"), Some(quiet), None),
            (2.1, Some("DC"), Some(quiet), None),
            (2.2, Some("EC"), Some(quiet), None), // NaN == NaN by bits
            (2.3, Some("GC"), Some(payload), None),
        ]]);
        let d = checked(&s, &rules_with_home("FC"));
        assert_eq!(d.corresponding, ["EC"]);
        assert_eq!(d.mismatched, ["DC", "GC"]);
    }

    #[test]
    fn absent_home_falls_back_to_smallest_channel() {
        // The rules name FC home, the data never saw it.
        let s = seq_parts(vec![vec![
            (1.0, Some("ZC"), Some(1.0), None),
            (1.1, Some("DC"), Some(1.0), None),
        ]]);
        let d = checked(&s, &rules_with_home("FC"));
        assert_eq!(d.representative_channel, "DC");
        assert_eq!(d.corresponding, ["ZC"]);
    }

    #[test]
    fn owned_single_channel_sequence_is_moved_not_copied() {
        let s = seq(vec![(1.0, "FC", Some(1.0)), (2.0, "FC", Some(2.0))]);
        let cell = |s: &SignalSequence| {
            s.frame.partitions()[0]
                .column(0)
                .as_float_slice()
                .unwrap()
                .as_ptr()
        };
        let before = cell(&s);
        let d = check(Cow::Owned(s), &RuleSet::new()).unwrap();
        assert_eq!(cell(&d.representative), before, "same column buffer");
    }

    #[test]
    fn lent_single_channel_sequence_stays_borrowed() {
        let s = seq(vec![(1.0, "FC", Some(1.0)), (2.0, "FC", Some(2.0))]);
        let d = check(Cow::Borrowed(&s), &RuleSet::new()).unwrap();
        assert!(matches!(d.representative, Cow::Borrowed(_)));
        assert_eq!(d.representative_channel, "FC");
    }

    #[test]
    fn dedup_all_processes_every_signal() {
        let s1 = seq(vec![(1.0, "FC", Some(1.0))]);
        let ds = deduplicate_all(&[s1.clone(), s1], &RuleSet::new()).unwrap();
        assert_eq!(ds.len(), 2);
    }
}
