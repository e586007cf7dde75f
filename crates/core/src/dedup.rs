//! Gateway deduplication (Algorithm 1, line 9).
//!
//! Signals forwarded through gateways are recorded once per channel. The
//! equality check `e : K_s^{s_id} -> (K_rep, K_cor)` verifies the channel
//! copies carry identical value sequences and keeps one *representative*
//! channel for processing; results then apply to all *corresponding*
//! channels, cutting computational cost by the duplication factor.
//!
//! [`Deduplicator`] is the check as an incremental operator: a batch run
//! pushes a whole sequence once, a stream each chunk its watermark
//! releases.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::Arc;

use ivnt_frame::prelude::*;

use crate::error::Result;
use crate::rules::RuleSet;
use crate::split::{Rows, SignalSequence};

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

/// Runs the equality check for one signal's multi-channel sequence: one
/// push of the whole sequence through a [`Deduplicator`] with no history
/// bound. The representative keeps the input's partition structure.
///
/// # Errors
///
/// Propagates tabular-engine failures.
pub fn deduplicate(seq: &SignalSequence, rules: &RuleSet) -> Result<Dedup> {
    let dedup = Deduplicator::new(&seq.signal, rules, usize::MAX);
    Ok(check(Cow::Borrowed(seq), dedup)?.into_owned())
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

/// `dedup` over the whole of `seq` in one push. Where the push keeps every
/// row, the sequence is its own representative, moved or borrowed as handed
/// over; otherwise the representative's rows are gathered partition by
/// partition.
pub(crate) fn check<'a>(
    seq: Cow<'a, SignalSequence>,
    mut dedup: Deduplicator,
) -> Result<Checked<'a>> {
    let representative = match dedup.push(&seq.rows()?, &[]) {
        Selection::All => seq,
        Selection::Rows(rows) => {
            let parts = seq.frame.partitions().iter().zip(rows);
            let parts = parts.map(|(batch, rows)| batch.take(&rows)).collect();
            Cow::Owned(SignalSequence {
                signal: seq.signal.clone(),
                frame: DataFrame::from_partitions(seq.frame.schema().clone(), parts)?,
            })
        }
    };
    let report = dedup.finish();
    Ok(Checked {
        representative,
        representative_channel: report.representative_channel,
        corresponding: report.corresponding,
        mismatched: report.mismatched,
    })
}

/// The rows of a pushed chunk a [`Deduplicator`] keeps.
#[derive(Debug, Clone, PartialEq)]
pub enum Selection {
    /// Every row: dedup is off, or the signal has one channel so far.
    All,
    /// The representative's rows, ascending, one list per pushed part.
    Rows(Vec<Vec<usize>>),
}

/// What [`Deduplicator::finish`] reports.
#[derive(Debug, Clone, PartialEq)]
pub struct DedupReport {
    /// Channel chosen as representative.
    pub representative_channel: String,
    /// Channels whose copies matched the representative, by name.
    pub corresponding: Vec<String>,
    /// Channels whose copies disagreed or overran the history bound.
    pub mismatched: Vec<String>,
    /// Rows pushed.
    pub rows_in: usize,
    /// Rows selected.
    pub rows_kept: usize,
    /// Rows of the channel a single push would have chosen instead of the
    /// pinned representative.
    pub rep_conflicts: u64,
}

/// Channel code of a row whose `b_id` cell is null: it belongs to no copy.
const NO_CHANNEL: u32 = u32::MAX;

/// The compared element of `e`: `v_num` bits and the `v_text` cell, whose
/// content is compared.
type Elem<T> = (Option<u64>, Option<T>);

fn borrowed((num, text): &Elem<Arc<str>>) -> Elem<&Arc<str>> {
    (*num, text.as_ref())
}

/// The compared elements of `channel`'s rows in a pushed chunk, in order.
fn values<'a>(
    parts: &'a [Rows<'a>],
    codes: &'a [Vec<u32>],
    channel: usize,
) -> impl Iterator<Item = Elem<&'a Arc<str>>> + 'a {
    parts.iter().zip(codes).flat_map(move |(rows, codes)| {
        (0..codes.len())
            .filter(move |&row| codes[row] as usize == channel)
            .map(move |row| (rows.num[row].map(f64::to_bits), rows.text[row].as_ref()))
    })
}

/// Where one channel stands in the equality check.
#[derive(Default)]
struct Channel {
    name: Arc<str>,
    /// Values not matched yet: the representative's it has not reached
    /// when `behind`, else its own past the representative's.
    pending: VecDeque<Elem<Arc<str>>>,
    behind: bool,
    mismatched: bool,
}

/// The equality check `e` for one signal as an incremental operator: push
/// the signal's rows in time order, a chunk at a time, and take each
/// chunk's representative rows; [`finish`](Deduplicator::finish) reports
/// the channels.
///
/// The representative is pinned at the first push: the signal's home
/// channel when the rules name one and it has been seen, otherwise the
/// lexicographically smallest channel seen. Copies compare element-wise in
/// time order by `(v_num bits, v_text content)`; timestamps may differ by
/// the gateway forwarding delay and are not compared. Within a push values
/// are compared in place; across pushes each copy carries its unmatched
/// values, and one that falls more than the history bound behind or ahead
/// is declared mismatched, as is one first seen after the representative
/// had rows. A row with a null channel belongs to no copy, so only
/// [`Selection::All`] keeps it.
///
/// The default operator is the passthrough for dedup turned off: it keeps
/// every row and reports the smallest channel.
#[derive(Default)]
pub struct Deduplicator {
    home: Option<String>,
    enabled: bool,
    history_cap: usize,
    /// Every channel seen, by code.
    channels: Vec<Channel>,
    rep: Option<usize>,
    rows_in: usize,
    rows_kept: usize,
    rep_conflicts: u64,
}

impl Deduplicator {
    /// The check for `signal`, whose home channel the `rules` name; a copy
    /// may run `history_cap` rows behind or ahead of the representative
    /// (`usize::MAX`: unbounded).
    pub fn new(signal: &str, rules: &RuleSet, history_cap: usize) -> Deduplicator {
        let mut rules = rules.rules().iter();
        let home = rules.find(|r| r.signal == signal && r.info.home_channel);
        Deduplicator {
            home: home.map(|r| r.bus.clone()),
            enabled: true,
            history_cap,
            ..Deduplicator::default()
        }
    }

    /// A channel's code, by `Arc` pointer (a split sequence shares one per
    /// channel) or else by content.
    fn code(&mut self, bus: &Arc<str>) -> u32 {
        let channels = &self.channels;
        let code = channels
            .iter()
            .position(|c| Arc::ptr_eq(&c.name, bus))
            .or_else(|| channels.iter().position(|c| c.name == *bus))
            .unwrap_or_else(|| {
                let name = bus.clone();
                let mismatched = self.rows_kept > 0;
                self.channels.push(Channel {
                    name,
                    mismatched,
                    ..Channel::default()
                });
                self.channels.len() - 1
            });
        code as u32
    }

    /// Pushes the next chunk of the signal's rows, one [`Rows`] per part,
    /// and returns the rows it keeps. `seen` names channels the caller has
    /// seen upstream whose rows may be yet to come (a stream's reorder
    /// buffer): they count for the pin and get the representative's values
    /// kept for them. An empty push changes nothing.
    pub fn push(&mut self, parts: &[Rows<'_>], seen: &[Arc<str>]) -> Selection {
        if parts.iter().all(|rows| rows.bus.is_empty()) {
            return Selection::All;
        }
        let codes: Vec<Vec<u32>> = parts
            .iter()
            .map(|rows| {
                let code =
                    |bus: &Option<Arc<str>>| bus.as_ref().map_or(NO_CHANNEL, |b| self.code(b));
                rows.bus.iter().map(code).collect()
            })
            .collect();
        for bus in seen {
            self.code(bus);
        }
        let pushed: usize = codes.iter().map(Vec::len).sum();
        self.rows_in += pushed;
        if !self.enabled || self.channels.len() <= 1 {
            if self.enabled && !self.channels.is_empty() {
                self.rep = Some(0);
            }
            self.rows_kept += pushed;
            return Selection::All;
        }

        let home = self
            .channels
            .iter()
            .position(|c| Some(&*c.name) == self.home.as_deref());
        let smallest = (0..self.channels.len()).min_by_key(|&c| &self.channels[c].name);
        let canonical = home.or(smallest).unwrap_or(0);
        let rep = *self.rep.get_or_insert(canonical);
        // Rows of the channel one push would have pinned instead.
        let canon = codes.iter().flatten().filter(|&&c| c as usize == canonical);
        let conflicts = if canonical == rep { 0 } else { canon.count() };
        self.rep_conflicts += conflicts as u64;

        let owned = |(num, text): Elem<&Arc<str>>| (num, text.cloned());
        let mut overflows = 0u64;
        for (code, channel) in self.channels.iter_mut().enumerate() {
            if code == rep || channel.mismatched {
                continue;
            }
            let held = channel.pending.len();
            let (mine, theirs) = if channel.behind { (held, 0) } else { (0, held) };
            let (pending, behind) = {
                let mut ours = channel
                    .pending
                    .range(..mine)
                    .map(borrowed)
                    .chain(values(parts, &codes, rep));
                let mut copy = channel
                    .pending
                    .range(..theirs)
                    .map(borrowed)
                    .chain(values(parts, &codes, code));
                loop {
                    match (ours.next(), copy.next()) {
                        (Some(a), Some(b)) if a == b => {}
                        (Some(_), Some(_)) => {
                            channel.mismatched = true;
                            break (VecDeque::new(), false);
                        }
                        (Some(a), None) => {
                            break (std::iter::once(a).chain(ours).map(owned).collect(), true)
                        }
                        (None, Some(b)) => {
                            break (std::iter::once(b).chain(copy).map(owned).collect(), false)
                        }
                        (None, None) => break (VecDeque::new(), false),
                    }
                }
            };
            (channel.pending, channel.behind) = (pending, behind);
            if channel.pending.len() > self.history_cap {
                channel.mismatched = true;
                channel.pending.clear();
                overflows += 1;
            }
        }

        if conflicts > 0 || overflows > 0 {
            ivnt_obs::with(|r| {
                r.add("dedup_rep_conflicts_total", conflicts as u64);
                r.add("dedup_overflow_total", overflows);
            });
        }
        let rows: Vec<Vec<usize>> = codes
            .iter()
            .map(|codes| {
                (0..codes.len())
                    .filter(|&row| codes[row] as usize == rep)
                    .collect()
            })
            .collect();
        self.rows_kept += rows.iter().map(Vec::len).sum::<usize>();
        Selection::Rows(rows)
    }

    /// Values held between pushes, over all copies.
    pub fn buffered(&self) -> usize {
        self.channels.iter().map(|c| c.pending.len()).sum()
    }

    /// The channels' verdicts and the row counts.
    pub fn finish(self) -> DedupReport {
        let mut others: Vec<&Channel> = self.channels.iter().collect();
        let rep = self.rep.map(|rep| others.remove(rep));
        others.sort_by(|a, b| a.name.cmp(&b.name));
        let name = |c: &Channel| c.name.to_string();
        let representative_channel = rep.or(others.first().copied()).map(name);
        let (corresponding, mismatched): (Vec<&Channel>, _) = others
            .into_iter()
            .filter(|_| rep.is_some())
            .partition(|c| !c.mismatched && c.pending.is_empty());
        DedupReport {
            representative_channel: representative_channel.unwrap_or_default(),
            corresponding: corresponding.into_iter().map(name).collect(),
            mismatched: mismatched.into_iter().map(name).collect(),
            rows_in: self.rows_in,
            rows_kept: self.rows_kept,
            rep_conflicts: self.rep_conflicts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpret::signal_schema;
    use crate::rules::{Rule, RuleInfo, RuleSet};
    use crate::tabular::columns as c;
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
        let dedup = Deduplicator::new(&seq.signal, rules, usize::MAX);
        let owned = check(Cow::Owned(seq.clone()), dedup).unwrap().into_owned();
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

    fn unbounded() -> Deduplicator {
        Deduplicator::new("wpos", &RuleSet::new(), usize::MAX)
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
        let d = check(Cow::Owned(s), unbounded()).unwrap();
        assert_eq!(cell(&d.representative), before, "same column buffer");
    }

    #[test]
    fn lent_single_channel_sequence_stays_borrowed() {
        let s = seq(vec![(1.0, "FC", Some(1.0)), (2.0, "FC", Some(2.0))]);
        let d = check(Cow::Borrowed(&s), unbounded()).unwrap();
        assert!(matches!(d.representative, Cow::Borrowed(_)));
        assert_eq!(d.representative_channel, "FC");
    }

    #[test]
    fn dedup_all_processes_every_signal() {
        let s1 = seq(vec![(1.0, "FC", Some(1.0))]);
        let ds = deduplicate_all(&[s1.clone(), s1], &RuleSet::new()).unwrap();
        assert_eq!(ds.len(), 2);
    }

    /// `rows[range]`, column by column.
    fn slice<'a>(rows: &Rows<'a>, range: std::ops::Range<usize>) -> Rows<'a> {
        Rows {
            t: &rows.t[range.clone()],
            bus: &rows.bus[range.clone()],
            num: &rows.num[range.clone()],
            text: &rows.text[range],
        }
    }

    /// Pushes `seq` in chunks of `size` rows, announcing `seen` each time:
    /// the kept rows (as sequence positions) and the report.
    fn chunked(
        seq: &SignalSequence,
        mut dedup: Deduplicator,
        size: usize,
        seen: &[Arc<str>],
    ) -> (Vec<usize>, DedupReport) {
        let rows = seq.rows().unwrap()[0];
        let mut kept = Vec::new();
        for start in (0..rows.t.len()).step_by(size) {
            let end = (start + size).min(rows.t.len());
            match dedup.push(&[slice(&rows, start..end)], seen) {
                Selection::All => kept.extend(start..end),
                Selection::Rows(parts) => kept.extend(parts[0].iter().map(|row| start + row)),
            }
        }
        (kept, dedup.finish())
    }

    /// A home copy FC and three gateway copies: DC three rows behind,
    /// catching up at the end; BC wrong at row 40 and three rows short; AC
    /// ten rows short.
    fn gatewayed() -> SignalSequence {
        let v = |i: i32| Some(f64::from(i % 7));
        let mut rows = Vec::new();
        for i in 0..60 {
            let t = f64::from(i);
            rows.push((t, Some("FC"), v(i), None));
            if i >= 3 {
                rows.push((t + 0.1, Some("DC"), v(i - 3), None));
            }
            if i < 57 {
                rows.push((
                    t + 0.2,
                    Some("BC"),
                    if i == 40 { Some(-1.0) } else { v(i) },
                    None,
                ));
            }
            if i < 50 {
                rows.push((t + 0.3, Some("AC"), v(i), None));
            }
        }
        for i in 57..60 {
            rows.push((60.0 + f64::from(i), Some("DC"), v(i), None));
        }
        seq_parts(vec![rows])
    }

    #[test]
    fn any_chunking_gives_the_one_push_verdicts() {
        let s = gatewayed();
        let rules = rules_with_home("FC");
        let new = || Deduplicator::new("wpos", &rules, usize::MAX);
        let (whole, report) = chunked(&s, new(), s.len(), &[]);
        assert_eq!(report.corresponding, ["DC"]);
        assert_eq!(report.mismatched, ["AC", "BC"]);
        assert_eq!((report.rows_in, report.rows_kept), (s.len(), 60));
        let seen: Vec<Arc<str>> = ["AC", "BC", "DC", "FC"].map(Arc::from).to_vec();
        for size in [1, 2, 3, 5, 16, 64] {
            assert_eq!(
                chunked(&s, new(), size, &seen),
                (whole.clone(), report.clone())
            );
        }
    }

    #[test]
    fn history_bound_declares_a_lagging_copy_mismatched() {
        let s = gatewayed();
        let rules = rules_with_home("FC");
        let seen: Vec<Arc<str>> = ["AC", "BC", "DC", "FC"].map(Arc::from).to_vec();
        let bounded = |cap| chunked(&s, Deduplicator::new("wpos", &rules, cap), 4, &seen).1;
        // DC trails FC by three rows plus what one chunk holds.
        assert_eq!(bounded(8).corresponding, ["DC"]);
        assert_eq!(bounded(2).mismatched, ["AC", "BC", "DC"]);
    }

    #[test]
    fn a_late_pin_counts_conflicts() {
        let s = seq(vec![
            (1.0, "DC", Some(1.0)),
            (1.1, "FC", Some(1.0)),
            (2.0, "DC", Some(2.0)),
            (2.1, "FC", Some(2.0)),
        ]);
        // The first chunk sees DC alone, so DC is pinned; FC is home.
        let (kept, report) = chunked(
            &s,
            Deduplicator::new("wpos", &rules_with_home("FC"), 8),
            1,
            &[],
        );
        assert_eq!(report.representative_channel, "DC");
        assert_eq!(report.mismatched, ["FC"]);
        assert_eq!(report.rep_conflicts, 2);
        assert_eq!(kept, [0, 2]);
    }
}
