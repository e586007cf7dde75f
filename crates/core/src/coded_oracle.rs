//! Lines 8–11 on coded rows against the frame-based oracle they replaced.
//!
//! The oracle is the path that materialized every row: split into a
//! `K_s`-schema frame (stable sort by time), the equality check on that
//! frame with the representative `take`n from it, and the constraint marks
//! evaluated through [`ConditionFn::evaluate`] on a [`RowCtx`] per row, the
//! kept rows `filter`ed out of the representative's single batch.

use std::sync::Arc;

use ivnt_frame::prelude::*;
use ivnt_protocol::signal::SignalSpec;
use proptest::prelude::*;

use crate::dedup::{Dedup, Deduplicator, Selection};
use crate::interpret::signal_schema;
use crate::pipeline::{DomainProfile, Pipeline};
use crate::reduce::{ConditionFn, Constraint, Reducer, RowCtx};
use crate::rules::{Packing, Rule, RuleInfo, RuleSet};
use crate::split::{SequenceBuilder, SignalSequence};
use crate::tabular::columns as c;

const SIGNAL: &str = "wpos";
const CHANNELS: [&str; 3] = ["AC", "DC", "FC"];
const LABELS: [&str; 3] = ["ON", "OFF", "ERR"];

/// One `K_s` row of the signal: `(t, b_id, v_num, v_text)`.
type Row = (
    Option<f64>,
    Option<&'static str>,
    Option<f64>,
    Option<&'static str>,
);

/// xorshift64*: the case's inputs from its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// True with probability `pct` %.
    fn pct(&mut self, pct: u64) -> bool {
        self.next() % 100 < pct
    }
}

/// One case: the rows in feed order, the rules (which name the home
/// channel, if any), the constraints and whether dedup is on.
struct Case {
    feed: Vec<Row>,
    rules: RuleSet,
    constraints: Vec<Constraint>,
    dedup: bool,
}

fn case(seed: u64) -> Case {
    let mut rng = Rng(seed | 1);
    let channels = &CHANNELS[..1 + rng.below(3)];
    let textual = rng.pct(30);
    // The source signal: few distinct values, so repeats are common.
    let len = rng.below(40);
    let mut t = 0.0;
    let source: Vec<(Option<f64>, Option<f64>, Option<&str>)> = (0..len)
        .map(|_| {
            t += [0.0, 0.01, 0.1, 0.5, 2.0][rng.below(5)];
            let t = (!rng.pct(5)).then_some(t);
            let value = rng.below(4);
            match (rng.pct(5), textual) {
                (true, _) => (t, None, None),
                (false, true) => (t, None, Some(LABELS[value % 3])),
                (false, false) => (t, Some(value as f64 - 1.0), None),
            }
        })
        .collect();
    // One copy per channel, each forwarded with its own delay and maybe
    // missing or corrupting rows.
    let mut feed = Vec::new();
    for (i, &channel) in channels.iter().enumerate() {
        let delay = i as f64 * [0.0, 0.0001, 0.02][rng.below(3)];
        let faulty = i > 0 && rng.pct(40);
        for &(t, num, text) in &source {
            if faulty && rng.pct(10) {
                continue;
            }
            let (num, text) = if faulty && rng.pct(10) {
                (num.map(|v| v + 0.5), text.map(|_| "CORRUPT"))
            } else {
                (num, text)
            };
            let bus = (!rng.pct(2)).then_some(channel);
            feed.push((t.map(|t| t + delay), bus, num, text));
        }
    }
    // Mostly channel-major (non-monotone); sometimes time-ordered.
    if rng.pct(30) {
        let key = |r: &Row| r.0.unwrap_or(f64::NAN);
        feed.sort_by(|a, b| key(a).total_cmp(&key(b)));
    }

    let home = rng.below(CHANNELS.len() + 1);
    let mut rules = RuleSet::new();
    for (i, bus) in CHANNELS.iter().enumerate() {
        rules.push(Rule {
            signal: SIGNAL.into(),
            bus: (*bus).into(),
            message_id: 3,
            info: RuleInfo {
                spec: SignalSpec::builder(SIGNAL, 0, 16).build().unwrap(),
                packing: Packing::Fixed {
                    first_byte: 0,
                    num_bytes: 2,
                },
                home_channel: i == home,
                comparable: true,
                expected_cycle_s: None,
            },
        });
    }

    let mut functions = Vec::new();
    if rng.pct(60) {
        functions.push(ConditionFn::ValueChanged);
    }
    if rng.pct(40) {
        let max_gap_s = [0.05, 0.3, 1.0][rng.below(3)];
        functions.push(ConditionFn::GapExceeds { max_gap_s });
    }
    if rng.pct(30) {
        functions.push(ConditionFn::OutOfRange { min: 0.0, max: 1.5 });
    }
    if rng.pct(30) {
        functions.push(ConditionFn::EveryNth { n: rng.below(5) });
    }
    if rng.pct(30) {
        functions.push(ConditionFn::Custom {
            name: "falls-or-off".into(),
            func: Arc::new(|ctx: &RowCtx| {
                let falls = ctx.prev_num.zip(ctx.num).is_some_and(|(p, v)| v < p);
                let off = ctx.text.as_deref() == Some("OFF") && ctx.prev_text.is_some();
                falls || off || (ctx.index == 3 && ctx.t > ctx.prev_t.unwrap_or(0.0))
            }),
        });
    }
    let constraints = match rng.below(4) {
        0 => Vec::new(),
        1 => vec![Constraint::for_signal("other", functions)],
        _ => vec![Constraint::global(functions)],
    };
    Case {
        feed,
        rules,
        constraints,
        dedup: !rng.pct(10),
    }
}

fn frame(rows: &[Row]) -> DataFrame {
    let cells = rows.iter().map(|&(t, bus, num, text)| {
        vec![
            Value::from(t),
            Value::from(SIGNAL),
            bus.map_or(Value::Null, Value::from),
            Value::from(num),
            text.map_or(Value::Null, Value::from),
        ]
    });
    DataFrame::from_rows(signal_schema(), cells).unwrap()
}

/// Line 8 on the frame: the feed stable-sorted by time, nulls as NaN.
fn oracle_split(feed: &[Row]) -> SignalSequence {
    let mut rows = feed.to_vec();
    rows.sort_by(|a, b| a.0.unwrap_or(f64::NAN).total_cmp(&b.0.unwrap_or(f64::NAN)));
    SignalSequence {
        signal: SIGNAL.into(),
        frame: frame(&rows),
    }
}

/// Line 9 on the frame, in one push: the representative's rows `take`n
/// from the sequence, the other channels' value sequences compared whole.
fn oracle_dedup(seq: &SignalSequence, rules: &RuleSet, enabled: bool) -> Dedup {
    let channels = seq.channels().unwrap();
    if !enabled || channels.len() <= 1 {
        return Dedup {
            representative: seq.clone(),
            representative_channel: channels.first().cloned().unwrap_or_default(),
            corresponding: Vec::new(),
            mismatched: Vec::new(),
        };
    }
    let home = rules
        .rules()
        .iter()
        .find(|r| r.signal == seq.signal && r.info.home_channel)
        .map(|r| r.bus.clone());
    let rep = home
        .filter(|h| channels.contains(h))
        .unwrap_or_else(|| channels[0].clone());
    let batch = seq.frame.to_single_batch().unwrap();
    let buses = batch.column(batch.schema().index_of(c::BUS).unwrap());
    let rows_of = |channel: &str| -> Vec<usize> {
        let buses = buses.as_dict().unwrap();
        (0..buses.codes().len())
            .filter(|&i| buses.get(i).map(AsRef::as_ref) == Some(channel))
            .collect()
    };
    let nums = seq.numeric_values().unwrap();
    let texts = seq.text_values().unwrap();
    let values = |rows: &[usize]| -> Vec<(Option<u64>, Option<Arc<str>>)> {
        rows.iter()
            .map(|&i| (nums[i].map(f64::to_bits), texts[i].clone()))
            .collect()
    };
    let rep_rows = rows_of(&rep);
    let (mut corresponding, mut mismatched) = (Vec::new(), Vec::new());
    for channel in channels.iter().filter(|c| **c != rep) {
        if values(&rows_of(channel)) == values(&rep_rows) {
            corresponding.push(channel.clone());
        } else {
            mismatched.push(channel.clone());
        }
    }
    let representative = batch.take(&rep_rows);
    Dedup {
        representative: SignalSequence {
            signal: seq.signal.clone(),
            frame: DataFrame::from_partitions(signal_schema(), vec![representative]).unwrap(),
        },
        representative_channel: rep,
        corresponding,
        mismatched,
    }
}

/// Lines 10–11 on the frame: a [`RowCtx`] per row through
/// [`ConditionFn::evaluate`], the marked rows filtered out of the
/// representative's single batch.
fn oracle_reduce(rep: &SignalSequence, constraints: &[Constraint]) -> SignalSequence {
    let functions: Vec<&ConditionFn> = constraints
        .iter()
        .filter(|c| c.applies_to(&rep.signal))
        .flat_map(|c| &c.functions)
        .collect();
    let times = rep.times().unwrap();
    let nums = rep.numeric_values().unwrap();
    let texts = rep.text_values().unwrap();
    let mask: Vec<bool> = (0..rep.len())
        .map(|i| {
            let prev = i.checked_sub(1);
            let ctx = RowCtx {
                t: times[i],
                num: nums[i],
                text: texts[i].clone(),
                prev_t: prev.map(|p| times[p]),
                prev_num: prev.and_then(|p| nums[p]),
                prev_text: prev.and_then(|p| texts[p].clone()),
                index: i,
            };
            functions.is_empty() || functions.iter().any(|f| f.evaluate(&ctx))
        })
        .collect();
    let kept = rep.frame.to_single_batch().unwrap().filter(&mask).unwrap();
    SignalSequence {
        signal: rep.signal.clone(),
        frame: DataFrame::from_partitions(signal_schema(), vec![kept]).unwrap(),
    }
}

/// Every cell of every partition, floats by bit pattern.
fn cells(seq: &SignalSequence) -> Vec<Vec<Vec<String>>> {
    let cell = |v: Value| match v {
        Value::Float(f) => format!("{:#x}", f.to_bits()),
        other => format!("{other:?}"),
    };
    (seq.frame.partitions().iter())
        .map(|b| {
            (0..b.num_rows())
                .map(|r| b.row(r).into_iter().map(cell).collect())
                .collect()
        })
        .collect()
}

fn verdicts(d: &Dedup) -> (String, Vec<String>, Vec<String>) {
    let d = d.clone();
    (d.representative_channel, d.corresponding, d.mismatched)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The coded path (builder → dedup selection → reduce selection →
    /// frames of the kept rows) equals the frame oracle, and any chunking
    /// of the pushes (a stream's) gives the one-push selections.
    #[test]
    fn coded_operators_match_the_frame_oracle(seed in any::<u64>(), cuts in 1usize..9) {
        let case = case(seed);
        let profile = DomainProfile::new("oracle")
            .with_signals([SIGNAL])
            .with_constraints(case.constraints.clone())
            .with_dedup(case.dedup);
        let pipeline = Pipeline::new(case.rules.clone(), profile).unwrap();
        let mut builder = SequenceBuilder::default();
        for batch in frame(&case.feed).partitions() {
            builder.push(batch).unwrap();
        }
        let coded = builder.finish();
        prop_assert_eq!(coded.len(), usize::from(!case.feed.is_empty()));

        let split = oracle_split(&case.feed);
        let dedup = oracle_dedup(&split, &case.rules, case.dedup);
        let reduced = oracle_reduce(&dedup.representative, &case.constraints);
        let Some(seq) = coded.first() else {
            return Ok(());
        };
        prop_assert_eq!(cells(&seq.to_sequence(&Selection::All).unwrap()), cells(&split));

        let (got_reduced, got_dedup, rows_interpreted) = pipeline.reduce_signal(seq).unwrap();
        prop_assert_eq!(verdicts(&got_dedup), verdicts(&dedup));
        prop_assert_eq!(cells(&got_dedup.representative), cells(&dedup.representative));
        prop_assert_eq!(rows_interpreted, dedup.representative.len());
        prop_assert_eq!(got_reduced.len(), reduced.len());
        prop_assert_eq!(cells(&got_reduced), cells(&reduced));

        // Chunked pushes, every channel announced as the stream announces
        // what its reorder buffer has seen.
        let one_push = |dedup: &mut Deduplicator, reducer: &mut Reducer| {
            let rep = dedup.push(seq.view(), &[]);
            let keep = reducer.push(seq.view(), &rep);
            (rep.positions(seq.len()).collect::<Vec<_>>(), keep.positions(seq.len()).collect::<Vec<_>>())
        };
        let new_ops = || (
            pipeline.deduplicator(SIGNAL, usize::MAX),
            Reducer::new(SIGNAL, &case.constraints),
        );
        let (mut d, mut r) = new_ops();
        let whole = one_push(&mut d, &mut r);
        let (whole_report, whole_counts) = (d.finish(), r.finish());
        let seen: Vec<u32> = (0..seq.view().channels.len() as u32).collect();
        let (mut d, mut r) = new_ops();
        let (mut rep_rows, mut kept_rows) = (Vec::new(), Vec::new());
        let mut rng = Rng((seed ^ 0x9e37_79b9_7f4a_7c15) | 1);
        let mut start = 0;
        while start < seq.len() {
            let end = (start + 1 + rng.below(cuts * 4)).min(seq.len());
            let chunk = seq.view().slice(start..end);
            let rep = d.push(chunk, &seen);
            let keep = r.push(chunk, &rep);
            rep_rows.extend(rep.positions(end - start).map(|i| start + i));
            kept_rows.extend(keep.positions(end - start).map(|i| start + i));
            start = end;
        }
        prop_assert_eq!((rep_rows, kept_rows), whole);
        prop_assert_eq!(d.finish(), whole_report);
        prop_assert_eq!(r.finish(), whole_counts);
    }
}
