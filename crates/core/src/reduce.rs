//! Constraint reduction (Algorithm 1, lines 10–11).
//!
//! A constraint set `C = {c = (s_id, d, F)}` marks the task-relevant
//! elements of each sequence: if the constraint is enabled (`d`), every
//! condition function `f ∈ F` is evaluated per row, and per Eq. (1) the
//! row's mark `e` is true when *any* `f` fires. Line 11 then keeps marked
//! rows only.
//!
//! The evaluation section's canonical reduction — "identical subsequent
//! signal instances are removed" — is the [`ConditionFn::ValueChanged`]
//! function; temporal-gap and range conditions express cycle-time and
//! plausibility constraints.

use std::sync::Arc;

use ivnt_frame::prelude::*;

use crate::error::Result;
use crate::split::{CodedRows, CodedSequence, Selection, SignalSequence};
use crate::tabular::columns::VALUE_NUM;

/// Context a custom condition function receives per row.
#[derive(Debug, Clone, PartialEq)]
pub struct RowCtx {
    /// Timestamp in seconds.
    pub t: f64,
    /// Numeric value (if numeric).
    pub num: Option<f64>,
    /// Textual value (if textual); shared with the column storage, so
    /// cloning it copies a pointer, not the string bytes.
    pub text: Option<Arc<str>>,
    /// Previous row's timestamp.
    pub prev_t: Option<f64>,
    /// Previous row's numeric value.
    pub prev_num: Option<f64>,
    /// Previous row's textual value.
    pub prev_text: Option<Arc<str>>,
    /// Row position in the sequence.
    pub index: usize,
}

/// Signature of custom condition functions.
pub type CustomFn = dyn Fn(&RowCtx) -> bool + Send + Sync;

/// A condition function `f` applied row-wise to a sequence.
#[derive(Clone)]
pub enum ConditionFn {
    /// Fires when the value differs from the previous row (the first row
    /// always fires) — removes cyclic repeats.
    ValueChanged,
    /// Fires when the temporal gap to the previous row exceeds
    /// `max_gap_s` — preserves cycle-time violations even when the value
    /// did not change.
    GapExceeds {
        /// Maximum allowed inter-arrival gap in seconds.
        max_gap_s: f64,
    },
    /// Fires for numeric values outside `[min, max]` — preserves
    /// implausible values (potential errors).
    OutOfRange {
        /// Lower plausibility bound.
        min: f64,
        /// Upper plausibility bound.
        max: f64,
    },
    /// Fires on every `n`-th row — systematic subsampling.
    EveryNth {
        /// Keep period (1 = every row).
        n: usize,
    },
    /// User-defined condition.
    Custom {
        /// Display name.
        name: String,
        /// The condition.
        func: Arc<CustomFn>,
    },
}

impl std::fmt::Debug for ConditionFn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConditionFn::ValueChanged => write!(f, "ValueChanged"),
            ConditionFn::GapExceeds { max_gap_s } => write!(f, "GapExceeds({max_gap_s})"),
            ConditionFn::OutOfRange { min, max } => write!(f, "OutOfRange({min}, {max})"),
            ConditionFn::EveryNth { n } => write!(f, "EveryNth({n})"),
            ConditionFn::Custom { name, .. } => write!(f, "Custom({name})"),
        }
    }
}

impl ConditionFn {
    /// Evaluates the condition against one row context.
    pub fn evaluate(&self, ctx: &RowCtx) -> bool {
        match self {
            ConditionFn::ValueChanged => {
                ctx.index == 0 || ctx.num != ctx.prev_num || ctx.text != ctx.prev_text
            }
            ConditionFn::GapExceeds { max_gap_s } => match ctx.prev_t {
                Some(prev) => ctx.t - prev > *max_gap_s,
                None => false,
            },
            ConditionFn::OutOfRange { min, max } => match ctx.num {
                Some(v) => v < *min || v > *max,
                None => false,
            },
            ConditionFn::EveryNth { n } => ctx.index.is_multiple_of((*n).max(1)),
            ConditionFn::Custom { func, .. } => func(ctx),
        }
    }
}

/// One constraint `c = (s_id, d, F)`.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// Sequence the constraint applies to; `None` applies to every signal.
    pub signal: Option<String>,
    /// The enable flag `d`.
    pub enabled: bool,
    /// The condition functions `F`.
    pub functions: Vec<ConditionFn>,
}

impl Constraint {
    /// A constraint applying to every signal.
    pub fn global(functions: Vec<ConditionFn>) -> Constraint {
        Constraint {
            signal: None,
            enabled: true,
            functions,
        }
    }

    /// A constraint for one signal.
    pub fn for_signal(signal: impl Into<String>, functions: Vec<ConditionFn>) -> Constraint {
        Constraint {
            signal: Some(signal.into()),
            enabled: true,
            functions,
        }
    }

    /// Whether the constraint participates in reducing `signal`: enabled,
    /// and either global or bound to that signal.
    pub fn applies_to(&self, signal: &str) -> bool {
        self.enabled && self.signal.as_deref().map(|s| s == signal).unwrap_or(true)
    }
}

/// The previous row a condition compares against.
#[derive(Clone, Copy)]
struct Prev<'a> {
    t: f64,
    num: Option<f64>,
    text: Option<&'a Arc<str>>,
}

impl ConditionFn {
    /// Whether the condition fires on the row `(t, num, text)`, the
    /// `index`-th of its sequence, after `prev`: [`evaluate`]
    /// (ConditionFn::evaluate) over typed values, a [`RowCtx`] built only
    /// for a custom function.
    #[inline]
    fn fires(
        &self,
        index: usize,
        t: f64,
        num: Option<f64>,
        text: Option<&Arc<str>>,
        prev: Option<Prev<'_>>,
    ) -> bool {
        match self {
            // Only the first row has no previous row.
            ConditionFn::ValueChanged => prev.is_none_or(|p| num != p.num || text != p.text),
            ConditionFn::GapExceeds { max_gap_s } => prev.is_some_and(|p| t - p.t > *max_gap_s),
            ConditionFn::OutOfRange { min, max } => num.is_some_and(|v| v < *min || v > *max),
            ConditionFn::EveryNth { n } => index.is_multiple_of((*n).max(1)),
            ConditionFn::Custom { func, .. } => func(&RowCtx {
                t,
                num,
                text: text.cloned(),
                prev_t: prev.map(|p| p.t),
                prev_num: prev.and_then(|p| p.num),
                prev_text: prev.and_then(|p| p.text.cloned()),
                index,
            }),
        }
    }
}

/// The constraint marks of lines 10–11 for one signal as an incremental
/// operator: push the representative's rows in time order, a chunk at a
/// time, and take each chunk's kept rows. The previous row and the row
/// index carry across pushes, so any chunking gives the marks one push of
/// the whole sequence gives.
#[derive(Default)]
pub struct Reducer {
    /// The functions `F` of every constraint that applies, in order.
    functions: Vec<ConditionFn>,
    /// The previous row's `(t, v_num, v_text)`.
    prev: Option<(f64, Option<f64>, Option<Arc<str>>)>,
    rows_in: usize,
    rows_kept: usize,
}

impl Reducer {
    /// The reduction of `signal` under the constraints that apply to it.
    pub fn new(signal: &str, constraints: &[Constraint]) -> Reducer {
        let active = constraints.iter().filter(|c| c.applies_to(signal));
        Reducer {
            functions: active.flat_map(|c| c.functions.iter().cloned()).collect(),
            ..Reducer::default()
        }
    }

    /// Pushes the `within` rows of the next chunk — the representative's,
    /// as [`Deduplicator`](crate::dedup::Deduplicator) selected them — and
    /// returns the rows whose mark `e` is set: those where any `f` fires.
    /// A signal no constraint applies to keeps every row.
    pub fn push(&mut self, rows: CodedRows<'_>, within: &Selection) -> Selection {
        let n = rows.rows.len();
        let pushed = within.count(n);
        self.rows_in += pushed;
        if self.functions.is_empty() {
            self.rows_kept += pushed;
            return within.clone();
        }
        let carried = self.prev.take();
        let mut prev = carried.as_ref().map(|(t, num, text)| Prev {
            t: *t,
            num: *num,
            text: text.as_ref(),
        });
        let first = self.rows_in - pushed;
        let mut kept = Vec::new();
        for (k, i) in within.positions(n).enumerate() {
            let row = &rows.rows[i];
            let (t, num, text) = (row.t().unwrap_or(f64::NAN), row.num(), rows.text(row));
            let index = first + k;
            if (self.functions.iter()).any(|f| f.fires(index, t, num, text, prev)) {
                kept.push(i);
            }
            prev = Some(Prev { t, num, text });
        }
        self.prev = prev.map(|p| (p.t, p.num, p.text.cloned()));
        self.rows_kept += kept.len();
        Selection::Rows(kept)
    }

    /// Rows pushed and rows kept.
    pub fn finish(self) -> (usize, usize) {
        (self.rows_in, self.rows_kept)
    }
}

/// Applies the constraint set to one sequence (lines 10–11): one push of
/// the whole sequence through a [`Reducer`], then the kept rows.
///
/// # Errors
///
/// Propagates tabular-engine failures.
pub fn apply_constraints(
    seq: &SignalSequence,
    constraints: &[Constraint],
) -> Result<SignalSequence> {
    let coded = CodedSequence::from_sequence(seq)?;
    let keep = Reducer::new(&seq.signal, constraints).push(coded.view(), &Selection::All);
    let rows: Vec<usize> = keep.positions(coded.len()).collect();
    let reduced = seq.frame.to_single_batch()?.take(&rows);
    Ok(SignalSequence {
        signal: seq.signal.clone(),
        frame: DataFrame::from_partitions(reduced.schema().clone(), vec![reduced])?,
    })
}

/// Applies the constraint set to every sequence.
///
/// # Errors
///
/// Propagates tabular-engine failures.
pub fn reduce_all(
    seqs: &[SignalSequence],
    constraints: &[Constraint],
) -> Result<Vec<SignalSequence>> {
    seqs.iter()
        .map(|s| apply_constraints(s, constraints))
        .collect()
}

/// Which Sec. 4.1 reduction technique a domain uses.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Reduction {
    /// The lossless constraint formalism `C` (Eq. 1) — the paper's default.
    #[default]
    Constraints,
    /// Lossy clustering onto `k` representative levels, then repeat
    /// removal.
    Cluster {
        /// Number of representative levels.
        k: usize,
        /// k-means iteration cap.
        max_iterations: usize,
    },
}

/// Alternative reduction technique (Sec. 4.1: "by clustering"): quantizes a
/// sequence's numeric values onto `k` cluster representatives
/// (deterministic 1-D k-means), then removes unchanged repeats. Values
/// collapse onto representative levels, so small jitter no longer defeats
/// repeat-removal — the trade-off is lossy values (the representative
/// replaces the original), which is why the paper's default reduction is
/// the lossless constraint formalism.
///
/// Textual instances pass through untouched.
///
/// # Errors
///
/// Propagates tabular-engine failures.
pub fn cluster_reduce(
    seq: &SignalSequence,
    k: usize,
    max_iterations: usize,
) -> Result<SignalSequence> {
    let repeats = [Constraint::global(vec![ConditionFn::ValueChanged])];
    let nums = seq.numeric_values()?;
    let numeric: Vec<f64> = nums.iter().filter_map(|v| *v).collect();
    if numeric.is_empty() {
        return apply_constraints(seq, &repeats);
    }
    let mut levels = ivnt_series::cluster::quantize(&numeric, k, max_iterations).into_iter();
    let replaced = nums.iter().map(|v| v.and_then(|_| levels.next())).collect();
    let batch = seq.frame.to_single_batch()?;
    let batch = batch.replace_column(VALUE_NUM, Column::Float(replaced))?;
    let quantized = SignalSequence {
        signal: seq.signal.clone(),
        frame: DataFrame::from_partitions(batch.schema().clone(), vec![batch])?,
    };
    apply_constraints(&quantized, &repeats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpret::signal_schema;

    fn seq(vals: Vec<(f64, Option<f64>, Option<&str>)>) -> SignalSequence {
        let frame = DataFrame::from_rows(
            signal_schema(),
            vals.into_iter().map(|(t, n, s)| {
                vec![
                    Value::Float(t),
                    Value::from("x"),
                    Value::from("FC"),
                    Value::from(n),
                    match s {
                        Some(s) => Value::from(s),
                        None => Value::Null,
                    },
                ]
            }),
        )
        .unwrap();
        SignalSequence {
            signal: "x".into(),
            frame,
        }
    }

    #[test]
    fn value_changed_removes_repeats() {
        let s = seq(vec![
            (0.0, Some(1.0), None),
            (0.1, Some(1.0), None),
            (0.2, Some(2.0), None),
            (0.3, Some(2.0), None),
            (0.4, Some(1.0), None),
        ]);
        let r =
            apply_constraints(&s, &[Constraint::global(vec![ConditionFn::ValueChanged])]).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(
            r.numeric_values().unwrap(),
            vec![Some(1.0), Some(2.0), Some(1.0)]
        );
    }

    #[test]
    fn textual_repeats_also_removed() {
        let s = seq(vec![
            (0.0, None, Some("ON")),
            (0.1, None, Some("ON")),
            (0.2, None, Some("OFF")),
        ]);
        let r =
            apply_constraints(&s, &[Constraint::global(vec![ConditionFn::ValueChanged])]).unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn gap_violation_preserved_even_without_change() {
        let s = seq(vec![
            (0.0, Some(1.0), None),
            (0.1, Some(1.0), None),
            (0.9, Some(1.0), None), // 0.8 s gap: cycle violation
        ]);
        let r = apply_constraints(
            &s,
            &[Constraint::global(vec![
                ConditionFn::ValueChanged,
                ConditionFn::GapExceeds { max_gap_s: 0.5 },
            ])],
        )
        .unwrap();
        // Row 0 (first), row 2 (gap) kept; row 1 dropped.
        assert_eq!(r.len(), 2);
        assert_eq!(r.times().unwrap(), vec![0.0, 0.9]);
    }

    #[test]
    fn out_of_range_preserved() {
        let s = seq(vec![
            (0.0, Some(1.0), None),
            (0.1, Some(900.0), None), // implausible
            (0.2, Some(1.0), None),
        ]);
        let r = apply_constraints(
            &s,
            &[Constraint::global(vec![ConditionFn::OutOfRange {
                min: 0.0,
                max: 300.0,
            }])],
        )
        .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.numeric_values().unwrap(), vec![Some(900.0)]);
    }

    #[test]
    fn per_signal_constraint_scoping() {
        let s = seq(vec![(0.0, Some(1.0), None), (0.1, Some(1.0), None)]);
        let other = Constraint::for_signal("other", vec![ConditionFn::ValueChanged]);
        let r = apply_constraints(&s, &[other]).unwrap();
        assert_eq!(r.len(), 2); // untouched: no constraint applies
        let mine = Constraint::for_signal("x", vec![ConditionFn::ValueChanged]);
        let r = apply_constraints(&s, &[mine]).unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn disabled_constraint_ignored() {
        let s = seq(vec![(0.0, Some(1.0), None), (0.1, Some(1.0), None)]);
        let mut c = Constraint::global(vec![ConditionFn::ValueChanged]);
        c.enabled = false;
        assert_eq!(apply_constraints(&s, &[c]).unwrap().len(), 2);
    }

    #[test]
    fn every_nth_subsamples() {
        let s = seq((0..10).map(|i| (i as f64, Some(i as f64), None)).collect());
        let r = apply_constraints(
            &s,
            &[Constraint::global(vec![ConditionFn::EveryNth { n: 3 }])],
        )
        .unwrap();
        assert_eq!(r.len(), 4); // rows 0, 3, 6, 9
    }

    #[test]
    fn custom_condition() {
        let s = seq(vec![(0.0, Some(1.0), None), (1.0, Some(-1.0), None)]);
        let c = Constraint::global(vec![ConditionFn::Custom {
            name: "negative".into(),
            func: Arc::new(|ctx| ctx.num.map(|v| v < 0.0).unwrap_or(false)),
        }]);
        let r = apply_constraints(&s, &[c]).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.numeric_values().unwrap(), vec![Some(-1.0)]);
    }

    #[test]
    fn empty_sequence_passthrough() {
        let s = seq(vec![]);
        let r =
            apply_constraints(&s, &[Constraint::global(vec![ConditionFn::ValueChanged])]).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn debug_formats() {
        assert_eq!(
            format!("{:?}", ConditionFn::GapExceeds { max_gap_s: 0.5 }),
            "GapExceeds(0.5)"
        );
    }

    fn noisy_seq() -> SignalSequence {
        // Two levels with jitter: plain repeat-removal keeps everything,
        // cluster reduction collapses each level run to one row.
        let values = [10.0, 10.1, 9.9, 10.05, 50.2, 49.9, 50.1, 10.0, 9.95];
        let frame = DataFrame::from_rows(
            signal_schema(),
            values.iter().enumerate().map(|(i, &v)| {
                vec![
                    Value::Float(i as f64 * 0.1),
                    Value::from("x"),
                    Value::from("FC"),
                    Value::Float(v),
                    Value::Null,
                ]
            }),
        )
        .unwrap();
        SignalSequence {
            signal: "x".into(),
            frame,
        }
    }

    #[test]
    fn cluster_reduction_collapses_jittery_levels() {
        let seq = noisy_seq();
        let plain = apply_constraints(&seq, &[Constraint::global(vec![ConditionFn::ValueChanged])])
            .unwrap();
        assert_eq!(plain.len(), 9); // jitter defeats repeat removal
        let clustered = cluster_reduce(&seq, 2, 50).unwrap();
        assert_eq!(clustered.len(), 3); // low run, high run, low run
        let vals = clustered.numeric_values().unwrap();
        assert!(vals[0].unwrap() < 20.0);
        assert!(vals[1].unwrap() > 40.0);
        assert!(vals[2].unwrap() < 20.0);
    }

    #[test]
    fn textual_sequences_fall_back_to_repeat_removal() {
        let frame = DataFrame::from_rows(
            signal_schema(),
            [("ON", 0.0), ("ON", 0.1), ("OFF", 0.2)]
                .iter()
                .map(|&(l, t)| {
                    vec![
                        Value::Float(t),
                        Value::from("x"),
                        Value::from("FC"),
                        Value::Null,
                        Value::from(l),
                    ]
                }),
        )
        .unwrap();
        let seq = SignalSequence {
            signal: "x".into(),
            frame,
        };
        let reduced = cluster_reduce(&seq, 4, 10).unwrap();
        assert_eq!(reduced.len(), 2);
    }

    #[test]
    fn cluster_empty_sequence_passthrough() {
        let frame = DataFrame::empty(signal_schema());
        let seq = SignalSequence {
            signal: "x".into(),
            frame,
        };
        assert!(cluster_reduce(&seq, 3, 10).unwrap().is_empty());
    }

    #[test]
    fn any_chunking_gives_the_one_push_marks() {
        // Values change every fourth row, time jumps every tenth.
        let rows = (0..40).map(|i| (f64::from(i + i / 10 * 2), Some(f64::from(i / 4)), None));
        let s = seq(rows.collect());
        let constraints = [Constraint::global(vec![
            ConditionFn::ValueChanged,
            ConditionFn::GapExceeds { max_gap_s: 1.2 },
            ConditionFn::EveryNth { n: 7 },
        ])];
        let coded = CodedSequence::from_sequence(&s).unwrap();
        let whole = Reducer::new("x", &constraints).push(coded.view(), &Selection::All);
        let whole: Vec<usize> = whole.positions(40).collect();
        let kept = whole.len();
        // Ten changes, then jumps at 10 and 30, every 7th at 7, 14, 21, 35.
        assert_eq!(kept, 10 + 2 + 4);
        for size in [1, 2, 3, 8] {
            let mut reducer = Reducer::new("x", &constraints);
            let mut rows = Vec::new();
            for start in (0..40).step_by(size) {
                let end = (start + size).min(40);
                let chunk = coded.view().slice(start..end);
                let keep = reducer.push(chunk, &Selection::All);
                rows.extend(keep.positions(end - start).map(|row| start + row));
            }
            assert_eq!(rows, whole);
            assert_eq!(reducer.finish(), (40, kept));
        }
    }
}
