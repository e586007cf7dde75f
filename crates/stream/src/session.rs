//! The incremental bounded-memory pipeline.
//!
//! [`StreamingSession`] is the streaming variant of the batch
//! `Pipeline::session(...).extract_reduced()` path (Algorithm 1 lines
//! 3–11): interpretation, per-signal splitting, gateway dedup and
//! constraint reduction — applied per micro-batch with carry-over state
//! instead of whole-trace materialization.
//!
//! ## Bit-identity
//!
//! For a closed stream whose out-of-order distance stays within the
//! watermark and whose per-channel lag stays within `history_cap`, the
//! concatenated [`SignalDelta`]s plus the close-time summaries are
//! **bit-identical** to the batch `extract_reduced` output. The pieces:
//!
//! * Interpretation (the pipeline's `Kernel`) is row-local and
//!   deterministic, so interpreting micro-batches and concatenating equals
//!   interpreting the whole trace.
//! * The batch split stable-sorts each signal's rows by time. Streaming
//!   reproduces that exact order with a per-signal reorder buffer keyed by
//!   `(t, arrival seqno)` under `f64::total_cmp` — ties keep arrival
//!   order, which is the batch tie order; rows are released once the
//!   signal's watermark passes them.
//! * Gateway dedup is replayed with a bounded representative history and
//!   per-channel cursors (see [`StreamOptions::history_cap`]).
//! * Reduction calls the *same* [`ConditionFn::evaluate`] with a carried
//!   `RowCtx` — previous row, index — so the kept-row mask is identical.
//!
//! Bounded-memory deviations from the batch path are deliberate, counted
//! (see the `stream_*` counters) and documented in `DESIGN.md`: a
//! representative channel is pinned at the first release instead of after
//! seeing all channels; channels lagging beyond `history_cap` are declared
//! mismatched; rows with a null channel are dropped.

use std::collections::HashMap;
use std::sync::Arc;

use ivnt_core::dedup::Dedup;
use ivnt_core::pipeline::Pipeline;
use ivnt_core::reduce::{Constraint, Reduction, RowCtx};
use ivnt_core::split::SignalSequence;
use ivnt_frame::prelude::*;
use ivnt_store::schema::{raw_trace_schema, records_to_batch};
use ivnt_store::Record;

use crate::error::{Error, Result};
use crate::symbolize::{IncrementalSymbolizer, SymbolizeOptions, SymbolizedSegment};

/// Knobs of the incremental pipeline.
#[derive(Debug, Clone, Copy)]
pub struct StreamOptions {
    /// Reorder tolerance in seconds: a row is released once its signal has
    /// seen a timestamp at least this much later. Rows arriving more than
    /// this out of order would break order identity (they are still
    /// processed, and counted as `stream_late_rows_total`).
    pub watermark_s: f64,
    /// Bound on the per-signal representative history kept for the gateway
    /// equality check. A channel lagging its signal's representative by
    /// more than this many rows is declared mismatched instead of growing
    /// the buffer.
    pub history_cap: usize,
    /// When set, reduced numeric values additionally flow through the
    /// incremental SWAB + SAX symbolizer and deltas carry segments.
    pub symbolize: Option<SymbolizeOptions>,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            watermark_s: 1.0,
            history_cap: 4096,
            symbolize: None,
        }
    }
}

/// One reduced, deduplicated output row.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaRow {
    /// Timestamp in seconds.
    pub t: f64,
    /// Channel the row was observed on.
    pub bus: Option<Arc<str>>,
    /// Numeric value (if numeric).
    pub num: Option<f64>,
    /// Textual value (if textual).
    pub text: Option<Arc<str>>,
}

/// Incremental output for one signal from one micro-batch (or the close).
#[derive(Debug, Clone, PartialEq)]
pub struct SignalDelta {
    /// Signal identifier.
    pub signal: String,
    /// Newly reduced representative rows, in final (batch) order.
    pub rows: Vec<DeltaRow>,
    /// Newly completed SWAB segments with SAX symbols (empty unless
    /// [`StreamOptions::symbolize`] is set).
    pub segments: Vec<SymbolizedSegment>,
}

/// Close-time per-signal report, mirroring one element of the batch
/// `extract_reduced` output.
#[derive(Debug, Clone, PartialEq)]
pub struct SignalSummary {
    /// Signal identifier.
    pub signal: String,
    /// Channel chosen as representative.
    pub representative_channel: String,
    /// Channels whose copies matched the representative.
    pub corresponding: Vec<String>,
    /// Channels whose copies disagreed (or overflowed the history cap).
    pub mismatched: Vec<String>,
    /// Representative rows before reduction (the batch `rows_interpreted`).
    pub rows_interpreted: usize,
    /// Rows emitted after reduction.
    pub rows_emitted: usize,
    /// Representative pins that later proved non-canonical (home or a
    /// smaller channel appeared after pinning).
    pub rep_conflicts: u64,
}

/// Everything the close emits: the final deltas plus per-signal reports.
#[derive(Debug, Clone)]
pub struct StreamClose {
    /// Deltas from draining every reorder buffer.
    pub deltas: Vec<SignalDelta>,
    /// One summary per signal, sorted by signal name.
    pub summaries: Vec<SignalSummary>,
}

/// One buffered interpreted row awaiting watermark release.
struct PendingRow {
    t: f64,
    seqno: u64,
    bus: Option<Arc<str>>,
    num: Option<f64>,
    text: Option<Arc<str>>,
}

/// Value signature element, matching the batch dedup's comparison: numeric
/// bits plus text, null-aware.
type SigElem = (Option<u64>, Option<Arc<str>>);

/// Per-channel dedup cursor state.
struct ChanState {
    /// Number of this channel's rows compared against the representative.
    cursor: usize,
    /// Rows of this channel ahead of the representative, awaiting it.
    pending: std::collections::VecDeque<SigElem>,
    mismatched: bool,
}

/// Carry-over state for one signal.
struct SignalState {
    /// Reorder buffer sorted by `(t, seqno)` under `total_cmp`.
    buffer: std::collections::VecDeque<PendingRow>,
    /// Largest finite timestamp pushed so far.
    max_t: f64,
    /// Largest timestamp released so far (late-arrival detection).
    released_t: f64,
    next_seqno: u64,
    /// Channels observed among pushed rows (sorted, deduped).
    observed: Vec<Arc<str>>,
    /// Representative channel, pinned at the first release.
    rep_channel: Option<Arc<str>>,
    rep_conflicts: u64,
    /// Representative value history (window) for the equality check.
    rep_hist: std::collections::VecDeque<SigElem>,
    /// Absolute representative index of `rep_hist[0]`.
    rep_base: usize,
    /// Total representative rows so far.
    rep_len: usize,
    channels: HashMap<Arc<str>, ChanState>,
    /// Reduction carry-over: previous representative row.
    prev: Option<(f64, Option<f64>, Option<Arc<str>>)>,
    rows_emitted: usize,
    symbolizer: Option<IncrementalSymbolizer>,
}

impl SignalState {
    fn new(symbolize: Option<SymbolizeOptions>) -> SignalState {
        SignalState {
            buffer: std::collections::VecDeque::new(),
            max_t: f64::NEG_INFINITY,
            released_t: f64::NEG_INFINITY,
            next_seqno: 0,
            observed: Vec::new(),
            rep_channel: None,
            rep_conflicts: 0,
            rep_hist: std::collections::VecDeque::new(),
            rep_base: 0,
            rep_len: 0,
            channels: HashMap::new(),
            prev: None,
            rows_emitted: 0,
            symbolizer: symbolize.map(IncrementalSymbolizer::new),
        }
    }

    fn buffered(&self) -> usize {
        self.buffer.len()
            + self.rep_hist.len()
            + self
                .channels
                .values()
                .map(|c| c.pending.len())
                .sum::<usize>()
    }
}

/// The incremental pipeline: push micro-batches of records, receive
/// reduced state deltas; close to flush and obtain the per-signal reports.
pub struct StreamingSession<'p> {
    pipeline: &'p Pipeline,
    options: StreamOptions,
    raw_schema: Arc<Schema>,
    /// Per-signal home channel from `U_comb` (first `home_channel` rule).
    homes: HashMap<String, Arc<str>>,
    signals: HashMap<String, SignalState>,
    active: HashMap<String, Vec<Constraint>>,
    peak_buffered: usize,
    late_rows: u64,
}

impl<'p> StreamingSession<'p> {
    /// Builds a streaming session over `pipeline`'s rule set and profile.
    ///
    /// # Errors
    ///
    /// [`Error::Unsupported`] when the profile requests cluster reduction,
    /// which is a global k-means the incremental path cannot honor.
    pub fn new(pipeline: &'p Pipeline, options: StreamOptions) -> Result<StreamingSession<'p>> {
        if let Reduction::Cluster { .. } = pipeline.profile().reduction {
            return Err(Error::Unsupported(
                "cluster reduction needs the whole sequence; use constraint reduction".into(),
            ));
        }
        let mut homes = HashMap::new();
        for rule in pipeline.u_comb().rules() {
            if rule.info.home_channel && !homes.contains_key(&rule.signal) {
                homes.insert(rule.signal.clone(), Arc::from(rule.bus.as_str()));
            }
        }
        Ok(StreamingSession {
            pipeline,
            options,
            raw_schema: raw_trace_schema(),
            homes,
            signals: HashMap::new(),
            active: HashMap::new(),
            peak_buffered: 0,
            late_rows: 0,
        })
    }

    /// Interprets one micro-batch and returns the deltas released by the
    /// watermark, sorted by signal name.
    ///
    /// # Errors
    ///
    /// Propagates interpretation and tabular-engine failures.
    pub fn push_records(&mut self, records: &[Record]) -> Result<Vec<SignalDelta>> {
        if records.is_empty() {
            return Ok(Vec::new());
        }
        ivnt_obs::with(|r| r.add("stream_frames_total", records.len() as u64));
        // The pipeline's kernel, compiled once for the whole session,
        // preselects the records it decodes and emits the micro-batch's
        // per-signal sequences directly.
        let kernel = self.pipeline.kernel();
        let selected = kernel.select_records(records);
        let batch = records_to_batch(self.raw_schema.clone(), selected.iter().copied())
            .map_err(Error::Store)?;
        let seqs = kernel.sequences(&batch)?;

        let mut deltas = Vec::new();
        for seq in seqs {
            self.push_sequence(&seq)?;
            let delta = self.release(&seq.signal, false)?;
            if !delta.rows.is_empty() || !delta.segments.is_empty() {
                deltas.push(delta);
            }
        }
        self.note_buffered();
        Ok(deltas)
    }

    /// Flushes every reorder buffer and returns the final deltas plus the
    /// per-signal summaries, sorted by signal name — the streaming
    /// counterpart of the batch `extract_reduced` report.
    ///
    /// # Errors
    ///
    /// Propagates tabular-engine failures.
    pub fn close(mut self) -> Result<StreamClose> {
        let dedup_enabled = self.pipeline.profile().dedup;
        let mut names: Vec<String> = self.signals.keys().cloned().collect();
        names.sort();
        let mut deltas = Vec::new();
        let mut summaries = Vec::new();
        for name in names {
            let delta = self.release(&name, true)?;
            let state = self.signals.get_mut(&name).expect("state exists");
            let mut delta = delta;
            if let Some(sym) = state.symbolizer.take() {
                delta.segments.extend(sym.close());
            }
            if !delta.rows.is_empty() || !delta.segments.is_empty() {
                deltas.push(delta);
            }
            summaries.push(Self::summarize(&name, state, dedup_enabled));
        }
        Ok(StreamClose { deltas, summaries })
    }

    /// High-water mark of rows buffered across all signals — the quantity
    /// the bounded-memory guarantee is about.
    pub fn peak_buffered_rows(&self) -> usize {
        self.peak_buffered
    }

    /// Rows that arrived later than the watermark allowed (order identity
    /// no longer guaranteed for them).
    pub fn late_rows(&self) -> u64 {
        self.late_rows
    }

    /// Inserts one interpreted sequence into its signal's reorder buffer.
    fn push_sequence(&mut self, seq: &SignalSequence) -> Result<()> {
        let times = seq.times()?;
        let nums = seq.numeric_values()?;
        let texts = seq.text_values()?;
        let buses = seq.bus_values()?;
        let state = self
            .signals
            .entry(seq.signal.clone())
            .or_insert_with(|| SignalState::new(self.options.symbolize));
        for i in 0..times.len() {
            let t = times[i];
            let row = PendingRow {
                t,
                seqno: state.next_seqno,
                bus: buses[i].clone(),
                num: nums[i],
                text: texts[i].clone(),
            };
            state.next_seqno += 1;
            if let Some(bus) = &row.bus {
                if let Err(pos) = state.observed.binary_search(bus) {
                    state.observed.insert(pos, bus.clone());
                }
            }
            // Stable insert: first position whose (t, seqno) exceeds ours.
            // Within a micro-batch seqnos ascend, and across batches a
            // tie's arrival order is the batch stable-sort order.
            let pos = state
                .buffer
                .partition_point(|r| match r.t.total_cmp(&row.t) {
                    std::cmp::Ordering::Less => true,
                    std::cmp::Ordering::Equal => r.seqno < row.seqno,
                    std::cmp::Ordering::Greater => false,
                });
            if t.is_finite() {
                if t < state.released_t {
                    self.late_rows += 1;
                    ivnt_obs::with(|r| r.add("stream_late_rows_total", 1));
                }
                if t > state.max_t {
                    state.max_t = t;
                }
            }
            state.buffer.insert(pos, row);
        }
        Ok(())
    }

    /// Releases ripe rows (all rows when closing) through dedup and
    /// reduction, producing the signal's delta.
    fn release(&mut self, signal: &str, all: bool) -> Result<SignalDelta> {
        let history_cap = self.options.history_cap.max(1);
        let home = self.homes.get(signal).cloned();
        let dedup_enabled = self.pipeline.profile().dedup;
        let active = self.active_constraints(signal);
        let state = self.signals.get_mut(signal).expect("state exists");
        let horizon = state.max_t - self.options.watermark_s;
        let mut released = 0u64;
        let mut rows = Vec::new();
        let mut segments = Vec::new();
        while let Some(front) = state.buffer.front() {
            let within_watermark = front.t.is_finite() && front.t <= horizon;
            if !all && !within_watermark {
                break;
            }
            let row = state.buffer.pop_front().expect("front exists");
            released += 1;
            if row.t.is_finite() && row.t > state.released_t {
                state.released_t = row.t;
            }

            // --- Gateway dedup (Algorithm 1, line 9) ---
            let Some(bus) = row.bus.clone() else {
                // The interpret kernel never emits a null channel; if one
                // appears it cannot be attributed for the equality check.
                ivnt_obs::with(|r| r.add("stream_null_bus_rows_total", 1));
                continue;
            };
            if dedup_enabled && state.rep_channel.is_none() {
                let pick = match &home {
                    Some(h) if state.observed.binary_search(h).is_ok() => h.clone(),
                    _ => state
                        .observed
                        .first()
                        .cloned()
                        .unwrap_or_else(|| bus.clone()),
                };
                state.rep_channel = Some(pick);
            }
            let is_rep = match &state.rep_channel {
                Some(rep) => bus == *rep,
                None => true,
            };
            if dedup_enabled && !is_rep {
                let rep = state.rep_channel.clone().expect("pinned above");
                // A canonical-but-late channel means the pin deviated from
                // the batch choice; count it, keep the pin stable.
                let canonical = match &home {
                    Some(h) if state.observed.binary_search(h).is_ok() => h == &bus,
                    _ => bus < rep,
                };
                if canonical {
                    state.rep_conflicts += 1;
                    ivnt_obs::with(|r| r.add("stream_rep_conflicts_total", 1));
                }
            }
            let elem: SigElem = (row.num.map(f64::to_bits), row.text.clone());
            if dedup_enabled {
                if is_rep {
                    state.rep_hist.push_back(elem.clone());
                    let rep_index = state.rep_len;
                    state.rep_len += 1;
                    for chan in state.channels.values_mut() {
                        if chan.mismatched {
                            continue;
                        }
                        if let Some(front) = chan.pending.pop_front() {
                            debug_assert_eq!(chan.cursor, rep_index);
                            if front != elem {
                                chan.mismatched = true;
                            }
                            chan.cursor += 1;
                        }
                    }
                    Self::trim_history(state, history_cap);
                } else {
                    let rep_len = state.rep_len;
                    let rep_base = state.rep_base;
                    let chan = state
                        .channels
                        .entry(bus.clone())
                        .or_insert_with(|| ChanState {
                            cursor: 0,
                            pending: std::collections::VecDeque::new(),
                            mismatched: false,
                        });
                    if !chan.mismatched {
                        if chan.cursor < rep_len {
                            if chan.cursor < rep_base {
                                // History already trimmed past this
                                // channel's position (it appeared late).
                                chan.mismatched = true;
                                ivnt_obs::with(|r| r.add("stream_dedup_overflow_total", 1));
                            } else {
                                let hist = &state.rep_hist[chan.cursor - rep_base];
                                if *hist != elem {
                                    chan.mismatched = true;
                                }
                                chan.cursor += 1;
                            }
                        } else {
                            chan.pending.push_back(elem);
                            if chan.pending.len() > history_cap {
                                chan.mismatched = true;
                                chan.pending.clear();
                                ivnt_obs::with(|r| r.add("stream_dedup_overflow_total", 1));
                            }
                        }
                    }
                    continue;
                }
            } else {
                state.rep_len += 1;
            }

            // --- Constraint reduction (line 10), identical RowCtx ---
            let rep_index = state.rep_len - 1;
            let keep = if active.is_empty() {
                true
            } else {
                let (prev_t, prev_num, prev_text) = match &state.prev {
                    Some((t, n, x)) => (Some(*t), *n, x.clone()),
                    None => (None, None, None),
                };
                let ctx = RowCtx {
                    t: row.t,
                    num: row.num,
                    text: row.text.clone(),
                    prev_t,
                    prev_num,
                    prev_text,
                    index: rep_index,
                };
                active
                    .iter()
                    .flat_map(|c| c.functions.iter())
                    .any(|f| f.evaluate(&ctx))
            };
            state.prev = Some((row.t, row.num, row.text.clone()));
            if keep {
                state.rows_emitted += 1;
                if let (Some(sym), Some(num)) = (&mut state.symbolizer, row.num) {
                    segments.extend(sym.feed(&[num]));
                }
                rows.push(DeltaRow {
                    t: row.t,
                    bus: Some(bus),
                    num: row.num,
                    text: row.text,
                });
            }
        }
        ivnt_obs::with(|r| {
            r.add("stream_rows_released_total", released);
            if state.max_t.is_finite() && state.released_t.is_finite() {
                r.set_gauge(
                    "stream_watermark_lag_seconds",
                    (state.max_t - state.released_t).max(0.0),
                );
            }
        });
        Ok(SignalDelta {
            signal: signal.to_string(),
            rows,
            segments,
        })
    }

    /// Trims the representative history to what lagging channels still
    /// need, evicting (as mismatched) channels that lag beyond the cap.
    ///
    /// "Lagging channels" means every *observed* non-representative
    /// channel — including ones whose rows are still in the reorder
    /// buffer (they compare from index 0 once released, so their need is
    /// cursor 0 until then). A channel first observed only after its
    /// history is gone would have fewer rows than the representative,
    /// which the batch equality check also calls mismatched.
    fn trim_history(state: &mut SignalState, history_cap: usize) {
        loop {
            let rep = state.rep_channel.clone();
            let min_needed = state
                .observed
                .iter()
                .filter(|b| Some(*b) != rep.as_ref())
                .filter_map(|b| match state.channels.get(b) {
                    Some(c) if c.mismatched => None,
                    Some(c) => Some(c.cursor),
                    None => Some(0),
                })
                .min()
                .unwrap_or(state.rep_len);
            while state.rep_base < min_needed && !state.rep_hist.is_empty() {
                state.rep_hist.pop_front();
                state.rep_base += 1;
            }
            if state.rep_hist.len() <= history_cap {
                return;
            }
            // Over the cap: the laggiest channel holds the window open.
            // Declare it mismatched rather than grow without bound.
            let laggiest = state
                .channels
                .iter_mut()
                .filter(|(_, c)| !c.mismatched)
                .min_by_key(|(_, c)| c.cursor)
                .map(|(_, c)| c);
            match laggiest {
                Some(chan) => {
                    chan.mismatched = true;
                    chan.pending.clear();
                    ivnt_obs::with(|r| r.add("stream_dedup_overflow_total", 1));
                }
                None => {
                    // Only not-yet-released channels pin the window at 0:
                    // force-trim; they surface as mismatched on release.
                    while state.rep_hist.len() > history_cap {
                        state.rep_hist.pop_front();
                        state.rep_base += 1;
                    }
                    ivnt_obs::with(|r| r.add("stream_dedup_overflow_total", 1));
                    return;
                }
            }
        }
    }

    fn summarize(signal: &str, state: &SignalState, dedup_enabled: bool) -> SignalSummary {
        // With dedup off the batch passthrough reports the smallest
        // channel and leaves both channel lists empty.
        let rep = if dedup_enabled {
            state
                .rep_channel
                .as_ref()
                .map(|b| b.to_string())
                .unwrap_or_default()
        } else {
            state
                .observed
                .first()
                .map(|b| b.to_string())
                .unwrap_or_default()
        };
        let mut corresponding = Vec::new();
        let mut mismatched = Vec::new();
        if dedup_enabled {
            for bus in &state.observed {
                if bus.as_ref() == rep.as_str() {
                    continue;
                }
                let ok = state.channels.get(bus).is_some_and(|c| {
                    !c.mismatched && c.cursor == state.rep_len && c.pending.is_empty()
                });
                if ok {
                    corresponding.push(bus.to_string());
                } else {
                    mismatched.push(bus.to_string());
                }
            }
        }
        SignalSummary {
            signal: signal.to_string(),
            representative_channel: rep,
            corresponding,
            mismatched,
            rows_interpreted: state.rep_len,
            rows_emitted: state.rows_emitted,
            rep_conflicts: state.rep_conflicts,
        }
    }

    fn active_constraints(&mut self, signal: &str) -> Vec<Constraint> {
        if let Some(active) = self.active.get(signal) {
            return active.clone();
        }
        let active: Vec<Constraint> = self
            .pipeline
            .profile()
            .constraints
            .iter()
            .filter(|c| c.applies_to(signal))
            .cloned()
            .collect();
        self.active.insert(signal.to_string(), active.clone());
        active
    }

    fn note_buffered(&mut self) {
        let buffered: usize = self.signals.values().map(SignalState::buffered).sum();
        if buffered > self.peak_buffered {
            self.peak_buffered = buffered;
        }
        ivnt_obs::with(|r| {
            r.set_gauge("stream_buffered_rows", buffered as f64);
            r.gauge_max("stream_peak_buffered_rows", buffered as f64);
        });
    }
}

/// Converts a batch `extract_reduced` element into the flat row form the
/// streaming deltas use, for comparison in tests and the follow CLI.
///
/// # Errors
///
/// Propagates tabular-engine failures.
pub fn flatten_reduced(seq: &SignalSequence) -> Result<Vec<DeltaRow>> {
    let times = seq.times()?;
    let nums = seq.numeric_values()?;
    let texts = seq.text_values()?;
    let buses = seq.bus_values()?;
    Ok((0..times.len())
        .map(|i| DeltaRow {
            t: times[i],
            bus: buses[i].clone(),
            num: nums[i],
            text: texts[i].clone(),
        })
        .collect())
}

/// Summarizes a batch `extract_reduced` element in the streaming summary
/// form, for comparison in tests.
pub fn summarize_batch(
    reduced: &SignalSequence,
    dedup: &Dedup,
    rows_interpreted: usize,
) -> SignalSummary {
    SignalSummary {
        signal: reduced.signal.clone(),
        representative_channel: dedup.representative_channel.clone(),
        corresponding: dedup.corresponding.clone(),
        mismatched: dedup.mismatched.clone(),
        rows_interpreted,
        rows_emitted: reduced.len(),
        rep_conflicts: 0,
    }
}
