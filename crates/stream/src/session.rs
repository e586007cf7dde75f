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
//! * Each release goes through the signal's [`Deduplicator`] and
//!   [`Reducer`]: the `ivnt-core` operators a batch run pushes a whole
//!   sequence through once.
//!
//! Bounded-memory deviations from the batch path are deliberate, counted
//! and documented in `DESIGN.md`: a representative channel is pinned at
//! the first release instead of after seeing all channels; a copy lagging
//! beyond `history_cap` is declared mismatched; a row arriving behind the
//! released watermark is counted late and released after rows it precedes.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use ivnt_core::dedup::{Dedup, Deduplicator};
use ivnt_core::pipeline::Pipeline;
use ivnt_core::reduce::{Reducer, Reduction};
use ivnt_core::split::{CodedRow, CodedRows, CodedSequence, SignalSequence};
use ivnt_store::{GroupColumns, Record};

use crate::error::{Error, Result};

/// Knobs of the incremental pipeline.
#[derive(Debug, Clone, Copy)]
pub struct StreamOptions {
    /// Reorder tolerance in seconds: a row is released once its signal has
    /// seen a timestamp at least this much later. Rows arriving more than
    /// this out of order would break order identity (they are still
    /// processed, and counted as `stream_late_rows_total`).
    pub watermark_s: f64,
    /// Bound on the values the gateway equality check carries per copy
    /// between releases: a copy more than this many rows behind or ahead of
    /// its signal's representative is declared mismatched instead of
    /// growing the buffer.
    pub history_cap: usize,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            watermark_s: 1.0,
            history_cap: 4096,
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
    /// Rows of the channel the batch check would have chosen, released
    /// while the representative was pinned to another (the home channel,
    /// or a smallest one, first seen after the pin).
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
    /// The channel's code in the signal's `observed` dictionary.
    bus: Option<u32>,
    num: Option<f64>,
    text: Option<Arc<str>>,
}

/// Carry-over state for one signal.
struct SignalState {
    /// Reorder buffer sorted by `(t, seqno)` under `total_cmp`.
    buffer: VecDeque<PendingRow>,
    /// Largest finite timestamp pushed so far.
    max_t: f64,
    /// Largest timestamp released so far (late-arrival detection).
    released_t: f64,
    next_seqno: u64,
    /// Channels observed among pushed rows, in order of first sight: the
    /// dictionary the buffered rows' channel codes point into.
    observed: Vec<Arc<str>>,
    dedup: Deduplicator,
    reducer: Reducer,
}

/// The incremental pipeline: push micro-batches of records, receive
/// reduced state deltas; close to flush and obtain the per-signal reports.
pub struct StreamingSession<'p> {
    pipeline: &'p Pipeline,
    options: StreamOptions,
    /// The micro-batch's selected rows; its bus dictionary and buffers
    /// carry over between batches.
    rows: GroupColumns,
    signals: HashMap<String, SignalState>,
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
        Ok(StreamingSession {
            pipeline,
            options,
            rows: GroupColumns::default(),
            signals: HashMap::new(),
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
        // per-signal sequences directly from their columns.
        let kernel = self.pipeline.kernel();
        self.rows.clear();
        for r in kernel.select_records(records) {
            let bus = self.rows.intern_bus(&r.bus);
            self.rows
                .push_row(r.timestamp_us, bus, r.message_id, r.protocol, &r.payload);
        }
        let seqs = kernel.coded_sequences(&self.rows)?;

        let mut deltas = Vec::new();
        for seq in seqs {
            self.push_sequence(&seq);
            let delta = self.release(&seq.signal, false);
            if !delta.rows.is_empty() {
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
        let mut names: Vec<String> = self.signals.keys().cloned().collect();
        names.sort();
        let mut deltas = Vec::new();
        let mut summaries = Vec::new();
        for signal in names {
            let delta = self.release(&signal, true);
            let state = self.signals.remove(&signal).expect("state exists");
            if !delta.rows.is_empty() {
                deltas.push(delta);
            }
            let dedup = state.dedup.finish();
            summaries.push(SignalSummary {
                signal,
                representative_channel: dedup.representative_channel,
                corresponding: dedup.corresponding,
                mismatched: dedup.mismatched,
                rows_interpreted: dedup.rows_kept,
                rows_emitted: state.reducer.finish().1,
                rep_conflicts: dedup.rep_conflicts,
            });
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
    fn push_sequence(&mut self, seq: &CodedSequence) {
        let state = self
            .signals
            .entry(seq.signal.to_string())
            .or_insert_with(|| SignalState {
                buffer: VecDeque::new(),
                max_t: f64::NEG_INFINITY,
                released_t: f64::NEG_INFINITY,
                next_seqno: 0,
                observed: Vec::new(),
                dedup: self
                    .pipeline
                    .deduplicator(&seq.signal, self.options.history_cap.max(1)),
                reducer: Reducer::new(&seq.signal, &self.pipeline.profile().constraints),
            });
        let view = seq.view();
        // The sequence's channel code → its code in `observed`.
        let mut last: Option<(u32, u32)> = None;
        for coded in view.rows {
            let t = coded.time_key();
            let bus = coded.channel().map(|code| match last {
                Some((from, to)) if from == code => to,
                _ => {
                    let name = &view.channels[code as usize];
                    let observed = &mut state.observed;
                    let to = match observed.iter().position(|b| b == name) {
                        Some(to) => to,
                        None => {
                            observed.push(name.clone());
                            observed.len() - 1
                        }
                    } as u32;
                    last = Some((code, to));
                    to
                }
            });
            let row = PendingRow {
                t,
                seqno: state.next_seqno,
                bus,
                num: coded.num(),
                text: view.text(coded).cloned(),
            };
            state.next_seqno += 1;
            // Stable insert: first position whose (t, seqno) exceeds
            // ours. Within a micro-batch seqnos ascend, and across
            // batches a tie's arrival order is the batch stable-sort
            // order.
            let pos = state
                .buffer
                .partition_point(|r| r.t.total_cmp(&row.t).then(r.seqno.cmp(&row.seqno)).is_lt());
            if t.is_finite() {
                if t < state.released_t {
                    self.late_rows += 1;
                    ivnt_obs::with(|r| r.add("stream_late_rows_total", 1));
                }
                state.max_t = state.max_t.max(t);
            }
            state.buffer.insert(pos, row);
        }
    }

    /// Releases ripe rows (all rows when closing) through the signal's
    /// dedup and reduction operators, producing the signal's delta.
    fn release(&mut self, signal: &str, all: bool) -> SignalDelta {
        let state = self.signals.get_mut(signal).expect("state exists");
        let horizon = state.max_t - self.options.watermark_s;
        let ripe = state
            .buffer
            .iter()
            .take_while(|r| all || (r.t.is_finite() && r.t <= horizon))
            .count();
        for row in state.buffer.range(..ripe).filter(|r| r.t.is_finite()) {
            state.released_t = state.released_t.max(row.t);
        }
        ivnt_obs::with(|r| {
            r.add("stream_rows_released_total", ripe as u64);
            if state.max_t.is_finite() && state.released_t.is_finite() {
                r.set_gauge(
                    "stream_watermark_lag_seconds",
                    (state.max_t - state.released_t).max(0.0),
                );
            }
        });
        // Coded, as the operators read them; every text cell is moved.
        let mut texts = Vec::new();
        let rows: Vec<CodedRow> = state
            .buffer
            .drain(..ripe)
            .map(|r| {
                let text = r.text.map(|label| {
                    texts.push(label);
                    texts.len() - 1
                });
                CodedRow::new(Some(r.t), r.bus, r.num, text)
            })
            .collect();
        let released = CodedRows {
            rows: &rows,
            texts: &texts,
            channels: &state.observed,
        };
        // Every observed channel counts as seen: rows of one may still sit
        // in the reorder buffer.
        let seen: Vec<u32> = (0..state.observed.len() as u32).collect();
        let representative = state.dedup.push(released, &seen);
        let keep = state.reducer.push(released, &representative);
        let rows: Vec<DeltaRow> = keep
            .positions(rows.len())
            .map(|i| {
                let row = &rows[i];
                DeltaRow {
                    t: row.time_key(),
                    bus: released.channel(row).cloned(),
                    num: row.num(),
                    text: released.text(row).cloned(),
                }
            })
            .collect();
        SignalDelta {
            signal: signal.to_string(),
            rows,
        }
    }

    fn note_buffered(&mut self) {
        let buffered: usize = self
            .signals
            .values()
            .map(|s| s.buffer.len() + s.dedup.buffered())
            .sum();
        self.peak_buffered = self.peak_buffered.max(buffered);
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
    let mut out = Vec::with_capacity(seq.len());
    for rows in seq.rows()? {
        out.extend((0..rows.t.len()).map(|i| DeltaRow {
            t: rows.t[i].unwrap_or(f64::NAN),
            bus: rows.bus.get(i).cloned(),
            num: rows.num[i],
            text: rows.text.get(i).cloned(),
        }));
    }
    Ok(out)
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
