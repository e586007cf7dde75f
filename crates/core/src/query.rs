//! Queries of a [`Session`](crate::pipeline::Session) and the routed store
//! scan that answers them.
//!
//! The paper's deployment serves many analysis domains (one
//! interpretation table selection per domain) over the same fleet traces.
//! A session holds a list of [`Query`]s — one for
//! [`Pipeline::session`](crate::Pipeline::session), N for
//! [`Session::many`](crate::pipeline::Session::many) — and a store source
//! answers all of them from **one** pass:
//!
//! 1. **Plan** — each query contributes a preselection predicate: its
//!    `U_comb`'s `(bus, mid)` pairs, plus an optional time window (and,
//!    for a shard session, its row-group range).
//! 2. **Routed scan** — the predicates are scanned as one union; zone maps
//!    prune chunks no query needs. Two strategies, chosen per pass:
//!    - *Shared interpret* — when no query has a time window and no signal
//!      name is claimed by two queries, the interpret kernel runs **once**
//!      per row group over the union rule set (each query's `U_comb` rules
//!      concatenated, order preserved). This is exact: the kernel emits
//!      input-row-major, and within a row each `(bus, mid)` rule group
//!      keeps every query's rules in that query's own relative order, so a
//!      signal's rows come out exactly as the query's own kernel emits
//!      them. A `run` decodes into one sequence builder whose finished
//!      sequences go to their signal's owner; an `extract` routes `K_s`
//!      rows at emission (`Kernel::extract_routed`).
//!    - *Per-query interpret* — otherwise the same emitted row may belong
//!      to several queries, or to none inside a window. The scan and chunk
//!      decode are still shared; each query then interprets its own row
//!      subset with its own kernel.
//!
//!    With one query there is nothing to route: the scan emits only rows
//!    its predicate matches, so every row and every group is the query's,
//!    and the pass is the query's own kernel over each group.
//! 3. **Per-query back half** — dedup → reduce → extend → classify →
//!    branch runs per query on the sequences the pass handed it, so every
//!    answer is **bit-identical** to running that query alone.

use std::collections::HashMap;
use std::io::{Read, Seek};
use std::ops::Range;
use std::sync::Arc;

use ivnt_frame::batch::Batch;
use ivnt_frame::frame::DataFrame;
use ivnt_obs::Stopwatch;
use ivnt_store::{CompiledPredicate, ScanStats, StoreReader};

use crate::error::{Error, Result};
use crate::interpret::{signal_schema, Kernel, RawRows};
use crate::pipeline::{Pipeline, PipelineOutput};
use crate::rules::{Rule, RuleSet};
use crate::split::{CodedSequence, SequenceBuilder};

/// One query of a session: a domain pipeline plus optional restrictions.
pub struct Query<'p> {
    pub(crate) pipeline: &'p Pipeline,
    pub(crate) window: Option<(u64, u64)>,
    label: Option<String>,
}

impl<'p> Query<'p> {
    /// A query running `pipeline` over the whole store.
    pub fn new(pipeline: &'p Pipeline) -> Query<'p> {
        Query {
            pipeline,
            window: None,
            label: None,
        }
    }

    /// Restricts the query to the inclusive `[from, to]` timestamp window
    /// (µs), pushed into the scan's predicate.
    pub fn with_window(mut self, from_us: u64, to_us: u64) -> Query<'p> {
        self.window = Some((from_us, to_us));
        self
    }

    /// Overrides the result label (defaults to the domain profile name).
    pub fn with_label(mut self, label: impl Into<String>) -> Query<'p> {
        self.label = Some(label.into());
        self
    }

    /// The query's result label.
    pub fn label(&self) -> &str {
        self.label
            .as_deref()
            .unwrap_or(&self.pipeline.profile().name)
    }
}

/// Per-query planner statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Raw store rows routed to this query (0 for an in-memory trace).
    pub rows_routed: u64,
    /// Row groups that contributed rows to this query.
    pub groups: u32,
}

/// Pass-level planner statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanStats {
    /// Queries in the session.
    pub queries: usize,
    /// Whether the union-kernel path applied to the scan.
    pub shared_interpret: bool,
    /// Store passes avoided versus one session per query: `queries − 1`.
    pub scans_saved: usize,
    /// Row groups the scan emitted.
    pub groups_scanned: u32,
    /// The scan's pushdown statistics (`None` when no scan ran: an empty
    /// query list or an in-memory trace).
    pub scan: Option<ScanStats>,
}

/// One query's full-pipeline result.
pub struct QueryResult {
    /// Result label (profile name unless overridden).
    pub label: String,
    /// The query's pipeline output, bit-identical to its solo session's.
    pub output: PipelineOutput,
    /// Per-query planner statistics.
    pub stats: QueryStats,
}

/// One query's extraction-only result.
pub struct QueryExtraction {
    /// Result label (profile name unless overridden).
    pub label: String,
    /// The interpreted `K_s` frame, bit-identical to its solo session's.
    pub frame: DataFrame,
    /// Per-query planner statistics.
    pub stats: QueryStats,
}

/// What [`Session::run_each`](crate::pipeline::Session::run_each)
/// produces.
pub struct MultiOutput {
    /// Per-query results, in query order.
    pub results: Vec<QueryResult>,
    /// Pass-level planner statistics.
    pub plan: PlanStats,
}

/// What [`Session::extract_each`](crate::pipeline::Session::extract_each)
/// produces.
pub struct MultiExtraction {
    /// Per-query extractions, in query order.
    pub frames: Vec<QueryExtraction>,
    /// Pass-level planner statistics.
    pub plan: PlanStats,
}

/// What one pass over a session's source answered, aligned with its
/// queries: `K_s` for an extraction pass, sequences (in signal-name order)
/// for a sequence pass.
#[derive(Default)]
pub(crate) struct Answers {
    pub frames: Vec<DataFrame>,
    pub seqs: Vec<Vec<CodedSequence>>,
    pub stats: Vec<QueryStats>,
    pub plan: PlanStats,
}

/// Each signal's owning query, when every query is windowless and no
/// signal name is claimed by two different queries — the precondition of
/// the union-kernel path; `None` otherwise. A single query owns every
/// signal, so its map stays empty.
fn signal_owners<'p>(queries: &[Query<'p>]) -> Option<HashMap<&'p str, usize>> {
    if queries.iter().any(|q| q.window.is_some()) {
        return None;
    }
    let mut owner: HashMap<&str, usize> = HashMap::new();
    if queries.len() > 1 {
        for (qi, q) in queries.iter().enumerate() {
            for r in q.pipeline.u_comb().rules() {
                if *owner.entry(&r.signal).or_insert(qi) != qi {
                    return None;
                }
            }
        }
    }
    Some(owner)
}

/// `(bus, mid)` → its per-query predicate matches, decided once per
/// distinct key instead of testing every predicate per row. Only a
/// windowless predicate's entry holds for every row of the key: a windowed
/// one also depends on each row's time, so its entry goes unread.
#[derive(Default)]
struct KeyMemo {
    index: HashMap<(u32, u32), usize>,
    /// Key-major, one entry per query.
    matches: Vec<bool>,
}

impl KeyMemo {
    /// The index of the key's entry, decided on its first row.
    fn index(&mut self, preds: &[CompiledPredicate], bus: u32, mid: u32, t: u64) -> usize {
        *self.index.entry((bus, mid)).or_insert_with(|| {
            self.matches
                .extend(preds.iter().map(|p| p.matches(bus, mid, t)));
            self.matches.len() / preds.len() - 1
        })
    }

    /// Entry `key`'s match per query, for `n` queries.
    fn matches(&self, key: usize, n: usize) -> &[bool] {
        &self.matches[key * n..(key + 1) * n]
    }
}

/// The routed scan: one pass over `reader` (restricted to `groups` for a
/// shard) answering every query, with sequences when `sequences` is set
/// and `K_s` partitions otherwise. A sequence pass records the session's
/// `interpret` (scan + decode) and `split` (the builders' `finish`) spans.
/// A query no group fed gets one empty partition, except in a shard pass,
/// whose partitions concatenate with its siblings'.
pub(crate) fn scan_store<R: Read + Seek>(
    queries: &[Query<'_>],
    reader: &mut StoreReader<R>,
    groups: Option<Range<u32>>,
    sequences: bool,
) -> Result<Answers> {
    let n = queries.len();
    let mut plan = PlanStats {
        queries: n,
        scans_saved: n.saturating_sub(1),
        ..PlanStats::default()
    };
    if n == 0 {
        return Ok(Answers {
            plan,
            ..Answers::default()
        });
    }
    // Each query's preselection (plus window and shard range), compiled
    // against the store.
    let preds: Vec<CompiledPredicate> = queries
        .iter()
        .map(|q| {
            let pred = q.pipeline.scan_predicate(q.window, groups.clone());
            pred.compile(reader.footer())
        })
        .collect();
    let owner = signal_owners(queries);
    plan.shared_interpret = owner.is_some();
    let owner = owner.unwrap_or_default();

    // The union kernel, compiled once for the whole pass. A single query's
    // union is its own kernel, which the per-query lane runs.
    let union = (plan.shared_interpret && n > 1).then(|| {
        let rules: Vec<Arc<Rule>> = queries
            .iter()
            .flat_map(|q| q.pipeline.u_comb().rules().iter().cloned())
            .collect();
        Kernel::compile(&RuleSet::from_rules(rules))
    });
    // Sequence lanes: one builder over the union kernel, or one per query
    // over its own; frame lanes: per-query `K_s` partitions.
    let mut builders: Vec<SequenceBuilder> = match (sequences, &union) {
        (false, _) => Vec::new(),
        (true, Some(union)) => vec![union.sequence_builder()],
        (true, None) => queries
            .iter()
            .map(|q| q.pipeline.kernel().sequence_builder())
            .collect(),
    };
    let mut parts: Vec<Vec<Batch>> = vec![Vec::new(); n];
    let mut stats = vec![QueryStats::default(); n];

    let mut memo = KeyMemo::default();
    // The shared path routes by signal inside the kernel, so it only needs
    // each query's row count: rows per memo key, `touched` keys first.
    let mut key_rows: Vec<u64> = Vec::new();
    let mut touched: Vec<usize> = Vec::new();
    // Per-query row masks of the group under routing, query-major, filled
    // only where a query interprets its own row subset. With one query
    // every row and every emitted group is its own.
    let mut masks: Vec<bool> = Vec::new();
    let mut hit = vec![n == 1; n];

    let mut clock = Stopwatch::start();
    let scan = reader.scan_columns::<Error, _>(&preds, |group| {
        plan.groups_scanned += 1;
        let rows = group.len();
        if n == 1 {
            stats[0].rows_routed += rows as u64;
        } else if union.is_some() {
            // Windowless predicates are pure pair tests: the memo answers
            // them per key.
            hit.fill(false);
            let mut last = None;
            for (bus, mid, t) in group.keys() {
                let mi = match last {
                    Some((key, mi)) if key == (bus, mid) => mi,
                    _ => memo.index(&preds, bus, mid, t),
                };
                last = Some(((bus, mid), mi));
                if key_rows.len() <= mi {
                    key_rows.resize(mi + 1, 0);
                }
                if key_rows[mi] == 0 {
                    touched.push(mi);
                }
                key_rows[mi] += 1;
            }
            for mi in touched.drain(..) {
                let count = std::mem::take(&mut key_rows[mi]);
                let matches = memo.matches(mi, n);
                for qi in (0..n).filter(|&qi| matches[qi]) {
                    hit[qi] = true;
                    stats[qi].rows_routed += count;
                }
            }
        } else {
            hit.fill(false);
            masks.clear();
            masks.resize(n * rows, false);
            for (i, (bus, mid, t)) in group.keys().enumerate() {
                let mi = memo.index(&preds, bus, mid, t);
                for qi in 0..n {
                    // A windowed predicate's match depends on the row's
                    // timestamp too, so it is evaluated directly.
                    let matches = match queries[qi].window {
                        Some(_) => preds[qi].matches(bus, mid, t),
                        None => memo.matches(mi, n)[qi],
                    };
                    if matches {
                        hit[qi] = true;
                        stats[qi].rows_routed += 1;
                        masks[qi * rows + i] = true;
                    }
                }
            }
        }
        for (stats, h) in stats.iter_mut().zip(&hit) {
            stats.groups += u32::from(*h);
        }

        match &union {
            // One union-kernel pass into the one builder; the signals are
            // handed to their owners once the scan is done.
            Some(union) if sequences => union.decode_runs(group, builders[0].runs_mut())?,
            // One union-kernel pass, emissions routed by signal owner
            // inside the kernel (see `Kernel::extract_routed`).
            Some(union) => {
                // `n` is the discard lane; unreachable for union rules.
                let routed =
                    union.extract_routed(group, n, |name| owner.get(name).copied().unwrap_or(n))?;
                for (qi, batch) in routed.into_iter().enumerate() {
                    // A query gets a (possibly empty) partition exactly
                    // when its solo scan would have emitted this group.
                    if hit[qi] {
                        parts[qi].push(batch);
                    }
                }
            }
            // Shared scan + decode only; each query interprets its own
            // row subset (with one query: every row) with its own kernel.
            None => {
                for qi in (0..n).filter(|&qi| hit[qi]) {
                    let mask = (n > 1).then(|| &masks[qi * rows..(qi + 1) * rows]);
                    let own = RawRows::Columns(group, mask);
                    let kernel = queries[qi].pipeline.kernel();
                    if sequences {
                        kernel.decode_runs(own, builders[qi].runs_mut())?;
                    } else {
                        parts[qi].push(kernel.extract_batch(own)?);
                    }
                }
            }
        }
        Ok(())
    })?;
    plan.scan = Some(scan);

    let mut answers = Answers {
        stats,
        plan,
        ..Answers::default()
    };
    if sequences {
        clock.lap("interpret", "run");
        answers.seqs = vec![Vec::new(); n];
        for (qi, builder) in builders.into_iter().enumerate() {
            // The union builder's sequences go to their signal's owner;
            // `owner` is empty off the shared path (and for one query),
            // where builder `qi` is query `qi`'s.
            for seq in builder.finish() {
                answers.seqs[owner.get(&*seq.signal).copied().unwrap_or(qi)].push(seq);
            }
        }
        clock.lap("split", "run");
    } else {
        for (q, mut parts) in queries.iter().zip(parts) {
            // Store-source semantics: an all-pruned query still gets one
            // empty partition so downstream schemas hold.
            if parts.is_empty() && groups.is_none() {
                parts.push(Batch::empty(signal_schema()));
            }
            answers.frames.push(q.pipeline.signal_frame(parts)?);
        }
    }
    Ok(answers)
}

/// The pass's planner counters, one registry interaction per pass.
pub(crate) fn flush_plan_obs(plan: &PlanStats, queries: &[Query<'_>], per_query: &[QueryStats]) {
    ivnt_obs::with(|r| {
        r.add("plan_batches_total", 1);
        r.add("plan_queries_total", plan.queries as u64);
        r.add("plan_scans_saved_total", plan.scans_saved as u64);
        r.add("plan_groups_scanned_total", u64::from(plan.groups_scanned));
        let strategy = if plan.shared_interpret {
            "shared-interpret"
        } else {
            "per-query"
        };
        r.add(
            &format!("plan_strategy_total{{strategy=\"{strategy}\"}}"),
            1,
        );
        for (q, s) in queries.iter().zip(per_query) {
            let label = ivnt_obs::escape_label(q.label());
            r.add(
                &format!("plan_rows_routed_total{{query=\"{label}\"}}"),
                s.rows_routed,
            );
        }
    });
}
