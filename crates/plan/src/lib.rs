//! # ivnt-plan — lazy multi-query planner with shared scans
//!
//! The paper's deployment serves many analysis domains (one
//! interpretation table selection per domain) over the same fleet traces.
//! Running each domain as its own [`Pipeline::session`] pays N full store
//! passes for N tenants; this crate answers all N from **one** pass:
//!
//! 1. **Plan** — each query contributes a normalized preselection
//!    predicate: its `U_comb`'s `(bus, mid)` pairs, plus an optional time
//!    window.
//! 2. **Shared scan** — the queries are merged into one union
//!    predicate; the store is scanned once, zone maps pruning chunks no
//!    query needs. When queries are signal-disjoint and windowless the
//!    vectorized interpret kernel also runs once per row group over the
//!    union rule set, and its output is handed back by signal ownership
//!    (see [`exec`](self) internals); otherwise each query interprets its
//!    own row subset of the shared decode. A `run` decodes straight into
//!    per-signal sequences as a solo
//!    [`Session::run`](ivnt_core::pipeline::Session::run) does — `K_s` is
//!    never built; an `extract` builds each query's `K_s` partitions.
//! 3. **Per-query back half** — dedup → reduce → extend → classify →
//!    branch runs per query on the sequences the shared pass handed it,
//!    so every answer is **bit-identical** to running that query as its
//!    own session.
//!
//! ```no_run
//! # fn demo(p1: &ivnt_core::Pipeline, p2: &ivnt_core::Pipeline,
//! #         reader: &mut ivnt_store::StoreReader<std::io::BufReader<std::fs::File>>)
//! # -> ivnt_core::Result<()> {
//! use ivnt_plan::{Query, SessionMany};
//! use ivnt_core::Pipeline;
//! let out = Pipeline::session_many(vec![Query::new(p1), Query::new(p2)], reader).run()?;
//! assert_eq!(out.results.len(), 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod exec;

use std::io::{Read, Seek};
use std::sync::Arc;
use std::time::Instant;

use ivnt_core::pipeline::PipelineOutput;
use ivnt_core::{Pipeline, Result};
use ivnt_frame::frame::DataFrame;
use ivnt_store::{ScanStats, StoreReader};

use exec::{route_shared, Answer, Kind, QuerySpec};

/// One query of a multi-query batch: a domain pipeline plus optional
/// planner-level restrictions.
pub struct Query<'p> {
    pipeline: &'p Pipeline,
    window: Option<(u64, u64)>,
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
    /// (µs), pushed into the shared scan's predicate.
    pub fn with_window(mut self, from_us: u64, to_us: u64) -> Query<'p> {
        self.window = Some((from_us, to_us));
        self
    }

    /// Overrides the result label (defaults to the domain profile name).
    pub fn with_label(mut self, label: impl Into<String>) -> Query<'p> {
        self.label = Some(label.into());
        self
    }

    /// The query's pipeline.
    pub fn pipeline(&self) -> &'p Pipeline {
        self.pipeline
    }

    /// The query's result label.
    pub fn label(&self) -> &str {
        self.label
            .as_deref()
            .unwrap_or(&self.pipeline.profile().name)
    }
}

/// Per-query planner statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryStats {
    /// Raw store rows routed to this query.
    pub rows_routed: u64,
    /// Row groups that contributed rows to this query.
    pub groups: u32,
}

/// Batch-level planner statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanStats {
    /// Queries in the batch.
    pub queries: usize,
    /// Whether the union-kernel fast path applied to the shared scan.
    pub shared_interpret: bool,
    /// Store passes avoided versus sequential sessions: `queries − 1`.
    pub scans_saved: usize,
    /// Row groups the shared scan emitted.
    pub groups_scanned: u32,
    /// The shared scan's pushdown statistics (`None` for an empty batch:
    /// no scan ran).
    pub scan: Option<ScanStats>,
}

/// One query's full-pipeline result.
pub struct QueryResult {
    /// Result label (profile name unless overridden).
    pub label: String,
    /// The query's pipeline output, bit-identical to a solo session.
    pub output: PipelineOutput,
    /// Per-query planner statistics.
    pub stats: QueryStats,
}

/// One query's extraction-only result.
pub struct QueryExtraction {
    /// Result label (profile name unless overridden).
    pub label: String,
    /// The interpreted `K_s` frame, bit-identical to a solo session's.
    pub frame: DataFrame,
    /// Per-query planner statistics.
    pub stats: QueryStats,
}

/// What [`QuerySet::run`] produces.
pub struct MultiOutput {
    /// Per-query results, in query order.
    pub results: Vec<QueryResult>,
    /// Batch-level planner statistics.
    pub plan: PlanStats,
}

/// What [`QuerySet::extract`] produces.
pub struct MultiExtraction {
    /// Per-query extractions, in query order.
    pub frames: Vec<QueryExtraction>,
    /// Batch-level planner statistics.
    pub plan: PlanStats,
}

/// What one shared pass answered, aligned with the batch's queries.
struct Answered {
    answers: Vec<Answer>,
    plan: PlanStats,
    per_query: Vec<QueryStats>,
    /// Seconds the pass's sequence builders spent in `finish`.
    split_secs: f64,
}

/// The shared pass: one scan answers every query with an answer of `kind`.
fn answer<R: Read + Seek>(
    queries: &[Query<'_>],
    reader: &mut StoreReader<R>,
    kind: Kind,
) -> Result<Answered> {
    let mut answered = Answered {
        answers: Vec::new(),
        plan: PlanStats {
            queries: queries.len(),
            scans_saved: queries.len().saturating_sub(1),
            ..PlanStats::default()
        },
        per_query: Vec::new(),
        split_secs: 0.0,
    };
    if !queries.is_empty() {
        let specs: Vec<QuerySpec<'_>> = queries
            .iter()
            .map(|q| QuerySpec {
                pipeline: q.pipeline,
                window: q.window,
            })
            .collect();
        let outcome = route_shared(&specs, reader, kind)?;
        answered.plan.shared_interpret = outcome.shared_interpret;
        answered.plan.groups_scanned = outcome.groups_scanned;
        answered.plan.scan = Some(outcome.stats);
        answered.split_secs = outcome.split_secs;
        answered.answers = outcome.answers;
        answered.per_query = (outcome.rows_routed.into_iter())
            .zip(outcome.groups_hit)
            .map(|(rows_routed, groups)| QueryStats {
                rows_routed,
                groups,
            })
            .collect();
    }
    flush_plan_obs(&answered.plan, queries, &answered.per_query);
    Ok(answered)
}

/// One registry interaction per batch, mirroring the store scan's pattern.
fn flush_plan_obs(plan: &PlanStats, queries: &[Query<'_>], per_query: &[QueryStats]) {
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

/// A batch of queries bound to one store reader — the multi-query
/// counterpart of [`Pipeline::session`]. Built with
/// [`Pipeline::session_many`] (via the [`SessionMany`] extension trait).
pub struct QuerySet<'p, 'a, R: Read + Seek> {
    queries: Vec<Query<'p>>,
    reader: &'a mut StoreReader<R>,
    serial: bool,
    subscriber: Option<Arc<ivnt_obs::Registry>>,
}

impl<R: Read + Seek> QuerySet<'_, '_, R> {
    /// Forces every query's per-signal fan-out serial (reference oracle).
    pub fn serial(mut self) -> Self {
        self.serial = true;
        self
    }

    /// Installs `registry` as the metrics subscriber for the batch.
    pub fn with_subscriber(mut self, registry: Arc<ivnt_obs::Registry>) -> Self {
        self.subscriber = Some(registry);
        self
    }

    /// Runs every query's full pipeline from one shared pass; each query
    /// owns the sequences the pass routed to it.
    ///
    /// # Errors
    ///
    /// Propagates store corruption/I/O and tabular-engine errors; the
    /// batch fails as a whole.
    pub fn run(self) -> Result<MultiOutput> {
        let _guard = self.subscriber.map(ivnt_obs::install);
        let t_shared = Instant::now();
        let answered = answer(&self.queries, self.reader, Kind::Sequences)?;
        // The shared pass is attributed evenly: its builders' `finish` as
        // every query's split, the rest as its interpret — per-query stage
        // timings stay comparable to solo runs.
        let n = self.queries.len().max(1) as f64;
        let split_secs = answered.split_secs / n;
        let interpret_secs = (t_shared.elapsed().as_secs_f64() - answered.split_secs) / n;
        let results = (self.queries.iter().zip(answered.answers))
            .zip(answered.per_query)
            .map(|((q, answer), stats)| {
                let Answer::Sequences(seqs) = answer else {
                    unreachable!("a sequence pass returns sequence answers")
                };
                let parallel = !self.serial && q.pipeline.effective_workers() > 1;
                let output = q.pipeline.run_from_sequences(
                    seqs,
                    Instant::now(),
                    interpret_secs,
                    split_secs,
                    parallel,
                )?;
                Ok(QueryResult {
                    label: q.label().to_string(),
                    output,
                    stats,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(MultiOutput {
            results,
            plan: answered.plan,
        })
    }

    /// Extracts every query's `K_s` from one shared pass.
    ///
    /// # Errors
    ///
    /// Same conditions as [`QuerySet::run`].
    pub fn extract(self) -> Result<MultiExtraction> {
        let _guard = self.subscriber.map(ivnt_obs::install);
        let answered = answer(&self.queries, self.reader, Kind::Frame)?;
        let frames = (self.queries.iter().zip(answered.answers))
            .zip(answered.per_query)
            .map(|((q, answer), stats)| {
                let Answer::Frame(parts) = answer else {
                    unreachable!("a frame pass returns frame answers")
                };
                Ok(QueryExtraction {
                    label: q.label().to_string(),
                    frame: q.pipeline.signal_frame(parts)?,
                    stats,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(MultiExtraction {
            frames,
            plan: answered.plan,
        })
    }
}

/// Extension trait putting `session_many` on [`Pipeline`] — bring it into
/// scope and call `Pipeline::session_many(queries, reader)`.
pub trait SessionMany {
    /// Binds a batch of queries to one store reader.
    fn session_many<'p, 'a, R: Read + Seek>(
        queries: Vec<Query<'p>>,
        reader: &'a mut StoreReader<R>,
    ) -> QuerySet<'p, 'a, R>;
}

impl SessionMany for Pipeline {
    fn session_many<'p, 'a, R: Read + Seek>(
        queries: Vec<Query<'p>>,
        reader: &'a mut StoreReader<R>,
    ) -> QuerySet<'p, 'a, R> {
        QuerySet {
            queries,
            reader,
            serial: false,
            subscriber: None,
        }
    }
}
