//! # ivnt-plan — lazy multi-query planner with shared scans
//!
//! The paper's deployment serves many analysis domains (one
//! interpretation table selection per domain) over the same fleet traces.
//! Running each domain as its own [`Pipeline::session`] pays N full store
//! passes for N tenants; this crate answers all N from **one** pass:
//!
//! 1. **Plan** — each query contributes a normalized preselection
//!    predicate (its `U_comb`'s `(bus, mid)` pairs, plus an optional time
//!    window) and a cache fingerprint.
//! 2. **Cache probe** — queries whose `(fingerprint, store epoch)` is
//!    cached skip the scan entirely. The epoch hashes the store's
//!    [`generation`](ivnt_store::Footer::generation) (advanced by every
//!    append-mode flush), so a growing store invalidates naturally.
//! 3. **Shared scan** — remaining queries are merged into one union
//!    predicate; the store is scanned once, zone maps pruning chunks no
//!    query needs. When queries are signal-disjoint and windowless the
//!    vectorized interpret kernel also runs once per row group over the
//!    union rule set, and its output is handed back by signal ownership
//!    (see [`exec`](self) internals); otherwise each query interprets its
//!    own row subset of the shared decode. A `run` decodes straight into
//!    per-signal sequences as a solo
//!    [`Session::run`](ivnt_core::pipeline::Session::run) does — `K_s` is
//!    never built; an `extract` builds each query's `K_s` partitions.
//! 4. **Per-query back half** — dedup → reduce → extend → classify →
//!    branch runs per query on its sequences, borrowed from the shared
//!    cache entry rather than copied out of it, so every answer is
//!    **bit-identical** to running that query as its own session.
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

mod cache;
mod exec;
mod fingerprint;

use std::borrow::Cow;
use std::io::{Read, Seek};
use std::sync::Arc;
use std::time::Instant;

use ivnt_core::pipeline::PipelineOutput;
use ivnt_core::{Pipeline, Result};
use ivnt_frame::frame::DataFrame;
use ivnt_store::{ScanStats, StoreReader};

pub use cache::DEFAULT_CACHE_CAPACITY;
use cache::{Answer, Kind, PlanCache};
use exec::{route_shared, QuerySpec};

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
    /// Raw store rows routed to this query (0 on a cache hit — nothing
    /// was scanned).
    pub rows_routed: u64,
    /// Row groups that contributed rows to this query.
    pub groups: u32,
    /// Whether the answer came from the plan cache.
    pub cache_hit: bool,
}

/// Batch-level planner statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanStats {
    /// Queries in the batch.
    pub queries: usize,
    /// Queries answered from the plan cache.
    pub cache_hits: usize,
    /// Queries that joined the shared scan.
    pub cache_misses: usize,
    /// Whether the union-kernel fast path applied to the shared scan.
    pub shared_interpret: bool,
    /// Store passes avoided versus sequential sessions: `misses − 1`
    /// scans saved by sharing plus one per cache hit.
    pub scans_saved: usize,
    /// Row groups the shared scan emitted.
    pub groups_scanned: u32,
    /// The shared scan's pushdown statistics (`None` when every query
    /// was a cache hit and no scan ran).
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

/// A reusable planner: holds the plan-keyed result cache across batches.
/// Drop-and-recreate is equivalent to clearing the cache.
#[derive(Debug, Default)]
pub struct Planner {
    cache: PlanCache,
}

impl Planner {
    /// A planner with the default cache capacity
    /// ([`DEFAULT_CACHE_CAPACITY`] answers).
    pub fn new() -> Planner {
        Planner::with_cache_capacity(DEFAULT_CACHE_CAPACITY)
    }

    /// A planner caching at most `capacity` answers (FIFO eviction); a
    /// query's `extract` and `run` answers are separate entries.
    pub fn with_cache_capacity(capacity: usize) -> Planner {
        Planner {
            cache: PlanCache::with_capacity(capacity),
        }
    }

    /// Cached answers currently held.
    pub fn cached(&self) -> usize {
        self.cache.len()
    }

    /// Answers every query's extraction (`K_s`) from one shared pass.
    ///
    /// # Errors
    ///
    /// Propagates store corruption/I/O and tabular-engine errors; the
    /// batch fails as a whole.
    pub fn extract<R: Read + Seek>(
        &mut self,
        queries: &[Query<'_>],
        reader: &mut StoreReader<R>,
    ) -> Result<MultiExtraction> {
        let (answers, plan, per_query, _) = self.answer(queries, reader, Kind::Frame)?;
        let frames = queries
            .iter()
            .zip(answers)
            .zip(per_query)
            .map(|((q, answer), stats)| {
                let Answer::Frame(parts) = answer else {
                    unreachable!("frame lookups return frame answers")
                };
                Ok(QueryExtraction {
                    label: q.label().to_string(),
                    // The frame owns its partitions: copied out of the entry.
                    frame: q.pipeline.signal_frame(Arc::unwrap_or_clone(parts))?,
                    stats,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(MultiExtraction { frames, plan })
    }

    /// Answers every query's full pipeline run from one shared pass.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Planner::extract`].
    pub fn run<R: Read + Seek>(
        &mut self,
        queries: &[Query<'_>],
        reader: &mut StoreReader<R>,
    ) -> Result<MultiOutput> {
        self.run_with(queries, reader, false)
    }

    /// [`Planner::run`] with the per-signal fan-out forced serial — the
    /// reference oracle, mirroring
    /// [`RunOptions::serial`](ivnt_core::pipeline::RunOptions::serial).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Planner::extract`].
    pub fn run_serial<R: Read + Seek>(
        &mut self,
        queries: &[Query<'_>],
        reader: &mut StoreReader<R>,
    ) -> Result<MultiOutput> {
        self.run_with(queries, reader, true)
    }

    fn run_with<R: Read + Seek>(
        &mut self,
        queries: &[Query<'_>],
        reader: &mut StoreReader<R>,
        serial: bool,
    ) -> Result<MultiOutput> {
        let t_shared = Instant::now();
        let (answers, plan, per_query, finish_secs) =
            self.answer(queries, reader, Kind::Sequences)?;
        // The shared pass is attributed evenly: its builders' `finish` as
        // the split of the queries that missed, the rest as every query's
        // interpret — per-query stage timings stay comparable to solo runs.
        let interpret_secs =
            (t_shared.elapsed().as_secs_f64() - finish_secs) / queries.len().max(1) as f64;
        let split_secs = finish_secs / plan.cache_misses.max(1) as f64;
        let results = queries
            .iter()
            .zip(answers)
            .zip(per_query)
            .map(|((q, answer), stats)| {
                let Answer::Sequences(seqs) = answer else {
                    unreachable!("sequence lookups return sequence answers")
                };
                let epoch = Instant::now();
                let parallel = !serial && q.pipeline.effective_workers() > 1;
                let output = q.pipeline.run_from_sequences(
                    seqs.iter().map(Cow::Borrowed).collect(),
                    epoch,
                    interpret_secs,
                    if stats.cache_hit { 0.0 } else { split_secs },
                    parallel,
                )?;
                Ok(QueryResult {
                    label: q.label().to_string(),
                    output,
                    stats,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(MultiOutput { results, plan })
    }

    /// The planner core: cache probe → shared scan → routing → cache
    /// fill, answering every query with an answer of `kind`. The `f64` is
    /// the seconds the shared pass's sequence builders spent in `finish`.
    fn answer<R: Read + Seek>(
        &mut self,
        queries: &[Query<'_>],
        reader: &mut StoreReader<R>,
        kind: Kind,
    ) -> Result<(Vec<Answer>, PlanStats, Vec<QueryStats>, f64)> {
        let epoch = fingerprint::store_epoch(reader.footer());
        let keys: Vec<u64> = queries
            .iter()
            .map(|q| fingerprint::query_fingerprint(q.pipeline, q.window))
            .collect();

        // Cache probe: split the batch into hits and the scan set.
        let mut answers: Vec<Option<Answer>> = Vec::with_capacity(queries.len());
        let mut split_secs = 0.0;
        let mut per_query: Vec<QueryStats> = Vec::with_capacity(queries.len());
        let mut scan_set: Vec<usize> = Vec::new();
        for (qi, key) in keys.iter().enumerate() {
            let cached = self.cache.get(*key, kind, epoch);
            if cached.is_none() {
                scan_set.push(qi);
            }
            per_query.push(QueryStats {
                rows_routed: 0,
                groups: 0,
                cache_hit: cached.is_some(),
            });
            answers.push(cached);
        }
        let cache_hits = queries.len() - scan_set.len();

        let mut plan = PlanStats {
            queries: queries.len(),
            cache_hits,
            cache_misses: scan_set.len(),
            shared_interpret: false,
            scans_saved: cache_hits + scan_set.len().saturating_sub(1),
            groups_scanned: 0,
            scan: None,
        };

        if !scan_set.is_empty() {
            let specs: Vec<QuerySpec<'_>> = scan_set
                .iter()
                .map(|&qi| QuerySpec {
                    pipeline: queries[qi].pipeline,
                    window: queries[qi].window,
                })
                .collect();
            let outcome = route_shared(&specs, reader, kind)?;
            plan.shared_interpret = outcome.shared_interpret;
            plan.groups_scanned = outcome.groups_scanned;
            plan.scan = Some(outcome.stats);
            split_secs = outcome.split_secs;
            for (si, (&qi, answer)) in scan_set.iter().zip(outcome.answers).enumerate() {
                // The cache and the batch share one `Arc`: nothing copied.
                let rules = queries[qi].pipeline.u_comb().rules();
                self.cache
                    .insert(keys[qi], kind, epoch, answer.clone(), rules);
                per_query[qi].rows_routed = outcome.rows_routed[si];
                per_query[qi].groups = outcome.groups_hit[si];
                answers[qi] = Some(answer);
            }
        }

        flush_plan_obs(&plan, queries, &per_query);
        let answers = answers
            .into_iter()
            .map(|a| a.expect("every query resolved by cache or scan"))
            .collect();
        Ok((answers, plan, per_query, split_secs))
    }
}

/// One registry interaction per batch, mirroring the store scan's pattern.
fn flush_plan_obs(plan: &PlanStats, queries: &[Query<'_>], per_query: &[QueryStats]) {
    ivnt_obs::with(|r| {
        r.add("plan_batches_total", 1);
        r.add("plan_queries_total", plan.queries as u64);
        r.add("plan_cache_total{result=\"hit\"}", plan.cache_hits as u64);
        r.add(
            "plan_cache_total{result=\"miss\"}",
            plan.cache_misses as u64,
        );
        r.add("plan_scans_saved_total", plan.scans_saved as u64);
        r.add("plan_groups_scanned_total", u64::from(plan.groups_scanned));
        let strategy = if plan.cache_misses == 0 {
            "cache-only"
        } else if plan.shared_interpret {
            "shared-interpret"
        } else {
            "per-query"
        };
        r.add(
            &format!("plan_strategy_total{{strategy=\"{strategy}\"}}"),
            1,
        );
        for (q, s) in queries.iter().zip(per_query) {
            r.add(
                &format!("plan_rows_routed_total{{query=\"{}\"}}", q.label()),
                s.rows_routed,
            );
        }
    });
}

/// A batch of queries bound to one store reader — the multi-query
/// counterpart of [`Pipeline::session`]. Built with
/// [`Pipeline::session_many`] (via the [`SessionMany`] extension trait).
pub struct QuerySet<'p, 'a, 'c, R: Read + Seek> {
    queries: Vec<Query<'p>>,
    reader: &'a mut StoreReader<R>,
    planner: Option<&'c mut Planner>,
    serial: bool,
    subscriber: Option<Arc<ivnt_obs::Registry>>,
}

impl<'p, 'a, 'c, R: Read + Seek> QuerySet<'p, 'a, 'c, R> {
    /// Reuses `planner` (and its result cache) instead of a throwaway one.
    pub fn with_planner(mut self, planner: &'c mut Planner) -> Self {
        self.planner = Some(planner);
        self
    }

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

    /// Runs every query's full pipeline from one shared pass.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Planner::run`].
    pub fn run(self) -> Result<MultiOutput> {
        let serial = self.serial;
        self.drive(|planner, queries, reader| planner.run_with(queries, reader, serial))
    }

    /// Extracts every query's `K_s` from one shared pass.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Planner::extract`].
    pub fn extract(self) -> Result<MultiExtraction> {
        self.drive(|planner, queries, reader| planner.extract(queries, reader))
    }

    /// Runs `f` on the batch under its subscriber, with the borrowed
    /// planner or a throwaway one.
    fn drive<T>(
        self,
        f: impl FnOnce(&mut Planner, &[Query<'p>], &mut StoreReader<R>) -> Result<T>,
    ) -> Result<T> {
        let _guard = self.subscriber.map(ivnt_obs::install);
        let mut local = Planner::new();
        f(
            self.planner.unwrap_or(&mut local),
            &self.queries,
            self.reader,
        )
    }
}

/// Extension trait putting `session_many` on [`Pipeline`] — bring it into
/// scope and call `Pipeline::session_many(queries, reader)`.
pub trait SessionMany {
    /// Binds a batch of queries to one store reader.
    fn session_many<'p, 'a, 'c, R: Read + Seek>(
        queries: Vec<Query<'p>>,
        reader: &'a mut StoreReader<R>,
    ) -> QuerySet<'p, 'a, 'c, R>;
}

impl SessionMany for Pipeline {
    fn session_many<'p, 'a, 'c, R: Read + Seek>(
        queries: Vec<Query<'p>>,
        reader: &'a mut StoreReader<R>,
    ) -> QuerySet<'p, 'a, 'c, R> {
        QuerySet {
            queries,
            reader,
            planner: None,
            serial: false,
            subscriber: None,
        }
    }
}
