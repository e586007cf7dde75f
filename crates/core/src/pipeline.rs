//! The end-to-end pipeline: Algorithm 1, parameterized per domain.
//!
//! A [`DomainProfile`] is the *one-time parameterization* the paper
//! requires: which signals the domain analyzes (`U_comb`), its reduction
//! constraints `C`, extension rules `E` and processing thresholds. A
//! [`Pipeline`] then turns any raw trace into the domain's homogeneous
//! state representation, fully automatically.
//!
//! All entry points funnel through one [`Session`]: pick a [`Source`]
//! (in-memory trace, store file, or one store shard), set the run
//! options once ([`RunOptions`]), and call [`Session::extract`],
//! [`Session::extract_reduced`] or [`Session::run`]. The historical
//! per-combination methods (`run_serial`, `extract_from_store`, …)
//! remain as thin delegating wrappers.

use std::borrow::Cow;
use std::fs::File;
use std::io::{BufReader, Read, Seek};
use std::ops::Range;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use ivnt_frame::prelude::*;
use ivnt_simulator::trace::Trace;
use ivnt_store::{ScanStats, StoreReader};

use crate::branch::{process, BranchConfig};
use crate::classify::{classify, Classification, ClassifyConfig};
use crate::dedup::{check, Checked, Dedup, Deduplicator};
use crate::error::{Error, Result};
use crate::extend::{extension_schema, ExtensionRule};
use crate::interpret::{Kernel, RecordSelector};
use crate::reduce::{apply_constraints, ConditionFn, Constraint};
use crate::represent::{merge_results, state_representation};
use crate::rules::{RuleCatalog, RuleSet};
use crate::split::SignalSequence;

/// One domain's one-time parameterization of the framework.
#[derive(Debug, Clone)]
pub struct DomainProfile {
    /// Domain name (e.g. `"wiper-analysis"`).
    pub name: String,
    /// Signals the domain inspects (`U_comb` selection); empty = all
    /// signals in `U_rel`.
    pub signals: Vec<String>,
    /// Which reduction technique to apply (constraints or clustering).
    pub reduction: crate::reduce::Reduction,
    /// Reduction constraint set `C` (used by
    /// [`Reduction::Constraints`](crate::reduce::Reduction::Constraints)).
    pub constraints: Vec<Constraint>,
    /// Extension rules `E`.
    pub extensions: Vec<ExtensionRule>,
    /// Classification thresholds.
    pub classify: ClassifyConfig,
    /// Branch-processing parameters.
    pub branch: BranchConfig,
    /// Whether to run the gateway equality check (line 9).
    pub dedup: bool,
    /// Horizontal partitions for the tabular engine.
    pub partitions: usize,
    /// Worker cap for the tabular engine's executor; `None` uses the
    /// process-wide default.
    pub workers: Option<usize>,
}

impl DomainProfile {
    /// Creates a profile with the paper's canonical defaults: all signals,
    /// unchanged-repeat removal as the reduction, no extensions, gateway
    /// dedup on, and one partition per available core.
    pub fn new(name: impl Into<String>) -> DomainProfile {
        DomainProfile {
            name: name.into(),
            signals: Vec::new(),
            reduction: crate::reduce::Reduction::Constraints,
            constraints: vec![Constraint::global(vec![ConditionFn::ValueChanged])],
            extensions: Vec::new(),
            classify: ClassifyConfig::default(),
            branch: BranchConfig::default(),
            dedup: true,
            partitions: ivnt_frame::exec::default_workers(),
            workers: None,
        }
    }

    /// Restricts the domain to the given signals.
    pub fn with_signals<I, S>(mut self, signals: I) -> DomainProfile
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.signals = signals.into_iter().map(Into::into).collect();
        self
    }

    /// Replaces the constraint set.
    pub fn with_constraints(mut self, constraints: Vec<Constraint>) -> DomainProfile {
        self.constraints = constraints;
        self
    }

    /// Switches the reduction technique.
    pub fn with_reduction(mut self, reduction: crate::reduce::Reduction) -> DomainProfile {
        self.reduction = reduction;
        self
    }

    /// Adds an extension rule.
    pub fn with_extension(mut self, rule: ExtensionRule) -> DomainProfile {
        self.extensions.push(rule);
        self
    }

    /// Overrides the partition count.
    pub fn with_partitions(mut self, partitions: usize) -> DomainProfile {
        self.partitions = partitions.max(1);
        self
    }

    /// Caps the executor's worker count for this domain's frames, instead
    /// of mutating the process-wide default (which would leak into
    /// concurrently running pipelines).
    pub fn with_workers(mut self, workers: usize) -> DomainProfile {
        self.workers = Some(workers.max(1));
        self
    }

    /// Turns the gateway equality check on or off.
    pub fn with_dedup(mut self, dedup: bool) -> DomainProfile {
        self.dedup = dedup;
        self
    }
}

/// Result for one signal after the full pipeline.
#[derive(Debug, Clone)]
pub struct SignalOutput {
    /// Signal identifier.
    pub signal: String,
    /// Classification (`Z` criteria, data class, branch).
    pub classification: Classification,
    /// Channel processed as representative.
    pub representative_channel: String,
    /// Channels covered by the representative (gateway copies).
    pub corresponding_channels: Vec<String>,
    /// Channels whose copies disagreed (potential forwarding faults).
    pub mismatched_channels: Vec<String>,
    /// Signal instances before reduction (representative channel).
    pub rows_interpreted: usize,
    /// Signal instances after constraint reduction.
    pub rows_reduced: usize,
    /// The homogeneous result `K_res`.
    pub frame: DataFrame,
}

/// Elapsed (makespan) seconds per fan-out stage: for each stage,
/// `max(end) − min(start)` across all per-signal tasks, measured against
/// the run's epoch. Under parallel execution this is the stage's actual
/// wall-clock footprint, while the matching [`StageTiming`] field is the
/// summed busy time — `busy / wall` approximates the stage's effective
/// parallelism. Tasks of different stages interleave, so the five walls
/// can overlap and their sum may exceed the run total.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageWall {
    /// Gateway dedup (line 9).
    pub dedup: f64,
    /// Constraint/cluster reduction (line 10).
    pub reduce: f64,
    /// Extension rules (line 12), per-signal portion only (the rule-major
    /// gather is serial and lives in [`StageTiming::extend`]).
    pub extend: f64,
    /// Classification (line 13).
    pub classify: f64,
    /// α/β/γ branch processing (lines 14–28).
    pub branch: f64,
}

/// Wall-clock seconds spent per Algorithm 1 stage during one
/// [`Session::run`], so perf regressions can be attributed to a stage
/// without a profiler (`ivnt run --timing` prints this table).
///
/// The fan-out stages (`dedup` through `branch`) run per signal, possibly
/// concurrently, so those fields are the *summed busy time* across signals
/// — under parallel execution they can exceed the elapsed wall clock. The
/// per-stage elapsed makespans live in [`StageTiming::wall`].
/// `interpret` covers the fused preselect + interpretation kernel
/// (lines 3–6), which is not separable per stage.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTiming {
    /// Trace→frame ingest: record-level preselection (line 3) plus the
    /// column-wise build of the survivors. 0 for store sources.
    pub tabular: f64,
    /// Fused preselection + interpretation kernel (lines 3–6); for store
    /// sources incl. the scan.
    pub interpret: f64,
    /// Per-signal split (line 7).
    pub split: f64,
    /// Gateway dedup (line 9), summed across signals.
    pub dedup: f64,
    /// Constraint/cluster reduction (line 10), summed across signals.
    pub reduce: f64,
    /// Extension rules (line 12), summed across signals plus the gather.
    pub extend: f64,
    /// Classification (line 13), summed across signals.
    pub classify: f64,
    /// α/β/γ branch processing (lines 14–28), summed across signals.
    pub branch: f64,
    /// Merging into `K_rep` (line 29).
    pub merge: f64,
    /// State-representation pivot (Sec. 4.3).
    pub state: f64,
    /// End-to-end wall clock of the run.
    pub total: f64,
    /// Per-stage elapsed makespans for the fan-out stages (`busy` lives
    /// in the flat fields above).
    pub wall: StageWall,
}

/// Everything the pipeline produces for one trace.
#[derive(Debug, Clone)]
pub struct PipelineOutput {
    /// Per-signal results, sorted by signal name.
    pub signals: Vec<SignalOutput>,
    /// The combined extension frame `W`.
    pub extensions: DataFrame,
    /// The merged homogeneous sequence `K_rep`.
    pub merged: DataFrame,
    /// The forward-filled state representation (Table 4).
    pub state: DataFrame,
    /// Per-stage wall-clock breakdown of this run. Timing is measurement,
    /// not output: it is excluded from determinism comparisons.
    pub timing: StageTiming,
}

impl PipelineOutput {
    /// Result for a signal by name.
    pub fn signal(&self, name: &str) -> Option<&SignalOutput> {
        self.signals.iter().find(|s| s.signal == name)
    }

    /// Total outlier instances flagged across all signals.
    ///
    /// # Errors
    ///
    /// Propagates tabular-engine failures.
    pub fn outlier_count(&self) -> Result<usize> {
        let mut n = 0;
        for s in &self.signals {
            n += s
                .frame
                .column_values(crate::branch::res_columns::OUTLIER)?
                .iter()
                .filter(|v| v.as_bool() == Some(true))
                .count();
        }
        Ok(n)
    }
}

/// One stage's `[start, end]` interval within a per-signal task, as
/// offsets (seconds) from the run epoch. Busy time is `end − start`;
/// the makespan across signals is `max(end) − min(start)`.
#[derive(Debug, Clone, Copy, Default)]
struct StageSpanSecs {
    start: f64,
    end: f64,
}

impl StageSpanSecs {
    fn busy(self) -> f64 {
        self.end - self.start
    }
}

/// Per-signal stage intervals for the fan-out stages, accumulated into
/// [`StageTiming`] (busy sums) and [`StageWall`] (makespans) at gather
/// time.
#[derive(Debug, Clone, Copy, Default)]
struct SignalStageSecs {
    dedup: StageSpanSecs,
    reduce: StageSpanSecs,
    extend: StageSpanSecs,
    classify: StageSpanSecs,
    branch: StageSpanSecs,
}

/// Everything one per-signal task produces: the signal's output (its frame
/// moved in, not cloned), one extension frame per profile rule (aligned
/// index-wise with `profile.extensions`, empty where the rule targets
/// another signal), and the task's stage timings.
#[derive(Debug)]
struct SignalResult {
    output: SignalOutput,
    extensions: Vec<DataFrame>,
    stages: SignalStageSecs,
}

/// Scans `reader` under `pred`, handing each surviving row group to `each`
/// as one raw batch, in group order.
fn scan_groups<R: Read + Seek>(
    reader: &mut StoreReader<R>,
    pred: &ivnt_store::Predicate,
    mut each: impl FnMut(Batch) -> Result<()>,
) -> Result<ScanStats> {
    let raw_schema = crate::tabular::raw_schema();
    let compiled = pred.compile(reader.footer());
    reader.scan_columns::<Error, _>(std::slice::from_ref(&compiled), |group| {
        each(group.to_batch(raw_schema.clone())?)
    })
}

/// Where a [`Session`] reads its input rows from.
pub enum Source<'a, R: Read + Seek = BufReader<File>> {
    /// An in-memory trace (simulated or recorded).
    Trace(&'a Trace),
    /// A columnar store file: the domain's preselection is pushed down as
    /// a zone-map predicate and rows stream group-by-group (out-of-core).
    Store(&'a mut StoreReader<R>),
    /// One shard of a store file: only row groups in `groups` (half-open)
    /// are read — the unit of work a cluster coordinator assigns.
    StoreShard {
        /// Reader over the shard's store file.
        reader: &'a mut StoreReader<R>,
        /// Half-open row-group range this shard covers.
        groups: Range<u32>,
    },
}

/// Options for one pipeline [`Session`]: the input [`Source`] plus the
/// run's switches. Build with [`RunOptions::trace`], [`RunOptions::store`] or
/// [`RunOptions::store_shard`], then chain the setters.
pub struct RunOptions<'a, R: Read + Seek = BufReader<File>> {
    source: Source<'a, R>,
    workers: Option<usize>,
    serial: bool,
    preselection: bool,
    time_window: Option<(u64, u64)>,
    subscriber: Option<Arc<ivnt_obs::Registry>>,
}

impl<'a> RunOptions<'a> {
    /// Options over an in-memory trace.
    pub fn trace(trace: &'a Trace) -> RunOptions<'a> {
        RunOptions::from_source(Source::Trace(trace))
    }
}

impl<'a, R: Read + Seek> RunOptions<'a, R> {
    /// Options over an explicit [`Source`].
    pub fn from_source(source: Source<'a, R>) -> RunOptions<'a, R> {
        RunOptions {
            source,
            workers: None,
            serial: false,
            preselection: true,
            time_window: None,
            subscriber: None,
        }
    }

    /// Options over a full store file.
    pub fn store(reader: &'a mut StoreReader<R>) -> RunOptions<'a, R> {
        RunOptions::from_source(Source::Store(reader))
    }

    /// Options over one row-group shard of a store file.
    pub fn store_shard(reader: &'a mut StoreReader<R>, groups: Range<u32>) -> RunOptions<'a, R> {
        RunOptions::from_source(Source::StoreShard { reader, groups })
    }

    /// Caps the session's worker count, overriding the profile's cap for
    /// this session only (minimum 1).
    pub fn with_workers(mut self, workers: usize) -> RunOptions<'a, R> {
        self.workers = Some(workers.max(1));
        self
    }

    /// Runs the per-signal fan-out as a plain sequential loop — the
    /// reference oracle the parallel path is held to.
    pub fn serial(mut self) -> RunOptions<'a, R> {
        self.serial = true;
        self
    }

    /// Restricts the session to the inclusive `[from, to]` timestamp
    /// window (µs): pushed down into the scan predicate for store-backed
    /// sources (zone maps prune chunks outside it), into the record-level
    /// preselection for in-memory traces — same rows from either source.
    pub fn with_time_window(mut self, from_us: u64, to_us: u64) -> RunOptions<'a, R> {
        self.time_window = Some((from_us, to_us));
        self
    }

    /// Skips preselection (line 3) during trace extraction — the ablation
    /// showing why it matters. Ignored for store sources, where the
    /// preselection *is* the scan predicate.
    pub fn without_preselection(mut self) -> RunOptions<'a, R> {
        self.preselection = false;
        self
    }

    /// Installs `registry` as the process-wide metrics subscriber for the
    /// duration of the session call, so the run's counters, histograms
    /// and stage spans land in it.
    pub fn with_subscriber(mut self, registry: Arc<ivnt_obs::Registry>) -> RunOptions<'a, R> {
        self.subscriber = Some(registry);
        self
    }
}

/// What [`Session::extract`] produces: the interpreted `K_s` frame plus,
/// for store-backed sources, the scan's pushdown statistics.
#[derive(Debug)]
pub struct Extraction {
    /// The interpreted signal frame `K_s`.
    pub frame: DataFrame,
    /// Zone-map scan statistics — `Some` for store-backed sources,
    /// `None` for in-memory traces.
    pub scan: Option<ScanStats>,
}

/// One configured pipeline invocation: a [`Pipeline`] bound to a
/// [`Source`] and [`RunOptions`] — the only way into the pipeline, so
/// extraction, reduction and full runs behave identically whatever the
/// source.
///
/// # Examples
///
/// ```no_run
/// # fn demo(pipeline: &ivnt_core::Pipeline, trace: &ivnt_simulator::trace::Trace)
/// # -> ivnt_core::Result<()> {
/// use ivnt_core::pipeline::RunOptions;
/// let output = pipeline.session(RunOptions::trace(trace).serial()).run()?;
/// # let _ = output; Ok(())
/// # }
/// ```
pub struct Session<'p, 'a, R: Read + Seek = BufReader<File>> {
    pipeline: &'p Pipeline,
    opts: RunOptions<'a, R>,
}

/// The pipeline with the session's worker override applied (cloned only
/// when the override actually changes something).
fn effective_pipeline(pipeline: &Pipeline, workers: Option<usize>) -> Cow<'_, Pipeline> {
    match workers {
        Some(w) if pipeline.profile.workers != Some(w) => {
            let mut p = pipeline.clone();
            p.profile.workers = Some(w);
            Cow::Owned(p)
        }
        _ => Cow::Borrowed(pipeline),
    }
}

impl<R: Read + Seek> Session<'_, '_, R> {
    /// Lines 3–6: preselection and interpretation, producing `K_s` (plus
    /// scan statistics for store-backed sources).
    ///
    /// # Errors
    ///
    /// Propagates tabular-engine failures and, for store sources, store
    /// corruption/I/O errors ([`Error::Store`]).
    pub fn extract(self) -> Result<Extraction> {
        let Session { pipeline, opts } = self;
        let _guard = opts.subscriber.map(ivnt_obs::install);
        let p = effective_pipeline(pipeline, opts.workers);
        let (extraction, _) = p.extract_source(opts.source, opts.preselection, opts.time_window)?;
        Ok(extraction)
    }

    /// Lines 3–11: extraction, splitting, gateway dedup and constraint
    /// reduction — the portion of Algorithm 1 the paper's Fig. 5
    /// measures. Returns the reduced per-signal sequences with their
    /// dedup reports and pre-reduction lengths.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Session::extract`].
    pub fn extract_reduced(self) -> Result<Vec<(SignalSequence, Dedup, usize)>> {
        let Session { pipeline, opts } = self;
        let _guard = opts.subscriber.map(ivnt_obs::install);
        let p = effective_pipeline(pipeline, opts.workers);
        let (seqs, ..) = p.extract_sequences(opts.source, opts.preselection, opts.time_window)?;
        let task = |seq: SignalSequence| {
            let (dedup, rows_interpreted) = p.dedup_signal(Cow::Owned(seq))?;
            let reduced = p.reduce_representative(&dedup.representative)?;
            Ok((reduced, dedup.into_owned(), rows_interpreted))
        };
        if opts.serial || p.effective_workers() == 1 {
            seqs.into_iter().map(task).collect()
        } else {
            ivnt_obs::with(|r| r.add("pipeline_scatter_total", 1));
            p.signal_executor().try_map(seqs, task)
        }
    }

    /// The full Algorithm 1 from this session's source: extraction,
    /// reduction, extension, classification, branch processing, merging
    /// and the state representation. For store sources this runs the
    /// whole pipeline out-of-core — the raw trace is never materialized.
    ///
    /// Output is bit-identical across worker counts and serial/parallel
    /// modes (timing excluded).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Session::extract`].
    pub fn run(self) -> Result<PipelineOutput> {
        let Session { pipeline, opts } = self;
        let _guard = opts.subscriber.map(ivnt_obs::install);
        let p = effective_pipeline(pipeline, opts.workers);
        let t_run = Instant::now();
        let (seqs, tabular_secs, split_secs) =
            p.extract_sequences(opts.source, opts.preselection, opts.time_window)?;
        let interpret_secs = t_run.elapsed().as_secs_f64() - tabular_secs - split_secs;
        // A 1-worker scatter is pure overhead (channel round-trips, same
        // order): take the serial per-signal loop instead.
        let parallel = !opts.serial && p.effective_workers() > 1;
        let seqs = seqs.into_iter().map(Cow::Owned).collect();
        let mut output = p.run_from_sequences(seqs, t_run, interpret_secs, split_secs, parallel)?;
        output.timing.tabular = tabular_secs;
        Ok(output)
    }
}

/// The end-to-end preprocessing pipeline for one domain.
///
/// # Examples
///
/// ```
/// use ivnt_core::pipeline::{DomainProfile, Pipeline};
/// use ivnt_core::rules::RuleSet;
/// use ivnt_simulator::prelude::*;
/// use ivnt_simulator::functions;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut network = NetworkModel::new(ivnt_protocol::Catalog::new());
/// network.add_function(functions::wiper()?)?;
/// network.auto_senders();
/// let trace = network.simulate(5.0, 42, &FaultPlan::new())?;
///
/// use ivnt_core::pipeline::RunOptions;
/// let u_rel = RuleSet::from_network(&network);
/// let profile = DomainProfile::new("wiper-domain").with_signals(["wpos", "wvel"]);
/// let pipeline = Pipeline::new(u_rel, profile)?;
/// let output = pipeline.session(RunOptions::trace(&trace)).run()?;
/// assert_eq!(output.signals.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline {
    u_rel: RuleSet,
    u_comb: RuleSet,
    profile: DomainProfile,
    /// `u_comb` compiled, on first use; clones (a session's worker
    /// override) share it.
    kernel: Arc<OnceLock<Kernel>>,
}

impl Pipeline {
    /// Builds a pipeline from the full rule table `U_rel` and a domain
    /// profile; the profile's signal selection forms `U_comb`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownSignal`] for selected signals without rules
    /// and [`Error::InvalidProfile`] for an empty resulting `U_comb`.
    pub fn new(u_rel: RuleSet, profile: DomainProfile) -> Result<Pipeline> {
        let u_comb = if profile.signals.is_empty() {
            u_rel.clone()
        } else {
            let names: Vec<&str> = profile.signals.iter().map(String::as_str).collect();
            u_rel.select(&names)?
        };
        if u_comb.is_empty() {
            return Err(Error::InvalidProfile(format!(
                "domain {} selects no signals",
                profile.name
            )));
        }
        Ok(Pipeline {
            u_rel,
            u_comb,
            profile,
            kernel: Arc::default(),
        })
    }

    /// Builds a pipeline whose rule tables come from `catalog` — the
    /// catalog-first constructor every tier uses to thread a
    /// [`RuleSource`](crate::rules::RuleSource): authored, inferred and
    /// merged tables all enter the pipeline through here.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Pipeline::new`].
    pub fn from_catalog(catalog: &RuleCatalog, profile: DomainProfile) -> Result<Pipeline> {
        Pipeline::new(catalog.rules().clone(), profile)
    }

    /// The full rule table.
    pub fn u_rel(&self) -> &RuleSet {
        &self.u_rel
    }

    /// The domain's selected rules.
    pub fn u_comb(&self) -> &RuleSet {
        &self.u_comb
    }

    /// The domain profile.
    pub fn profile(&self) -> &DomainProfile {
        &self.profile
    }

    /// The interpretation kernel compiled from `U_comb` — once per
    /// pipeline, shared by every session, row group, partition and stream
    /// micro-batch that decodes with it.
    pub fn kernel(&self) -> &Kernel {
        self.kernel.get_or_init(|| Kernel::compile(&self.u_comb))
    }

    /// The trace as a partitioned frame carrying the profile's executor,
    /// holding only the rows `selector` keeps (all of them for `None`).
    fn raw_frame(&self, trace: &Trace, selector: Option<&RecordSelector>) -> Result<DataFrame> {
        let executor = self.signal_executor();
        let raw = crate::tabular::ingest(trace, self.profile.partitions, executor, selector)?;
        Ok(raw.with_executor(executor))
    }

    /// Binds this pipeline to a source and options, producing the
    /// [`Session`] every entry point runs through.
    pub fn session<'p, 'a, R: Read + Seek>(
        &'p self,
        opts: RunOptions<'a, R>,
    ) -> Session<'p, 'a, R> {
        Session {
            pipeline: self,
            opts,
        }
    }

    /// The trace as a raw frame holding only what preselection (line 3)
    /// and the window keep, with the seconds the ingest took.
    fn ingest_trace(
        &self,
        trace: &Trace,
        preselection: bool,
        time_window: Option<(u64, u64)>,
    ) -> Result<(DataFrame, f64)> {
        let t = Instant::now();
        let selector = RecordSelector::new(preselection.then(|| self.kernel()), time_window);
        let raw = self.raw_frame(trace, Some(&selector))?;
        let tabular_secs = t.elapsed().as_secs_f64();
        ivnt_obs::with(|r| {
            r.record_span("tabular", "run", tabular_secs);
            r.add("tabular_rows_in_total", trace.len() as u64);
            r.add("tabular_rows_kept_total", raw.num_rows() as u64);
        });
        Ok((raw, tabular_secs))
    }

    /// The scan predicate of a store session: the domain's preselection,
    /// the session's window and, for a shard, its row-group range.
    fn scan_predicate(
        &self,
        time_window: Option<(u64, u64)>,
        groups: Option<Range<u32>>,
    ) -> ivnt_store::Predicate {
        let mut pred = self.store_predicate();
        if let Some((from, to)) = time_window {
            pred = pred.with_time_range_us(from, to);
        }
        if let Some(groups) = groups {
            pred = pred.with_group_range(groups.start, groups.end);
        }
        pred
    }

    /// Source-dispatched extraction (lines 3–6) into the table `K_s`, with
    /// the seconds the trace→frame ingest took (0 for store sources, whose
    /// ingest is part of the scan). Both preselect before materializing:
    /// store sources by zone-map predicate, trace sources by the same
    /// record predicate per partition slice.
    fn extract_source<R: Read + Seek>(
        &self,
        source: Source<'_, R>,
        preselection: bool,
        time_window: Option<(u64, u64)>,
    ) -> Result<(Extraction, f64)> {
        let (reader, groups) = match source {
            Source::Trace(trace) => {
                let (raw, tabular_secs) = self.ingest_trace(trace, preselection, time_window)?;
                let frame = if preselection {
                    self.kernel().extract(&raw)?
                } else {
                    crate::interpret::interpret(&raw, &self.u_comb)?
                };
                return Ok((Extraction { frame, scan: None }, tabular_secs));
            }
            Source::Store(reader) => (reader, None),
            Source::StoreShard { reader, groups } => (reader, Some(groups)),
        };
        // No empty-batch padding for a shard: its partitions concatenate
        // with its siblings', and only the whole must be non-empty.
        let pad = groups.is_none();
        // Each surviving row group is one morsel through the kernel and
        // one output partition, in group order; pruned groups contribute
        // nothing (matching the in-memory path, which never sees them).
        let kernel = self.kernel();
        let mut parts: Vec<Batch> = Vec::new();
        let stats = scan_groups(reader, &self.scan_predicate(time_window, groups), |raw| {
            parts.push(kernel.extract_batch(&raw)?);
            Ok(())
        })?;
        if parts.is_empty() && pad {
            parts.push(Batch::empty(crate::interpret::signal_schema()));
        }
        let (frame, scan) = (self.signal_frame(parts)?, Some(stats));
        Ok((Extraction { frame, scan }, 0.0))
    }

    /// Lines 3–8 with the split fused into the kernel's emission: the
    /// source's rows decode straight into per-signal sequences, so `K_s`
    /// is never built. Trace partitions decode in parallel into
    /// per-partition sinks appended in partition order; store row groups
    /// decode one after another into the builder itself. Only the
    /// no-preselection ablation, whose reference join is not the kernel,
    /// goes through `K_s`. Returns the sequences with the seconds of the
    /// trace→frame ingest (0 for store sources) and of the builder's
    /// `finish` — the split that is left: ordering check + column assembly.
    fn extract_sequences<R: Read + Seek>(
        &self,
        source: Source<'_, R>,
        preselection: bool,
        time_window: Option<(u64, u64)>,
    ) -> Result<(Vec<SignalSequence>, f64, f64)> {
        let kernel = self.kernel();
        let mut builder = kernel.sequence_builder();
        let mut tabular = 0.0;
        let store = match source {
            Source::Trace(trace) if preselection => {
                let (raw, secs) = self.ingest_trace(trace, true, time_window)?;
                tabular = secs;
                let decoded =
                    raw.executor()
                        .try_map_ref(raw.partitions(), |batch| -> Result<_> {
                            let mut runs = builder.new_runs();
                            kernel.decode_runs(batch, &mut runs)?;
                            Ok(runs)
                        })?;
                for runs in decoded {
                    builder.append(runs);
                }
                None
            }
            Source::Trace(trace) => {
                let (ks, secs) =
                    self.extract_source(Source::<R>::Trace(trace), false, time_window)?;
                tabular = secs;
                for batch in ks.frame.partitions() {
                    builder.push(batch)?;
                }
                None
            }
            Source::Store(reader) => Some((reader, None)),
            Source::StoreShard { reader, groups } => Some((reader, Some(groups))),
        };
        if let Some((reader, groups)) = store {
            let pred = self.scan_predicate(time_window, groups);
            scan_groups(reader, &pred, |raw| {
                kernel.decode_runs(&raw, builder.runs_mut())
            })?;
        }
        let t = Instant::now();
        let seqs = builder.finish()?;
        Ok((seqs, tabular, t.elapsed().as_secs_f64()))
    }

    /// Assembles interpreted partitions into a `K_s` frame carrying the
    /// profile's executor. Public (hidden) for the multi-query planner,
    /// which builds per-query partition lists from a shared scan.
    #[doc(hidden)]
    pub fn signal_frame(&self, parts: Vec<Batch>) -> Result<DataFrame> {
        let frame = DataFrame::from_partitions(crate::interpret::signal_schema(), parts)?;
        Ok(match self.profile.workers {
            Some(workers) => frame.with_executor(Executor::new(workers)),
            None => frame,
        })
    }

    /// The store-scan predicate corresponding to this domain's
    /// preselection (line 3): the `(b_id, m_id)` pairs of `U_comb`.
    pub fn store_predicate(&self) -> ivnt_store::Predicate {
        ivnt_store::Predicate::for_messages(
            self.u_comb
                .rules()
                .iter()
                .map(|r| (r.bus.clone(), r.message_id)),
        )
    }

    /// Executor for the per-signal scatter/gather: bounded by the
    /// profile's worker cap, falling back to the process-wide default.
    fn signal_executor(&self) -> Executor {
        Executor::new(self.effective_workers())
    }

    /// Worker count a parallel session would actually use: the profile's
    /// cap, or the process-wide default. When this is 1, sessions skip the
    /// scatter/gather machinery entirely — a 1-worker pool only adds
    /// channel round-trips over the plain serial loop.
    #[doc(hidden)]
    pub fn effective_workers(&self) -> usize {
        self.profile
            .workers
            .unwrap_or_else(ivnt_frame::exec::default_workers)
            .max(1)
    }

    /// Line 9's operator for `signal`: the equality check over `U_comb`,
    /// copies bounded to `history_cap` rows, or the passthrough when the
    /// profile turns dedup off.
    pub fn deduplicator(&self, signal: &str, history_cap: usize) -> Deduplicator {
        if self.profile.dedup {
            Deduplicator::new(signal, &self.u_comb, history_cap)
        } else {
            Deduplicator::default()
        }
    }

    /// Line 9 over the split sequence, owned or borrowed. Returns the dedup
    /// report plus the representative's pre-reduction length.
    fn dedup_signal<'s>(&self, seq: Cow<'s, SignalSequence>) -> Result<(Checked<'s>, usize)> {
        let dedup = self.deduplicator(&seq.signal, usize::MAX);
        let dedup = check(seq, dedup)?;
        let rows_interpreted = dedup.representative.len();
        Ok((dedup, rows_interpreted))
    }

    /// Line 10: the configured reduction applied to the representative.
    fn reduce_representative(&self, representative: &SignalSequence) -> Result<SignalSequence> {
        match &self.profile.reduction {
            crate::reduce::Reduction::Constraints => {
                apply_constraints(representative, &self.profile.constraints)
            }
            crate::reduce::Reduction::Cluster { k, max_iterations } => {
                crate::reduce::cluster_reduce(representative, *k, *max_iterations)
            }
        }
    }

    /// Lines 9–28 for one signal: dedup, reduction, extension rules,
    /// classification and branch processing — the unit of work the
    /// scatter/gather in [`Session::run`] distributes. Signals are
    /// independent after the split, so running these units in any order
    /// (or concurrently) and gathering in input order reproduces the
    /// serial pipeline exactly.
    fn process_signal(&self, seq: Cow<'_, SignalSequence>, epoch: Instant) -> Result<SignalResult> {
        // Stage intervals are offsets from the shared run epoch, so the
        // gather can compute per-stage makespans across signals.
        let offset = || epoch.elapsed().as_secs_f64();
        let span = |start: f64| StageSpanSecs {
            start,
            end: offset(),
        };

        let t = offset();
        let (dedup, rows_interpreted) = self.dedup_signal(seq)?;
        let dedup_span = span(t);

        let t = offset();
        let reduced = self.reduce_representative(&dedup.representative)?;
        let reduce_span = span(t);

        // Line 12: one frame per extension rule, aligned index-wise with
        // `profile.extensions` so the gather can reassemble the combined
        // frame in `extend_all`'s rule-major order.
        let t = offset();
        let extensions: Vec<DataFrame> = self
            .profile
            .extensions
            .iter()
            .map(|rule| rule.apply(&reduced))
            .collect::<Result<_>>()?;
        let extend_span = span(t);

        // The signal's rules: the first decides comparability, the home
        // channel's (else the first) drives branch processing.
        let rules = || {
            self.u_comb
                .rules()
                .iter()
                .filter(|r| r.signal == reduced.signal)
        };
        let t = offset();
        let comparable = rules().next().is_none_or(|r| r.info.comparable);
        let classification = classify(&reduced, comparable, &self.profile.classify)?;
        let classify_span = span(t);

        let t = offset();
        let home_rule = rules()
            .find(|r| r.info.home_channel)
            .or_else(|| rules().next());
        let frame = process(
            &reduced,
            &classification,
            home_rule.map(|r| r.as_ref()),
            &self.profile.branch,
        )?;
        let branch_span = span(t);

        let stages = SignalStageSecs {
            dedup: dedup_span,
            reduce: reduce_span,
            extend: extend_span,
            classify: classify_span,
            branch: branch_span,
        };
        ivnt_obs::with(|r| {
            let sig = &reduced.signal;
            r.add(
                &format!("pipeline_rows_total{{signal=\"{sig}\",stage=\"interpreted\"}}"),
                rows_interpreted as u64,
            );
            r.add(
                &format!("pipeline_rows_total{{signal=\"{sig}\",stage=\"reduced\"}}"),
                reduced.len() as u64,
            );
            // Explicit parents: these tasks run on pool threads, so the
            // thread-local span stack cannot attribute them.
            r.record_span("dedup", "run", stages.dedup.busy());
            r.record_span("reduce", "run", stages.reduce.busy());
            r.record_span("extend", "run", stages.extend.busy());
            r.record_span("classify", "run", stages.classify.busy());
            r.record_span("branch", "run", stages.branch.busy());
        });

        Ok(SignalResult {
            output: SignalOutput {
                signal: reduced.signal.clone(),
                classification,
                representative_channel: dedup.representative_channel,
                corresponding_channels: dedup.corresponding,
                mismatched_channels: dedup.mismatched,
                rows_interpreted,
                rows_reduced: reduced.len(),
                frame,
            },
            extensions,
            stages,
        })
    }

    /// Lines 9–29 + Sec. 4.3 from the per-signal sequences: the shared
    /// back half of every run, regardless of source. `epoch` is the
    /// session's start (stage spans are offsets from it), `interpret_secs`
    /// and `split_secs` the time already spent getting here. A session
    /// hands its sequences over; the multi-query planner (hence public,
    /// hidden) lends the ones its cache entry holds.
    #[doc(hidden)]
    pub fn run_from_sequences(
        &self,
        seqs: Vec<Cow<'_, SignalSequence>>,
        epoch: Instant,
        interpret_secs: f64,
        split_secs: f64,
        parallel: bool,
    ) -> Result<PipelineOutput> {
        ivnt_obs::with(|r| {
            r.record_span("interpret", "run", interpret_secs);
            r.add("pipeline_runs_total", 1);
            r.add("pipeline_signals_total", seqs.len() as u64);
            r.record_span("split", "run", split_secs);
        });

        // Lines 9–28: scatter per signal, gather in signal order.
        let results: Vec<SignalResult> = if parallel {
            ivnt_obs::with(|r| r.add("pipeline_scatter_total", 1));
            self.signal_executor()
                .try_map(seqs, |seq| self.process_signal(seq, epoch))?
        } else {
            seqs.into_iter()
                .map(|seq| self.process_signal(seq, epoch))
                .collect::<Result<_>>()?
        };

        // Line 12 gather: reassemble the combined extension frame in the
        // exact rule-major order `extend_all` produces serially, built once.
        let t = Instant::now();
        let parts = (0..self.profile.extensions.len())
            .flat_map(|rule_idx| results.iter().map(move |r| &r.extensions[rule_idx]))
            .filter(|w| !w.is_empty())
            .flat_map(|w| w.partitions().iter().cloned())
            .collect();
        let extensions = DataFrame::from_partitions(extension_schema(), parts)?;
        let extend_gather_secs = t.elapsed().as_secs_f64();

        // Line 29 + Sec. 4.3: merge and pivot.
        let t = Instant::now();
        let merged = merge_results(results.iter().map(|r| &r.output.frame), &extensions)?;
        let merge_secs = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let state = state_representation(&merged)?;
        let state_secs = t.elapsed().as_secs_f64();

        let mut timing = StageTiming {
            interpret: interpret_secs,
            split: split_secs,
            extend: extend_gather_secs,
            merge: merge_secs,
            state: state_secs,
            ..StageTiming::default()
        };
        // Fan-out stages: sum busy time per stage, and derive each
        // stage's makespan (`max(end) − min(start)`) across signals.
        let fold = |pick: fn(&SignalStageSecs) -> StageSpanSecs| -> (f64, f64) {
            let mut busy = 0.0;
            let mut start = f64::INFINITY;
            let mut end = f64::NEG_INFINITY;
            for r in &results {
                let s = pick(&r.stages);
                busy += s.busy();
                start = start.min(s.start);
                end = end.max(s.end);
            }
            // No signals: start = +∞, end = −∞, so no wall time.
            (busy, (end - start).max(0.0))
        };
        (timing.dedup, timing.wall.dedup) = fold(|s| s.dedup);
        (timing.reduce, timing.wall.reduce) = fold(|s| s.reduce);
        (timing.extend, timing.wall.extend) = fold(|s| s.extend);
        (timing.classify, timing.wall.classify) = fold(|s| s.classify);
        (timing.branch, timing.wall.branch) = fold(|s| s.branch);
        timing.total = epoch.elapsed().as_secs_f64();

        ivnt_obs::with(|r| {
            r.record_span("extend_gather", "run", extend_gather_secs);
            r.record_span("merge", "run", merge_secs);
            r.record_span("state", "run", state_secs);
            r.observe(
                "pipeline_run_seconds",
                ivnt_obs::SECONDS_BUCKETS,
                timing.total,
            );
        });

        let signals = results.into_iter().map(|r| r.output).collect();
        Ok(PipelineOutput {
            signals,
            extensions,
            merged,
            state,
            timing,
        })
    }

    /// Preselection only (line 3) — exposed for benchmarks.
    ///
    /// # Errors
    ///
    /// Propagates tabular-engine failures.
    pub fn preselect(&self, trace: &Trace) -> Result<DataFrame> {
        let selector = RecordSelector::new(Some(self.kernel()), None);
        self.raw_frame(trace, Some(&selector))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivnt_protocol::catalog::Catalog;
    use ivnt_simulator::faults::{Fault, FaultPlan};
    use ivnt_simulator::functions;
    use ivnt_simulator::network::{GatewayRoute, NetworkModel};

    fn vehicle() -> NetworkModel {
        let mut n = NetworkModel::new(Catalog::new());
        n.add_function(functions::wiper().unwrap()).unwrap();
        n.add_function(functions::drivetrain().unwrap()).unwrap();
        n.add_function(functions::body().unwrap()).unwrap();
        n.add_gateway(GatewayRoute {
            from_bus: "FC".into(),
            to_bus: "DC".into(),
            message_ids: vec![3],
            delay_us: 100,
        });
        n.auto_senders();
        n
    }

    fn run_pipeline(duration_s: f64, faults: &FaultPlan) -> PipelineOutput {
        let network = vehicle();
        let trace = network.simulate(duration_s, 11, faults).unwrap();
        let u_rel = RuleSet::from_network(&network);
        let profile = DomainProfile::new("test").with_partitions(3);
        Pipeline::new(u_rel, profile)
            .unwrap()
            .session(RunOptions::trace(&trace))
            .run()
            .unwrap()
    }

    #[test]
    fn full_pipeline_produces_all_outputs() {
        let out = run_pipeline(5.0, &FaultPlan::new());
        assert!(!out.signals.is_empty());
        assert!(!out.merged.is_empty());
        assert!(!out.state.is_empty());
        // State columns: t + one per signal that produced rows.
        assert_eq!(out.state.schema().len(), 1 + out.signals.len());
    }

    #[test]
    fn reduction_shrinks_repetitive_signals() {
        let out = run_pipeline(5.0, &FaultPlan::new());
        // The body 'belt' signal changes rarely but is sent at 4 Hz.
        let belt = out.signal("belt").expect("belt present");
        assert!(belt.rows_reduced < belt.rows_interpreted);
        assert!(belt.rows_reduced >= 1);
    }

    #[test]
    fn dedup_covers_gateway_channel() {
        let out = run_pipeline(5.0, &FaultPlan::new());
        let wpos = out.signal("wpos").expect("wpos present");
        assert_eq!(wpos.representative_channel, "FC");
        assert_eq!(wpos.corresponding_channels, vec!["DC".to_string()]);
        assert!(wpos.mismatched_channels.is_empty());
    }

    #[test]
    fn classification_spreads_across_branches() {
        let out = run_pipeline(5.0, &FaultPlan::new());
        use crate::classify::Branch;
        let speed = out.signal("speed").unwrap();
        assert_eq!(speed.classification.branch, Branch::Alpha);
        let belt = out.signal("belt").unwrap();
        assert_eq!(belt.classification.branch, Branch::Gamma);
    }

    #[test]
    fn planted_outlier_is_flagged() {
        let faults = FaultPlan::new().with(Fault::OutlierSpike {
            signal: "speed".into(),
            at_s: 2.0,
            duration_s: 0.05,
            value: 650.0, // fits 16-bit*0.01 raw range but wildly implausible
        });
        let out = run_pipeline(6.0, &faults);
        assert!(out.outlier_count().unwrap() >= 1);
        let speed = out.signal("speed").unwrap();
        let outliers = speed
            .frame
            .column_values(crate::branch::res_columns::OUTLIER)
            .unwrap();
        assert!(outliers.iter().any(|v| v.as_bool() == Some(true)));
    }

    #[test]
    fn cycle_violation_detected_via_extension() {
        let faults = FaultPlan::new().with(Fault::CycleViolation {
            bus: "FC".into(),
            message_id: 3,
            from_s: 2.0,
            to_s: 3.0,
        });
        let network = vehicle();
        let trace = network.simulate(6.0, 11, &faults).unwrap();
        let u_rel = RuleSet::from_network(&network);
        let profile = DomainProfile::new("cycle-check")
            .with_signals(["wpos"])
            .with_constraints(vec![Constraint::global(vec![
                ConditionFn::ValueChanged,
                ConditionFn::GapExceeds { max_gap_s: 0.5 },
            ])])
            .with_extension(ExtensionRule::CycleViolation {
                signal: "wpos".into(),
                expected_cycle_s: 0.1,
                factor: 3.0,
                alias: "wposCycleViolation".into(),
            });
        let out = Pipeline::new(u_rel, profile)
            .unwrap()
            .session(RunOptions::trace(&trace))
            .run()
            .unwrap();
        assert!(
            out.extensions.num_rows() >= 1,
            "cycle violation extension should fire"
        );
        // The extension appears as a column in the state representation.
        assert!(out.state.schema().contains("wposCycleViolation"));
    }

    #[test]
    fn signal_selection_restricts_output() {
        let network = vehicle();
        let trace = network.simulate(3.0, 11, &FaultPlan::new()).unwrap();
        let u_rel = RuleSet::from_network(&network);
        let profile = DomainProfile::new("narrow").with_signals(["speed", "rpm"]);
        let out = Pipeline::new(u_rel, profile)
            .unwrap()
            .session(RunOptions::trace(&trace))
            .run()
            .unwrap();
        assert_eq!(out.signals.len(), 2);
    }

    #[test]
    fn unknown_signal_selection_fails() {
        let network = vehicle();
        let u_rel = RuleSet::from_network(&network);
        let profile = DomainProfile::new("bad").with_signals(["does_not_exist"]);
        assert!(matches!(
            Pipeline::new(u_rel, profile),
            Err(Error::UnknownSignal(_))
        ));
    }

    #[test]
    fn pipeline_is_deterministic_across_partitioning() {
        let network = vehicle();
        let trace = network.simulate(4.0, 11, &FaultPlan::new()).unwrap();
        let u_rel = RuleSet::from_network(&network);
        let run_with = |parts: usize| {
            let profile = DomainProfile::new("det").with_partitions(parts);
            Pipeline::new(u_rel.clone(), profile)
                .unwrap()
                .session(RunOptions::trace(&trace))
                .run()
                .unwrap()
                .merged
                .collect_rows()
                .unwrap()
        };
        assert_eq!(run_with(1), run_with(7));
    }

    #[test]
    fn extract_without_preselection_same_result_more_work() {
        let network = vehicle();
        let trace = network.simulate(2.0, 11, &FaultPlan::new()).unwrap();
        let u_rel = RuleSet::from_network(&network);
        let profile = DomainProfile::new("ablate").with_signals(["wpos"]);
        let p = Pipeline::new(u_rel, profile).unwrap();
        let with = p
            .session(RunOptions::trace(&trace))
            .extract()
            .unwrap()
            .frame;
        let without = p
            .session(RunOptions::trace(&trace).without_preselection())
            .extract()
            .unwrap()
            .frame;
        assert_eq!(
            with.sort_by(&["t"], &[true])
                .unwrap()
                .collect_rows()
                .unwrap(),
            without
                .sort_by(&["t"], &[true])
                .unwrap()
                .collect_rows()
                .unwrap()
        );
    }

    #[test]
    fn store_extraction_matches_in_memory_extraction() {
        use ivnt_store::{StoreReader, StoreWriter, WriterOptions};
        let network = vehicle();
        let trace = network.simulate(10.0, 11, &FaultPlan::new()).unwrap();
        let u_rel = RuleSet::from_network(&network);
        let profile = DomainProfile::new("store").with_signals(["wpos"]);
        let p = Pipeline::new(u_rel, profile).unwrap();

        let mut writer = StoreWriter::new(
            Vec::new(),
            WriterOptions {
                chunk_rows: 64,
                chunks_per_group: 4,
                cluster: true,
            },
        )
        .unwrap();
        for r in trace.records() {
            writer.append(r).unwrap();
        }
        let bytes = writer.finish().unwrap();
        let mut reader = StoreReader::from_reader(std::io::Cursor::new(bytes)).unwrap();

        let ex = p.session(RunOptions::store(&mut reader)).extract().unwrap();
        let (from_store, stats) = (ex.frame, ex.scan.unwrap());
        let in_memory = p
            .session(RunOptions::trace(&trace))
            .extract()
            .unwrap()
            .frame;
        assert_eq!(
            from_store.collect_rows().unwrap(),
            in_memory.collect_rows().unwrap()
        );
        assert!(stats.chunks_skipped > 0, "{stats:?}");
        assert!(stats.peak_rows_buffered <= 64 * 4);
    }

    #[test]
    fn shard_extraction_concatenates_to_full_store_extraction() {
        use ivnt_store::{StoreReader, StoreWriter, WriterOptions};
        let network = vehicle();
        let trace = network.simulate(10.0, 11, &FaultPlan::new()).unwrap();
        let u_rel = RuleSet::from_network(&network);
        let profile = DomainProfile::new("shard").with_signals(["wpos", "speed"]);
        let p = Pipeline::new(u_rel, profile).unwrap();

        let mut writer = StoreWriter::new(
            Vec::new(),
            WriterOptions {
                chunk_rows: 64,
                chunks_per_group: 4,
                cluster: true,
            },
        )
        .unwrap();
        for r in trace.records() {
            writer.append(r).unwrap();
        }
        let bytes = writer.finish().unwrap();
        let mut reader = StoreReader::from_reader(std::io::Cursor::new(bytes)).unwrap();
        let groups = reader.footer().groups;
        assert!(groups >= 3, "need several groups, got {groups}");

        let full = p
            .session(RunOptions::store(&mut reader))
            .extract()
            .unwrap()
            .frame;
        // Any partition of the group axis concatenates to the full result.
        for split in [1u32, 2, groups] {
            let mut parts = Vec::new();
            let mut start = 0u32;
            while start < groups {
                let end = (start + groups.div_ceil(split)).min(groups);
                parts.extend(
                    p.session(RunOptions::store_shard(&mut reader, start..end))
                        .extract()
                        .unwrap()
                        .frame
                        .into_partitions(),
                );
                start = end;
            }
            let merged =
                DataFrame::from_partitions(crate::interpret::signal_schema(), parts).unwrap();
            assert_eq!(
                merged.collect_rows().unwrap(),
                full.collect_rows().unwrap(),
                "{split}-way shard split diverged"
            );
        }
        // An empty shard range yields no batches.
        assert!(p
            .session(RunOptions::store_shard(&mut reader, groups..groups))
            .extract()
            .unwrap()
            .frame
            .into_partitions()
            .is_empty());
    }

    #[test]
    fn dedup_can_be_disabled() {
        let network = vehicle();
        let trace = network.simulate(2.0, 11, &FaultPlan::new()).unwrap();
        let u_rel = RuleSet::from_network(&network);
        let profile = DomainProfile::new("nodedup")
            .with_signals(["wpos"])
            .with_dedup(false);
        let p = Pipeline::new(u_rel, profile).unwrap();
        let reduced = p
            .session(RunOptions::trace(&trace))
            .extract_reduced()
            .unwrap();
        // Without dedup the pre-reduction sequence keeps both channels'
        // copies (reduction then drops the value-identical twins anyway).
        let (_, dedup, _) = &reduced[0];
        assert!(dedup.corresponding.is_empty());
        assert_eq!(dedup.representative.channels().unwrap().len(), 2);
    }
}
