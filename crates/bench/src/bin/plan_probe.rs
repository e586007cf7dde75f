//! Machine-readable probe of the multi-query session (`Session::many`).
//!
//! Splits the Table 6 vehicle workload's catalog into N pairwise-disjoint
//! domains (N ∈ {1, 2, 4, 8}) — the paper's multi-tenant deployment shape,
//! every domain watching different signals of the same traffic — and
//! measures answering all N full runs from one shared store pass
//! ([`Session::run_each`], what `ivnt query` runs) against running them as N
//! sequential [`Pipeline::session`] runs, and the same for the front half
//! alone: one [`Session::extract_each`] against N solo
//! [`Session::extract`](ivnt_core::pipeline::Session::extract) calls
//! (`extract_speedup`, the ceiling sharing the scan can reach while every
//! back half still runs once per query). A solo store session runs the
//! same routed scan as the batch, so at N = 1 both ratios read ≈ 1.
//! Results go to `BENCH_plan.json` (with a human-readable summary on
//! stderr), following the `store_probe` / `BENCH_store.json` conventions.
//!
//! Two invariants are enforced, not just reported:
//!
//! * every shared-scan answer — extraction and full run — must be
//!   bit-identical to the solo session's (sharing is an optimization, not
//!   an approximation), and
//! * the shared pass must actually pay off: the probe exits non-zero when
//!   the 4-domain speedup of [`Session::run_each`] over sequential session runs
//!   falls below `IVNT_PLAN_MIN_SPEEDUP` (default 1.5) — the planner's
//!   whole point is amortizing the scan+decode, which needs no extra
//!   cores.
//!
//! `IVNT_BENCH_SCALE` scales the workload as in the other probes.

use std::io::{Cursor, Read, Seek};
use std::sync::Arc;

use ivnt_bench::{
    disjoint_domains, domain_pipeline, env_f64, median, paired_secs, scale, time_secs,
    vehicle_journey,
};
use ivnt_core::pipeline::{Pipeline, PipelineOutput, RunOptions, Session};
use ivnt_core::query::Query;
use ivnt_store::{StoreReader, StoreWriter, WriterOptions};

fn open(bytes: &[u8]) -> StoreReader<Cursor<Vec<u8>>> {
    StoreReader::from_reader(Cursor::new(bytes.to_vec())).expect("open store")
}

fn solo_extract<R: Read + Seek>(
    pipeline: &Pipeline,
    reader: &mut StoreReader<R>,
) -> ivnt_frame::frame::DataFrame {
    pipeline
        .session(RunOptions::store(reader))
        .extract()
        .expect("solo extract")
        .frame
}

/// One query per pipeline over `reader`, as `ivnt query` builds the batch.
fn batch<'p, 'a, R: Read + Seek>(
    pipelines: &'p [Pipeline],
    reader: &'a mut StoreReader<R>,
) -> Session<'p, 'a, R> {
    Session::many(pipelines.iter().map(Query::new).collect(), reader)
}

fn solo_run<R: Read + Seek>(pipeline: &Pipeline, reader: &mut StoreReader<R>) -> PipelineOutput {
    pipeline
        .session(RunOptions::store(reader))
        .run()
        .expect("solo run")
}

struct FleetResult {
    domains: usize,
    signals_per_domain: usize,
    sequential_secs: f64,
    shared_secs: f64,
    /// Median of per-round sequential/shared ratios (drift-robust; not
    /// the ratio of the two medians above).
    speedup: f64,
    /// The same paired rounds for the front half: N solo extracts against
    /// one shared extract.
    extract_sequential_secs: f64,
    extract_shared_secs: f64,
    extract_speedup: f64,
    /// Σ over the queries of the `merge` / `state` spans, median over
    /// untimed instrumented shared runs.
    merge_secs: f64,
    state_secs: f64,
    shared_interpret: bool,
    scans_saved: usize,
    groups_scanned: u32,
}

impl FleetResult {
    fn speedup(&self) -> f64 {
        self.speedup
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "    {{\n",
                "      \"domains\": {},\n",
                "      \"signals_per_domain\": {},\n",
                "      \"sequential_secs\": {:.6},\n",
                "      \"shared_secs\": {:.6},\n",
                "      \"speedup\": {:.3},\n",
                "      \"extract_sequential_secs\": {:.6},\n",
                "      \"extract_shared_secs\": {:.6},\n",
                "      \"extract_speedup\": {:.3},\n",
                "      \"merge_secs\": {:.6},\n",
                "      \"state_secs\": {:.6},\n",
                "      \"shared_interpret\": {},\n",
                "      \"scans_saved\": {},\n",
                "      \"groups_scanned\": {}\n",
                "    }}"
            ),
            self.domains,
            self.signals_per_domain,
            self.sequential_secs,
            self.shared_secs,
            self.speedup(),
            self.extract_sequential_secs,
            self.extract_shared_secs,
            self.extract_speedup,
            self.merge_secs,
            self.state_secs,
            self.shared_interpret,
            self.scans_saved,
            self.groups_scanned,
        )
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let target = (120_000.0 * scale()) as usize;
    let runs = 5;
    let data = vehicle_journey(target, 0)?;
    let trace_rows = data.trace.len();
    let total_signals = disjoint_domains(&data, 1)[0].len();

    let options = WriterOptions {
        chunk_rows: 1024,
        chunks_per_group: 16,
        cluster: true,
    };
    let mut writer = StoreWriter::new(Vec::new(), options)?;
    for r in data.trace.records() {
        writer.append(r)?;
    }
    let bytes = writer.seal()?;

    eprintln!(
        "workload: {trace_rows} rows, {} bytes, {total_signals} catalog signals, \
         {runs} runs/point",
        bytes.len(),
    );

    // Whole-catalog tenancy: N domains jointly watch every signal, each
    // its own disjoint 1/N slice — round-robin over the catalog, so every
    // domain touches (a signal of) almost every message. Each sequential
    // session then decodes nearly the full store; the shared pass decodes
    // it once. This is the paper's deployment shape, and the one sharing
    // is for — sparse domains that zone-map-prune most chunks have little
    // scan left to share.
    let mut fleets: Vec<FleetResult> = Vec::new();
    for n in [1usize, 2, 4, 8] {
        let domains: Vec<Vec<String>> = disjoint_domains(&data, n);
        let pipelines: Vec<Pipeline> = domains
            .iter()
            .map(|d| domain_pipeline(&data, d).expect("pipeline builds"))
            .collect();

        // Correctness first: the shared pass must reproduce each solo
        // session bit for bit before its timing means anything.
        let mut reader = open(&bytes);
        let multi = batch(&pipelines, &mut reader).extract_each()?;
        for (qi, (qx, p)) in multi.frames.iter().zip(&pipelines).enumerate() {
            let mut reader = open(&bytes);
            let want = solo_extract(p, &mut reader);
            assert_eq!(
                qx.frame.collect_rows()?,
                want.collect_rows()?,
                "domain {qi} of {n}: shared scan diverged from solo session"
            );
        }
        let mut reader = open(&bytes);
        let multi = batch(&pipelines, &mut reader).run_each()?;
        for (qi, (qr, p)) in multi.results.iter().zip(&pipelines).enumerate() {
            let mut reader = open(&bytes);
            let want = solo_run(p, &mut reader);
            for (got, want) in [
                (&qr.output.merged, &want.merged),
                (&qr.output.state, &want.state),
            ] {
                assert_eq!(
                    got.collect_rows()?,
                    want.collect_rows()?,
                    "domain {qi} of {n}: shared run diverged from solo session"
                );
            }
        }
        let plan = multi.plan;

        let sequential = || {
            for p in &pipelines {
                let mut reader = open(&bytes);
                solo_run(p, &mut reader);
            }
        };
        let shared = || {
            let mut reader = open(&bytes);
            batch(&pipelines, &mut reader).run_each().expect("shared");
        };
        sequential(); // warmups
        shared();
        let pair = paired_secs(runs, || time_secs(sequential), || time_secs(shared));
        let (sequential_secs, shared_secs, speedup) = (pair.a_secs, pair.b_secs, pair.a_over_b);
        // Each shared run's back half, summed over its queries by the span
        // aggregate, from untimed instrumented runs: the timed pairs above
        // keep obs disabled on both sides.
        let (merge, state): (Vec<f64>, Vec<f64>) = (0..runs)
            .map(|_| {
                let registry = Arc::new(ivnt_obs::Registry::new());
                let _guard = ivnt_obs::install(Arc::clone(&registry));
                shared();
                let spans = registry.snapshot().spans;
                (spans["run/merge"].seconds, spans["run/state"].seconds)
            })
            .unzip();
        let (merge_secs, state_secs) = (median(merge), median(state));

        // The front half alone.
        let sequential_extract = || {
            for p in &pipelines {
                let mut reader = open(&bytes);
                solo_extract(p, &mut reader);
            }
        };
        let shared_extract = || {
            let mut reader = open(&bytes);
            batch(&pipelines, &mut reader)
                .extract_each()
                .expect("shared extract");
        };
        sequential_extract(); // warmups
        shared_extract();
        let extract = paired_secs(
            runs,
            || time_secs(sequential_extract),
            || time_secs(shared_extract),
        );

        let fleet = FleetResult {
            domains: n,
            signals_per_domain: domains.iter().map(Vec::len).max().unwrap_or(0),
            sequential_secs,
            shared_secs,
            speedup,
            extract_sequential_secs: extract.a_secs,
            extract_shared_secs: extract.b_secs,
            extract_speedup: extract.a_over_b,
            merge_secs,
            state_secs,
            shared_interpret: plan.shared_interpret,
            scans_saved: plan.scans_saved,
            groups_scanned: plan.groups_scanned,
        };
        eprintln!(
            "{n} domains: sequential {:.1} ms, shared {:.1} ms ({:.2}x), \
             extract {:.1} -> {:.1} ms ({:.2}x), merge {:.2} ms, state {:.2} ms, strategy {}",
            sequential_secs * 1e3,
            shared_secs * 1e3,
            fleet.speedup(),
            extract.a_secs * 1e3,
            extract.b_secs * 1e3,
            extract.a_over_b,
            merge_secs * 1e3,
            state_secs * 1e3,
            if plan.shared_interpret {
                "shared-interpret"
            } else {
                "per-query"
            },
        );
        fleets.push(fleet);
    }

    let min_speedup = env_f64("IVNT_PLAN_MIN_SPEEDUP", 1.5);
    let gate_fleet = fleets
        .iter()
        .find(|f| f.domains == 4)
        .expect("4-domain point");
    let gate_speedup = gate_fleet.speedup();

    let entries: Vec<String> = fleets.iter().map(FleetResult::to_json).collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"workload\": {{\n",
            "    \"trace_rows\": {},\n",
            "    \"store_bytes\": {},\n",
            "    \"catalog_signals\": {},\n",
            "    \"chunk_rows\": {},\n",
            "    \"chunks_per_group\": {},\n",
            "    \"runs\": {}\n",
            "  }},\n",
            "  \"fleets\": [\n{}\n  ],\n",
            "  \"gate\": {{\n",
            "    \"domains\": 4,\n",
            "    \"speedup\": {:.3},\n",
            "    \"min_speedup\": {:.2}\n",
            "  }}\n",
            "}}\n"
        ),
        trace_rows,
        bytes.len(),
        total_signals,
        options.chunk_rows,
        options.chunks_per_group,
        runs,
        entries.join(",\n"),
        gate_speedup,
        min_speedup,
    );
    std::fs::write("BENCH_plan.json", &json)?;
    eprintln!("wrote BENCH_plan.json");

    assert!(
        gate_speedup >= min_speedup,
        "planner gate FAILED: 4 shared domains ran {gate_speedup:.2}x sequential \
         sessions, below IVNT_PLAN_MIN_SPEEDUP={min_speedup:.2}"
    );
    eprintln!("planner gate passed: 4-domain speedup {gate_speedup:.2}x >= {min_speedup:.2}");
    Ok(())
}
