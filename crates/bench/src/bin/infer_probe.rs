//! Machine-readable probe of DBC-less boundary inference (`ivnt-infer`).
//!
//! Records each paper scenario (SYN / LIG / STA), writes it through the
//! columnar store, runs the two-pass out-of-core inference over the store
//! and scores the recovered `(start bit, length, byte order)` fields
//! against the simulator's ground-truth packing table — the evaluation
//! READ, ByCAN and CAN-D run against real DBCs, with the simulator
//! standing in for the DBC. Results go to `BENCH_infer.json` (with a
//! human-readable summary on stderr), following the `store_probe` /
//! `BENCH_store.json` conventions.
//!
//! Two things are enforced, not just reported:
//!
//! * recovery quality: the probe exits non-zero when the minimum per-
//!   scenario F1 falls below `IVNT_INFER_MIN_F1` (default 0.85) — the
//!   tables are only useful downstream if boundaries are actually found;
//! * interchangeability: for every scenario, a pipeline run over the
//!   *merged* catalog (authored ∪ inferred) must be bit-identical to the
//!   authored-table run — inference may only ever add rules for payload
//!   regions no authored rule claims.
//!
//! `IVNT_BENCH_SCALE` scales the workload as in the other probes.

use std::io::Cursor;

use ivnt_bench::{env_f64, median_secs, scale};
use ivnt_core::pipeline::{DomainProfile, Pipeline, RunOptions};
use ivnt_core::rules::{InferParams, RuleCatalog};
use ivnt_infer::infer_store;
use ivnt_simulator::scenario::{self, DataSetSpec};
use ivnt_store::{StoreReader, StoreWriter, WriterOptions};

struct ScenarioResult {
    name: &'static str,
    trace_rows: usize,
    store_bytes: usize,
    profiled_keys: usize,
    truth_total: usize,
    truth_observable: usize,
    recovered: usize,
    matched: usize,
    precision: f64,
    recall: f64,
    f1: f64,
    infer_secs: f64,
    rows_per_sec: f64,
}

impl ScenarioResult {
    fn to_json(&self) -> String {
        format!(
            concat!(
                "    {{\n",
                "      \"scenario\": \"{}\",\n",
                "      \"trace_rows\": {},\n",
                "      \"store_bytes\": {},\n",
                "      \"profiled_keys\": {},\n",
                "      \"truth_total\": {},\n",
                "      \"truth_observable\": {},\n",
                "      \"recovered\": {},\n",
                "      \"matched\": {},\n",
                "      \"precision\": {:.4},\n",
                "      \"recall\": {:.4},\n",
                "      \"f1\": {:.4},\n",
                "      \"infer_secs\": {:.6},\n",
                "      \"rows_per_sec\": {:.0}\n",
                "    }}"
            ),
            self.name,
            self.trace_rows,
            self.store_bytes,
            self.profiled_keys,
            self.truth_total,
            self.truth_observable,
            self.recovered,
            self.matched,
            self.precision,
            self.recall,
            self.f1,
            self.infer_secs,
            self.rows_per_sec,
        )
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let target = (40_000.0 * scale()) as usize;
    let runs = 3;
    let params = InferParams::default();

    let specs: [(&'static str, DataSetSpec); 3] = [
        ("syn", DataSetSpec::syn()),
        ("lig", DataSetSpec::lig()),
        ("sta", DataSetSpec::sta()),
    ];

    let mut results: Vec<ScenarioResult> = Vec::new();
    for (name, spec) in specs {
        let data = scenario::generate(&spec.with_seed(7).with_target_examples(target))?;
        let truth = data.ground_truth();

        let options = WriterOptions {
            chunk_rows: 1024,
            chunks_per_group: 16,
            cluster: true,
        };
        let mut writer = StoreWriter::new(Vec::new(), options)?;
        for r in data.trace.records() {
            writer.append(r)?;
        }
        let bytes = writer.finish()?;

        let mut reader = StoreReader::from_reader(Cursor::new(bytes.clone()))?;
        let tables = infer_store(&mut reader, &params)?;
        let eval = tables.evaluate(&truth);
        let infer_secs = median_secs(runs, || {
            let mut reader =
                StoreReader::from_reader(Cursor::new(bytes.clone())).expect("open store");
            infer_store(&mut reader, &params).expect("infer");
        });

        // Interchangeability: the merged catalog must reproduce the
        // authored-table run bit for bit (merge only fills *unclaimed*
        // payload regions, so authored signals are untouched).
        let authored = RuleCatalog::from_dataset(&data);
        let merged = tables.merged_with(&authored)?;
        let authored_out = Pipeline::from_catalog(&authored, DomainProfile::new("probe"))?
            .session(RunOptions::trace(&data.trace))
            .run()?;
        let merged_profile = DomainProfile::new("probe")
            .with_signals(authored_out.signals.iter().map(|s| s.signal.clone()));
        let merged_out = Pipeline::from_catalog(&merged, merged_profile)?
            .session(RunOptions::trace(&data.trace))
            .run()?;
        assert_eq!(
            authored_out.state.collect_rows()?,
            merged_out.state.collect_rows()?,
            "{name}: merged-catalog run diverged from authored-table run"
        );

        let result = ScenarioResult {
            name,
            trace_rows: data.trace.len(),
            store_bytes: bytes.len(),
            profiled_keys: tables.profiled_keys(),
            truth_total: eval.truth_total,
            truth_observable: eval.truth_observable,
            recovered: eval.recovered,
            matched: eval.matched,
            precision: eval.precision,
            recall: eval.recall,
            f1: eval.f1(),
            infer_secs,
            rows_per_sec: data.trace.len() as f64 / infer_secs.max(1e-12),
        };
        eprintln!(
            "{name}: {} rows, {} keys, {}/{} observable truth matched, \
             {} recovered: P {:.3} R {:.3} F1 {:.3}, {:.1} ms ({:.0} rows/s)",
            result.trace_rows,
            result.profiled_keys,
            result.matched,
            result.truth_observable,
            result.recovered,
            result.precision,
            result.recall,
            result.f1,
            infer_secs * 1e3,
            result.rows_per_sec,
        );
        results.push(result);
    }

    let min_f1_gate = env_f64("IVNT_INFER_MIN_F1", 0.85);
    let worst = results.iter().map(|r| r.f1).fold(f64::INFINITY, f64::min);

    let entries: Vec<String> = results.iter().map(ScenarioResult::to_json).collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"workload\": {{\n",
            "    \"target_examples\": {},\n",
            "    \"min_samples\": {},\n",
            "    \"runs\": {}\n",
            "  }},\n",
            "  \"scenarios\": [\n{}\n  ],\n",
            "  \"gate\": {{\n",
            "    \"min_f1\": {:.4},\n",
            "    \"required_f1\": {:.2}\n",
            "  }}\n",
            "}}\n"
        ),
        target,
        params.min_samples,
        runs,
        entries.join(",\n"),
        worst,
        min_f1_gate,
    );
    std::fs::write("BENCH_infer.json", &json)?;
    eprintln!("wrote BENCH_infer.json");

    assert!(
        worst >= min_f1_gate,
        "inference gate FAILED: worst per-scenario F1 {worst:.3} below \
         IVNT_INFER_MIN_F1={min_f1_gate:.2}"
    );
    eprintln!("inference gate passed: worst per-scenario F1 {worst:.3} >= {min_f1_gate:.2}");
    Ok(())
}
