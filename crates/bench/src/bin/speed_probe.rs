//! Machine-readable interpretation throughput probe.
//!
//! Measures rows/second on the Table 6 vehicle workload for each stage of
//! the interpretation path — preselection, the fused kernel, the reference
//! relational path, and the full 9-signal `extract_reduced` — and writes
//! `BENCH_interpret.json` (plus a human-readable summary on stdout). CI and
//! PR descriptions quote this file; `IVNT_BENCH_SCALE` scales the workload.

use ivnt_bench::{
    covered_fraction, env_f64, median_secs, scale, select_signals_for_fraction, u_rel_with_hints,
};
use ivnt_core::interpret::{extract_signals, interpret, interpret_fused_scalar, preselect};
use ivnt_core::prelude::*;
use ivnt_core::tabular::trace_to_frame;

struct Measurement {
    name: &'static str,
    secs: f64,
    rows_in: usize,
    rows_out: usize,
}

impl Measurement {
    fn rows_per_sec(&self) -> f64 {
        self.rows_in as f64 / self.secs
    }

    /// Signal instances emitted per second — the kernel's output-side
    /// throughput, complementing the input-side `rows_per_sec`.
    fn instances_per_sec(&self) -> f64 {
        self.rows_out as f64 / self.secs
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "    {{\n",
                "      \"name\": \"{}\",\n",
                "      \"seconds\": {:.6},\n",
                "      \"rows_in\": {},\n",
                "      \"rows_out\": {},\n",
                "      \"rows_per_sec\": {:.1},\n",
                "      \"instances_per_sec\": {:.1}\n",
                "    }}"
            ),
            self.name,
            self.secs,
            self.rows_in,
            self.rows_out,
            self.rows_per_sec(),
            self.instances_per_sec()
        )
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let target = (120_000.0 * scale()) as usize;
    let runs = 5;
    let data = ivnt_bench::vehicle_journey(target, 0)?;
    let trace_rows = data.trace.len();
    let u_rel = u_rel_with_hints(&data);
    let signals = select_signals_for_fraction(&data, 9, 0.027);
    let fraction = covered_fraction(&data, &signals);
    let selected: Vec<&str> = signals.iter().map(String::as_str).collect();
    let u_comb = u_rel.select(&selected)?;
    let partitions = ivnt_frame::exec::default_workers();
    let raw = trace_to_frame(&data.trace, partitions)?;

    eprintln!(
        "workload: {trace_rows} rows, 9/{} signals ({:.1}% of traffic), \
         {partitions} partitions",
        u_rel.len(),
        fraction * 100.0
    );

    let mut measurements = Vec::new();

    let pre = preselect(&raw, &u_comb)?;
    let secs = median_secs(runs, || {
        preselect(&raw, &u_comb).expect("preselect");
    });
    measurements.push(Measurement {
        name: "preselect",
        secs,
        rows_in: trace_rows,
        rows_out: pre.num_rows(),
    });

    let fused = extract_signals(&raw, &u_comb)?;
    let secs = median_secs(runs, || {
        extract_signals(&raw, &u_comb).expect("extract_signals");
    });
    measurements.push(Measurement {
        name: "interpret_fused",
        secs,
        rows_in: trace_rows,
        rows_out: fused.num_rows(),
    });

    // The retained row-at-a-time kernel: the baseline the vectorized
    // batch-columnar kernel is gated against.
    let scalar = interpret_fused_scalar(&raw, &u_comb)?;
    assert_eq!(
        fused.collect_rows()?,
        scalar.collect_rows()?,
        "vectorized and scalar fused kernels diverged"
    );
    let secs = median_secs(runs, || {
        interpret_fused_scalar(&raw, &u_comb).expect("interpret_fused_scalar");
    });
    measurements.push(Measurement {
        name: "interpret_fused_scalar",
        secs,
        rows_in: trace_rows,
        rows_out: scalar.num_rows(),
    });

    let reference = interpret(&pre, &u_comb)?;
    assert_eq!(
        fused.collect_rows()?,
        reference.collect_rows()?,
        "fused and reference paths diverged"
    );
    let secs = median_secs(runs, || {
        let pre = preselect(&raw, &u_comb).expect("preselect");
        interpret(&pre, &u_comb).expect("interpret");
    });
    measurements.push(Measurement {
        name: "interpret_reference",
        secs,
        rows_in: trace_rows,
        rows_out: reference.num_rows(),
    });

    let profile = DomainProfile::new("table6").with_signals(selected.clone());
    let pipeline = Pipeline::new(u_rel.clone(), profile)?;
    let kept: usize = pipeline
        .session(RunOptions::trace(&data.trace))
        .extract_reduced()?
        .iter()
        .map(|(s, _, _)| s.len())
        .sum();
    let secs = median_secs(runs, || {
        pipeline
            .session(RunOptions::trace(&data.trace))
            .extract_reduced()
            .expect("extract_reduced");
    });
    measurements.push(Measurement {
        name: "table6_9_signals",
        secs,
        rows_in: trace_rows,
        rows_out: kept,
    });

    let by_name = |name: &str| {
        measurements
            .iter()
            .find(|m| m.name == name)
            .expect("measurement present")
    };
    let speedup = by_name("interpret_reference").secs / by_name("interpret_fused").secs;
    let kernel_speedup = by_name("interpret_fused_scalar").secs / by_name("interpret_fused").secs;

    // Kernel gate: the vectorized kernel must beat the retained scalar
    // fused path. Both sides run on the same executor so the ratio is
    // mostly core-independent, but on an oversubscribed machine
    // (cores < partitions) scheduling noise dominates — there the gate
    // relaxes to parity instead of the full multiplier.
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let interpret_gate = env_f64("IVNT_INTERPRET_MIN_SPEEDUP", 1.5);
    let effective_interpret_gate = if cores >= partitions {
        interpret_gate
    } else {
        interpret_gate.min(1.0)
    };

    let entries: Vec<String> = measurements.iter().map(Measurement::to_json).collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"workload\": {{\n",
            "    \"trace_rows\": {},\n",
            "    \"signals_selected\": 9,\n",
            "    \"signals_total\": {},\n",
            "    \"traffic_fraction\": {:.4},\n",
            "    \"partitions\": {},\n",
            "    \"runs\": {}\n",
            "  }},\n",
            "  \"measurements\": [\n{}\n  ],\n",
            "  \"vectorized_vs_scalar_speedup\": {:.2},\n",
            "  \"interpret_min_speedup_gate\": {:.2},\n",
            "  \"interpret_effective_gate\": {:.2},\n",
            "  \"fused_vs_reference_speedup\": {:.2}\n",
            "}}\n"
        ),
        trace_rows,
        u_rel.len(),
        fraction,
        partitions,
        runs,
        entries.join(",\n"),
        kernel_speedup,
        interpret_gate,
        effective_interpret_gate,
        speedup
    );
    std::fs::write("BENCH_interpret.json", &json)?;

    for m in &measurements {
        println!(
            "{:<22} {:>9.1} ms  {:>12.0} rows/s  ({} -> {} rows)",
            m.name,
            m.secs * 1e3,
            m.rows_per_sec(),
            m.rows_in,
            m.rows_out
        );
    }
    println!("fused vs reference speedup: {speedup:.2}x");
    println!(
        "vectorized vs scalar fused: {kernel_speedup:.2}x (gate {:.2}x{})",
        effective_interpret_gate,
        if cores >= partitions {
            String::new()
        } else {
            format!(", relaxed: {partitions} partitions on {cores} core(s)")
        }
    );
    println!("wrote BENCH_interpret.json");

    if kernel_speedup < effective_interpret_gate {
        eprintln!(
            "FAIL: vectorized kernel speedup {kernel_speedup:.2}x below gate \
             {effective_interpret_gate:.2}x"
        );
        std::process::exit(1);
    }
    Ok(())
}
