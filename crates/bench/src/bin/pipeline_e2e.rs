//! Machine-readable end-to-end probe of the parallel branch pipeline.
//!
//! Runs the full Algorithm 1 on the Table 6 vehicle workload through the
//! sequential reference path (`RunOptions::serial`) and the scatter/gather
//! path (`Session::run`), records one instrumented run's span tree and
//! metrics snapshot, times the O(n log n) heap SWAB kernel against its
//! retained O(n²) reference, and writes `BENCH_pipeline.json` following
//! the `speed_probe`/`cluster_scale` conventions. `IVNT_BENCH_SCALE`
//! scales the workload.
//!
//! Two invariants are enforced:
//!
//! * every parallel run must be bit-identical to the serial reference
//!   (re-encoded partitions of extensions, merged, state and each signal
//!   frame);
//! * the heap `bottom_up` must produce exactly the naive segments and beat
//!   it by `IVNT_SWAB_MIN_SPEEDUP` (default 1.0) — the algorithmic win
//!   does not need spare cores.
//!
//! The run itself takes a few milliseconds, too short for a serial vs
//! parallel or a subscriber on vs off timing to mean anything, so the
//! probe times neither.

use ivnt_bench::{
    covered_fraction, env_f64, median_secs, scale, select_signals_for_fraction, u_rel_with_hints,
};
use ivnt_cluster::codec::encode_batch;
use ivnt_core::pipeline::PipelineOutput;
use ivnt_core::prelude::*;
use ivnt_series::swab::{bottom_up, bottom_up_naive};

/// Re-encodes every output frame partition plus the per-signal metadata.
fn fingerprint(output: &PipelineOutput) -> Vec<Vec<u8>> {
    let mut fp = Vec::new();
    for frame in [&output.extensions, &output.merged, &output.state] {
        fp.extend(frame.partitions().iter().map(encode_batch));
    }
    for s in &output.signals {
        fp.push(
            format!(
                "{} {:?} {} {:?} {:?} {} {}",
                s.signal,
                s.classification,
                s.representative_channel,
                s.corresponding_channels,
                s.mismatched_channels,
                s.rows_interpreted,
                s.rows_reduced
            )
            .into_bytes(),
        );
        fp.extend(s.frame.partitions().iter().map(encode_batch));
    }
    fp
}

/// Deterministic noisy multi-regime series for the SWAB kernel bench —
/// xorshift noise over piecewise ramps, so merges happen at every scale.
fn swab_series(n: usize) -> Vec<f64> {
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    (0..n)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let noise = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            let ramp = (i % 257) as f64 * 0.05;
            let level = ((i / 257) % 7) as f64 * 3.0;
            level + ramp + noise
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let target = (120_000.0 * scale()) as usize;
    let runs = 5;
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let workers = ivnt_frame::exec::default_workers();

    let data = ivnt_bench::vehicle_journey(target, 0)?;
    let trace_rows = data.trace.len();
    let u_rel = u_rel_with_hints(&data);
    let signals = select_signals_for_fraction(&data, 9, 0.027);
    let fraction = covered_fraction(&data, &signals);
    let selected: Vec<&str> = signals.iter().map(String::as_str).collect();
    let profile = DomainProfile::new("table6").with_signals(selected);
    let pipeline = Pipeline::new(u_rel.clone(), profile)?;

    eprintln!(
        "workload: {trace_rows} rows, 9/{} signals ({:.1}% of traffic), \
         {workers} workers on {cores} core(s), {runs} parallel runs checked",
        u_rel.len(),
        fraction * 100.0
    );

    // Serial reference: the bit-identity oracle every parallel run is
    // held to.
    let expected = pipeline
        .session(RunOptions::trace(&data.trace).serial())
        .run()?;
    let expected_fp = fingerprint(&expected);
    for _ in 0..runs {
        let parallel = pipeline.session(RunOptions::trace(&data.trace)).run()?;
        assert_eq!(
            fingerprint(&parallel),
            expected_fp,
            "parallel pipeline diverged from the serial reference"
        );
    }

    // One instrumented run: its snapshot is embedded in the JSON, and its
    // span tree is the `stage_seconds` breakdown.
    let obs_snapshot = {
        let registry = std::sync::Arc::new(ivnt_obs::Registry::new());
        let _guard = ivnt_obs::install(std::sync::Arc::clone(&registry));
        let run = pipeline.session(RunOptions::trace(&data.trace)).run()?;
        assert_eq!(
            fingerprint(&run),
            expected_fp,
            "instrumented run diverged from the serial reference"
        );
        registry.snapshot()
    };
    // The run's span tree in pipeline order: `run` is the root, the
    // per-signal stages are summed task time under `fan_out`.
    let stage_seconds: Vec<String> = [
        "tabular",
        "interpret",
        "split",
        "fan_out",
        "dedup",
        "reduce",
        "extend",
        "classify",
        "branch",
        "extend_gather",
        "merge",
        "state",
        "run",
    ]
    .iter()
    .map(|name| {
        let span = obs_snapshot.spans.values().find(|s| s.name == *name);
        format!("    \"{name}\": {:.6}", span.map_or(0.0, |s| s.seconds))
    })
    .collect();

    // SWAB kernel: heap vs naive on a large window — the O(n log n) vs
    // O(n²) comparison the per-signal workload is too small to show.
    let swab_n = ((8192.0 * scale()) as usize).max(256);
    let series = swab_series(swab_n);
    let budget = 2.0;
    let heap_segments = bottom_up(&series, budget);
    assert_eq!(
        heap_segments,
        bottom_up_naive(&series, budget),
        "heap bottom_up diverged from the naive reference"
    );
    let heap_secs = median_secs(3, || {
        bottom_up(&series, budget);
    });
    let naive_secs = median_secs(3, || {
        bottom_up_naive(&series, budget);
    });
    let swab_speedup = naive_secs / heap_secs;
    let swab_gate = env_f64("IVNT_SWAB_MIN_SPEEDUP", 1.0);

    let json = format!(
        concat!(
            "{{\n",
            "  \"workload\": {{\n",
            "    \"trace_rows\": {},\n",
            "    \"signals_selected\": 9,\n",
            "    \"signals_total\": {},\n",
            "    \"traffic_fraction\": {:.4},\n",
            "    \"workers\": {},\n",
            "    \"cores\": {},\n",
            "    \"runs\": {}\n",
            "  }},\n",
            "  \"stage_seconds\": {{\n{}\n  }},\n",
            "  \"swab_kernel\": {{\n",
            "    \"n\": {},\n",
            "    \"heap_seconds\": {:.6},\n",
            "    \"naive_seconds\": {:.6},\n",
            "    \"speedup\": {:.3},\n",
            "    \"min_speedup_gate\": {:.2}\n",
            "  }},\n",
            "  \"observability\": {{\n",
            "    \"metrics\": {}\n",
            "  }}\n",
            "}}\n"
        ),
        trace_rows,
        u_rel.len(),
        fraction,
        workers,
        cores,
        runs,
        stage_seconds.join(",\n"),
        swab_n,
        heap_secs,
        naive_secs,
        swab_speedup,
        swab_gate,
        obs_snapshot.to_json(),
    );
    std::fs::write("BENCH_pipeline.json", &json)?;

    println!(
        "parallel ({workers} workers): {runs} runs + 1 instrumented, all bit-identical to serial"
    );
    println!(
        "swab heap vs naive (n={swab_n}): {swab_speedup:.2}x \
         (heap {:.2} ms, naive {:.2} ms, gate {swab_gate:.2}x)",
        heap_secs * 1e3,
        naive_secs * 1e3
    );
    println!("wrote BENCH_pipeline.json");

    if swab_speedup < swab_gate {
        eprintln!("FAIL: swab heap speedup {swab_speedup:.2}x below gate {swab_gate:.2}x");
        std::process::exit(1);
    }
    Ok(())
}
