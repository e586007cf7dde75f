//! Fleet-scale reduction: preprocess several journeys of the SYN data set,
//! report the lossless reduction the paper exploits (cyclic repeats,
//! gateway duplicates), and compare against the sequential in-house tool.
//!
//! ```sh
//! cargo run --release --example fleet_reduction
//! ```

use std::time::Instant;

use ivnt::baseline::SequentialAnalyzer;
use ivnt::core::prelude::*;
use ivnt::simulator::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Three journeys of the paper's SYN data-set shape, ~20k records each.
    let spec = DataSetSpec::syn().with_target_examples(20_000);
    let journeys = journeys(&spec, 3)?;
    println!(
        "generated {} journeys x ~{} records ({} signal types)",
        journeys.len(),
        journeys[0].trace.len(),
        spec.total_signals()
    );

    // A domain never analyzes everything: this one inspects the three
    // slow state signals (Table 6's few-signal regime, where preselection
    // pays off most).
    let network = &journeys[0].network;
    let u_rel = RuleSet::from_network(network);
    let signals = journeys[0].signal_names();
    let selected: Vec<&str> = signals.iter().rev().take(3).map(String::as_str).collect();
    let profile = DomainProfile::new("fleet").with_signals(selected.clone());
    let pipeline = Pipeline::new(u_rel, profile)?;

    let mut total_raw = 0usize;
    let mut total_interpreted = 0usize;
    let mut total_reduced = 0usize;
    let started = Instant::now();
    for (i, journey) in journeys.iter().enumerate() {
        let reduced = pipeline
            .session(RunOptions::trace(&journey.trace))
            .extract_reduced()?;
        let interpreted: usize = reduced.iter().map(|(_, _, n)| n).sum();
        let kept: usize = reduced.iter().map(|(s, _, _)| s.len()).sum();
        let dedup_covered: usize = reduced.iter().map(|(_, d, _)| d.corresponding.len()).sum();
        println!(
            "journey {i}: {} raw records -> {} interpreted (representative) -> {} kept \
             ({:.1}% reduction; {} gateway channels covered by dedup)",
            journey.trace.len(),
            interpreted,
            kept,
            100.0 * (1.0 - kept as f64 / interpreted.max(1) as f64),
            dedup_covered,
        );
        total_raw += journey.trace.len();
        total_interpreted += interpreted;
        total_reduced += kept;
    }
    let proposed_time = started.elapsed();
    println!(
        "\nproposed pipeline: {} -> {} -> {} rows in {:.2?}",
        total_raw, total_interpreted, total_reduced, proposed_time
    );

    // The in-house comparator must ingest-and-interpret everything. Its
    // decode plans are compiled before the clock starts, as the
    // pipeline's are.
    let tool = SequentialAnalyzer::new(network);
    let started = Instant::now();
    let mut baseline_rows = 0usize;
    for journey in &journeys {
        baseline_rows += tool.extract_signals(&journey.trace, &selected);
    }
    let baseline_time = started.elapsed();
    println!(
        "in-house tool:     {} extracted rows in {:.2?} -> proposed is {:.2}x faster",
        baseline_rows,
        baseline_time,
        baseline_time.as_secs_f64() / proposed_time.as_secs_f64().max(1e-9),
    );
    println!("(the in-house tool must always interpret every signal of every message)");
    Ok(())
}
