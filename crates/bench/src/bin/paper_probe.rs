//! Regenerates the paper's evaluation (Sec. 5) in one run, checks its
//! shape claims and writes `BENCH_paper.json`:
//!
//! * **Table 5** — SYN / LIG / STA with branch counts measured by the
//!   classifier, at the sizes `tests/table5_shape.rs` asserts (60 k / 90 k
//!   / 60 k examples at every `IVNT_BENCH_SCALE`), each signal the
//!   classifier puts in another branch than the generator designed, and
//!   the raw `K_b` against the fully expanded `K_s` footprint (Sec. 3.2);
//! * **Fig. 5** — Algorithm 1 lines 3–11 over growing prefixes of each
//!   data set, every signal extracted;
//! * **Table 6** — {1, 7, 12} journeys × {9, 89} signals: the in-house
//!   comparator (`ivnt-baseline`: the same kernel over every signal of
//!   every record, one thread) against both stages of the proposed
//!   pipeline, `Session::extract` (lines 3–7, the comparator's work) and
//!   `extract_reduced` (lines 3–11). Both sides are compiled before any
//!   timing.
//!
//! The shapes are constants here, checked at every scale. Each is the
//! median of interleaved pairs ([`paired_secs`]), never an absolute time;
//! the process exits non-zero when one fails.
//!
//! ```sh
//! cargo run --release -p ivnt-bench --bin paper_probe
//! ```

use ivnt_baseline::SequentialAnalyzer;
use ivnt_bench::{
    branch_counts, covered_fraction, domain_pipeline, median_secs, paired_secs, scale,
    select_signals_for_fraction, time_secs, vehicle_journey, Paired,
};
use ivnt_core::pipeline::RunOptions;
use ivnt_simulator::prelude::*;

/// The comparator's 89-signal over 9-signal time: flat.
const FLAT: (f64, f64) = (0.8, 1.25);
/// Per-journey time at 12 journeys over that at 7: linear.
const LINEAR: (f64, f64) = (0.75, 1.25);
/// Fig. 5's full-prefix over half-prefix time: linear.
const DOUBLING: (f64, f64) = (1.5, 2.5);
/// A ratio that must exceed 1.
const ABOVE_ONE: (f64, f64) = (1.0, f64::INFINITY);
/// Timed runs per median, and interleaved pairs per comparison.
const RUNS: usize = 5;
const PAIRS: usize = 7;
const JOURNEYS: [usize; 3] = [1, 7, 12];
/// Table 6's stages: the comparator, then the proposed lines 3–7 and 3–11.
const STAGES: [&str; 3] = ["in_house", "extract", "reduced"];
/// Paper Table 5 branch counts (α, β, γ), and Table 6 speedups per
/// journey count at 9 and 89 signals.
const PAPER_T5: [[usize; 3]; 3] = [[6, 4, 3], [27, 71, 82], [6, 1, 71]];
const PAPER_T6: [[f64; 2]; 3] = [[4.3, 0.25], [6.0, 2.0], [5.7, 1.8]];
/// Bytes of a `K_s` row, a field-width estimate: `t`, `s_id` and `b_id`
/// references, a nullable `v_num` and a `v_text` reference.
const KS_ROW_BYTES: usize = 8 + 8 + 8 + 9 + 8;

type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// One table row as `(column, JSON value)` pairs: printed as a table line
/// and written as an object of `BENCH_paper.json`.
type Row = Vec<(&'static str, String)>;

fn num(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

fn text(s: &str) -> String {
    format!("\"{s}\"")
}

/// A shape claim: `value` within `[lo, hi]`.
fn gate(name: String, value: f64, (lo, hi): (f64, f64)) -> Row {
    vec![
        ("gate", text(&name)),
        ("value", num(value, 3)),
        ("bounds", text(&format!("[{lo}, {hi}]"))),
        ("pass", (lo..=hi).contains(&value).to_string()),
    ]
}

fn print_table(title: &str, rows: &[Row]) {
    println!("\n{title}");
    let Some(first) = rows.first() else { return };
    let header = first.iter().map(|(k, _)| k.to_string()).collect();
    let cells = |r: &Row| r.iter().map(|(_, v)| v.replace('"', "")).collect();
    let lines: Vec<Vec<String>> = [header].into_iter().chain(rows.iter().map(cells)).collect();
    let width = |i: usize| lines.iter().map(|l| l[i].len()).max().unwrap_or(0);
    for line in &lines {
        let padded: Vec<String> = (line.iter().enumerate())
            .map(|(i, c)| format!("{c:>w$}", w = width(i)))
            .collect();
        println!("{}", padded.join("  "));
    }
}

fn json_list(rows: &[Row]) -> String {
    let object = |r: &Row| {
        let fields: Vec<String> = r.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        format!("{{{}}}", fields.join(", "))
    };
    let objects: Vec<String> = rows.iter().map(object).collect();
    format!("[\n    {}\n  ]", objects.join(",\n    "))
}

/// Table 5 rows, and a row per signal whose measured branch is not the
/// one the generator designed it for.
fn table5() -> Res<(Vec<Row>, Vec<Row>)> {
    let (mut rows, mut mismatches) = (Vec::new(), Vec::new());
    let specs = [
        (DataSetSpec::syn(), 60_000),
        (DataSetSpec::lig(), 90_000),
        (DataSetSpec::sta(), 60_000),
    ];
    for ((spec, examples), paper) in specs.into_iter().zip(PAPER_T5) {
        let data = generate(&spec.with_target_examples(examples))?;
        let set = text(&data.spec.name);
        let branches = branch_counts(&data)?;
        for (signal, designed, measured) in &branches.mismatches {
            mismatches.push(vec![
                ("set", set.clone()),
                ("signal", text(signal)),
                ("designed", text(&format!("{designed:?}"))),
                ("measured", text(&format!("{measured:?}"))),
            ]);
        }
        let catalog = data.network.catalog();
        let density = catalog.num_signals() as f64 / catalog.num_messages() as f64;
        let pipeline = domain_pipeline(&data, &[])?;
        let ks_rows = pipeline
            .session(RunOptions::trace(&data.trace))
            .extract()?
            .frame
            .num_rows();
        // `K_b` bytes, a field-width estimate: `t` (8), protocol (1), bus
        // name length (1) and bytes, message id (4), payload length (2) and
        // bytes.
        let kb: usize = (data.trace.iter())
            .map(|r| 16 + r.bus.len() + r.payload.len())
            .sum();
        let expansion = (ks_rows * KS_ROW_BYTES) as f64 / kb as f64;
        rows.push(vec![
            ("set", set),
            ("signals", data.signal_classes.len().to_string()),
            ("branches", format!("{:?}", branches.counts)),
            ("paper", format!("{paper:?}")),
            ("examples", data.trace.len().to_string()),
            ("signals_per_message", num(density, 2)),
            ("kb_bytes", kb.to_string()),
            ("ks_rows", ks_rows.to_string()),
            ("ks_over_kb", num(expansion, 2)),
        ]);
    }
    Ok((rows, mismatches))
}

fn fig5(gates: &mut Vec<Row>) -> Res<Vec<Row>> {
    let mut rows = Vec::new();
    for spec in [DataSetSpec::syn(), DataSetSpec::lig(), DataSetSpec::sta()] {
        let data = generate(&spec.with_target_examples((120_000.0 * scale()) as usize))?;
        let pipeline = domain_pipeline(&data, &data.signal_names())?;
        let run = |trace: &Trace| {
            (pipeline.session(RunOptions::trace(trace)).extract_reduced()).expect("extract_reduced")
        };
        let prefixes =
            [1, 2, 4, 8].map(|eighths| data.trace.prefix(data.trace.len() * eighths / 8));
        for prefix in &prefixes {
            let kept: usize = run(prefix).iter().map(|(s, _, _)| s.len()).sum();
            let ms = median_secs(RUNS, || run(prefix)) * 1e3;
            rows.push(vec![
                ("set", text(&data.spec.name)),
                ("examples", prefix.len().to_string()),
                ("kept_rows", kept.to_string()),
                ("ms", num(ms, 2)),
                (
                    "ms_per_10k_rows",
                    num(ms * 1e4 / prefix.len().max(1) as f64, 3),
                ),
            ]);
        }
        let [.., half, full] = &prefixes;
        let doubling = paired_secs(
            PAIRS,
            || time_secs(|| run(full)),
            || time_secs(|| run(half)),
        );
        let name = format!("fig5.{}.doubling", data.spec.name);
        gates.push(gate(name, doubling.a_over_b, DOUBLING));
    }
    Ok(rows)
}

fn table6(gates: &mut Vec<Row>) -> Res<Vec<Row>> {
    let per_journey = (40_000.0 * scale()) as usize;
    let journeys: Vec<_> = (0..JOURNEYS[2])
        .map(|i| vehicle_journey(per_journey, i as u64))
        .collect::<Result<_, _>>()?;
    // Seeds change behaviour, never the catalog: one compiled comparator
    // and one pipeline per signal set serve every journey. The subsets
    // cover the paper's extracted-row fractions (2.7 % and 16.5 %).
    let tool = SequentialAnalyzer::new(&journeys[0].network);
    let mut domains = Vec::new();
    for (n, fraction) in [(9, 0.027), (89, 0.165)] {
        let signals = select_signals_for_fraction(&journeys[0], n, fraction);
        let covered = 100.0 * covered_fraction(&journeys[0], &signals);
        eprintln!("{n} signals cover {covered:.1}% of rows");
        domains.push((domain_pipeline(&journeys[0], &signals)?, signals));
    }
    let names: Vec<Vec<&str>> = (domains.iter())
        .map(|(_, signals)| signals.iter().map(String::as_str).collect())
        .collect();
    // Stage `s` of domain `d` over the first `j` journeys, returning its
    // row counts: extracted rows, or deduped and reduced rows.
    let side = |(s, d, j): (usize, usize, usize)| -> [usize; 2] {
        let pipeline = &domains[d].0;
        let per_journey = journeys[..j].iter().map(|k| match s {
            0 => [tool.extract_signals(&k.trace, &names[d]), 0],
            1 => {
                let ks = pipeline.session(RunOptions::trace(&k.trace)).extract();
                [ks.expect("extract").frame.num_rows(), 0]
            }
            _ => {
                let reduced = pipeline
                    .session(RunOptions::trace(&k.trace))
                    .extract_reduced();
                (reduced.expect("extract_reduced").iter())
                    .fold([0, 0], |[deduped, kept], (seq, _, n)| {
                        [deduped + n, kept + seq.len()]
                    })
            }
        });
        per_journey.fold([0, 0], |[a, b], [c, e]| [a + c, b + e])
    };
    let pair =
        |a, b| -> Paired { paired_secs(PAIRS, || time_secs(|| side(a)), || time_secs(|| side(b))) };
    let mut rows = Vec::new();
    for (j, paper) in JOURNEYS.into_iter().zip(PAPER_T6) {
        let trace_rows: usize = journeys[..j].iter().map(|k| k.trace.len()).sum();
        let mut speedups = Vec::new();
        for (d, paper) in paper.into_iter().enumerate() {
            let [[in_house, _], [ks_rows, _], [deduped, kept]] = [0, 1, 2].map(|s| side((s, d, j)));
            let equal = in_house as f64 / ks_rows.max(1) as f64;
            let name = format!("table6.{j}j.{}s.rows_equal", names[d].len());
            gates.push(gate(name, equal, (1.0, 1.0)));
            let (extract, reduced) = (pair((0, d, j), (1, d, j)), pair((0, d, j), (2, d, j)));
            speedups.push([extract.a_over_b, reduced.a_over_b]);
            rows.push(vec![
                ("journeys", j.to_string()),
                ("signals", names[d].len().to_string()),
                ("trace_rows", trace_rows.to_string()),
                ("ks_rows", ks_rows.to_string()),
                ("deduped_rows", deduped.to_string()),
                ("reduced_rows", kept.to_string()),
                ("in_house_ms", num(extract.a_secs * 1e3, 2)),
                ("extract_ms", num(extract.b_secs * 1e3, 2)),
                ("extract_speedup", num(extract.a_over_b, 2)),
                ("reduced_ms", num(reduced.b_secs * 1e3, 2)),
                ("reduced_speedup", num(reduced.a_over_b, 2)),
                ("paper_speedup", paper.to_string()),
            ]);
        }
        let flat = pair((0, 1, j), (0, 0, j)).a_over_b;
        gates.push(gate(format!("table6.{j}j.in_house_flat"), flat, FLAT));
        for (s, stage) in STAGES.into_iter().enumerate().skip(1) {
            let [few, many] = [speedups[0][s - 1], speedups[1][s - 1]];
            let name = format!("table6.{j}j.{stage}.beats_at_9");
            gates.push(gate(name, few, ABOVE_ONE));
            let name = format!("table6.{j}j.{stage}.speedup_9_over_89");
            gates.push(gate(name, few / many, ABOVE_ONE));
        }
    }
    for (d, signals) in names.iter().enumerate() {
        for (s, stage) in STAGES.into_iter().enumerate() {
            let per_journey = pair((s, d, 12), (s, d, 7)).a_over_b * 7.0 / 12.0;
            let name = format!("table6.{}s.{stage}.linear", signals.len());
            gates.push(gate(name, per_journey, LINEAR));
        }
    }
    Ok(rows)
}

fn main() -> Res<()> {
    let mut gates = Vec::new();
    let (t5, mismatches) = table5()?;
    let f5 = fig5(&mut gates)?;
    let t6 = table6(&mut gates)?;
    print_table(
        "Table 5: data sets, branch counts measured (paper: [alpha, beta, gamma])",
        &t5,
    );
    print_table(
        "Table 5: signals measured in another branch than designed",
        &mismatches,
    );
    print_table(
        "Fig. 5: Algorithm 1 lines 3-11 over growing prefixes, every signal",
        &f5,
    );
    print_table(
        "Table 6: in-house comparator vs proposed lines 3-7 and 3-11",
        &t6,
    );
    print_table("Shape gates", &gates);

    let workers = ivnt_frame::exec::default_workers();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!("\nproposed side: {workers} workers on {cores} cores (the paper's: 50 cores)");
    let failed = gates.iter().filter(|g| g[3].1 == "false").count();
    let json = format!(
        "{{\n  \"scale\": {},\n  \"workers\": {workers},\n  \"cores\": {cores},\n  \"table5\": {},\n  \
         \"table5_mismatches\": {},\n  \"fig5\": {},\n  \"table6\": {},\n  \"gates\": {},\n  \
         \"gates_failed\": {failed}\n}}\n",
        scale(),
        json_list(&t5),
        json_list(&mismatches),
        json_list(&f5),
        json_list(&t6),
        json_list(&gates),
    );
    std::fs::write("BENCH_paper.json", json)?;
    println!(
        "{} shape gates, {failed} failed; wrote BENCH_paper.json",
        gates.len()
    );
    if failed > 0 {
        eprintln!("FAIL: {failed} shape gate(s) outside their bounds (pass = false above)");
        std::process::exit(1);
    }
    Ok(())
}
