//! # ivnt-bench — benchmark harness regenerating the paper's evaluation
//!
//! One binary per table/figure of the DAC'18 paper's Sec. 5:
//!
//! * `table5` — data-set statistics (Table 5),
//! * `fig5`   — execution time of Algorithm 1 lines 3–11 vs. #examples
//!   (Fig. 5),
//! * `table6` — signal-extraction time, proposed vs. in-house tool, over
//!   multiple journeys and signal counts (Table 6),
//!
//! plus criterion benches (`cargo bench`) for the same measurements and for
//! the design-choice ablations listed in `DESIGN.md` (preselection,
//! partition count, gateway dedup), and the `*_probe` binaries that write
//! the `BENCH_*.json` files. Every probe times through the one harness
//! below: [`median_secs`] for a single side, [`paired_secs`] for a
//! comparison of two.

use std::collections::HashMap;
use std::time::Instant;

use ivnt_core::prelude::*;
use ivnt_simulator::prelude::*;
use ivnt_simulator::scenario;

/// Scale factor applied to every workload (paper traces have 10⁹ rows; the
/// laptop-scale reproduction uses 10⁵–10⁶). Override with the
/// `IVNT_BENCH_SCALE` environment variable (1.0 = default sizes).
pub fn scale() -> f64 {
    env_f64("IVNT_BENCH_SCALE", 1.0)
}

/// A float from the environment variable `key`, or `default` when it is
/// unset or does not parse.
pub fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// The median of a sample (the upper one for an even count).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(mut sample: Vec<f64>) -> f64 {
    sample.sort_by(f64::total_cmp);
    sample[sample.len() / 2]
}

/// Wall-clock seconds of one call of `f`.
pub fn time_secs(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// Median wall-clock seconds over `runs` executions (after one warmup).
pub fn median_secs(runs: usize, mut f: impl FnMut()) -> f64 {
    f(); // warmup
    median((0..runs).map(|_| time_secs(&mut f)).collect())
}

/// The result of [`paired_secs`].
#[derive(Debug, Clone, Copy)]
pub struct Paired {
    /// Median seconds of side `a`.
    pub a_secs: f64,
    /// Median seconds of side `b`.
    pub b_secs: f64,
    /// Median of the per-pair `a / b` ratios — not the ratio of the two
    /// medians, which drift between the sides would skew.
    pub a_over_b: f64,
}

/// Times two sides as `pairs` adjacent pairs, alternating which side runs
/// first, so machine drift (thermal, background load, a neighbour taking
/// a core) hits both sides equally. Each side returns its own seconds —
/// usually [`time_secs`] of its work — so checks on a result can stay
/// outside the measurement. Warm both sides up before calling.
pub fn paired_secs(pairs: usize, mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> Paired {
    let mut samples: [Vec<f64>; 3] = Default::default();
    for pair in 0..pairs {
        let (sa, sb) = if pair % 2 == 0 {
            let sa = a();
            (sa, b())
        } else {
            let sb = b();
            (a(), sb)
        };
        for (side, secs) in samples.iter_mut().zip([sa, sb, sa / sb.max(1e-12)]) {
            side.push(secs);
        }
    }
    let [a_secs, b_secs, a_over_b] = samples.map(median);
    Paired {
        a_secs,
        b_secs,
        a_over_b,
    }
}

/// The full-vehicle workload behind Table 6: a large catalog in which any
/// one domain's signals are a small fraction of the traffic, exactly like a
/// real trace. 400 signal types; a domain extracting 9 signals touches
/// ~2–3% of rows, one extracting 89 touches ~15–20% (the paper's ratios:
/// 12.75/481 ≈ 2.7% and 79.5/481 ≈ 16.5%).
pub fn vehicle_spec() -> DataSetSpec {
    DataSetSpec {
        name: "VEH".into(),
        n_alpha: 40,
        n_beta: 120,
        n_gamma: 240,
        signals_per_message: 4.0,
        duration_s: 60.0,
        seed: 0x7EB1C1E,
        with_gateway: true,
    }
}

/// Generates one journey of the vehicle workload with roughly
/// `target_examples` trace records.
///
/// # Errors
///
/// Propagates generation failures.
pub fn vehicle_journey(
    target_examples: usize,
    seed_offset: u64,
) -> Result<GeneratedDataSet, ivnt_simulator::Error> {
    let spec = vehicle_spec().with_target_examples(target_examples);
    let spec = spec.clone().with_seed(spec.seed.wrapping_add(seed_offset));
    scenario::generate(&spec)
}

/// Rows per message id in a trace (both gateway channels counted — the
/// interpretation touches every channel copy).
pub fn rows_per_message(trace: &Trace) -> HashMap<u32, usize> {
    let mut counts: HashMap<u32, usize> = HashMap::new();
    for r in trace.iter() {
        *counts.entry(r.message_id).or_default() += 1;
    }
    counts
}

/// Selects `n_signals` signals whose carrying messages cover approximately
/// `target_fraction` of the trace rows — mirroring how a real domain's
/// signal subset relates to total traffic in Table 6.
///
/// Greedy: repeatedly picks the message whose per-signal row cost best
/// approaches the remaining budget, taking as many of its signals as still
/// needed.
pub fn select_signals_for_fraction(
    data: &GeneratedDataSet,
    n_signals: usize,
    target_fraction: f64,
) -> Vec<String> {
    let rows = rows_per_message(&data.trace);
    let total: usize = rows.values().sum();
    let mut messages: Vec<(u32, usize, Vec<String>)> = data
        .network
        .catalog()
        .messages()
        .iter()
        .map(|m| {
            (
                m.id(),
                rows.get(&m.id()).copied().unwrap_or(0),
                m.signals().iter().map(|s| s.name().to_string()).collect(),
            )
        })
        .collect();
    messages.sort_by_key(|(id, _, _)| *id);

    let mut selected: Vec<String> = Vec::new();
    let mut covered_rows = 0usize;
    let mut used: Vec<bool> = vec![false; messages.len()];
    while selected.len() < n_signals {
        let needed = n_signals - selected.len();
        let budget = (target_fraction * total as f64) - covered_rows as f64;
        // Ideal per-signal row cost for the remaining picks.
        let ideal = (budget / needed as f64).max(0.0);
        let mut best: Option<(usize, f64)> = None;
        for (i, (_, msg_rows, signals)) in messages.iter().enumerate() {
            if used[i] || signals.is_empty() {
                continue;
            }
            let take = signals.len().min(needed);
            let per_signal = *msg_rows as f64 / take as f64;
            let score = (per_signal - ideal).abs();
            if best.map(|(_, s)| score < s).unwrap_or(true) {
                best = Some((i, score));
            }
        }
        let Some((i, _)) = best else { break };
        used[i] = true;
        covered_rows += messages[i].1;
        let take = messages[i].2.len().min(needed);
        selected.extend(messages[i].2.iter().take(take).cloned());
    }
    selected
}

/// Fraction of trace rows covered by the messages carrying `signals`.
pub fn covered_fraction(data: &GeneratedDataSet, signals: &[String]) -> f64 {
    let rows = rows_per_message(&data.trace);
    let total: usize = rows.values().sum();
    let mut covered = 0usize;
    for m in data.network.catalog().messages() {
        if m.signals()
            .iter()
            .any(|s| signals.iter().any(|n| n == s.name()))
        {
            covered += rows.get(&m.id()).copied().unwrap_or(0);
        }
    }
    covered as f64 / total.max(1) as f64
}

/// Splits the catalog's signals into `n_domains` pairwise-disjoint subsets
/// by round-robin over the catalog in message-id order — the multi-tenant
/// shape `ivnt-plan` amortizes: every domain watches different signals of
/// largely the same messages, so their preselection predicates overlap
/// heavily at the chunk level while their signal sets never collide.
pub fn disjoint_domains(data: &GeneratedDataSet, n_domains: usize) -> Vec<Vec<String>> {
    let n = n_domains.max(1);
    let mut messages: Vec<(u32, Vec<String>)> = data
        .network
        .catalog()
        .messages()
        .iter()
        .map(|m| {
            (
                m.id(),
                m.signals().iter().map(|s| s.name().to_string()).collect(),
            )
        })
        .collect();
    messages.sort_by_key(|(id, _)| *id);
    let mut domains = vec![Vec::new(); n];
    let mut j = 0usize;
    for (_, signals) in messages {
        for s in signals {
            domains[j % n].push(s);
            j += 1;
        }
    }
    domains
}

/// Derives `U_rel` from a generated data set, applying its ground-truth
/// comparability hints (the paper's `z_val` is domain knowledge carried by
/// the documentation, which the scenario generator plays the role of).
pub fn u_rel_with_hints(data: &GeneratedDataSet) -> RuleSet {
    let mut u_rel = RuleSet::from_network(&data.network);
    for (signal, (_, comparable)) in &data.signal_classes {
        let _ = u_rel.set_comparable(signal, *comparable);
    }
    u_rel
}

/// Builds the pipeline a domain would parameterize once for the given
/// signal subset (unchanged-repeat removal as reduction, dedup on).
///
/// # Errors
///
/// Propagates pipeline construction failures.
pub fn domain_pipeline(
    data: &GeneratedDataSet,
    signals: &[String],
) -> Result<Pipeline, ivnt_core::Error> {
    let u_rel = u_rel_with_hints(data);
    let selected: Vec<&str> = signals.iter().map(String::as_str).collect();
    let profile = DomainProfile::new("bench").with_signals(selected);
    Pipeline::new(u_rel, profile)
}

/// Formats a right-aligned table row for the report binaries.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}"))
        .collect::<Vec<_>>()
        .join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_takes_the_middle() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 3.0);
    }

    #[test]
    fn paired_alternates_and_takes_ratio_medians() {
        let order = std::cell::RefCell::new(Vec::new());
        let p = paired_secs(
            4,
            || {
                order.borrow_mut().push('a');
                2.0
            },
            || {
                order.borrow_mut().push('b');
                1.0
            },
        );
        assert_eq!(order.into_inner(), "abbaabba".chars().collect::<Vec<_>>());
        assert_eq!((p.a_secs, p.b_secs, p.a_over_b), (2.0, 1.0, 2.0));
    }

    #[test]
    fn vehicle_spec_shape() {
        let spec = vehicle_spec();
        assert_eq!(spec.total_signals(), 400);
    }

    #[test]
    fn signal_selection_hits_fraction() {
        let data = vehicle_journey(30_000, 0).unwrap();
        let few = select_signals_for_fraction(&data, 9, 0.027);
        assert_eq!(few.len(), 9);
        let frac = covered_fraction(&data, &few);
        assert!(
            (0.005..=0.10).contains(&frac),
            "9-signal fraction {frac} out of band"
        );
        let many = select_signals_for_fraction(&data, 89, 0.165);
        assert_eq!(many.len(), 89);
        let frac_many = covered_fraction(&data, &many);
        assert!(
            (0.08..=0.30).contains(&frac_many),
            "89-signal fraction {frac_many} out of band"
        );
        assert!(frac_many > frac);
    }

    #[test]
    fn domain_pipeline_runs() {
        let data = vehicle_journey(10_000, 1).unwrap();
        let signals = select_signals_for_fraction(&data, 9, 0.027);
        let p = domain_pipeline(&data, &signals).unwrap();
        let reduced = p
            .session(RunOptions::trace(&data.trace))
            .extract_reduced()
            .unwrap();
        assert_eq!(reduced.len(), 9);
    }
}
