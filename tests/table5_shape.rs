//! The Table 5 shape as an executable assertion: each generated data set,
//! run through the real classifier (with the data sets' comparability
//! hints), must reproduce the paper's per-branch signal counts.

use ivnt::simulator::prelude::*;
use ivnt_bench::branch_counts;

fn measure(spec: DataSetSpec, examples: usize) -> [usize; 3] {
    // Long enough that every stepped/dwelling signal visits its full value
    // range; at very short durations slow β signals degenerate to binary.
    let data = generate(&spec.with_target_examples(examples)).expect("generate");
    branch_counts(&data).expect("classify").counts
}

#[test]
fn syn_reproduces_table5_branches() {
    // Paper Table 5, SYN column: 6 / 4 / 3.
    assert_eq!(measure(DataSetSpec::syn(), 60_000), [6, 4, 3]);
}

#[test]
fn lig_reproduces_table5_branches() {
    // Paper Table 5, LIG column: 27 / 71 / 82. LIG has the most slow β
    // signals, so it needs the longest window before every stepped level
    // has been visited at least three times.
    assert_eq!(measure(DataSetSpec::lig(), 90_000), [27, 71, 82]);
}

#[test]
fn sta_reproduces_table5_branches() {
    // Paper Table 5, STA column: 6 / 1 / 71.
    assert_eq!(measure(DataSetSpec::sta(), 60_000), [6, 1, 71]);
}

#[test]
fn signals_per_message_density_close_to_paper() {
    for (spec, expected) in [
        (DataSetSpec::syn(), 1.47),
        (DataSetSpec::lig(), 5.11),
        (DataSetSpec::sta(), 3.66),
    ] {
        let data = generate(&spec.with_target_examples(5_000)).expect("generate");
        let signals: usize = data
            .network
            .catalog()
            .messages()
            .iter()
            .map(|m| m.signals().len())
            .sum();
        let density = signals as f64 / data.network.catalog().num_messages() as f64;
        assert!(
            (density - expected).abs() < 0.9,
            "{}: density {density} vs paper {expected}",
            data.spec.name
        );
    }
}
