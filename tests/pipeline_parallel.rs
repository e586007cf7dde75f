//! Tier-1 acceptance for the parallel branch pipeline: fanning the
//! per-signal work (dedup → reduce → extend → classify → branch) over the
//! worker pool must be bit-identical to the sequential reference path, for
//! any worker count. The exhaustive kernel-level equivalences live in
//! `crates/series/tests/`; this is the root-level contract, mirroring
//! `cluster_extraction.rs` for the distributed layer.

use ivnt::cluster::codec::encode_batch;
use ivnt::core::pipeline::PipelineOutput;
use ivnt::core::prelude::*;
use ivnt::simulator::prelude::*;

fn dataset() -> GeneratedDataSet {
    generate(&DataSetSpec::syn().with_seed(23).with_target_examples(8_000)).expect("generate")
}

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

/// A profile with extensions on two signals, so the rule-major extension
/// gather is exercised, not just the empty-frame fast path.
fn profile(data: &GeneratedDataSet, name: &str) -> DomainProfile {
    let mut signals: Vec<String> = RuleSet::from_network(&data.network)
        .rules()
        .iter()
        .map(|r| r.signal.clone())
        .collect();
    signals.sort();
    signals.dedup();
    let mut profile = DomainProfile::new(name);
    for signal in signals.iter().take(2) {
        profile = profile.with_extension(ExtensionRule::Gap {
            signal: signal.clone(),
            alias: format!("{signal}Gap"),
        });
    }
    profile
}

#[test]
fn parallel_pipeline_matches_serial_bit_for_bit() {
    let data = dataset();
    let u_rel = RuleSet::from_network(&data.network);

    let serial = Pipeline::new(u_rel.clone(), profile(&data, "serial").with_workers(1))
        .expect("pipeline")
        .session(RunOptions::trace(&data.trace).serial())
        .run()
        .expect("run_serial");
    let expected = fingerprint(&serial);
    assert!(serial.merged.num_rows() > 0);
    assert!(serial.extensions.num_rows() > 0, "extensions exercised");

    for workers in [1usize, 2, 8] {
        let run = Pipeline::new(u_rel.clone(), profile(&data, "par").with_workers(workers))
            .expect("pipeline")
            .session(RunOptions::trace(&data.trace))
            .run()
            .expect("run");
        assert_eq!(
            fingerprint(&run),
            expected,
            "parallel output diverged at {workers} workers"
        );
    }
}
