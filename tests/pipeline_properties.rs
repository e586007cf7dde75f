//! Property tests over the whole pipeline: invariants that must hold for
//! arbitrary (small) generated networks and traces.

use ivnt::core::prelude::*;
use ivnt::core::tabular::columns as c;
use ivnt::simulator::prelude::*;
use ivnt::simulator::scenario::{generate, DataSetSpec};
use proptest::prelude::*;

/// A small randomized data-set spec (shape only; content is seeded).
fn arb_spec() -> impl Strategy<Value = DataSetSpec> {
    (
        1usize..4, // alpha
        0usize..4, // beta
        0usize..4, // gamma
        1u64..500, // seed
        any::<bool>(),
    )
        .prop_map(|(a, b, g, seed, gateway)| DataSetSpec {
            name: "PROP".into(),
            n_alpha: a,
            n_beta: b,
            n_gamma: g,
            signals_per_message: 2.0,
            duration_s: 4.0,
            seed,
            with_gateway: gateway,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// K_s never exceeds (trace rows x rules) and reduction never grows a
    /// sequence; every per-signal output keeps the homogeneous schema.
    #[test]
    fn pipeline_invariants(spec in arb_spec()) {
        let data = generate(&spec).expect("generate");
        let u_rel = RuleSet::from_network(&data.network);
        let n_rules = u_rel.len();
        let pipeline = Pipeline::new(u_rel, DomainProfile::new("prop")).expect("pipeline");

        let ks = pipeline.session(RunOptions::trace(&data.trace)).extract().expect("extract").frame;
        prop_assert!(ks.num_rows() <= data.trace.len() * n_rules.max(1));

        let output = pipeline.session(RunOptions::trace(&data.trace)).run().expect("run");
        for s in &output.signals {
            prop_assert!(s.rows_reduced <= s.rows_interpreted,
                "{}: reduced {} > interpreted {}", s.signal, s.rows_reduced, s.rows_interpreted);
            prop_assert_eq!(s.frame.num_rows(), s.rows_reduced);
            prop_assert_eq!(s.frame.schema().len(), 7); // homogeneous schema
        }
        // Merged rows = sum of per-signal rows + extension rows.
        let per_signal: usize = output.signals.iter().map(|s| s.rows_reduced).sum();
        prop_assert_eq!(
            output.merged.num_rows(),
            per_signal + output.extensions.num_rows()
        );
    }

    /// The state representation has one row per distinct merged timestamp,
    /// is time-sorted, and its cells are forward-filled (no null after a
    /// signal's first occurrence).
    #[test]
    fn state_representation_invariants(spec in arb_spec()) {
        let data = generate(&spec).expect("generate");
        let u_rel = RuleSet::from_network(&data.network);
        let output = Pipeline::new(u_rel, DomainProfile::new("prop"))
            .expect("pipeline")
            .session(RunOptions::trace(&data.trace)).run()
            .expect("run");

        let merged_ts: std::collections::BTreeSet<u64> = output
            .merged
            .column_values(c::T)
            .expect("t")
            .iter()
            .filter_map(|v| v.as_float().map(f64::to_bits))
            .collect();
        prop_assert_eq!(output.state.num_rows(), merged_ts.len());

        let state_ts: Vec<f64> = output
            .state
            .column_values(c::T)
            .expect("t")
            .iter()
            .filter_map(|v| v.as_float())
            .collect();
        prop_assert!(state_ts.windows(2).all(|w| w[0] <= w[1]));

        // Forward fill: once non-null, a column never reverts to null.
        let rows = output.state.collect_rows().expect("rows");
        for col in 1..output.state.schema().len() {
            let mut seen = false;
            for r in &rows {
                if !r[col].is_null() {
                    seen = true;
                } else {
                    prop_assert!(!seen, "column {col} reverted to null");
                }
            }
        }
    }

    /// Gateway dedup halves the processed instances and never changes the
    /// merged result (the gateway copy is byte-identical).
    #[test]
    fn dedup_preserves_output(seed in 1u64..300) {
        let spec = DataSetSpec {
            name: "GW".into(),
            n_alpha: 2,
            n_beta: 1,
            n_gamma: 1,
            signals_per_message: 2.0,
            duration_s: 4.0,
            seed,
            with_gateway: true,
        };
        let data = generate(&spec).expect("generate");
        let u_rel = RuleSet::from_network(&data.network);
        let with = Pipeline::new(u_rel.clone(), DomainProfile::new("with"))
            .expect("pipeline")
            .session(RunOptions::trace(&data.trace)).run()
            .expect("run");
        // Every signal's representative covers its gateway copy.
        for s in &with.signals {
            prop_assert_eq!(s.corresponding_channels.len(), 1, "{}", s.signal);
            prop_assert!(s.mismatched_channels.is_empty());
        }
    }

    /// The scatter/gather path is bit-identical to the sequential
    /// reference for arbitrary generated networks and worker counts
    /// (timing excluded — it is measurement, not output).
    #[test]
    fn parallel_run_matches_serial_reference(spec in arb_spec(), workers in 1usize..5) {
        let data = generate(&spec).expect("generate");
        let u_rel = RuleSet::from_network(&data.network);
        let pipeline = Pipeline::new(
            u_rel,
            DomainProfile::new("par").with_workers(workers),
        )
        .expect("pipeline");
        let serial = pipeline.session(RunOptions::trace(&data.trace).serial()).run().expect("run_serial");
        let parallel = pipeline.session(RunOptions::trace(&data.trace)).run().expect("run");
        prop_assert_eq!(serial.signals.len(), parallel.signals.len());
        for (s, p) in serial.signals.iter().zip(&parallel.signals) {
            prop_assert_eq!(&s.signal, &p.signal);
            prop_assert_eq!(&s.classification, &p.classification);
            prop_assert_eq!(
                s.frame.collect_rows().expect("rows"),
                p.frame.collect_rows().expect("rows")
            );
        }
        prop_assert_eq!(
            serial.extensions.collect_rows().expect("rows"),
            parallel.extensions.collect_rows().expect("rows")
        );
        prop_assert_eq!(
            serial.merged.collect_rows().expect("rows"),
            parallel.merged.collect_rows().expect("rows")
        );
        prop_assert_eq!(
            serial.state.collect_rows().expect("rows"),
            parallel.state.collect_rows().expect("rows")
        );
    }

    /// Traces roundtrip through the `.ivns` store for arbitrary generated
    /// traces.
    #[test]
    fn trace_roundtrip(spec in arb_spec()) {
        let data = generate(&spec).expect("generate");
        let options = ivnt::store::WriterOptions::default();
        let mut writer = ivnt::store::StoreWriter::new(Vec::new(), options).expect("writer");
        for r in data.trace.records() {
            writer.append(r).expect("append");
        }
        let bytes = writer.finish().expect("finish");
        let mut reader =
            ivnt::store::StoreReader::from_reader(std::io::Cursor::new(bytes)).expect("open");
        let reloaded = Trace::from_records(reader.read_all().expect("read"));
        prop_assert_eq!(reloaded, data.trace);
    }

    /// Cluster reduction never keeps more rows than plain repeat removal
    /// keeps, for any k.
    #[test]
    fn cluster_reduction_bounded(seed in 1u64..200, k in 1usize..6) {
        let spec = DataSetSpec {
            name: "CL".into(),
            n_alpha: 2,
            n_beta: 0,
            n_gamma: 0,
            signals_per_message: 2.0,
            duration_s: 4.0,
            seed,
            with_gateway: false,
        };
        let data = generate(&spec).expect("generate");
        let u_rel = RuleSet::from_network(&data.network);
        let plain = Pipeline::new(u_rel.clone(), DomainProfile::new("plain"))
            .expect("pipeline")
            .session(RunOptions::trace(&data.trace)).run()
            .expect("run");
        let clustered = Pipeline::new(
            u_rel,
            DomainProfile::new("cluster").with_reduction(Reduction::Cluster {
                k,
                max_iterations: 20,
            }),
        )
        .expect("pipeline")
        .session(RunOptions::trace(&data.trace)).run()
        .expect("run");
        for (p, q) in plain.signals.iter().zip(&clustered.signals) {
            prop_assert!(q.rows_reduced <= p.rows_reduced,
                "{}: cluster {} > plain {}", p.signal, q.rows_reduced, p.rows_reduced);
        }
    }
}
