//! End-to-end integration: full vehicle, full pipeline, downstream analyses.

use ivnt::analysis::anomaly::{outlier_cells, rare_values, AnomalyConfig};
use ivnt::analysis::apriori::{mine_rules, transactions_from_state, AprioriConfig};
use ivnt::analysis::transition::TransitionGraph;
use ivnt::core::prelude::*;
use ivnt::simulator::functions;
use ivnt::simulator::prelude::*;

fn full_vehicle() -> NetworkModel {
    let mut n = NetworkModel::new(ivnt::protocol::Catalog::new());
    for f in [
        functions::wiper(),
        functions::lights(),
        functions::drivetrain(),
        functions::body(),
        functions::climate(),
    ] {
        n.add_function(f.expect("function model builds"))
            .expect("function installs");
    }
    n.add_gateway(GatewayRoute {
        from_bus: "FC".into(),
        to_bus: "DC".into(),
        message_ids: vec![3],
        delay_us: 120,
    });
    n.auto_senders();
    n
}

#[test]
fn full_vehicle_end_to_end() {
    let network = full_vehicle();
    let trace = network
        .simulate(20.0, 2024, &FaultPlan::new())
        .expect("simulation runs");
    assert!(trace.len() > 1_500, "trace has {} records", trace.len());

    let u_rel = RuleSet::from_network(&network);
    let profile = DomainProfile::new("all-domains");
    let output = Pipeline::new(u_rel, profile)
        .expect("pipeline builds")
        .session(RunOptions::trace(&trace))
        .run()
        .expect("pipeline runs");

    // Every catalog signal produced a result.
    assert_eq!(output.signals.len(), network.catalog().num_signals());
    // The state representation has one column per signal plus time.
    assert_eq!(output.state.schema().len(), output.signals.len() + 1);
    // Branches are all exercised by the mixed vehicle.
    let branches: std::collections::HashSet<Branch> = output
        .signals
        .iter()
        .map(|s| s.classification.branch)
        .collect();
    assert!(branches.contains(&Branch::Alpha));
    assert!(branches.contains(&Branch::Gamma));
    // Reduction actually reduced.
    let interpreted: usize = output.signals.iter().map(|s| s.rows_interpreted).sum();
    let reduced: usize = output.signals.iter().map(|s| s.rows_reduced).sum();
    assert!(reduced < interpreted);
    // Gateway dedup covered the mirrored channel.
    let wpos = output.signal("wpos").expect("wpos present");
    assert_eq!(wpos.corresponding_channels, vec!["DC".to_string()]);
}

#[test]
fn downstream_analyses_consume_state_representation() {
    let network = full_vehicle();
    let trace = network
        .simulate(15.0, 7, &FaultPlan::new())
        .expect("simulation runs");
    let output = Pipeline::new(
        RuleSet::from_network(&network),
        DomainProfile::new("analysis").with_signals(["state", "belt", "headlight"]),
    )
    .expect("pipeline builds")
    .session(RunOptions::trace(&trace))
    .run()
    .expect("pipeline runs");

    // Association rules mine without error and respect thresholds.
    let transactions = transactions_from_state(&output.state).expect("transactions");
    let rules = mine_rules(
        &transactions,
        &AprioriConfig {
            min_support: 0.2,
            min_confidence: 0.7,
            max_len: 2,
        },
    )
    .expect("rules mine");
    for r in &rules {
        assert!(r.confidence >= 0.7);
        assert!(r.support >= 0.2);
    }

    // Transition graph over a state column.
    let graph = TransitionGraph::from_column(&output.state, "state").expect("graph");
    assert_eq!(
        graph.total_transitions() as usize,
        output.state.num_rows().saturating_sub(1)
    );

    // Anomaly scan completes.
    let _ = rare_values(&output.state, "belt", &AnomalyConfig::default()).expect("anomalies");
    let _ = outlier_cells(&output.state).expect("outlier scan");
}

#[test]
fn trace_persistence_roundtrips_through_pipeline() {
    let network = full_vehicle();
    let trace = network
        .simulate(5.0, 33, &FaultPlan::new())
        .expect("simulation runs");
    let mut writer =
        ivnt::store::StoreWriter::new(Vec::new(), ivnt::store::WriterOptions::default())
            .expect("writer");
    for r in trace.records() {
        writer.append(r).expect("append");
    }
    let bytes = writer.finish().expect("finish");
    let mut reader =
        ivnt::store::StoreReader::from_reader(std::io::Cursor::new(bytes)).expect("open");
    let reloaded = Trace::from_records(reader.read_all().expect("read"));
    assert_eq!(reloaded, trace);

    let pipeline = Pipeline::new(
        RuleSet::from_network(&network),
        DomainProfile::new("roundtrip").with_signals(["speed"]),
    )
    .expect("pipeline builds");
    let a = pipeline
        .session(RunOptions::trace(&trace))
        .run()
        .expect("run original");
    let b = pipeline
        .session(RunOptions::trace(&reloaded))
        .run()
        .expect("run reloaded");
    assert_eq!(
        a.merged.collect_rows().expect("rows"),
        b.merged.collect_rows().expect("rows")
    );
}
