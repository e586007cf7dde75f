//! Lines 8–11 on coded rows: the session's back half carries each signal's
//! rows coded through gateway dedup and constraint reduction and builds a
//! frame only for the rows reduction keeps. Checked here against the
//! public staged functions over frames (`split_by_signal`, `deduplicate`,
//! `apply_constraints`), against hand-built tables whose answers are known,
//! and against chunked pushes of the same operators.

use std::sync::Arc;

use ivnt::core::dedup::{deduplicate, deduplicate_all, Dedup, Deduplicator, Selection};
use ivnt::core::interpret::signal_schema;
use ivnt::core::pipeline::{Pipeline, PipelineOutput};
use ivnt::core::prelude::*;
use ivnt::core::reduce::{apply_constraints, reduce_all, Reducer, RowCtx};
use ivnt::core::split::{split_by_signal, CodedSequence};
use ivnt::frame::prelude::*;
use ivnt::simulator::scenario::{generate, DataSetSpec, GeneratedDataSet};

/// A small network whose every signal is recorded on its home channel and
/// on a gateway copy.
fn gateway_data(seed: u64) -> GeneratedDataSet {
    generate(&DataSetSpec {
        name: "GW".into(),
        n_alpha: 2,
        n_beta: 2,
        n_gamma: 1,
        signals_per_message: 2.0,
        duration_s: 4.0,
        seed,
        with_gateway: true,
    })
    .expect("generate")
}

fn gateway_pipeline(data: &GeneratedDataSet, profile: DomainProfile) -> Pipeline {
    Pipeline::new(
        RuleSet::from_network(&data.network),
        profile.with_partitions(3),
    )
    .expect("pipeline")
}

fn rows(frame: &DataFrame) -> Vec<Vec<Value>> {
    frame.collect_rows().expect("rows")
}

#[track_caller]
fn assert_verdicts(got: &Dedup, want: &Dedup, what: &str) {
    assert_eq!(
        got.representative_channel, want.representative_channel,
        "{what}: representative"
    );
    assert_eq!(
        got.corresponding, want.corresponding,
        "{what}: corresponding"
    );
    assert_eq!(got.mismatched, want.mismatched, "{what}: mismatched");
}

/// `extract_reduced` (coded rows, one materialization of the kept rows)
/// equals the staged functions over frames composed by hand: same signals,
/// same representative and reduced rows, same verdicts, and the
/// pre-reduction length is the representative's.
#[test]
fn staged_functions_compose_to_the_session_reduction() {
    let data = gateway_data(17);
    let p = gateway_pipeline(&data, DomainProfile::new("gw"));
    let ks = p
        .session(RunOptions::trace(&data.trace))
        .extract()
        .expect("extract");
    let seqs = split_by_signal(&ks.frame).expect("split");
    let dedups = deduplicate_all(&seqs, p.u_comb()).expect("dedup");
    let reps: Vec<SignalSequence> = dedups.iter().map(|d| d.representative.clone()).collect();
    let reduced = reduce_all(&reps, &p.profile().constraints).expect("reduce");

    let session = p
        .session(RunOptions::trace(&data.trace))
        .extract_reduced()
        .expect("extract_reduced");
    assert!(!session.is_empty(), "the network has signals");
    assert_eq!(session.len(), seqs.len(), "one entry per split sequence");
    for (i, (got, got_dedup, interpreted)) in session.iter().enumerate() {
        let signal = &seqs[i].signal;
        assert_eq!(&got.signal, signal, "signal order");
        assert_eq!(got.frame.num_partitions(), 1, "{signal}: one partition");
        assert_eq!(rows(&got.frame), rows(&reduced[i].frame), "{signal}: K_red");
        assert_eq!(
            rows(&got_dedup.representative.frame),
            rows(&dedups[i].representative.frame),
            "{signal}: K_rep"
        );
        assert_eq!(*interpreted, dedups[i].representative.len(), "{signal}");
        assert_verdicts(got_dedup, &dedups[i], signal);
        assert_eq!(got_dedup.corresponding.len(), 1, "{signal}: gateway copy");
        assert!(
            got.len() < seqs[i].len(),
            "{signal}: reduction kept everything"
        );
    }
}

/// The full run reports what extraction and reduction produced:
/// `rows_interpreted` is the representative's length with dedup on and the
/// whole split sequence's with it off; `rows_reduced` is the reduced length.
#[test]
fn run_counts_rows_before_and_after_reduction() {
    let data = gateway_data(23);
    for dedup in [true, false] {
        let p = gateway_pipeline(&data, DomainProfile::new("gw").with_dedup(dedup));
        let ks = p
            .session(RunOptions::trace(&data.trace))
            .extract()
            .expect("extract");
        let seqs = split_by_signal(&ks.frame).expect("split");
        let reduced = p
            .session(RunOptions::trace(&data.trace))
            .extract_reduced()
            .expect("extract_reduced");
        let out = p
            .session(RunOptions::trace(&data.trace))
            .run()
            .expect("run");
        assert_eq!(out.signals.len(), seqs.len(), "dedup={dedup}");
        for ((s, seq), (red, d, interpreted)) in out.signals.iter().zip(&seqs).zip(&reduced) {
            let what = format!("dedup={dedup}/{}", s.signal);
            assert_eq!(s.rows_interpreted, *interpreted, "{what}");
            assert_eq!(s.rows_reduced, red.len(), "{what}");
            assert_eq!(s.representative_channel, d.representative_channel, "{what}");
            assert_eq!(s.corresponding_channels, d.corresponding, "{what}");
            assert_eq!(s.mismatched_channels, d.mismatched, "{what}");
            if dedup {
                assert_eq!(
                    2 * s.rows_interpreted,
                    seq.len(),
                    "{what}: one of two copies"
                );
            } else {
                assert_eq!(s.rows_interpreted, seq.len(), "{what}: every channel");
                assert!(s.corresponding_channels.is_empty(), "{what}");
            }
        }
    }
}

type Row<'a> = (Option<f64>, Option<&'a str>, Option<f64>, Option<&'a str>);

/// A hand-built `K_s` of signal `x`: rows `(t, b_id, v_num, v_text)`,
/// `per_part` rows per partition, every cell its own `Arc`.
fn ks(rows: &[Row<'_>], per_part: usize) -> DataFrame {
    let parts = rows
        .chunks(per_part.max(1))
        .map(|chunk| {
            Batch::from_rows(
                signal_schema(),
                chunk.iter().map(|&(t, b, v, text)| {
                    vec![
                        Value::from(t),
                        Value::from("x"),
                        b.map_or(Value::Null, Value::from),
                        Value::from(v),
                        text.map_or(Value::Null, Value::from),
                    ]
                }),
            )
            .expect("batch")
        })
        .collect();
    DataFrame::from_partitions(signal_schema(), parts).expect("ks")
}

fn only_sequence(table: &DataFrame) -> SignalSequence {
    let mut seqs = split_by_signal(table).expect("split");
    assert_eq!(seqs.len(), 1, "one signal");
    seqs.remove(0)
}

/// The staged `deduplicate` keeps the input's partitions, and its
/// representative is exactly the representative channel's rows in order.
#[test]
fn representative_is_its_channels_rows_in_the_input_partitions() {
    let table: Vec<Row<'_>> = (0..12)
        .map(|i| {
            let t = f64::from(i / 2) + if i % 2 == 0 { 0.0 } else { 0.001 };
            let channel = if i % 2 == 0 { "PT" } else { "FC" };
            (Some(t), Some(channel), Some(f64::from(i / 4)), None)
        })
        .collect();
    for per_part in [1, 5, 12] {
        let seq = SignalSequence {
            signal: "x".into(),
            frame: ks(&table, per_part),
        };
        let d = deduplicate(&seq, &RuleSet::new()).expect("dedup");
        assert_eq!(d.representative_channel, "FC", "smallest channel");
        assert_eq!(d.corresponding, ["PT"]);
        assert!(d.mismatched.is_empty());
        assert_eq!(
            d.representative.frame.num_partitions(),
            seq.frame.num_partitions(),
            "{per_part} rows/partition"
        );
        let want: Vec<Vec<Value>> = rows(&seq.frame)
            .into_iter()
            .filter(|r| r[2] == Value::from("FC"))
            .collect();
        assert_eq!(want.len(), 6);
        assert_eq!(
            rows(&d.representative.frame),
            want,
            "{per_part} rows/partition"
        );
    }
}

/// A copy that disagrees is mismatched. A row with a null channel belongs to
/// no copy: a multi-channel representative drops it, a single-channel
/// sequence keeps it.
#[test]
fn a_corrupted_copy_is_mismatched_and_null_channel_rows_belong_to_no_copy() {
    let table: Vec<Row<'_>> = vec![
        (Some(1.0), Some("DC"), Some(1.0), None),
        (Some(1.1), Some("FC"), Some(1.0), None),
        (Some(1.5), None, Some(9.0), None),
        (Some(2.0), Some("DC"), Some(2.0), None),
        (Some(2.1), Some("FC"), Some(7.0), None), // corrupted copy
        (Some(3.0), Some("DC"), Some(3.0), None),
        (Some(3.1), Some("FC"), Some(3.0), None),
    ];
    let seq = only_sequence(&ks(&table, 3));
    let d = deduplicate(&seq, &RuleSet::new()).expect("dedup");
    assert_eq!(d.representative_channel, "DC");
    assert!(d.corresponding.is_empty());
    assert_eq!(d.mismatched, ["FC"]);
    assert_eq!(
        d.representative.numeric_values().expect("values"),
        [Some(1.0), Some(2.0), Some(3.0)]
    );

    let single: Vec<Row<'_>> = table.into_iter().filter(|r| r.1 != Some("FC")).collect();
    let seq = only_sequence(&ks(&single, 2));
    let d = deduplicate(&seq, &RuleSet::new()).expect("dedup");
    assert_eq!(d.representative_channel, "DC");
    assert!(d.corresponding.is_empty() && d.mismatched.is_empty());
    assert_eq!(
        rows(&d.representative.frame),
        rows(&seq.frame),
        "every row kept"
    );
}

/// Text compares by content, not by cell identity: equal labels in
/// distinct `Arc`s are one value to the equality check and to
/// `ValueChanged`.
#[test]
fn text_values_compare_by_content() {
    let labels = ["on", "on", "off", "off", "on", "on"];
    let mut table: Vec<Row<'_>> = Vec::new();
    for (i, &label) in labels.iter().enumerate() {
        let t = i as f64;
        table.push((Some(t), Some("DC"), None, Some(label)));
        table.push((Some(t + 0.01), Some("FC"), None, Some(label)));
    }
    let seq = only_sequence(&ks(&table, 4));
    let d = deduplicate(&seq, &RuleSet::new()).expect("dedup");
    assert_eq!(d.corresponding, ["FC"], "equal labels, distinct Arcs");
    let changes = [Constraint::global(vec![ConditionFn::ValueChanged])];
    let reduced = apply_constraints(&d.representative, &changes).expect("reduce");
    let texts: Vec<Option<String>> = (reduced.text_values().expect("texts").into_iter())
        .map(|t| t.map(|t| t.to_string()))
        .collect();
    assert_eq!(
        texts,
        [Some("on".into()), Some("off".into()), Some("on".into())]
    );
    assert_eq!(reduced.times().expect("times"), [0.0, 2.0, 4.0]);
}

/// A channel-major feed (every copy's rows in turn, so time goes back at
/// each copy) reduces exactly like the same rows fed in time order.
#[test]
fn a_channel_major_feed_reduces_like_the_time_ordered_feed() {
    let values = [4.0, 4.0, 5.0, 5.0, 5.0, 6.0, 4.0, 4.0];
    let copy = |channel: &'static str, delay: f64| {
        values
            .iter()
            .enumerate()
            .map(move |(i, &v)| (Some(i as f64 * 0.1 + delay), Some(channel), Some(v), None))
    };
    let channel_major: Vec<Row<'_>> = copy("FC", 0.02).chain(copy("BC", 0.0)).collect();
    let mut time_ordered = channel_major.clone();
    time_ordered.sort_by(|a, b| a.0.unwrap().total_cmp(&b.0.unwrap()));

    let constraints = [Constraint::global(vec![
        ConditionFn::ValueChanged,
        ConditionFn::GapExceeds { max_gap_s: 0.5 },
    ])];
    let run = |table: &[Row<'_>], per_part: usize| {
        let seq = only_sequence(&ks(table, per_part));
        let d = deduplicate(&seq, &RuleSet::new()).expect("dedup");
        let reduced = apply_constraints(&d.representative, &constraints).expect("reduce");
        (d, reduced)
    };
    let (want, want_reduced) = run(&time_ordered, 16);
    assert_eq!(want.representative_channel, "BC");
    assert_eq!(want.corresponding, ["FC"]);
    assert_eq!(
        want_reduced.numeric_values().expect("values"),
        [Some(4.0), Some(5.0), Some(6.0), Some(4.0)]
    );
    for per_part in [1, 3, 16] {
        let (got, got_reduced) = run(&channel_major, per_part);
        assert_verdicts(&got, &want, &format!("{per_part} rows/partition"));
        assert_eq!(rows(&got_reduced.frame), rows(&want_reduced.frame));
    }
}

/// A `Custom` condition that restates a built-in one reduces every signal
/// of a full run to the same rows: the typed fast path of the built-ins and
/// the `RowCtx` path of custom functions agree.
#[test]
fn a_custom_condition_reduces_like_its_builtin_twin() {
    let data = gateway_data(41);
    let gap = 0.15;
    let builtin = vec![Constraint::global(vec![
        ConditionFn::ValueChanged,
        ConditionFn::GapExceeds { max_gap_s: gap },
    ])];
    let custom = |name: &str, f: fn(&RowCtx, f64) -> bool| ConditionFn::Custom {
        name: name.into(),
        func: Arc::new(move |ctx: &RowCtx| f(ctx, gap)),
    };
    let twins = vec![Constraint::global(vec![
        custom("changed", |c, _| {
            c.index == 0 || c.num != c.prev_num || c.text != c.prev_text
        }),
        custom("gap", |c, gap| c.prev_t.is_some_and(|p| c.t - p > gap)),
    ])];
    let run = |constraints: Vec<Constraint>| -> PipelineOutput {
        let profile = DomainProfile::new("gw").with_constraints(constraints);
        let p = gateway_pipeline(&data, profile);
        p.session(RunOptions::trace(&data.trace))
            .run()
            .expect("run")
    };
    let (want, got) = (run(builtin), run(twins));
    assert_eq!(got.signals.len(), want.signals.len());
    for (g, w) in got.signals.iter().zip(&want.signals) {
        assert_eq!(g.signal, w.signal);
        assert_eq!(g.rows_interpreted, w.rows_interpreted, "{}", g.signal);
        assert_eq!(g.rows_reduced, w.rows_reduced, "{}", g.signal);
        assert_eq!(rows(&g.frame), rows(&w.frame), "{}", g.signal);
    }
    let dropped = |o: &PipelineOutput| {
        o.signals
            .iter()
            .any(|s| s.rows_reduced < s.rows_interpreted)
    };
    assert!(dropped(&want), "the conditions drop rows somewhere");
    assert_eq!(rows(&got.state), rows(&want.state), "state");
}

/// The operators a stream feeds chunk by chunk give, on real gateway
/// sequences, the selections and reports of one push of the whole
/// sequence, for any chunk size, when every channel is announced up front.
#[test]
fn chunked_pushes_select_like_one_push() {
    let data = gateway_data(5);
    let p = gateway_pipeline(&data, DomainProfile::new("gw"));
    let ks = p
        .session(RunOptions::trace(&data.trace))
        .extract()
        .expect("extract");
    let constraints = &p.profile().constraints;
    for seq in split_by_signal(&ks.frame).expect("split") {
        let coded = CodedSequence::from_sequence(&seq).expect("coded");
        let view = coded.view();
        let n = coded.len();
        let seen: Vec<u32> = (0..view.channels.len() as u32).collect();
        let push = |chunk: usize| {
            let mut dedup: Deduplicator = p.deduplicator(&seq.signal, usize::MAX);
            let mut reducer = Reducer::new(&seq.signal, constraints);
            let (mut rep, mut kept) = (Vec::new(), Vec::new());
            for start in (0..n).step_by(chunk) {
                let rows = view.slice(start..(start + chunk).min(n));
                let selected = dedup.push(rows, &seen);
                let reduced = reducer.push(rows, &selected);
                rep.extend(selected.positions(rows.rows.len()).map(|i| start + i));
                kept.extend(reduced.positions(rows.rows.len()).map(|i| start + i));
            }
            (rep, kept, dedup.finish(), reducer.finish())
        };
        let (rep, kept, report, counts) = push(n.max(1));
        assert_eq!(
            report.corresponding.len(),
            1,
            "{}: gateway copy",
            seq.signal
        );
        assert_eq!(counts, (rep.len(), kept.len()), "{}", seq.signal);
        let materialized = coded
            .to_sequence(&Selection::Rows(kept.clone()))
            .expect("seq");
        let staged = deduplicate(&seq, p.u_comb()).expect("dedup");
        let staged = apply_constraints(&staged.representative, constraints).expect("reduce");
        assert_eq!(
            rows(&materialized.frame),
            rows(&staged.frame),
            "{}",
            seq.signal
        );
        for chunk in [1, 2, 7, 64] {
            let got = push(chunk);
            let what = format!("{} in chunks of {chunk}", seq.signal);
            assert_eq!(got.0, rep, "{what}: representative");
            assert_eq!(got.1, kept, "{what}: kept");
            assert_eq!(got.2, report, "{what}: report");
            assert_eq!(got.3, counts, "{what}: counts");
        }
    }
}
