//! Property tests for the multi-query session: for arbitrary small
//! networks and arbitrary query batches — overlapping, disjoint, windowed,
//! empty, any mix — the shared scan's per-query extraction and full run
//! are bit-identical to the solo store session's and to the in-memory
//! trace session's. A solo store session runs the same routed scan as the
//! batch; the in-memory trace path shares none of its code, so it is the
//! independent oracle.

use std::io::Cursor;

use ivnt::core::pipeline::{DomainProfile, Pipeline, PipelineOutput, RunOptions, Session};
use ivnt::core::query::Query;
use ivnt::core::rules::RuleSet;
use ivnt::frame::frame::DataFrame;
use ivnt::simulator::scenario::{generate, DataSetSpec, GeneratedDataSet};
use ivnt::simulator::trace::Trace;
use ivnt::store::{StoreReader, StoreWriter, WriterOptions};
use proptest::prelude::*;

/// A small randomized data-set spec (shape only; content is seeded).
fn arb_spec() -> impl Strategy<Value = DataSetSpec> {
    (
        1usize..4, // alpha
        0usize..3, // beta
        0usize..3, // gamma
        1u64..500, // seed
        any::<bool>(),
    )
        .prop_map(|(a, b, g, seed, gateway)| DataSetSpec {
            name: "PLANPROP".into(),
            n_alpha: a,
            n_beta: b,
            n_gamma: g,
            signals_per_message: 2.0,
            duration_s: 3.0,
            seed,
            with_gateway: gateway,
        })
}

/// Deterministic mixer for deriving query shapes from one seed.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state >> 33
}

/// Catalog signal names in message-id order.
fn signal_names(data: &GeneratedDataSet) -> Vec<String> {
    messages(data).into_iter().flat_map(|(_, s)| s).collect()
}

/// Catalog messages with their signal names, in message-id order.
fn messages(data: &GeneratedDataSet) -> Vec<(u32, Vec<String>)> {
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
    messages
}

fn write_store(trace: &Trace) -> Vec<u8> {
    let options = WriterOptions {
        chunk_rows: 128,
        chunks_per_group: 2,
        cluster: true,
    };
    let mut writer = StoreWriter::new(Vec::new(), options).expect("create store");
    for r in trace.records() {
        writer.append(r).expect("append");
    }
    writer.seal().expect("seal")
}

/// The trace minus every record of message `absent`.
fn trace_without(trace: &Trace, absent: u32) -> Trace {
    let kept = trace.records().iter().filter(|r| r.message_id != absent);
    Trace::from_records(kept.cloned().collect())
}

fn last_timestamp_us(data: &GeneratedDataSet) -> u64 {
    data.trace
        .records()
        .iter()
        .map(|r| r.timestamp_us)
        .max()
        .unwrap_or(0)
}

/// A run's output as one comparable line per signal and per combined
/// frame.
fn output_lines(out: &PipelineOutput) -> Vec<String> {
    let frame = |f: &DataFrame| {
        let rows = f.collect_rows().expect("rows");
        format!("{:?} {rows:?}", f.schema().fields())
    };
    let mut lines: Vec<String> = out
        .signals
        .iter()
        .map(|s| {
            format!(
                "{} {:?} {} {:?} {:?} {} {} {}",
                s.signal,
                s.classification,
                s.representative_channel,
                s.corresponding_channels,
                s.mismatched_channels,
                s.rows_interpreted,
                s.rows_reduced,
                frame(&s.frame)
            )
        })
        .collect();
    lines.extend([&out.extensions, &out.merged, &out.state].map(frame));
    lines
}

/// The first line where `got` and `want` differ, both sides cut short.
fn first_difference(got: &[String], want: &[String]) -> Option<String> {
    let cut = |l: Option<&String>| l.map(|l| l.chars().take(400).collect::<String>());
    (0..got.len().max(want.len()))
        .find(|&i| got.get(i) != want.get(i))
        .map(|i| format!("line {i}: {:?} vs {:?}", cut(got.get(i)), cut(want.get(i))))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Merged-predicate shared extraction ≡ per-query solo extraction (from
    /// the store and from the in-memory trace), for
    /// random query sets over random networks: signals assigned randomly
    /// (some domains overlap, some stay disjoint, some end up empty) and
    /// optionally windowed (sometimes to an empty range).
    #[test]
    fn shared_extraction_equals_solo_sessions(
        spec in arb_spec(),
        n_queries in 1usize..4,
        shape_seed in any::<u64>(),
        windowed in any::<bool>(),
    ) {
        let data = generate(&spec).expect("generate");
        let bytes = write_store(&data.trace);
        let names = signal_names(&data);
        let last_us = last_timestamp_us(&data);

        // Random signal assignment: domain `n_queries` means "unassigned",
        // and a quarter of assigned signals are claimed twice (overlap).
        let mut s = shape_seed | 1;
        let mut domains: Vec<Vec<String>> = vec![Vec::new(); n_queries];
        for name in &names {
            let d = (lcg(&mut s) as usize) % (n_queries + 1);
            if d < n_queries {
                domains[d].push(name.clone());
                if n_queries > 1 && lcg(&mut s).is_multiple_of(4) {
                    domains[(d + 1) % n_queries].push(name.clone());
                }
            }
        }
        let windows: Vec<Option<(u64, u64)>> = (0..n_queries)
            .map(|_| {
                if windowed && lcg(&mut s).is_multiple_of(2) {
                    let a = lcg(&mut s) % 10;
                    let b = lcg(&mut s) % 10;
                    // 9/8 overshoots the trace end: sometimes empty.
                    Some((last_us * a.min(b) / 8, last_us * a.max(b) / 8))
                } else {
                    None
                }
            })
            .collect();

        // An empty selection means "whole catalog" (DomainProfile
        // semantics) — a legitimate, maximally overlapping tenant.
        let pipelines: Vec<Pipeline> = domains
            .iter()
            .map(|d| {
                let selected: Vec<&str> = d.iter().map(String::as_str).collect();
                let profile = DomainProfile::new("prop").with_signals(selected);
                Pipeline::new(RuleSet::from_network(&data.network), profile)
                    .expect("pipeline builds")
            })
            .collect();

        let queries: Vec<Query<'_>> = pipelines
            .iter()
            .zip(&windows)
            .map(|(p, w)| match w {
                Some((from, to)) => Query::new(p).with_window(*from, *to),
                None => Query::new(p),
            })
            .collect();
        let mut reader =
            StoreReader::from_reader(Cursor::new(bytes.clone())).expect("open store");
        let multi = Session::many(queries, &mut reader)
            .extract_each()
            .expect("shared extract");
        prop_assert_eq!(multi.frames.len(), n_queries);

        for (qi, qx) in multi.frames.iter().enumerate() {
            let mut solo_reader =
                StoreReader::from_reader(Cursor::new(bytes.clone())).expect("open store");
            let mut store = RunOptions::store(&mut solo_reader);
            let mut mem = RunOptions::trace(&data.trace);
            if let Some((from, to)) = windows[qi] {
                store = store.with_time_window(from, to);
                mem = mem.with_time_window(from, to);
            }
            let p = &pipelines[qi];
            let solo = [
                ("store", p.session(store).extract().expect("solo store").frame),
                ("trace", p.session(mem).extract().expect("solo trace").frame),
            ];
            let rows = qx.frame.collect_rows().expect("shared rows");
            for (source, want) in solo {
                prop_assert_eq!(qx.frame.schema(), want.schema(), "query {} schema", qi);
                prop_assert_eq!(
                    &rows,
                    &want.collect_rows().expect("solo rows"),
                    "query {} diverged from its solo {} session",
                    qi,
                    source
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `Session::run_each` ≡ each query's solo `Session::run`, from the
    /// store and from the in-memory trace, for random query
    /// sets of three shapes — signal-disjoint and windowless (the shared
    /// union builder), overlapping, windowed — each plus a query whose
    /// message the store never saw (every group pruned), and, outside the
    /// disjoint shape, empty selections (the whole catalog). The batch
    /// runs serial or parallel.
    #[test]
    fn shared_run_equals_solo_sessions(
        spec in arb_spec(),
        shape in 0u8..3,
        n_queries in 1usize..4,
        shape_seed in any::<u64>(),
        serial in any::<bool>(),
    ) {
        let (disjoint, overlapping, windowed) = (shape == 0, shape == 1, shape == 2);
        let data = generate(&spec).expect("generate");
        let mut by_message = messages(&data);
        let (absent_id, absent_signals) = by_message.pop().expect("a message");
        let trace = trace_without(&data.trace, absent_id);
        let bytes = write_store(&trace);
        let last_us = last_timestamp_us(&data);

        let mut s = shape_seed | 1;
        let mut domains: Vec<Vec<String>> = vec![Vec::new(); n_queries];
        for name in by_message.into_iter().flat_map(|(_, s)| s) {
            let d = (lcg(&mut s) as usize) % (n_queries + 1);
            if d < n_queries {
                domains[d].push(name.clone());
                if overlapping && n_queries > 1 && lcg(&mut s).is_multiple_of(4) {
                    domains[(d + 1) % n_queries].push(name);
                }
            }
        }
        if disjoint {
            // An empty selection is the whole catalog: not disjoint.
            domains.retain(|d| !d.is_empty());
        }
        let mut windows: Vec<Option<(u64, u64)>> = domains
            .iter()
            .map(|_| {
                if windowed && lcg(&mut s).is_multiple_of(2) {
                    let a = lcg(&mut s) % 10;
                    let b = lcg(&mut s) % 10;
                    Some((last_us * a.min(b) / 8, last_us * a.max(b) / 8))
                } else {
                    None
                }
            })
            .collect();
        let pruned = domains.len();
        domains.push(absent_signals);
        windows.push(None);

        let pipelines: Vec<Pipeline> = domains
            .iter()
            .map(|d| {
                let profile = DomainProfile::new("prop").with_signals(d.clone());
                Pipeline::new(RuleSet::from_network(&data.network), profile)
                    .expect("pipeline builds")
            })
            .collect();
        // Per query, its solo store session's and in-memory trace
        // session's output.
        let want: Vec<[(&str, Vec<String>); 2]> = pipelines
            .iter()
            .zip(&windows)
            .map(|(p, w)| {
                let mut reader =
                    StoreReader::from_reader(Cursor::new(bytes.clone())).expect("open store");
                let mut store = RunOptions::store(&mut reader);
                let mut mem = RunOptions::trace(&trace);
                if let Some((from, to)) = *w {
                    store = store.with_time_window(from, to);
                    mem = mem.with_time_window(from, to);
                }
                [
                    ("store", output_lines(&p.session(store).run().expect("solo run"))),
                    ("trace", output_lines(&p.session(mem).run().expect("trace run"))),
                ]
            })
            .collect();

        let queries: Vec<Query<'_>> = pipelines
            .iter()
            .zip(&windows)
            .map(|(p, w)| match w {
                Some((from, to)) => Query::new(p).with_window(*from, *to),
                None => Query::new(p),
            })
            .collect();
        let mut reader = StoreReader::from_reader(Cursor::new(bytes)).expect("open store");
        let set = Session::many(queries, &mut reader);
        let set = if serial { set.serial() } else { set };
        let multi = set.run_each().expect("shared run");

        prop_assert!(multi.plan.scan.is_some());
        if disjoint {
            prop_assert!(multi.plan.shared_interpret, "disjoint queries share the kernel");
        }
        prop_assert_eq!(multi.results[pruned].stats.rows_routed, 0);
        prop_assert!(multi.results[pruned].output.signals.is_empty());
        for (qi, result) in multi.results.iter().enumerate() {
            let got = output_lines(&result.output);
            for (source, want) in &want[qi] {
                let diff = first_difference(&got, want);
                prop_assert!(
                    diff.is_none(),
                    "serial {}: query {} diverged from its solo {} session at {}",
                    serial,
                    qi,
                    source,
                    diff.unwrap_or_default()
                );
            }
        }
    }
}
