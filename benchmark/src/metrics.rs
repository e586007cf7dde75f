//! Metric names and units — the vocabulary `BENCHMARK.json` declares and
//! later issues cite. A unit test holds the two in step.

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
/// Bounds and directions live in `BENCHMARK.json` only.
pub const END_TO_END: &[(&str, &str)] = &[
    ("job_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("bytes_per_row", "B/row"),
];

/// Layers a span can be named after, in pipeline order.
pub const LAYERS: &[&str] = &[
    "core.tabular",
    "core.interpret",
    "core.split",
    "core.dedup",
    "core.reduce",
    "core.branch",
    "store.scan",
    "store.append",
    "stream.parse",
    "stream.session",
    "plan.exec",
    "cluster.connect",
    "cluster.encode",
    "cluster.decode",
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// metric of a layer the workload never enters reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.tabular.busy_s", "s"),
    ("core.tabular.rows_in", "rows"),
    ("core.interpret.busy_s", "s"),
    ("core.interpret.rows_in", "rows"),
    ("core.interpret.rows_out", "rows"),
    ("core.interpret.admit_ratio", "ratio"),
    ("core.split.busy_s", "s"),
    ("core.split.rows_in", "rows"),
    ("core.split.rows_out", "rows"),
    ("core.dedup.busy_s", "s"),
    ("core.dedup.rows_in", "rows"),
    ("core.dedup.rows_out", "rows"),
    ("core.reduce.busy_s", "s"),
    ("core.reduce.rows_in", "rows"),
    ("core.reduce.rows_out", "rows"),
    ("core.branch.busy_s", "s"),
    ("core.branch.rows_in", "rows"),
    ("core.branch.rows_out", "rows"),
    ("frame.exec.fanout_ratio", "ratio"),
    ("store.scan.busy_s", "s"),
    ("store.scan.chunks_scanned", "count"),
    ("store.scan.chunks_skipped", "count"),
    ("store.scan.skip_ratio", "ratio"),
    ("store.scan.bytes_read", "B"),
    ("store.append.busy_s", "s"),
    ("store.append.flushes", "count"),
    ("store.append.bytes", "B"),
    ("stream.parse.busy_s", "s"),
    ("stream.queue.busy_s", "s"),
    ("stream.queue.backpressure_waits", "count"),
    ("stream.queue.peak_depth", "count"),
    ("stream.session.busy_s", "s"),
    ("stream.session.peak_buffered_rows", "rows"),
    ("stream.session.late_rows", "rows"),
    ("plan.exec.busy_s", "s"),
    ("plan.exec.groups_scanned", "count"),
    ("plan.exec.scans_saved", "count"),
    ("plan.exec.shared_interpret", "count"),
    ("plan.exec.solo_ratio", "ratio"),
    ("cluster.connect.busy_s", "s"),
    ("cluster.encode.busy_s", "s"),
    ("cluster.decode.busy_s", "s"),
    ("cluster.partial_frames", "count"),
    ("cluster.raw_bytes", "B"),
    ("cluster.wire_bytes", "B"),
    ("cluster.retries", "count"),
    ("traced_job_s", "s"),
    ("unattributed_s", "s"),
    ("trace_coverage", "ratio"),
    ("trace_overhead", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workload::Workload;

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    fn ours(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(declared(&doc, "end_to_end"), ours(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), ours(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, names);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{name}: {unit}");
            assert!(seen.insert(*name), "{name} declared twice");
        }
        for layer in LAYERS {
            assert!(
                PER_LAYER
                    .iter()
                    .any(|(n, _)| *n == format!("{layer}.busy_s")),
                "{layer} has no busy_s"
            );
        }
    }
}
