//! Immutable snapshots: deterministic ordering, deltas, merges, and the
//! Prometheus-text / JSON renderers.

use std::collections::BTreeMap;

/// A histogram frozen at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Inclusive bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Non-cumulative per-bucket counts; overflow bucket last
    /// (`bounds.len() + 1` entries).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

/// Aggregated statistics of one span name under one parent.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStat {
    /// Span name.
    pub name: String,
    /// Parent span name; empty for roots.
    pub parent: String,
    /// Times the span ran.
    pub count: u64,
    /// Total seconds across runs.
    pub seconds: f64,
}

/// A point-in-time view of a [`Registry`](crate::Registry): every map is
/// a `BTreeMap`, so iteration — and therefore every rendering — is
/// deterministic regardless of the thread interleaving that produced
/// the underlying metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Span aggregates keyed `parent/name` (or `name` for roots).
    pub spans: BTreeMap<String, SpanStat>,
}

impl Snapshot {
    /// The delta since `baseline`: counters, histogram buckets and span
    /// aggregates subtract (saturating); gauges keep this snapshot's
    /// value. Workers use this to report one session's activity from a
    /// long-lived registry.
    pub fn since(&self, baseline: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| {
                let base = baseline.counters.get(k).copied().unwrap_or(0);
                (k.clone(), v.saturating_sub(base))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let mut h = h.clone();
                if let Some(base) = baseline.histograms.get(k) {
                    for (b, base_b) in h.buckets.iter_mut().zip(&base.buckets) {
                        *b = b.saturating_sub(*base_b);
                    }
                    h.count = h.count.saturating_sub(base.count);
                    h.sum -= base.sum;
                }
                (k.clone(), h)
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|(k, s)| {
                let mut s = s.clone();
                if let Some(base) = baseline.spans.get(k) {
                    s.count = s.count.saturating_sub(base.count);
                    s.seconds -= base.seconds;
                }
                (k.clone(), s)
            })
            .collect();
        Snapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
            spans,
        }
    }

    /// Folds `other` into `self`: counters, histogram buckets and span
    /// aggregates add; gauges take the maximum (they are high-water
    /// marks or last-values — max is the conservative fleet view). The
    /// cluster coordinator uses this to merge worker snapshots.
    pub fn merge(&mut self, other: &Snapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let slot = self.gauges.entry(k.clone()).or_insert(f64::NEG_INFINITY);
            if *v > *slot {
                *slot = *v;
            }
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) if mine.bounds == h.bounds => {
                    for (b, ob) in mine.buckets.iter_mut().zip(&h.buckets) {
                        *b += ob;
                    }
                    mine.count += h.count;
                    mine.sum += h.sum;
                }
                Some(_) => {} // incompatible bounds: keep ours
                None => {
                    self.histograms.insert(k.clone(), h.clone());
                }
            }
        }
        for (k, s) in &other.spans {
            match self.spans.get_mut(k) {
                Some(mine) => {
                    mine.count += s.count;
                    mine.seconds += s.seconds;
                }
                None => {
                    self.spans.insert(k.clone(), s.clone());
                }
            }
        }
    }

    /// Renders the Prometheus text exposition format. Counter and gauge
    /// names may embed labels (`name{k="v"}`); `# TYPE` lines are
    /// emitted once per base name.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let type_line = |out: &mut String, name: &str, kind: &str, typed: &mut Option<String>| {
            let base = name.split('{').next().unwrap_or(name);
            if typed.as_deref() != Some(base) {
                out.push_str(&format!("# TYPE {base} {kind}\n"));
                *typed = Some(base.to_string());
            }
        };
        let mut last_base: Option<String> = None;
        for (name, v) in &self.counters {
            type_line(&mut out, name, "counter", &mut last_base);
            out.push_str(&format!("{name} {v}\n"));
        }
        let mut last_base: Option<String> = None;
        for (name, v) in &self.gauges {
            type_line(&mut out, name, "gauge", &mut last_base);
            out.push_str(&format!("{name} {}\n", fmt_f64(*v)));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cumulative = 0u64;
            for (bound, count) in h.bounds.iter().zip(&h.buckets) {
                cumulative += count;
                out.push_str(&format!(
                    "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                    fmt_f64(*bound)
                ));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{name}_sum {}\n", fmt_f64(h.sum)));
            out.push_str(&format!("{name}_count {}\n", h.count));
        }
        if !self.spans.is_empty() {
            out.push_str("# TYPE ivnt_span_seconds_total counter\n");
            for s in self.spans.values() {
                out.push_str(&format!(
                    "ivnt_span_seconds_total{{name=\"{}\",parent=\"{}\"}} {}\n",
                    escape_label(&s.name),
                    escape_label(&s.parent),
                    fmt_f64(s.seconds)
                ));
            }
            out.push_str("# TYPE ivnt_span_calls_total counter\n");
            for s in self.spans.values() {
                out.push_str(&format!(
                    "ivnt_span_calls_total{{name=\"{}\",parent=\"{}\"}} {}\n",
                    escape_label(&s.name),
                    escape_label(&s.parent),
                    s.count
                ));
            }
        }
        out
    }

    /// Renders a compact JSON document:
    /// `{"counters":{..},"gauges":{..},"histograms":{..},"spans":{..}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        push_entries(&mut out, self.counters.iter(), |out, v| {
            out.push_str(&v.to_string());
        });
        out.push_str("},\"gauges\":{");
        push_entries(&mut out, self.gauges.iter(), |out, v| {
            out.push_str(&json_f64(*v));
        });
        out.push_str("},\"histograms\":{");
        push_entries(&mut out, self.histograms.iter(), |out, h| {
            out.push_str("{\"bounds\":[");
            out.push_str(
                &h.bounds
                    .iter()
                    .map(|b| json_f64(*b))
                    .collect::<Vec<_>>()
                    .join(","),
            );
            out.push_str("],\"buckets\":[");
            out.push_str(
                &h.buckets
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(","),
            );
            out.push_str(&format!(
                "],\"count\":{},\"sum\":{}}}",
                h.count,
                json_f64(h.sum)
            ));
        });
        out.push_str("},\"spans\":{");
        push_entries(&mut out, self.spans.iter(), |out, s| {
            out.push_str(&format!(
                "{{\"name\":{},\"parent\":{},\"count\":{},\"seconds\":{}}}",
                json_string(&s.name),
                json_string(&s.parent),
                s.count,
                json_f64(s.seconds)
            ));
        });
        out.push_str("}}");
        out
    }
}

fn push_entries<'a, V: 'a>(
    out: &mut String,
    entries: impl Iterator<Item = (&'a String, &'a V)>,
    mut render: impl FnMut(&mut String, &V),
) {
    let mut first = true;
    for (k, v) in entries {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&json_string(k));
        out.push(':');
        render(out, v);
    }
}

/// Formats an `f64` for Prometheus text (`+Inf`-style specials allowed).
fn fmt_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else if v.is_nan() {
        "NaN".into()
    } else {
        format!("{v}")
    }
}

/// Formats an `f64` for JSON (non-finite becomes `null`).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Escapes a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Escapes a Prometheus label value: user text (a query label, a signal
/// name) embedded in a counter name must go through it.
pub fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample() -> Snapshot {
        let r = Registry::new();
        r.add("events_total", 7);
        r.add("chunks{result=\"skipped\"}", 3);
        r.set_gauge("peak_rows", 128.0);
        r.observe("stage_seconds", &[0.1, 1.0], 0.05);
        r.observe("stage_seconds", &[0.1, 1.0], 0.5);
        r.record_span("interpret", "run", 0.25);
        r.snapshot()
    }

    #[test]
    fn since_subtracts_and_merge_adds() {
        let base = sample();
        let mut later = sample();
        *later.counters.get_mut("events_total").unwrap() = 12;
        let delta = later.since(&base);
        assert_eq!(delta.counters["events_total"], 5);
        assert_eq!(delta.counters["chunks{result=\"skipped\"}"], 0);

        let mut merged = base.clone();
        merged.merge(&later);
        assert_eq!(merged.counters["events_total"], 19);
        assert_eq!(merged.histograms["stage_seconds"].count, 4);
        assert_eq!(merged.spans["run/interpret"].count, 2);
        assert_eq!(merged.gauges["peak_rows"], 128.0);
    }

    #[test]
    fn prometheus_rendering_is_cumulative_and_typed() {
        let text = sample().to_prometheus();
        assert!(text.contains("# TYPE events_total counter"));
        assert!(text.contains("events_total 7"));
        assert!(text.contains("chunks{result=\"skipped\"} 3"));
        assert!(text.contains("stage_seconds_bucket{le=\"0.1\"} 1"));
        assert!(text.contains("stage_seconds_bucket{le=\"1\"} 2"));
        assert!(text.contains("stage_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("stage_seconds_count 2"));
        assert!(text.contains("ivnt_span_seconds_total{name=\"interpret\",parent=\"run\"} 0.25"));
    }

    #[test]
    fn json_rendering_is_wellformed_enough() {
        let json = sample().to_json();
        assert!(json.starts_with("{\"counters\":{"));
        assert!(json.contains("\"events_total\":7"));
        assert!(json.contains("\"bounds\":[0.1,1]"));
        assert!(json.contains("\"run/interpret\""));
        assert!(json.ends_with("}}"));
        // Balanced braces (a cheap structural check without a parser).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn snapshot_identical_regardless_of_insertion_order() {
        let a = Registry::new();
        a.add("x", 1);
        a.add("y", 2);
        let b = Registry::new();
        b.add("y", 2);
        b.add("x", 1);
        assert_eq!(a.snapshot(), b.snapshot());
    }
}
