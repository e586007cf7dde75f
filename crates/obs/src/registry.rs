//! The metrics registry: named metric instances plus span records.
//!
//! Name lookups take a read lock on a `BTreeMap` and return `Arc`
//! handles; hot code resolves a handle once (per scan, per job) and then
//! pays only the metric's own relaxed atomics. Names may embed
//! Prometheus-style labels (`store_scan_chunks{result="skipped"}`) —
//! the registry treats the whole string as the key and the renderers
//! pass it through.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, RwLock};

use crate::metrics::{Counter, Gauge, Histogram};
use crate::snapshot::{HistogramSnapshot, Snapshot, SpanStat};

/// One finished span: a named, timed region with optional parent
/// attribution.
#[derive(Debug, Clone)]
struct SpanRecord {
    name: String,
    parent: String,
    seconds: f64,
}

/// The registry: a subscriber's mutable half. Install one with
/// [`crate::install`]; read it out with [`Registry::snapshot`].
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
    spans: Mutex<Vec<SpanRecord>>,
    /// Instrumentation operations performed against this registry —
    /// the event count the overhead bench multiplies by the disabled
    /// per-op cost (surfaced as `obs_ops_total` in snapshots).
    ops: Counter,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self
            .counters
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
        {
            return Arc::clone(c);
        }
        let mut map = self.counters.write().unwrap_or_else(|e| e.into_inner());
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = self
            .gauges
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
        {
            return Arc::clone(g);
        }
        let mut map = self.gauges.write().unwrap_or_else(|e| e.into_inner());
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The histogram named `name`, created on first use with `bounds`
    /// (an existing histogram keeps its original bounds).
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        if let Some(h) = self
            .histograms
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
        {
            return Arc::clone(h);
        }
        let mut map = self.histograms.write().unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new(bounds))),
        )
    }

    /// Adds `v` to counter `name`.
    pub fn add(&self, name: &str, v: u64) {
        self.ops.add(1);
        self.counter(name).add(v);
    }

    /// Sets gauge `name` to `v`.
    pub fn set_gauge(&self, name: &str, v: f64) {
        self.ops.add(1);
        self.gauge(name).set(v);
    }

    /// Raises gauge `name` to `v` if larger (high-water mark).
    pub fn gauge_max(&self, name: &str, v: f64) {
        self.ops.add(1);
        self.gauge(name).set_max(v);
    }

    /// Records one observation into histogram `name` (created with
    /// `bounds` on first use).
    pub fn observe(&self, name: &str, bounds: &[f64], v: f64) {
        self.ops.add(1);
        self.histogram(name, bounds).observe(v);
    }

    /// Records a finished span of `seconds` under `name`, attributed to
    /// `parent` (empty string = root). Explicit attribution works across
    /// threads — the pipeline's fan-out stages use it (through
    /// [`Stopwatch`](crate::Stopwatch)).
    pub fn record_span(&self, name: &str, parent: &str, seconds: f64) {
        self.ops.add(1);
        let mut spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        spans.push(SpanRecord {
            name: name.to_string(),
            parent: parent.to_string(),
            seconds,
        });
    }

    /// Instrumentation operations recorded so far.
    pub fn ops(&self) -> u64 {
        self.ops.get()
    }

    /// A point-in-time, deterministically ordered snapshot: counter
    /// shards merged, spans aggregated per `(name, parent)`.
    pub fn snapshot(&self) -> Snapshot {
        let counters: BTreeMap<String, u64> = self
            .counters
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges: BTreeMap<String, f64> = self
            .gauges
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms: BTreeMap<String, HistogramSnapshot> = self
            .histograms
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, h)| {
                (
                    k.clone(),
                    HistogramSnapshot {
                        bounds: h.bounds().to_vec(),
                        buckets: h.bucket_counts(),
                        count: h.count(),
                        sum: h.sum(),
                    },
                )
            })
            .collect();
        let mut spans: BTreeMap<String, SpanStat> = BTreeMap::new();
        for rec in self.spans.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            let key = if rec.parent.is_empty() {
                rec.name.clone()
            } else {
                format!("{}/{}", rec.parent, rec.name)
            };
            let stat = spans.entry(key).or_insert_with(|| SpanStat {
                name: rec.name.clone(),
                parent: rec.parent.clone(),
                count: 0,
                seconds: 0.0,
            });
            stat.count += 1;
            stat.seconds += rec.seconds;
        }
        let mut snap = Snapshot {
            counters,
            gauges,
            histograms,
            spans,
        };
        snap.counters.insert("obs_ops_total".into(), self.ops.get());
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_created_once_and_summed() {
        let r = Registry::new();
        r.add("a", 2);
        r.add("a", 3);
        r.add("b{k=\"v\"}", 1);
        let snap = r.snapshot();
        assert_eq!(snap.counters["a"], 5);
        assert_eq!(snap.counters["b{k=\"v\"}"], 1);
        // add + add + add = 3 instrumentation ops.
        assert_eq!(snap.counters["obs_ops_total"], 3);
    }

    #[test]
    fn histogram_keeps_first_bounds() {
        let r = Registry::new();
        r.observe("h", &[1.0, 2.0], 0.5);
        r.observe("h", &[99.0], 1.5); // different bounds: ignored
        let snap = r.snapshot();
        assert_eq!(snap.histograms["h"].bounds, vec![1.0, 2.0]);
        assert_eq!(snap.histograms["h"].buckets, vec![1, 1, 0]);
    }

    #[test]
    fn explicit_span_attribution() {
        let r = Registry::new();
        r.record_span("dedup", "run", 0.25);
        r.record_span("dedup", "run", 0.75);
        let snap = r.snapshot();
        let stat = &snap.spans["run/dedup"];
        assert_eq!(stat.count, 2);
        assert!((stat.seconds - 1.0).abs() < 1e-12);
    }
}
