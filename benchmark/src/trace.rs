//! In-memory spans for the traced run, self-time accounting, and the
//! Chrome-trace writer.
//!
//! Spans are recorded from the benchmark's own files, around calls into
//! the system's public functions (`layers.rs`); nothing inside the system
//! is instrumented. Every traced job opens one root span named
//! [`ROOT`]; a layer span opened while another is open becomes its child.
//! A span recorded with no root open (a replay estimate, e.g. the codec
//! replay on `cluster.w1`) has no parent and still counts toward its layer.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// Name of the per-job root span.
pub const ROOT: &str = "job";

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub job_id: u32,
    /// Layer name (`core.interpret`, `store.scan`, …) or [`ROOT`].
    pub name: &'static str,
    /// Index of the enclosing span in the tracer's list.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub rows_in: u64,
    pub rows_out: u64,
    pub bytes: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Work counts attached to a span when it closes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub rows_in: u64,
    pub rows_out: u64,
    pub bytes: u64,
}

/// Records spans against one monotonic epoch.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job_id: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job_id: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts the next job; spans recorded from here on carry its id.
    pub fn next_job(&mut self) -> u32 {
        self.job_id += 1;
        self.job_id
    }

    /// Opens a span as a child of the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            job_id: self.job_id,
            name,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
            rows_in: 0,
            rows_out: 0,
            bytes: 0,
        });
        self.open.push(idx);
        idx
    }

    /// Closes span `idx`, which must be the innermost open one.
    pub fn close(&mut self, idx: usize, counts: Counts) {
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans close innermost-first");
        let now = self.now_ns();
        let span = &mut self.spans[idx];
        span.end_ns = now;
        span.rows_in = counts.rows_in;
        span.rows_out = counts.rows_out;
        span.bytes = counts.bytes;
    }

    /// Runs `f` inside a span; `f` returns its result plus the counts.
    pub fn span<R, E>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> Result<(R, Counts), E>,
    ) -> Result<R, E> {
        let idx = self.open(name);
        let out = f(self);
        let (result, counts) = match out {
            Ok((r, c)) => (Ok(r), c),
            Err(e) => (Err(e), Counts::default()),
        };
        self.close(idx, counts);
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// What one traced job spent where.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JobBreakdown {
    /// Duration of the job's root span.
    pub wall_ns: u64,
    /// Per layer: summed self time and summed counts of its spans.
    pub layers: BTreeMap<&'static str, LayerTotals>,
}

#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LayerTotals {
    pub self_ns: u64,
    pub rows_in: u64,
    pub rows_out: u64,
    pub bytes: u64,
}

impl JobBreakdown {
    /// Σ layer self time.
    pub fn attributed_ns(&self) -> u64 {
        self.layers.values().map(|l| l.self_ns).sum()
    }

    /// Root wall minus everything a layer accounts for.
    pub fn unattributed_ns(&self) -> u64 {
        self.wall_ns.saturating_sub(self.attributed_ns())
    }
}

/// Self time of a span = its duration minus the durations of its direct
/// children (children are sequential and lie inside the parent's interval:
/// the staged replay is single-threaded). Every non-root span of `job_id`
/// adds its self time to its layer; the root's own remainder is what stays
/// unattributed.
pub fn breakdown(spans: &[Span], job_id: u32) -> JobBreakdown {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out = JobBreakdown::default();
    for (i, s) in spans.iter().enumerate() {
        if s.job_id != job_id {
            continue;
        }
        if s.name == ROOT {
            out.wall_ns += s.dur_ns();
            continue;
        }
        let layer = out.layers.entry(s.name).or_default();
        layer.self_ns += s.dur_ns().saturating_sub(child_ns[i]);
        layer.rows_in += s.rows_in;
        layer.rows_out += s.rows_out;
        layer.bytes += s.bytes;
    }
    out
}

/// The spans as a Chrome-trace (`chrome://tracing`, Perfetto) document:
/// one complete event per span, one track per job.
pub fn chrome_trace(spans: &[Span], workload: &str) -> Json {
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str(workload)),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                ("pid", Json::count(1)),
                ("tid", Json::count(u64::from(s.job_id))),
                (
                    "args",
                    Json::obj([
                        ("span", Json::count(i as u64)),
                        ("job_id", Json::count(u64::from(s.job_id))),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::count(p as u64)),
                        ),
                        ("start_ns", Json::count(s.start_ns)),
                        ("end_ns", Json::count(s.end_ns)),
                        ("rows_in", Json::count(s.rows_in)),
                        ("rows_out", Json::count(s.rows_out)),
                        ("bytes", Json::count(s.bytes)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(job: u32, name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            job_id: job,
            name,
            parent,
            start_ns: start,
            end_ns: end,
            rows_in: 1,
            rows_out: 2,
            bytes: 3,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span(1, ROOT, None, 0, 1000),                 // 0
            span(1, "store.scan", Some(0), 100, 700),     // 1: two children, one grandchild
            span(1, "core.interpret", Some(1), 150, 350), // 2
            span(1, "store.scan", Some(2), 200, 250),     // 3: same layer, nested deeper
            span(1, "core.interpret", Some(1), 400, 600), // 4: sibling of 2
            span(1, "core.split", Some(0), 700, 900),     // 5: sibling of 1
            span(2, ROOT, None, 1000, 1500),              // other job: ignored
            span(2, "core.split", Some(6), 1000, 1400),
        ];
        let b = breakdown(&spans, 1);
        assert_eq!(b.wall_ns, 1000);
        // scan: (600 - 200 - 200) + the nested 50
        assert_eq!(b.layers["store.scan"].self_ns, 250);
        // interpret: (200 - 50) + 200
        assert_eq!(b.layers["core.interpret"].self_ns, 350);
        assert_eq!(b.layers["core.split"].self_ns, 200);
        assert_eq!(b.attributed_ns(), 800);
        assert_eq!(b.unattributed_ns(), 200);
        assert_eq!(b.layers["store.scan"].rows_in, 2);
        assert_eq!(b.layers["core.interpret"].bytes, 6);
        assert_eq!(breakdown(&spans, 2).unattributed_ns(), 100);
    }

    #[test]
    fn parentless_replay_spans_count_toward_their_layer() {
        let spans = vec![
            span(1, ROOT, None, 0, 1000),
            span(1, "cluster.encode", None, 1000, 1300),
            span(1, "cluster.decode", None, 1300, 1400),
        ];
        let b = breakdown(&spans, 1);
        assert_eq!(b.wall_ns, 1000);
        assert_eq!(b.attributed_ns(), 400);
        assert_eq!(b.unattributed_ns(), 600);
    }

    #[test]
    fn tracer_links_parents_and_keeps_counts() {
        let mut t = Tracer::new();
        let job = t.next_job();
        let root = t.open(ROOT);
        let got: Result<u32, ()> = t.span("core.split", |t| {
            let inner = t.open("core.dedup");
            t.close(inner, Counts::default());
            Ok((
                7,
                Counts {
                    rows_in: 10,
                    rows_out: 4,
                    bytes: 0,
                },
            ))
        });
        t.close(root, Counts::default());
        assert_eq!(got, Ok(7));
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.job_id == job));
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!((spans[1].rows_in, spans[1].rows_out), (10, 4));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let doc = chrome_trace(spans, "w");
        assert_eq!(doc.get("traceEvents").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(Json::parse(&doc.to_string()).unwrap(), doc);
    }
}
