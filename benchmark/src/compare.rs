//! `--compare A.json B.json`: applies the bounds `BENCHMARK.json` fixes to
//! two result files, one row per (end-to-end metric, workload).

use std::collections::BTreeMap;

use crate::json::Json;
use crate::stats;

/// An end-to-end metric's regression rule, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub metric: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of A's median by which B may be worse.
    pub bound: f64,
}

/// Reads the `end_to_end` list of a parsed `BENCHMARK.json`.
pub fn bounds(benchmark: &Json) -> Option<Vec<Bound>> {
    benchmark
        .get("end_to_end")?
        .as_arr()?
        .iter()
        .map(|m| {
            Some(Bound {
                metric: m.get("name")?.as_str()?.to_string(),
                unit: m.get("unit")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// Run-to-run quartile spread exceeds the bound (or the two files
    /// measured different inputs): neither "unchanged" nor "worse" can be
    /// claimed.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One (metric, workload) comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    /// A's median — the base of `ratio`.
    pub base: f64,
    pub other: f64,
    /// B's median over A's.
    pub ratio: f64,
    /// The wider of the two files' interquartile range over median.
    pub spread: f64,
    pub runs: (usize, usize),
    pub bound: f64,
    pub verdict: Verdict,
}

/// Judges B's samples against A's under `bound`.
pub fn judge(a: &[f64], b: &[f64], bound: &Bound) -> (f64, f64, f64, Verdict) {
    let (base, other) = (stats::median(a), stats::median(b));
    let spread = stats::spread(a).max(stats::spread(b));
    let worsening = if bound.lower_is_better {
        (other - base) / base.abs()
    } else {
        (base - other) / base.abs()
    };
    let verdict = if spread > bound.bound {
        Verdict::Unresolved
    } else if worsening > bound.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (base, other, spread, verdict)
}

/// Untraced runs of a result file: per workload, per metric, the values
/// of its runs; and per workload the `(seed, input checksum)` pairs.
struct Runs {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    inputs: BTreeMap<String, BTreeMap<u64, String>>,
    order: Vec<String>,
}

fn collect(result: &Json) -> Option<Runs> {
    let mut runs = Runs {
        values: BTreeMap::new(),
        inputs: BTreeMap::new(),
        order: Vec::new(),
    };
    for run in result.get("runs")?.as_arr()? {
        if run.get("trace")?.as_u64()? != 0 {
            continue;
        }
        let workload = run.get("workload")?.as_str()?.to_string();
        if !runs.order.contains(&workload) {
            runs.order.push(workload.clone());
        }
        runs.inputs.entry(workload.clone()).or_default().insert(
            run.get("seed")?.as_u64()?,
            run.get("input_fnv")?.as_str()?.to_string(),
        );
        let per_metric = runs.values.entry(workload).or_default();
        for (name, m) in run.get("metrics")?.as_obj()? {
            per_metric
                .entry(name.clone())
                .or_default()
                .push(m.get("value")?.as_f64()?);
        }
    }
    Some(runs)
}

/// Compares result file `b` against `a`. A (metric, workload) pair missing
/// from either side is an error: the files must cover the same runs.
pub fn compare(a: &Json, b: &Json, bounds: &[Bound]) -> Result<Vec<Row>, String> {
    let ra = collect(a).ok_or("A is not a result file")?;
    let rb = collect(b).ok_or("B is not a result file")?;
    let mut rows = Vec::new();
    for workload in &ra.order {
        // A seed both files ran must have produced the same input, or the
        // two sides measured different loads.
        let same_load = rb.inputs.get(workload).is_some_and(|ib| {
            ra.inputs[workload]
                .iter()
                .all(|(seed, fnv)| ib.get(seed).is_none_or(|other| other == fnv))
        });
        for bound in bounds {
            let va = ra.values[workload]
                .get(&bound.metric)
                .ok_or_else(|| format!("A: {workload} has no {}", bound.metric))?;
            let vb = rb
                .values
                .get(workload)
                .and_then(|m| m.get(&bound.metric))
                .ok_or_else(|| format!("B: {workload} has no {}", bound.metric))?;
            let (base, other, spread, verdict) = judge(va, vb, bound);
            rows.push(Row {
                workload: workload.clone(),
                metric: bound.metric.clone(),
                unit: bound.unit.clone(),
                base,
                other,
                ratio: other / base,
                spread,
                runs: (va.len(), vb.len()),
                bound: bound.bound,
                verdict: if same_load {
                    verdict
                } else {
                    Verdict::Unresolved
                },
            });
        }
    }
    Ok(rows)
}

/// Exit code of a comparison: 0 all ok, 1 something worse, 2 nothing
/// worse but something unresolved.
pub fn exit_code(rows: &[Row]) -> i32 {
    if rows.iter().any(|r| r.verdict == Verdict::Worse) {
        1
    } else if rows.iter().any(|r| r.verdict == Verdict::Unresolved) {
        2
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            metric: "job_s".into(),
            unit: "s".into(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn within_bound_is_ok_beyond_is_worse() {
        let a = [1.00, 1.01, 0.99, 1.00];
        assert_eq!(
            judge(&a, &[1.05, 1.06, 1.05, 1.04], &lower(0.10)).3,
            Verdict::Ok
        );
        assert_eq!(
            judge(&a, &[1.15, 1.16, 1.15, 1.14], &lower(0.10)).3,
            Verdict::Worse
        );
        // Faster is never worse.
        assert_eq!(
            judge(&a, &[0.5, 0.5, 0.5, 0.5], &lower(0.10)).3,
            Verdict::Ok
        );
    }

    #[test]
    fn direction_flips_for_higher_is_better() {
        let higher = Bound {
            lower_is_better: false,
            ..lower(0.10)
        };
        assert_eq!(judge(&[100.0; 4], &[80.0; 4], &higher).3, Verdict::Worse);
        assert_eq!(judge(&[100.0; 4], &[120.0; 4], &higher).3, Verdict::Ok);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        // IQR/median of A is far above the 10 % bound.
        let a = [1.0, 1.4, 0.7, 1.2, 0.8];
        assert_eq!(judge(&a, &[1.0; 5], &lower(0.10)).3, Verdict::Unresolved);
        // ... and hides even a real regression: still unresolved, not worse.
        assert_eq!(judge(&a, &[1.5; 5], &lower(0.10)).3, Verdict::Unresolved);
        // A single run per side has no spread to object to.
        assert_eq!(judge(&[1.0], &[1.05], &lower(0.10)).3, Verdict::Ok);
    }

    fn file(job_s: &[f64], fnv: &str) -> Json {
        let runs = job_s
            .iter()
            .enumerate()
            .map(|(seed, v)| {
                Json::obj([
                    ("workload", Json::str("journey.mem")),
                    ("seed", Json::count(seed as u64)),
                    ("trace", Json::count(0)),
                    ("input_fnv", Json::str(fnv)),
                    (
                        "metrics",
                        Json::obj([(
                            "job_s",
                            Json::obj([("value", Json::Num(*v)), ("unit", Json::str("s"))]),
                        )]),
                    ),
                ])
            })
            .collect();
        Json::obj([("runs", Json::Arr(runs)), ("claim", Json::Null)])
    }

    #[test]
    fn files_compare_per_workload_and_metric() {
        let a = file(&[1.0, 1.01, 0.99, 1.0], "aa");
        let rows = compare(&a, &file(&[1.2, 1.21, 1.19, 1.2], "aa"), &[lower(0.10)]).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Verdict::Worse);
        assert!((rows[0].ratio - 1.2).abs() < 1e-9);
        assert_eq!(rows[0].runs, (4, 4));
        assert_eq!(exit_code(&rows), 1);

        let same = compare(&a, &a, &[lower(0.10)]).unwrap();
        assert_eq!(exit_code(&same), 0);
        // Same seeds, different input bytes: the load changed under us.
        let moved = compare(&a, &file(&[1.0, 1.01, 0.99, 1.0], "bb"), &[lower(0.10)]).unwrap();
        assert_eq!(moved[0].verdict, Verdict::Unresolved);
        assert_eq!(exit_code(&moved), 2);
        // A metric the bound names but a file lacks is an error, not a pass.
        let other = Bound {
            metric: "setup_s".into(),
            ..lower(0.10)
        };
        assert!(compare(&a, &a, &[other]).is_err());
    }

    #[test]
    fn bounds_parse_from_benchmark_json() {
        let doc = Json::parse(
            r#"{"end_to_end":[{"name":"job_s","unit":"s","better":"lower","bound":0.1}]}"#,
        )
        .unwrap();
        assert_eq!(bounds(&doc), Some(vec![lower(0.1)]));
    }
}
