//! Type-dependent processing branches α, β, γ (Algorithm 1, lines 13–28).
//!
//! Every branch transforms a reduced sequence `K_red` into rows of the
//! *homogeneous representation*: one symbol (plus optional trend and
//! numeric value) per retained instance, with outliers flagged and merged
//! back as potential errors.

use std::collections::HashMap;
use std::sync::Arc;

use ivnt_frame::prelude::*;
use ivnt_series::outlier;
use ivnt_series::sax;
use ivnt_series::smooth;
use ivnt_series::swab::{swab, SwabConfig};
use ivnt_series::trend::{classify_slope, Trend};

use crate::classify::{Branch, Classification};
use crate::error::Result;
use crate::rules::Rule;
use crate::split::SignalSequence;
use crate::tabular::columns as c;

/// Column names of the homogeneous representation.
pub mod res_columns {
    /// Symbol (SAX letter, label, level, or `"outlier"`).
    pub const SYMBOL: &str = "symbol";
    /// Trend label (`increasing`/`steady`/`decreasing`), null where not
    /// applicable.
    pub const TREND: &str = "trend";
    /// Original numeric value (or ordinal rank), null for pure labels.
    pub const VALUE: &str = "value";
    /// Outlier flag.
    pub const OUTLIER: &str = "outlier";
}

/// Schema of the homogeneous per-signal result `K_res`:
/// `(t, s_id, b_id, symbol, trend, value, outlier)`.
pub fn homogeneous_schema() -> Arc<Schema> {
    Schema::from_pairs([
        (c::T, DataType::Float),
        (c::SIGNAL, DataType::Str),
        (c::BUS, DataType::Str),
        (res_columns::SYMBOL, DataType::Str),
        (res_columns::TREND, DataType::Str),
        (res_columns::VALUE, DataType::Float),
        (res_columns::OUTLIER, DataType::Bool),
    ])
    .expect("static schema is valid")
    .into_shared()
}

/// Outlier detector selection for branches α and β.
#[derive(Debug, Clone, PartialEq)]
pub enum OutlierMethod {
    /// Skip outlier detection.
    None,
    /// Global z-score threshold.
    ZScore {
        /// Mark |z| above this.
        threshold: f64,
    },
    /// Rolling-median Hampel filter.
    Hampel {
        /// Window size.
        window: usize,
        /// Robust sigma multiplier.
        n_sigmas: f64,
    },
    /// Tukey fences.
    Iqr {
        /// IQR multiplier.
        k: f64,
    },
}

impl OutlierMethod {
    fn mask(&self, data: &[f64]) -> Vec<bool> {
        match self {
            OutlierMethod::None => vec![false; data.len()],
            OutlierMethod::ZScore { threshold } => outlier::zscore_outliers(data, *threshold),
            OutlierMethod::Hampel { window, n_sigmas } => {
                outlier::hampel_outliers(data, *window, *n_sigmas)
            }
            OutlierMethod::Iqr { k } => outlier::iqr_outliers(data, *k),
        }
    }
}

/// Parameters of the three processing branches.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchConfig {
    /// Outlier detection for α and β.
    pub outlier: OutlierMethod,
    /// Moving-average window applied before segmentation in α (≤1 = off).
    pub smoothing_window: usize,
    /// SWAB residual error budget (α), on z-normalized values.
    pub swab_max_error: f64,
    /// SWAB sliding buffer length (α).
    pub swab_buffer: usize,
    /// SAX alphabet size (α).
    pub sax_alphabet: usize,
    /// Slope threshold separating steady from rising/falling trends, on
    /// z-normalized values per step.
    pub trend_threshold: f64,
    /// Labels expressing validity rather than function (`z_aff = V`),
    /// e.g. `"invalid"`, `"error"` — split off in β and γ.
    pub validity_labels: Vec<String>,
}

impl Default for BranchConfig {
    fn default() -> Self {
        BranchConfig {
            outlier: OutlierMethod::ZScore { threshold: 3.5 },
            smoothing_window: 3,
            swab_max_error: 2.0,
            swab_buffer: 64,
            sax_alphabet: 5,
            trend_threshold: 0.02,
            validity_labels: vec!["invalid".into(), "error".into()],
        }
    }
}

/// Processes one classified sequence through its branch, producing `K_res`.
///
/// The interpretation rule (when supplied) provides the label ranking used
/// by β's numeric translation of string ordinals.
///
/// # Errors
///
/// Propagates tabular-engine failures.
pub fn process(
    seq: &SignalSequence,
    classification: &Classification,
    rule: Option<&Rule>,
    config: &BranchConfig,
) -> Result<DataFrame> {
    match classification.branch {
        Branch::Alpha => process_alpha(seq, config),
        Branch::Beta => process_beta(seq, rule, config),
        Branch::Gamma => process_gamma(seq, config),
    }
}

/// One output row under construction. Symbols are shared `Arc<str>`s so
/// label-heavy sequences reuse one allocation per distinct symbol.
struct ResRow {
    t: f64,
    symbol: Arc<str>,
    trend: Option<Trend>,
    value: Option<f64>,
    outlier: bool,
}

/// Builds `K_res` directly as typed columns — one pass, no per-cell
/// `Value` boxing. `s_id` and `b_id` are one dictionary entry each, trends
/// three fixed ones, and symbols the rows' own cells in order.
fn emit(seq: &SignalSequence, rows: Vec<ResRow>) -> Result<DataFrame> {
    let channel: Arc<str> = seq
        .channels()?
        .into_iter()
        .next()
        .unwrap_or_default()
        .into();
    let signal: Arc<str> = seq.signal.as_str().into();
    let trends: Arc<[Arc<str>]> = [Trend::Decreasing, Trend::Steady, Trend::Increasing]
        .map(|t| Arc::from(t.to_string()))
        .into();
    let trend_code = |t: Trend| match t {
        Trend::Decreasing => 0,
        Trend::Steady => 1,
        Trend::Increasing => 2,
    };
    let n = rows.len();
    let mut t: Vec<Option<f64>> = Vec::with_capacity(n);
    let mut symbol: Vec<Option<Arc<str>>> = Vec::with_capacity(n);
    let mut trend: Vec<u32> = Vec::with_capacity(n);
    let mut value: Vec<Option<f64>> = Vec::with_capacity(n);
    let mut outlier: Vec<Option<bool>> = Vec::with_capacity(n);
    for r in rows {
        t.push(Some(r.t));
        symbol.push(Some(r.symbol));
        trend.push(r.trend.map_or(DictColumn::NULL, trend_code));
        value.push(r.value);
        outlier.push(Some(r.outlier));
    }
    let schema = homogeneous_schema();
    let batch = Batch::new(
        schema.clone(),
        vec![
            Column::Float(t),
            Column::Str(DictColumn::new(vec![0; n], Arc::from([signal]))?),
            Column::Str(DictColumn::new(vec![0; n], Arc::from([channel]))?),
            Column::Str(DictColumn::from_cells(symbol)),
            Column::Str(DictColumn::new(trend, trends)?),
            Column::Float(value),
            Column::Bool(outlier),
        ],
    )?;
    Ok(DataFrame::from_partitions(schema, vec![batch])?)
}

/// Branch α (lines 14–19): outlier split → smoothing → SWAB → SAX, then the
/// outliers are merged back as potential errors.
fn process_alpha(seq: &SignalSequence, config: &BranchConfig) -> Result<DataFrame> {
    let times = seq.times()?;
    let nums = seq.numeric_values()?;

    // Instances without a numeric value (decode failures) count as outliers.
    let numeric_idx: Vec<usize> = (0..nums.len()).filter(|&i| nums[i].is_some()).collect();
    let values: Vec<f64> = numeric_idx.iter().map(|&i| nums[i].unwrap()).collect();
    let outlier_mask = config.outlier.mask(&values);

    let clean_idx: Vec<usize> = numeric_idx
        .iter()
        .zip(&outlier_mask)
        .filter(|(_, &m)| !m)
        .map(|(&i, _)| i)
        .collect();
    let clean: Vec<f64> = clean_idx.iter().map(|&i| nums[i].unwrap()).collect();

    // Smooth, z-normalize, segment, symbolize.
    let smoothed = smooth::moving_average(&clean, config.smoothing_window);
    let z = ivnt_series::stats::znormalize(&smoothed);
    let segments = swab(
        &z,
        SwabConfig {
            max_error: config.swab_max_error,
            buffer_len: config.swab_buffer,
        },
    );
    let breakpoints = sax::breakpoints(config.sax_alphabet);

    // Map each clean position to its segment's (symbol, trend).
    let mut seg_of = vec![usize::MAX; clean.len()];
    for (si, s) in segments.iter().enumerate() {
        seg_of[s.start..s.end].fill(si);
    }
    let seg_symbol: Vec<Arc<str>> = segments
        .iter()
        .map(|s| {
            sax::symbol_for(s.mean_value(), &breakpoints)
                .to_string()
                .into()
        })
        .collect();
    let seg_trend: Vec<Trend> = segments
        .iter()
        .map(|s| classify_slope(s.slope, config.trend_threshold))
        .collect();

    let mut rows: Vec<ResRow> = Vec::with_capacity(nums.len());
    let mut clean_pos = 0usize;
    let mut numeric_pos = 0usize;
    for i in 0..nums.len() {
        match nums[i] {
            Some(v) => {
                let is_outlier = outlier_mask[numeric_pos];
                numeric_pos += 1;
                if is_outlier {
                    rows.push(ResRow {
                        t: times[i],
                        symbol: "outlier".into(),
                        trend: None,
                        value: Some(v),
                        outlier: true,
                    });
                } else {
                    let si = seg_of[clean_pos];
                    clean_pos += 1;
                    rows.push(ResRow {
                        t: times[i],
                        symbol: seg_symbol[si].clone(),
                        trend: Some(seg_trend[si]),
                        value: Some(v),
                        outlier: false,
                    });
                }
            }
            None => rows.push(ResRow {
                t: times[i],
                symbol: "outlier".into(),
                trend: None,
                value: None,
                outlier: true,
            }),
        }
    }
    emit(seq, rows)
}

/// Branch β (lines 20–25): split functional/validity on `z_aff`, translate
/// labels to their numeric rank, detect outliers, attach the gradient
/// trend, merge validity and outliers back.
fn process_beta(
    seq: &SignalSequence,
    rule: Option<&Rule>,
    config: &BranchConfig,
) -> Result<DataFrame> {
    let times = seq.times()?;
    let nums = seq.numeric_values()?;
    let texts = seq.text_values()?;

    let ranks: HashMap<String, f64> = rule
        .map(|r| {
            r.info
                .spec
                .enumeration()
                .values()
                .enumerate()
                .map(|(i, label)| (label.clone(), i as f64))
                .collect()
        })
        .unwrap_or_default();

    // Functional part: numeric equivalent per instance; validity labels
    // split off (`K_V`).
    #[derive(Clone, Copy, PartialEq)]
    enum Kind {
        Functional(f64),
        Validity,
        Undecodable,
    }
    let kinds: Vec<Kind> = (0..times.len())
        .map(|i| {
            if let Some(text) = &texts[i] {
                if config.validity_labels.iter().any(|v| v.as_str() == &**text) {
                    Kind::Validity
                } else if let Some(&rank) = ranks.get(&**text) {
                    Kind::Functional(rank)
                } else {
                    // Unknown label without a rank: fall back to validity
                    // handling (passthrough label).
                    Kind::Validity
                }
            } else if let Some(v) = nums[i] {
                Kind::Functional(v)
            } else {
                Kind::Undecodable
            }
        })
        .collect();

    let functional: Vec<f64> = kinds
        .iter()
        .filter_map(|k| match k {
            Kind::Functional(v) => Some(*v),
            _ => None,
        })
        .collect();
    let outlier_mask = config.outlier.mask(&functional);
    let gradient = ivnt_series::trend::point_gradient(&functional);

    let mut rows = Vec::with_capacity(times.len());
    let mut fpos = 0usize;
    for i in 0..times.len() {
        match kinds[i] {
            Kind::Functional(v) => {
                let is_outlier = outlier_mask[fpos];
                let g = gradient[fpos];
                fpos += 1;
                let symbol: Arc<str> = match &texts[i] {
                    Some(label) => label.clone(),
                    None => format!("{v}").into(),
                };
                if is_outlier {
                    rows.push(ResRow {
                        t: times[i],
                        symbol: "outlier".into(),
                        trend: None,
                        value: Some(v),
                        outlier: true,
                    });
                } else {
                    rows.push(ResRow {
                        t: times[i],
                        symbol,
                        trend: Some(classify_slope(g, config.trend_threshold)),
                        value: Some(v),
                        outlier: false,
                    });
                }
            }
            Kind::Validity => rows.push(ResRow {
                t: times[i],
                symbol: texts[i].clone().unwrap_or_else(|| "invalid".into()),
                trend: None,
                value: None,
                outlier: false,
            }),
            Kind::Undecodable => rows.push(ResRow {
                t: times[i],
                symbol: "outlier".into(),
                trend: None,
                value: None,
                outlier: true,
            }),
        }
    }
    emit(seq, rows)
}

/// Branch γ (lines 26–28): no transformation — values pass through as
/// nominal symbols, with the same validity split as β.
fn process_gamma(seq: &SignalSequence, config: &BranchConfig) -> Result<DataFrame> {
    let times = seq.times()?;
    let nums = seq.numeric_values()?;
    let texts = seq.text_values()?;
    let mut rows = Vec::with_capacity(times.len());
    for i in 0..times.len() {
        let (symbol, value): (Arc<str>, Option<f64>) = match (&texts[i], nums[i]) {
            (Some(label), _) => (label.clone(), None),
            (None, Some(v)) => (format!("{v}").into(), Some(v)),
            (None, None) => ("outlier".into(), None),
        };
        let outlier_row = texts[i].is_none() && nums[i].is_none();
        let _ = &config.validity_labels; // validity labels pass through unchanged
        rows.push(ResRow {
            t: times[i],
            symbol,
            trend: None,
            value,
            outlier: outlier_row,
        });
    }
    emit(seq, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{classify, ClassifyConfig};
    use crate::interpret::signal_schema;
    use crate::rules::{RuleInfo, RuleSet};
    use ivnt_protocol::signal::SignalSpec;

    fn seq(rows: Vec<(f64, Option<f64>, Option<&str>)>) -> SignalSequence {
        let frame = DataFrame::from_rows(
            signal_schema(),
            rows.into_iter().map(|(t, n, s)| {
                vec![
                    Value::Float(t),
                    Value::from("x"),
                    Value::from("FC"),
                    Value::from(n),
                    match s {
                        Some(s) => Value::from(s),
                        None => Value::Null,
                    },
                ]
            }),
        )
        .unwrap();
        SignalSequence {
            signal: "x".into(),
            frame,
        }
    }

    fn run(seq: &SignalSequence, comparable: bool) -> DataFrame {
        let class = classify(seq, comparable, &ClassifyConfig::default()).unwrap();
        process(seq, &class, None, &BranchConfig::default()).unwrap()
    }

    #[test]
    fn alpha_symbolizes_and_flags_outliers() {
        // Fast ramp with one huge spike.
        let mut rows: Vec<(f64, Option<f64>, Option<&str>)> = (0..100)
            .map(|i| (i as f64 * 0.01, Some(i as f64), None))
            .collect();
        rows[50].1 = Some(100_000.0);
        let s = seq(rows);
        let out = run(&s, true);
        assert_eq!(out.num_rows(), 100);
        let outliers: Vec<Value> = out.column_values(res_columns::OUTLIER).unwrap();
        assert_eq!(
            outliers
                .iter()
                .filter(|v| v.as_bool() == Some(true))
                .count(),
            1
        );
        // Symbols move from low letters to high letters along the ramp.
        let symbols: Vec<Value> = out.column_values(res_columns::SYMBOL).unwrap();
        let first = symbols[0].as_str().unwrap().to_string();
        let last = symbols[99].as_str().unwrap().to_string();
        assert!(first < last, "{first} !< {last}");
        // Rising ramp: most rows classified increasing.
        let trends = out.column_values(res_columns::TREND).unwrap();
        let rising = trends
            .iter()
            .filter(|v| v.as_str() == Some("increasing"))
            .count();
        assert!(rising > 60, "rising only {rising}");
    }

    #[test]
    fn alpha_handles_undecodable_as_outlier() {
        let mut rows: Vec<(f64, Option<f64>, Option<&str>)> = (0..20)
            .map(|i| (i as f64 * 0.01, Some((i % 5) as f64), None))
            .collect();
        rows[3].1 = None;
        let s = seq(rows);
        let out = run(&s, true);
        let row3 = out.collect_rows().unwrap()[3].clone();
        assert_eq!(row3[3], Value::from("outlier"));
        assert_eq!(row3[6], Value::Bool(true));
    }

    #[test]
    fn beta_ranks_labels_and_splits_validity() {
        let s = SignalSequence {
            signal: "heat".into(),
            frame: seq(vec![
                (0.0, None, Some("low")),
                (10.0, None, Some("medium")),
                (20.0, None, Some("invalid")),
                (30.0, None, Some("high")),
            ])
            .frame,
        };
        let spec = SignalSpec::builder("heat", 0, 2)
            .labels([(0u64, "low"), (1, "medium"), (2, "high")])
            .build()
            .unwrap();
        let mut rs = RuleSet::new();
        rs.push(crate::rules::Rule {
            signal: "heat".into(),
            bus: "K-LIN".into(),
            message_id: 20,
            info: RuleInfo {
                spec,
                packing: crate::rules::Packing::Fixed {
                    first_byte: 0,
                    num_bytes: 1,
                },
                home_channel: true,
                comparable: true,
                expected_cycle_s: None,
            },
        });
        let class = classify(&s, true, &ClassifyConfig::default()).unwrap();
        assert_eq!(class.branch, Branch::Beta);
        let out = process(&s, &class, Some(&rs.rules()[0]), &BranchConfig::default()).unwrap();
        let rows = out.collect_rows().unwrap();
        // Functional rows carry rank values and trends.
        assert_eq!(rows[0][3], Value::from("low"));
        assert_eq!(rows[0][5], Value::Float(0.0));
        assert_eq!(rows[1][3], Value::from("medium"));
        assert_eq!(rows[1][5], Value::Float(1.0));
        assert_eq!(rows[1][4], Value::from("increasing"));
        // Validity row passes through without value/trend.
        assert_eq!(rows[2][3], Value::from("invalid"));
        assert!(rows[2][5].is_null());
        assert!(rows[2][4].is_null());
        // high has rank 2.
        assert_eq!(rows[3][5], Value::Float(2.0));
    }

    #[test]
    fn beta_numeric_levels_get_gradient() {
        let s = seq(vec![
            (0.0, Some(1.0), None),
            (10.0, Some(2.0), None),
            (20.0, Some(5.0), None),
            (30.0, Some(3.0), None),
        ]);
        let out = run(&s, true);
        let rows = out.collect_rows().unwrap();
        assert_eq!(rows[1][4], Value::from("increasing"));
        assert_eq!(rows[3][4], Value::from("decreasing"));
        assert_eq!(rows[0][4], Value::from("steady")); // first gradient is 0
    }

    #[test]
    fn gamma_passthrough() {
        let s = seq(vec![(1.4, None, Some("ON")), (22.2, None, Some("OFF"))]);
        let out = run(&s, true);
        let rows = out.collect_rows().unwrap();
        assert_eq!(rows[0][3], Value::from("ON"));
        assert!(rows[0][4].is_null());
        assert!(rows[0][5].is_null());
        assert_eq!(rows[0][6], Value::Bool(false));
    }

    #[test]
    fn gamma_numeric_binary_formats_value() {
        let s = seq(vec![(0.0, Some(0.0), None), (5.0, Some(1.0), None)]);
        let out = run(&s, true);
        let rows = out.collect_rows().unwrap();
        assert_eq!(rows[0][3], Value::from("0"));
        assert_eq!(rows[1][3], Value::from("1"));
        assert_eq!(rows[1][5], Value::Float(1.0));
    }

    #[test]
    fn output_schema_is_homogeneous_across_branches() {
        let alpha = run(
            &seq((0..50)
                .map(|i| (i as f64 * 0.01, Some((i as f64).sin() * 10.0), None))
                .collect()),
            true,
        );
        let gamma = run(&seq(vec![(0.0, None, Some("ON"))]), true);
        assert_eq!(alpha.schema().as_ref(), gamma.schema().as_ref());
        // Merging branch outputs works (Sec. 4.3).
        assert!(alpha.union(&gamma).is_ok());
    }
}
