//! Merging and the state representation (Sec. 4.3, Algorithm 1 line 29).
//!
//! All branch outputs `K_α ∪ K_β ∪ K_γ` and extension sequences `W` merge
//! into one common sequence `K_rep`, which pivots into the *state
//! representation* (Table 4): one column per signal type, one row per
//! occurrence timestamp, missing cells filled with the signal's last value.

use std::collections::HashMap;

use ivnt_frame::prelude::*;

use crate::branch::homogeneous_schema;
use crate::error::Result;
use crate::tabular::columns as c;

/// Merges branch outputs and extension frames into the common sequence
/// `K_rep`, sorted by time then signal.
///
/// Extension rows (schema `(t, w_id, b_id, value)`) are lifted into the
/// homogeneous schema with the formatted value as symbol.
///
/// Accepts any iterator of frame references, so callers can merge borrowed
/// branch outputs without cloning them into a slice first.
///
/// # Errors
///
/// Propagates tabular-engine failures.
pub fn merge_results<'a, I>(results: I, extensions: &DataFrame) -> Result<DataFrame>
where
    I: IntoIterator<Item = &'a DataFrame>,
{
    let mut merged = DataFrame::empty(homogeneous_schema());
    for r in results {
        merged = merged.union(r)?;
    }
    if !extensions.is_empty() {
        let lifted = lift_extensions(extensions)?;
        merged = merged.union(&lifted)?;
    }
    Ok(merged.sort_by(&[c::T, c::SIGNAL], &[true, true])?)
}

fn lift_extensions(extensions: &DataFrame) -> Result<DataFrame> {
    let rows = extensions.collect_rows()?;
    let lifted = rows.into_iter().map(|r| {
        let value = r[3].as_float();
        vec![
            r[0].clone(),                     // t
            r[1].clone(),                     // w_id as s_id
            r[2].clone(),                     // b_id
            Value::from(format_value(value)), // symbol
            Value::Null,                      // trend
            Value::from(value),               // value
            Value::Bool(false),               // outlier
        ]
    });
    Ok(DataFrame::from_rows(homogeneous_schema(), lifted)?)
}

fn format_value(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:.3}"),
        None => "null".into(),
    }
}

/// Builds the display cell of the state representation: `(symbol,trend)`
/// tuples for trended signals (the paper's `(high,increasing)`), the bare
/// symbol otherwise, and `outlier v = x` for flagged outliers.
pub fn display_cell(
    symbol: &str,
    trend: Option<&str>,
    value: Option<f64>,
    outlier: bool,
) -> String {
    if outlier {
        return match value {
            Some(v) => format!("outlier v = {v}"),
            None => "outlier".into(),
        };
    }
    match trend {
        Some(trend) => format!("({symbol},{trend})"),
        None => symbol.to_string(),
    }
}

/// Pivots the merged sequence into the state representation (Table 4):
/// one row per distinct timestamp, one column per signal, cells
/// forward-filled with the signal's last occurrence.
///
/// # Errors
///
/// Propagates tabular-engine failures.
pub fn state_representation(merged: &DataFrame) -> Result<DataFrame> {
    let rows = merged.collect_rows()?;
    // Column order: t, then signals sorted by name.
    let mut signals: Vec<String> = rows
        .iter()
        .filter_map(|r| r[1].as_str().map(str::to_string))
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    signals.sort();
    let signal_idx: HashMap<&str, usize> = signals
        .iter()
        .enumerate()
        .map(|(i, s)| (s.as_str(), i))
        .collect();

    let mut fields = vec![Field::new(c::T, DataType::Float)];
    for s in &signals {
        fields.push(Field::new(s, DataType::Str));
    }
    let schema = Schema::new(fields)?.into_shared();

    let mut out_rows: Vec<Vec<Value>> = Vec::new();
    let mut last: Vec<Value> = vec![Value::Null; signals.len()];
    let mut i = 0usize;
    while i < rows.len() {
        let t = rows[i][0].clone();
        // Apply every merged row sharing this timestamp.
        while i < rows.len() && rows[i][0] == t {
            let r = &rows[i];
            if let Some(name) = r[1].as_str() {
                let cell = display_cell(
                    r[3].as_str().unwrap_or(""),
                    r[4].as_str(),
                    r[5].as_float(),
                    r[6].as_bool().unwrap_or(false),
                );
                last[signal_idx[name]] = Value::from(cell);
            }
            i += 1;
        }
        let mut row = Vec::with_capacity(1 + signals.len());
        row.push(t);
        row.extend(last.iter().cloned());
        out_rows.push(row);
    }
    Ok(DataFrame::from_rows(schema, out_rows)?)
}

/// Renders a state representation as fixed-width text (inspection aid and
/// the Table 4 reproduction).
///
/// # Errors
///
/// Propagates tabular-engine failures.
pub fn render_state_table(state: &DataFrame, max_rows: usize) -> Result<String> {
    let schema = state.schema();
    let rows = state.collect_rows()?;
    let headers: Vec<String> = schema
        .fields()
        .iter()
        .map(|f| f.name().to_string())
        .collect();
    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    let shown = rows.len().min(max_rows);
    let cells: Vec<Vec<String>> = rows[..shown]
        .iter()
        .map(|r| {
            r.iter()
                .enumerate()
                .map(|(i, v)| {
                    let s = match v {
                        Value::Float(f) if i == 0 => format!("{f:.2}"),
                        Value::Null => "-".to_string(),
                        other => other.to_string(),
                    };
                    s
                })
                .collect()
        })
        .collect();
    for row in &cells {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cols: &[String], widths: &[usize]| -> String {
        cols.iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect::<Vec<_>>()
            .join(" | ")
    };
    out.push_str(&fmt_row(&headers, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 3 * (widths.len() - 1)));
    out.push('\n');
    for row in &cells {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    if rows.len() > shown {
        out.push_str(&format!("... ({} more rows)\n", rows.len() - shown));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn res_row(t: f64, sid: &str, symbol: &str, trend: Option<&str>, outlier: bool) -> Vec<Value> {
        vec![
            Value::Float(t),
            Value::from(sid),
            Value::from("FC"),
            Value::from(symbol),
            match trend {
                Some(tr) => Value::from(tr),
                None => Value::Null,
            },
            Value::Null,
            Value::Bool(outlier),
        ]
    }

    fn sample_merged() -> DataFrame {
        DataFrame::from_rows(
            homogeneous_schema(),
            vec![
                res_row(2.0, "headlight", "off", None, false),
                res_row(2.0, "speed", "high", Some("increasing"), false),
                res_row(4.0, "headlight", "parklight on", None, false),
                res_row(5.0, "speed", "high", Some("steady"), false),
            ],
        )
        .unwrap()
    }

    #[test]
    fn merge_unions_and_sorts() {
        let a = DataFrame::from_rows(
            homogeneous_schema(),
            vec![res_row(5.0, "b", "x", None, false)],
        )
        .unwrap();
        let b = DataFrame::from_rows(
            homogeneous_schema(),
            vec![res_row(1.0, "a", "y", None, false)],
        )
        .unwrap();
        let empty_ext = DataFrame::empty(crate::extend::extension_schema());
        let m = merge_results(&[a, b], &empty_ext).unwrap();
        let rows = m.collect_rows().unwrap();
        assert_eq!(rows[0][0], Value::Float(1.0));
        assert_eq!(rows[1][0], Value::Float(5.0));
    }

    #[test]
    fn merge_lifts_extensions() {
        let ext = DataFrame::from_rows(
            crate::extend::extension_schema(),
            vec![vec![
                Value::Float(2.5),
                Value::from("wposGap"),
                Value::from("FC"),
                Value::Float(0.5),
            ]],
        )
        .unwrap();
        let m = merge_results(&[] as &[DataFrame], &ext).unwrap();
        assert_eq!(m.num_rows(), 1);
        let rows = m.collect_rows().unwrap();
        assert_eq!(rows[0][1], Value::from("wposGap"));
        assert_eq!(rows[0][3], Value::from("0.500"));
    }

    #[test]
    fn state_representation_pivots_and_fills() {
        let state = state_representation(&sample_merged()).unwrap();
        // Columns: t + 2 signals.
        assert_eq!(state.schema().len(), 3);
        let rows = state.collect_rows().unwrap();
        assert_eq!(rows.len(), 3); // t = 2, 4, 5
                                   // t=2: both signals set.
        assert_eq!(rows[0][1], Value::from("off"));
        assert_eq!(rows[0][2], Value::from("(high,increasing)"));
        // t=4: headlight changes, speed forward-filled.
        assert_eq!(rows[1][1], Value::from("parklight on"));
        assert_eq!(rows[1][2], Value::from("(high,increasing)"));
        // t=5: speed updates.
        assert_eq!(rows[2][2], Value::from("(high,steady)"));
    }

    #[test]
    fn display_cell_variants() {
        assert_eq!(
            display_cell("c", Some("steady"), Some(1.0), false),
            "(c,steady)"
        );
        assert_eq!(display_cell("ON", None, None, false), "ON");
        assert_eq!(
            display_cell("outlier", None, Some(800.0), true),
            "outlier v = 800"
        );
        assert_eq!(display_cell("outlier", None, None, true), "outlier");
    }

    #[test]
    fn outlier_cell_rendered_like_table4() {
        let merged = DataFrame::from_rows(
            homogeneous_schema(),
            vec![vec![
                Value::Float(22.0),
                Value::from("speed"),
                Value::from("FC"),
                Value::from("outlier"),
                Value::Null,
                Value::Float(800.0),
                Value::Bool(true),
            ]],
        )
        .unwrap();
        let state = state_representation(&merged).unwrap();
        let rows = state.collect_rows().unwrap();
        assert_eq!(rows[0][1], Value::from("outlier v = 800"));
    }

    #[test]
    fn render_produces_header_and_rows() {
        let state = state_representation(&sample_merged()).unwrap();
        let text = render_state_table(&state, 10).unwrap();
        assert!(text.contains("headlight"));
        assert!(text.contains("(high,steady)"));
        let truncated = render_state_table(&state, 1).unwrap();
        assert!(truncated.contains("more rows"));
    }

    #[test]
    fn empty_merge_gives_empty_state() {
        let merged = DataFrame::empty(homogeneous_schema());
        let state = state_representation(&merged).unwrap();
        assert_eq!(state.num_rows(), 0);
        assert_eq!(state.schema().len(), 1); // just t
    }
}
