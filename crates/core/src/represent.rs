//! Merging and the state representation (Sec. 4.3, Algorithm 1 line 29).
//!
//! All branch outputs `K_α ∪ K_β ∪ K_γ` and extension sequences `W` merge
//! into one common sequence `K_rep`, which pivots into the *state
//! representation* (Table 4): one column per signal type, one row per
//! occurrence timestamp, missing cells filled with the signal's last value.
//! Both are linear column-wise passes: a stable k-way merge of sorted runs,
//! and a pivot that fills each column between its change points.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::collections::HashMap;
use std::sync::Arc;

use ivnt_frame::prelude::*;

use crate::branch::homogeneous_schema;
use crate::error::Result;
use crate::extend::extension_schema;
use crate::interpret::{float_column, str_column};
use crate::tabular::columns as c;

/// Merges branch outputs and extension frames into the common sequence
/// `K_rep`, sorted by time then signal, as one partition.
///
/// Extension rows (schema `(t, w_id, b_id, value)`) are lifted into the
/// homogeneous schema with the formatted value as symbol.
///
/// Accepts any iterator of frame references, so callers can merge borrowed
/// branch outputs without cloning them into a slice first. The row order
/// is that of a stable sort of the inputs' concatenation (branch outputs,
/// then extensions) by `(t, s_id)` under [`Value::total_cmp`].
///
/// # Errors
///
/// Returns a schema mismatch for a branch output outside the homogeneous
/// schema or non-empty extensions outside the extension schema.
pub fn merge_results<'a, I>(results: I, extensions: &DataFrame) -> Result<DataFrame>
where
    I: IntoIterator<Item = &'a DataFrame>,
{
    let schema = homogeneous_schema();
    let lifted = lift_extensions(extensions)?;
    let mut parts: Vec<&Batch> = Vec::new();
    for r in results {
        check_schema(r, &schema)?;
        parts.extend(r.partitions());
    }
    parts.extend(&lifted);

    // Each part's `s_id` entries coded once across parts, then ranked by
    // name: a row's key is its time and its entry's rank (0 for a null,
    // which sorts first as nulls do), so no row compares a string.
    let mut names = DictBuilder::default();
    let mut ids = Vec::with_capacity(parts.len());
    for b in &parts {
        let col = str_column(b, 1)?;
        let codes: Vec<u32> = col.values().iter().map(|s| names.code(s)).collect();
        ids.push((col.codes(), codes));
    }
    let names = names.finish();
    let mut by_name: Vec<u32> = (0..names.len() as u32).collect();
    by_name.sort_unstable_by_key(|&code| &names[code as usize]);
    let mut rank = vec![0u32; by_name.len()];
    for (r, &code) in by_name.iter().enumerate() {
        rank[code as usize] = r as u32 + 1;
    }
    // Sort keys in concatenation order.
    let mut keys: Vec<(Option<i64>, u32)> = Vec::new();
    let mut at: Vec<(usize, usize)> = Vec::new();
    for (p, (b, (codes, entries))) in parts.iter().zip(&ids).enumerate() {
        let ts = float_column(b, 0)?;
        for (t, &code) in ts.iter().zip(*codes) {
            let id = entries.get(code as usize).map_or(0, |&c| rank[c as usize]);
            keys.push((t.map(total_order), id));
        }
        at.extend((0..b.num_rows()).map(|r| (p, r)));
    }
    // Heads `(key, position, run end)` of the maximal non-decreasing runs,
    // smallest first. Runs are disjoint and in input order, so a tie on
    // the key goes to the earlier run: equal keys keep their input order.
    let mut heap = BinaryHeap::new();
    let mut start = 0;
    for i in 1..=keys.len() {
        if i == keys.len() || keys[i] < keys[i - 1] {
            heap.push(Reverse((keys[start], start, i)));
            start = i;
        }
    }
    let mut order = Vec::with_capacity(keys.len());
    while let Some(mut head) = heap.peek_mut() {
        let Reverse((key, pos, end)) = &mut *head;
        order.push(at[*pos]);
        *pos += 1;
        if pos < end {
            *key = keys[*pos];
        } else {
            PeekMut::pop(head);
        }
    }
    let merged = Batch::gather(schema.clone(), &parts, &order)?;
    Ok(DataFrame::from_partitions(schema, vec![merged])?)
}

/// `t` as the integer whose order is [`f64::total_cmp`]'s.
fn total_order(t: f64) -> i64 {
    let bits = t.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

fn check_schema(frame: &DataFrame, want: &Schema) -> Result<()> {
    if frame.schema().as_ref() == want {
        return Ok(());
    }
    let msg = format!("expected {want}, got {}", frame.schema());
    Err(ivnt_frame::Error::SchemaMismatch(msg).into())
}

/// Lifts extension rows into the homogeneous schema, one batch per
/// non-empty partition: the formatted value as symbol, no trend, no
/// outlier.
fn lift_extensions(extensions: &DataFrame) -> Result<Vec<Batch>> {
    if extensions.is_empty() {
        return Ok(Vec::new());
    }
    check_schema(extensions, &extension_schema())?;
    let schema = homogeneous_schema();
    let parts = extensions.partitions().iter().filter(|b| b.num_rows() > 0);
    let lift = |b: &Batch| -> Result<Batch> {
        let (n, values) = (b.num_rows(), b.column(3));
        let symbols = values.as_float_slice().unwrap_or_default().iter();
        let columns = vec![
            b.column(0).clone(), // t
            b.column(1).clone(), // w_id as s_id
            b.column(2).clone(), // b_id
            Column::Str(DictColumn::from_cells(
                symbols.map(|v| Some(format_value(*v).into())),
            )),
            Column::Str(DictColumn::from_cells(std::iter::repeat_n(None, n))), // trend
            values.clone(),
            Column::Bool(vec![Some(false); n]), // outlier
        ];
        Ok(Batch::new(schema.clone(), columns)?)
    };
    parts.map(lift).collect()
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
/// A row group is a run of rows with bit-equal `t`; a signal occurring
/// twice in one group shows its last cell.
///
/// # Errors
///
/// Returns a schema mismatch for input outside the homogeneous schema and
/// a duplicate column for a signal named like the time column.
pub fn state_representation(merged: &DataFrame) -> Result<DataFrame> {
    check_schema(merged, &homogeneous_schema())?;
    // Each group's `t`; per signal (first-seen order) the groups where its
    // cell is set, with the cell.
    let mut times: Vec<Option<f64>> = Vec::new();
    let mut index: HashMap<&str, usize> = HashMap::new();
    let mut changes: Vec<Vec<(usize, Arc<str>)>> = Vec::new();
    for b in merged.partitions() {
        let ts = float_column(b, 0)?;
        let (ids, symbols, trends) = (str_column(b, 1)?, str_column(b, 3)?, str_column(b, 4)?);
        let values = float_column(b, 5)?;
        let outliers = b.column(6).as_bool_slice().unwrap_or_default();
        // Per `s_id` entry: its signal, found by name on the entry's first
        // row.
        let mut signal_of: Vec<Option<usize>> = vec![None; ids.values().len()];
        for (i, t) in ts.iter().enumerate() {
            if times.last().map(|last| last.map(f64::to_bits)) != Some(t.map(f64::to_bits)) {
                times.push(*t);
            }
            let code = ids.codes()[i] as usize;
            let Some(slot) = signal_of.get_mut(code) else {
                continue;
            };
            let signal = *slot.get_or_insert_with(|| {
                *index.entry(&ids.values()[code]).or_insert_with(|| {
                    changes.push(Vec::new());
                    changes.len() - 1
                })
            });
            let (trend, outlier) = (trends.get(i).map(AsRef::as_ref), outliers[i] == Some(true));
            let cell = match symbols.get(i) {
                // A bare symbol is its own cell: shared, not copied.
                Some(symbol) if trend.is_none() && !outlier => symbol.clone(),
                symbol => {
                    let symbol = symbol.map_or("", AsRef::as_ref);
                    display_cell(symbol, trend, values[i], outlier).into()
                }
            };
            let group = times.len() - 1;
            match changes[signal].last_mut() {
                Some(last) if last.0 == group => last.1 = cell,
                _ => changes[signal].push((group, cell)),
            }
        }
    }

    // Column order: t, then signals sorted by name.
    let mut signals: Vec<(&str, usize)> = index.into_iter().collect();
    signals.sort_unstable();
    let mut fields = vec![Field::new(c::T, DataType::Float)];
    fields.extend(signals.iter().map(|&(s, _)| Field::new(s, DataType::Str)));
    let schema = Schema::new(fields)?.into_shared();
    let groups = times.len();
    let mut columns = vec![Column::Float(times)];
    for (_, signal) in signals {
        // The change points' cells are the column's dictionary: null up to
        // the first change point, then each one's code up to the next.
        let points = std::mem::take(&mut changes[signal]);
        let mut codes = Vec::with_capacity(groups);
        codes.resize(points.first().map_or(groups, |p| p.0), DictColumn::NULL);
        for k in 0..points.len() {
            codes.resize(points.get(k + 1).map_or(groups, |p| p.0), k as u32);
        }
        let cells = points.into_iter().map(|(_, cell)| cell).collect();
        columns.push(Column::Str(DictColumn::new(codes, cells)?));
    }
    let state = Batch::new(schema.clone(), columns)?;
    Ok(DataFrame::from_partitions(schema, vec![state])?)
}

/// Renders a state representation as fixed-width text (inspection aid and
/// the Table 4 reproduction).
///
/// # Errors
///
/// Propagates tabular-engine failures.
pub fn render_state_table(state: &DataFrame, max_rows: usize) -> Result<String> {
    let rows = state.collect_rows()?;
    let shown = rows.len().min(max_rows);
    let cell = |(i, v): (usize, &Value)| match v {
        Value::Float(f) if i == 0 => format!("{f:.2}"),
        Value::Null => "-".to_string(),
        other => other.to_string(),
    };
    let fields = state.schema().fields().iter();
    let mut table: Vec<Vec<String>> = vec![fields.map(|f| f.name().to_string()).collect()];
    table.extend(
        rows[..shown]
            .iter()
            .map(|r| r.iter().enumerate().map(cell).collect()),
    );
    let mut widths = vec![0; table[0].len()];
    for row in &table {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cols: &[String]| {
        let cols: Vec<String> = cols
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        cols.join(" | ") + "\n"
    };
    let mut out = line(&table[0]);
    out += &("-".repeat(widths.iter().sum::<usize>() + 3 * (widths.len() - 1)) + "\n");
    table[1..].iter().for_each(|row| out += &line(row));
    if rows.len() > shown {
        out += &format!("... ({} more rows)\n", rows.len() - shown);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// Row-wise reference merge: union the inputs one at a time, then one
    /// global stable sort by `(t, s_id)`.
    fn merge_results_oracle(results: &[DataFrame], extensions: &DataFrame) -> Result<DataFrame> {
        let mut merged = DataFrame::empty(homogeneous_schema());
        for r in results {
            merged = merged.union(r)?;
        }
        if !extensions.is_empty() {
            let lifted = lift_extensions_oracle(extensions)?;
            merged = merged.union(&lifted)?;
        }
        Ok(merged.sort_by(&[c::T, c::SIGNAL], &[true, true])?)
    }

    fn lift_extensions_oracle(extensions: &DataFrame) -> Result<DataFrame> {
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

    /// Row-wise reference pivot: every row materialized, the whole row of
    /// last cells cloned per distinct timestamp.
    fn state_representation_oracle(merged: &DataFrame) -> Result<DataFrame> {
        let rows = merged.collect_rows()?;
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
        assert_eq!(
            render_state_table(&state, 2).unwrap(),
            "t    | headlight    | speed            \n\
             ---------------------------------------\n\
             2.00 | off          | (high,increasing)\n\
             4.00 | parklight on | (high,increasing)\n\
             ... (1 more rows)\n"
        );
    }

    #[test]
    fn empty_merge_gives_empty_state() {
        let merged = DataFrame::empty(homogeneous_schema());
        let state = state_representation(&merged).unwrap();
        assert_eq!(state.num_rows(), 0);
        assert_eq!(state.schema().len(), 1); // just t
    }

    #[test]
    fn merge_and_state_reject_foreign_schemas() {
        let ext = DataFrame::from_rows(
            extension_schema(),
            vec![vec![
                Value::Float(1.0),
                Value::from("w"),
                Value::from("FC"),
                Value::Float(0.5),
            ]],
        )
        .unwrap();
        assert!(merge_results([&ext], &DataFrame::empty(extension_schema())).is_err());
        assert!(merge_results([], &sample_merged()).is_err());
        assert!(state_representation(&ext).is_err());
    }

    // Generated cells; a repeated entry makes ties likelier.
    const TS: [Option<f64>; 9] = [
        None,
        Some(-1.5),
        Some(-0.0),
        Some(0.0),
        Some(0.5),
        Some(1.0),
        Some(1.0),
        Some(2.0),
        Some(f64::NAN),
    ];
    const SIGNALS: [&str; 4] = ["a", "b", "c", "ab"];
    const SYMBOLS: [Option<&str>; 3] = [None, Some("lo"), Some("hi")];
    const TRENDS: [Option<&str>; 3] = [None, Some("steady"), Some("increasing")];
    const VALUES: [Option<f64>; 3] = [None, Some(1.5), Some(-0.0)];
    const OUTLIERS: [Option<bool>; 3] = [None, Some(false), Some(true)];

    /// `(t, s_id, symbol, trend, value, outlier)` codes of one branch row.
    type RowCode = (usize, usize, usize, usize, usize, usize);

    fn row_code() -> impl Strategy<Value = RowCode> {
        (
            0usize..9,
            0usize..6,
            0usize..3,
            0usize..3,
            0usize..3,
            0usize..3,
        )
    }

    /// `rows` cut into `parts` partitions; three parts also get a leading
    /// empty partition, and no rows give no partition.
    fn frame(schema: Arc<Schema>, rows: Vec<Vec<Value>>, parts: usize) -> DataFrame {
        let size = rows.len().div_ceil(parts).max(1);
        let mut batches: Vec<Batch> = rows
            .chunks(size)
            .map(|c| Batch::from_rows(schema.clone(), c.to_vec()).unwrap())
            .collect();
        if parts > 2 {
            batches.insert(0, Batch::empty(schema.clone()));
        }
        DataFrame::from_partitions(schema, batches).unwrap()
    }

    /// One signal's branch output: mostly its own `s_id`, sometimes a
    /// shared one or null; sorted by `(t, s_id)` when `sorted`.
    fn branch_output(signal: usize, codes: &[RowCode], parts: usize, sorted: bool) -> DataFrame {
        let mut rows: Vec<Vec<Value>> = codes
            .iter()
            .map(|&(t, id, symbol, trend, value, outlier)| {
                let id = match id {
                    0 => None,
                    1 => Some("b"),
                    _ => Some(SIGNALS[signal]),
                };
                vec![
                    Value::from(TS[t]),
                    Value::from(id),
                    Value::from("FC"),
                    Value::from(SYMBOLS[symbol]),
                    Value::from(TRENDS[trend]),
                    Value::from(VALUES[value]),
                    Value::from(OUTLIERS[outlier]),
                ]
            })
            .collect();
        if sorted {
            rows.sort_by(|a, b| a[0].total_cmp(&b[0]).then(a[1].total_cmp(&b[1])));
        }
        frame(homogeneous_schema(), rows, parts)
    }

    fn assert_same(got: &DataFrame, want: &DataFrame) -> std::result::Result<(), TestCaseError> {
        prop_assert_eq!(got.schema(), want.schema());
        prop_assert_eq!(got.num_partitions(), want.num_partitions());
        prop_assert_eq!(got.collect_rows().unwrap(), want.collect_rows().unwrap());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The k-way merge and the column-wise pivot give the row-wise
        /// oracles' schema, partitions and rows: several signals sharing
        /// timestamps, repeated `(t, s_id)` rows, ±0 and NaN times, null
        /// cells, outliers, empty and multi-partition frames, unsorted
        /// branch outputs and unsorted extensions.
        #[test]
        fn merge_and_state_match_the_row_wise_oracles(
            outputs in prop::collection::vec(
                (0usize..4, prop::collection::vec(row_code(), 0..12), 1usize..4, any::<bool>()),
                0..5,
            ),
            ext in (prop::collection::vec((0usize..9, 0usize..3, 0usize..3), 0..8), 1usize..4),
        ) {
            let results: Vec<DataFrame> = outputs
                .iter()
                .map(|(signal, codes, parts, sorted)| branch_output(*signal, codes, *parts, *sorted))
                .collect();
            let (ext_codes, ext_parts) = ext;
            let ext_rows = ext_codes.iter().map(|&(t, w, value)| {
                vec![
                    Value::from(TS[t]),
                    Value::from(["aGap", "b", "w"][w]),
                    Value::from("FC"),
                    Value::from(VALUES[value]),
                ]
            });
            let extensions = frame(extension_schema(), ext_rows.collect(), ext_parts);

            let merged = merge_results(&results, &extensions).unwrap();
            let want = merge_results_oracle(&results, &extensions).unwrap();
            assert_same(&merged, &want)?;
            let state = state_representation(&merged).unwrap();
            assert_same(&state, &state_representation_oracle(&want).unwrap())?;
            // The pivot alone, over unsorted multi-partition input.
            for r in &results {
                let state = state_representation(r).unwrap();
                assert_same(&state, &state_representation_oracle(r).unwrap())?;
            }
        }
    }
}
