//! Typed columnar storage.

use std::collections::HashMap;
use std::sync::Arc;

use crate::datatype::DataType;
use crate::error::{Error, Result};
use crate::value::Value;

/// A homogeneously typed column with per-cell nullability.
///
/// Columns store data in typed vectors so bulk operations (filtering,
/// slicing, concatenation) avoid boxing each cell. Row-level access
/// materializes a [`Value`].
///
/// String cells are `u32` codes into a dictionary shared by every column
/// cut from this one ([`DictColumn`], built by a [`DictBuilder`]).
/// Equality compares cell content, whatever the dictionaries.
#[derive(Debug, Clone)]
pub enum Column {
    /// Boolean cells.
    Bool(Vec<Option<bool>>),
    /// Integer cells.
    Int(Vec<Option<i64>>),
    /// Float cells.
    Float(Vec<Option<f64>>),
    /// String cells, as codes into a shared dictionary.
    Str(DictColumn),
    /// Byte-payload cells (shared payloads).
    Bytes(Vec<Option<Arc<[u8]>>>),
}

impl Column {
    /// Creates an empty column of `data_type`.
    pub fn new_empty(data_type: DataType) -> Self {
        match data_type {
            DataType::Bool => Column::Bool(Vec::new()),
            DataType::Int => Column::Int(Vec::new()),
            DataType::Float => Column::Float(Vec::new()),
            DataType::Str => Column::Str(DictColumn::default()),
            DataType::Bytes => Column::Bytes(Vec::new()),
        }
    }

    /// Builds a non-null float column without per-cell wrapping.
    pub fn from_floats<I: IntoIterator<Item = f64>>(values: I) -> Self {
        Column::Float(values.into_iter().map(Some).collect())
    }

    /// Builds a non-null integer column without per-cell wrapping.
    pub fn from_ints<I: IntoIterator<Item = i64>>(values: I) -> Self {
        Column::Int(values.into_iter().map(Some).collect())
    }

    /// Builds a non-null bytes column from shared payloads.
    pub fn from_byte_payloads<I: IntoIterator<Item = Arc<[u8]>>>(values: I) -> Self {
        Column::Bytes(values.into_iter().map(Some).collect())
    }

    /// The column's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Bool(_) => DataType::Bool,
            Column::Int(_) => DataType::Int,
            Column::Float(_) => DataType::Float,
            Column::Str(_) => DataType::Str,
            Column::Bytes(_) => DataType::Bytes,
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        match self {
            Column::Bool(v) => v.len(),
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Str(d) => d.codes.len(),
            Column::Bytes(v) => v.len(),
        }
    }

    /// `true` if the column holds no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cell at `row` as a [`Value`].
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.len()`.
    pub fn get(&self, row: usize) -> Value {
        match self {
            Column::Bool(v) => v[row].map(Value::Bool).unwrap_or(Value::Null),
            Column::Int(v) => v[row].map(Value::Int).unwrap_or(Value::Null),
            Column::Float(v) => v[row].map(Value::Float).unwrap_or(Value::Null),
            Column::Str(d) => d
                .get(row)
                .map(|s| Value::Str(s.clone()))
                .unwrap_or(Value::Null),
            Column::Bytes(v) => v[row]
                .as_ref()
                .map(|b| Value::Bytes(b.clone()))
                .unwrap_or(Value::Null),
        }
    }

    /// Returns the cells selected by `indices`, in that order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn take(&self, indices: &[usize]) -> Column {
        fn gather<T: Clone>(v: &[Option<T>], idx: &[usize]) -> Vec<Option<T>> {
            idx.iter().map(|&i| v[i].clone()).collect()
        }
        match self {
            Column::Bool(v) => Column::Bool(gather(v, indices)),
            Column::Int(v) => Column::Int(gather(v, indices)),
            Column::Float(v) => Column::Float(gather(v, indices)),
            Column::Str(d) => d.with_codes(indices.iter().map(|&i| d.codes[i]).collect()),
            Column::Bytes(v) => Column::Bytes(gather(v, indices)),
        }
    }

    /// Returns the cells where `mask` is `true`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LengthMismatch`] if the mask length differs from the
    /// column length.
    pub fn filter(&self, mask: &[bool]) -> Result<Column> {
        if mask.len() != self.len() {
            return Err(Error::LengthMismatch {
                left: self.len(),
                right: mask.len(),
            });
        }
        fn keep<T: Clone>(v: &[T], mask: &[bool]) -> Vec<T> {
            v.iter()
                .zip(mask)
                .filter(|(_, &m)| m)
                .map(|(x, _)| x.clone())
                .collect()
        }
        Ok(match self {
            Column::Bool(v) => Column::Bool(keep(v, mask)),
            Column::Int(v) => Column::Int(keep(v, mask)),
            Column::Float(v) => Column::Float(keep(v, mask)),
            Column::Str(d) => d.with_codes(keep(&d.codes, mask)),
            Column::Bytes(v) => Column::Bytes(keep(v, mask)),
        })
    }

    /// Returns a contiguous slice `[start, start+len)` of the column.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, start: usize, len: usize) -> Column {
        match self {
            Column::Bool(v) => Column::Bool(v[start..start + len].to_vec()),
            Column::Int(v) => Column::Int(v[start..start + len].to_vec()),
            Column::Float(v) => Column::Float(v[start..start + len].to_vec()),
            Column::Str(d) => d.with_codes(d.codes[start..start + len].to_vec()),
            Column::Bytes(v) => Column::Bytes(v[start..start + len].to_vec()),
        }
    }

    /// Iterator over cells as [`Value`]s.
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Number of null cells.
    pub fn null_count(&self) -> usize {
        fn count<T>(v: &[Option<T>]) -> usize {
            v.iter().filter(|x| x.is_none()).count()
        }
        match self {
            Column::Bool(v) => count(v),
            Column::Int(v) => count(v),
            Column::Float(v) => count(v),
            Column::Str(d) => d.codes.iter().filter(|&&c| c == DictColumn::NULL).count(),
            Column::Bytes(v) => count(v),
        }
    }

    /// Borrows the boolean cells, if this is a bool column.
    pub fn as_bool_slice(&self) -> Option<&[Option<bool>]> {
        match self {
            Column::Bool(v) => Some(v),
            _ => None,
        }
    }

    /// Borrows the integer cells, if this is an int column.
    pub fn as_int_slice(&self) -> Option<&[Option<i64>]> {
        match self {
            Column::Int(v) => Some(v),
            _ => None,
        }
    }

    /// Borrows the float cells, if this is a float column.
    pub fn as_float_slice(&self) -> Option<&[Option<f64>]> {
        match self {
            Column::Float(v) => Some(v),
            _ => None,
        }
    }

    /// Borrows the codes and dictionary, if this is a string column.
    pub fn as_dict(&self) -> Option<&DictColumn> {
        match self {
            Column::Str(d) => Some(d),
            _ => None,
        }
    }

    /// Borrows the byte-payload cells, if this is a bytes column.
    pub fn as_bytes_slice(&self) -> Option<&[Option<Arc<[u8]>>]> {
        match self {
            Column::Bytes(v) => Some(v),
            _ => None,
        }
    }
}

impl PartialEq for Column {
    /// Cell content: string columns are equal when their cells are,
    /// whatever the dictionaries or the codes.
    fn eq(&self, other: &Column) -> bool {
        match (self, other) {
            (Column::Bool(a), Column::Bool(b)) => a == b,
            (Column::Int(a), Column::Int(b)) => a == b,
            (Column::Float(a), Column::Float(b)) => a == b,
            (Column::Str(a), Column::Str(b)) => {
                a.codes.len() == b.codes.len() && a.iter().eq(b.iter())
            }
            (Column::Bytes(a), Column::Bytes(b)) => a == b,
            _ => false,
        }
    }
}

/// String cells as `u32` codes into a dictionary shared by every column
/// cut from this one — Arrow's `DictionaryArray` with `u32` keys.
///
/// A code is an index into [`values`](DictColumn::values), or
/// [`NULL`](DictColumn::NULL) for a null cell. `take`, `filter` and
/// `slice` move codes and share the dictionary; nothing per row touches a
/// string or a refcount. The dictionary may hold entries no cell uses and
/// entries with equal content: cells compare, hash and encode by content.
#[derive(Debug, Clone, Default)]
pub struct DictColumn {
    codes: Vec<u32>,
    values: Arc<[Arc<str>]>,
}

impl DictColumn {
    /// The code of a null cell.
    pub const NULL: u32 = u32::MAX;

    /// A column of `codes` into `values`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] when a code other than
    /// [`NULL`](DictColumn::NULL) is not an index into `values`.
    pub fn new(codes: Vec<u32>, values: Arc<[Arc<str>]>) -> Result<DictColumn> {
        let n = values.len();
        // `NULL + 1` wraps to 0, so one compare covers both kinds of code.
        let in_range = codes
            .iter()
            .fold(true, |ok, &c| ok & (c.wrapping_add(1) as usize <= n));
        if !in_range || n >= DictColumn::NULL as usize {
            return Err(Error::InvalidArgument(format!(
                "dictionary codes out of range for {n} entries"
            )));
        }
        Ok(DictColumn { codes, values })
    }

    /// A column whose dictionary is its non-null cells in row order: no
    /// cell is hashed or compared, each is an entry of its own. The form
    /// for mostly-unique cells.
    pub fn from_cells<I: IntoIterator<Item = Option<Arc<str>>>>(cells: I) -> DictColumn {
        let mut values = Vec::new();
        let codes = cells
            .into_iter()
            .map(|cell| {
                cell.map_or(DictColumn::NULL, |s| {
                    values.push(s);
                    dict_code(values.len() - 1)
                })
            })
            .collect();
        DictColumn {
            codes,
            values: values.into(),
        }
    }

    /// Per cell: its index into [`values`](DictColumn::values), or
    /// [`NULL`](DictColumn::NULL).
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The dictionary.
    pub fn values(&self) -> &Arc<[Arc<str>]> {
        &self.values
    }

    /// The string at `row`, `None` for a null.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.codes().len()`.
    #[inline]
    pub fn get(&self, row: usize) -> Option<&Arc<str>> {
        self.values.get(self.codes[row] as usize)
    }

    /// Cells in row order.
    pub fn iter(&self) -> impl Iterator<Item = Option<&Arc<str>>> + '_ {
        self.codes.iter().map(|&c| self.values.get(c as usize))
    }

    fn with_codes(&self, codes: Vec<u32>) -> Column {
        Column::Str(DictColumn {
            codes,
            values: self.values.clone(),
        })
    }
}

/// `len` as a dictionary code.
///
/// # Panics
///
/// When `len` reaches [`DictColumn::NULL`].
fn dict_code(len: usize) -> u32 {
    u32::try_from(len)
        .ok()
        .filter(|&c| c != DictColumn::NULL)
        .expect("dictionary entries fit u32 codes")
}

/// Codes strings by content, in first-appearance order: the one place
/// string cells become dictionary codes. A small dictionary is scanned
/// (an entry sharing the cell's allocation matches without reading the
/// string); past 16 entries a hash index keeps coding linear
/// in the cells. Entries a builder starts from
/// ([`with_values`](DictBuilder::with_values)) keep their indices as codes,
/// are shared rather than copied, and are indexed only when a lookup
/// first needs them.
#[derive(Debug, Clone, Default)]
pub struct DictBuilder {
    /// The entries the builder started from.
    seed: Arc<[Arc<str>]>,
    /// Entries added since, coded from `seed.len()` on.
    added: Vec<Arc<str>>,
    index: HashMap<Arc<str>, u32>,
    /// Entries coded below this are in `index`.
    indexed: usize,
}

/// Dictionary size up to which [`DictBuilder::code`] scans instead of
/// hashing.
const SCAN_LIMIT: usize = 16;

impl DictBuilder {
    /// A builder whose first codes are the indices of `values`.
    pub fn with_values(values: &Arc<[Arc<str>]>) -> DictBuilder {
        DictBuilder {
            seed: values.clone(),
            ..DictBuilder::default()
        }
    }

    /// The code of `s`'s content; on its first appearance `s` itself
    /// becomes the entry.
    pub fn code(&mut self, s: &Arc<str>) -> u32 {
        let len = self.seed.len() + self.added.len();
        let entries = self.seed.iter().chain(&self.added);
        let found = if len <= SCAN_LIMIT {
            entries.clone().position(|v| v == s).map(|i| i as u32)
        } else {
            for (code, entry) in entries.enumerate().skip(self.indexed) {
                self.index.entry(entry.clone()).or_insert(code as u32);
            }
            self.indexed = len;
            self.index.get(s).copied()
        };
        found.unwrap_or_else(|| {
            self.added.push(s.clone());
            dict_code(len)
        })
    }

    /// The dictionary, every code handed out an index into it.
    pub fn finish(self) -> Arc<[Arc<str>]> {
        if self.added.is_empty() {
            return self.seed;
        }
        self.seed.iter().cloned().chain(self.added).collect()
    }
}

/// One source dictionary recoded into a [`DictBuilder`]: each entry is
/// looked up by content once, on its first use, so recoded cells keep
/// first-appearance order and no row hashes a string.
#[derive(Debug)]
pub struct Remap<'a> {
    values: &'a [Arc<str>],
    codes: Vec<Option<u32>>,
}

impl<'a> Remap<'a> {
    /// A remap of the dictionary `values`.
    pub fn new(values: &'a [Arc<str>]) -> Remap<'a> {
        Remap {
            values,
            codes: vec![None; values.len()],
        }
    }

    /// The code in `into` of the source `code`;
    /// [`NULL`](DictColumn::NULL) stays `NULL`.
    #[inline]
    pub fn code(&mut self, code: u32, into: &mut DictBuilder) -> u32 {
        let Some(slot) = self.codes.get_mut(code as usize) else {
            return DictColumn::NULL;
        };
        *slot.get_or_insert_with(|| into.code(&self.values[code as usize]))
    }
}

/// Builds one column from [`Value`]s, string cells coded as they come.
pub(crate) struct ColumnBuilder {
    column: Column,
    strs: DictBuilder,
}

impl ColumnBuilder {
    pub(crate) fn new(data_type: DataType) -> ColumnBuilder {
        ColumnBuilder {
            column: Column::new_empty(data_type),
            strs: DictBuilder::default(),
        }
    }

    /// Appends a value.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TypeMismatch`] if the value's type does not match
    /// the column's (nulls always match; ints are widened into float
    /// columns).
    pub(crate) fn push(&mut self, value: Value) -> Result<()> {
        match (&mut self.column, value) {
            (Column::Bool(v), Value::Null) => v.push(None),
            (Column::Int(v), Value::Null) => v.push(None),
            (Column::Float(v), Value::Null) => v.push(None),
            (Column::Str(d), Value::Null) => d.codes.push(DictColumn::NULL),
            (Column::Bytes(v), Value::Null) => v.push(None),
            (Column::Bool(v), Value::Bool(b)) => v.push(Some(b)),
            (Column::Int(v), Value::Int(i)) => v.push(Some(i)),
            (Column::Float(v), Value::Float(f)) => v.push(Some(f)),
            (Column::Float(v), Value::Int(i)) => v.push(Some(i as f64)),
            (Column::Str(d), Value::Str(s)) => d.codes.push(self.strs.code(&s)),
            (Column::Bytes(v), Value::Bytes(b)) => v.push(Some(b)),
            (col, value) => {
                return Err(Error::TypeMismatch {
                    expected: col.data_type().to_string(),
                    actual: value
                        .data_type()
                        .map(|t| t.to_string())
                        .unwrap_or_else(|| "null".to_string()),
                })
            }
        }
        Ok(())
    }

    pub(crate) fn finish(self) -> Column {
        match self.column {
            Column::Str(d) => Column::Str(DictColumn {
                codes: d.codes,
                values: self.strs.finish(),
            }),
            column => column,
        }
    }
}

/// The string cells at `picks` (`None` for a null cell) across `cols`,
/// with no row hashed: codes over the one dictionary when every column
/// shares it; else, when they hold no more entries than there are picks,
/// codes over the dictionaries one after another; else (a sparse gather)
/// each source entry in use recoded once into a new dictionary.
pub(crate) fn gather_str(
    cols: &[&DictColumn],
    picks: impl ExactSizeIterator<Item = Option<(usize, usize)>>,
) -> Column {
    let shared = cols
        .first()
        .filter(|first| cols.iter().all(|c| Arc::ptr_eq(&c.values, &first.values)));
    if let Some(first) = shared {
        let codes = picks
            .map(|p| p.map_or(DictColumn::NULL, |(c, r)| cols[c].codes[r]))
            .collect();
        return first.with_codes(codes);
    }
    if cols.iter().map(|c| c.values.len()).sum::<usize>() <= picks.len() {
        let mut values = Vec::new();
        let base: Vec<u32> = (cols.iter())
            .map(|c| {
                let base = dict_code(values.len());
                values.extend_from_slice(&c.values);
                base
            })
            .collect();
        let code = |(c, r): (usize, usize)| match cols[c].codes[r] {
            DictColumn::NULL => DictColumn::NULL,
            code => base[c] + code,
        };
        let codes = picks.map(|p| p.map_or(DictColumn::NULL, code)).collect();
        return Column::Str(DictColumn {
            codes,
            values: values.into(),
        });
    }
    let mut dict = DictBuilder::default();
    let mut remaps: Vec<Remap<'_>> = cols.iter().map(|c| Remap::new(&c.values)).collect();
    let codes = picks
        .map(|p| {
            p.map_or(DictColumn::NULL, |(c, r)| {
                remaps[c].code(cols[c].codes[r], &mut dict)
            })
        })
        .collect();
    Column::Str(DictColumn {
        codes,
        values: dict.finish(),
    })
}

impl FromIterator<Option<i64>> for Column {
    fn from_iter<I: IntoIterator<Item = Option<i64>>>(iter: I) -> Self {
        Column::Int(iter.into_iter().collect())
    }
}
impl FromIterator<Option<f64>> for Column {
    fn from_iter<I: IntoIterator<Item = Option<f64>>>(iter: I) -> Self {
        Column::Float(iter.into_iter().collect())
    }
}
impl FromIterator<Option<bool>> for Column {
    fn from_iter<I: IntoIterator<Item = Option<bool>>>(iter: I) -> Self {
        Column::Bool(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_col(vals: &[i64]) -> Column {
        Column::Int(vals.iter().map(|&v| Some(v)).collect())
    }

    #[test]
    fn push_and_get() {
        let mut b = ColumnBuilder::new(DataType::Int);
        b.push(Value::Int(1)).unwrap();
        b.push(Value::Null).unwrap();
        let c = b.finish();
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(0), Value::Int(1));
        assert!(c.get(1).is_null());
        assert_eq!(c.null_count(), 1);
    }

    #[test]
    fn push_type_mismatch() {
        let mut b = ColumnBuilder::new(DataType::Int);
        let err = b.push(Value::from("x")).unwrap_err();
        assert!(matches!(err, Error::TypeMismatch { .. }));
    }

    #[test]
    fn int_widens_into_float_column() {
        let mut b = ColumnBuilder::new(DataType::Float);
        b.push(Value::Int(3)).unwrap();
        assert_eq!(b.finish().get(0), Value::Float(3.0));
    }

    #[test]
    fn take_filter_slice() {
        let c = int_col(&[10, 20, 30, 40]);
        assert_eq!(c.take(&[3, 0]), int_col(&[40, 10]));
        assert_eq!(
            c.filter(&[true, false, true, false]).unwrap(),
            int_col(&[10, 30])
        );
        assert_eq!(c.slice(1, 2), int_col(&[20, 30]));
        assert!(c.filter(&[true]).is_err());
    }

    #[test]
    fn non_null_constructors() {
        assert_eq!(Column::from_ints([1, 2]), int_col(&[1, 2]));
        assert_eq!(Column::from_floats([1.5]), Column::Float(vec![Some(1.5)]));
        let b = Column::from_byte_payloads([Arc::from(&[7u8][..])]);
        assert_eq!(b.null_count(), 0);
        assert_eq!(b.data_type(), DataType::Bytes);
    }

    #[test]
    fn iter_yields_values() {
        let c = int_col(&[5, 6]);
        let vals: Vec<Value> = c.iter().collect();
        assert_eq!(vals, vec![Value::Int(5), Value::Int(6)]);
    }

    fn dict(values: &[&str]) -> Arc<[Arc<str>]> {
        values.iter().map(|&s| Arc::<str>::from(s)).collect()
    }

    fn coded(codes: Vec<u32>, values: &[&str]) -> Column {
        Column::Str(DictColumn::new(codes, dict(values)).unwrap())
    }

    /// `a, null, b, a` twice over, through dictionaries that differ in
    /// order and hold a duplicate and an unused entry.
    fn twins() -> (Column, Column) {
        let n = DictColumn::NULL;
        (
            coded(vec![0, n, 1, 2], &["a", "b", "a", "unused"]),
            coded(vec![2, n, 1, 2], &["spare", "b", "a"]),
        )
    }

    #[test]
    fn string_columns_compare_by_content() {
        let (x, y) = twins();
        assert_eq!(x, y);
        assert_eq!(y, x);
        assert_eq!(x.data_type(), DataType::Str);
        assert_eq!((x.len(), x.null_count()), (4, 1));
        assert_eq!(x.get(2), Value::from("b"));
        assert!(x.get(1).is_null());
        assert_eq!(x.iter().collect::<Vec<_>>(), y.iter().collect::<Vec<_>>());
        // One cell differs, or a null stands for a cell: not equal.
        let n = DictColumn::NULL;
        let other = coded(vec![0, n, 1, 1], &["a", "b", "a", "unused"]);
        assert_ne!(other, y);
        assert_ne!(y, other);
        assert_ne!(x, coded(vec![2, 1, 1, 2], &["spare", "b", "a"]));
        assert_ne!(x, coded(vec![n; 4], &[]));
        assert_ne!(x, x.slice(0, 3));
        assert_ne!(x, int_col(&[1, 2, 3, 4]));
        assert!(DictColumn::new(vec![4], dict(&["a"])).is_err());
    }

    #[test]
    fn operators_move_codes_and_share_the_dictionary() {
        let (x, y) = twins();
        assert_eq!(x.take(&[3, 1, 2]), y.take(&[3, 1, 2]));
        let mask = [true, true, false, true];
        assert_eq!(x.filter(&mask).unwrap(), y.filter(&mask).unwrap());
        assert_eq!(x.slice(1, 2), y.slice(1, 2));
        let (Column::Str(taken), Column::Str(d)) = (x.take(&[0]), &x) else {
            unreachable!("string columns")
        };
        assert!(Arc::ptr_eq(taken.values(), d.values()));
    }

    fn gather(cols: &[&Column], picks: &[Option<(usize, usize)>]) -> DictColumn {
        let dicts: Vec<&DictColumn> = cols.iter().flat_map(|c| c.as_dict()).collect();
        match gather_str(&dicts, picks.iter().copied()) {
            Column::Str(d) => d,
            _ => unreachable!("a string column"),
        }
    }

    fn contents(d: &DictColumn) -> Vec<Option<&str>> {
        d.iter().map(|c| c.map(|s| &**s)).collect()
    }

    #[test]
    fn gather_moves_codes_and_hashes_no_row() {
        let (x, y) = twins();
        let all = |n: usize, c: usize| (0..n).map(move |r| Some((c, r)));
        // One dictionary: codes moved, the dictionary shared.
        let picks: Vec<_> = all(4, 0).chain(all(2, 1)).collect();
        let same = gather(&[&x, &x.slice(2, 2)], &picks);
        let Column::Str(d) = &x else {
            unreachable!("a string column")
        };
        assert!(Arc::ptr_eq(same.values(), d.values()));
        assert_eq!(same.codes(), &[0, DictColumn::NULL, 1, 2, 1, 2]);
        // Several, no more entries than picks: the dictionaries one after
        // another, content kept.
        let z = coded(vec![0], &["z"]);
        let picks: Vec<_> = all(4, 0).chain(all(4, 1)).chain(all(1, 2)).collect();
        let mixed = gather(&[&x, &y, &z], &picks);
        let (a, b) = (Some("a"), Some("b"));
        assert_eq!(
            contents(&mixed),
            vec![a, None, b, a, a, None, b, a, Some("z")]
        );
        assert_eq!(mixed.values().len(), 8);
        // A sparse gather: each entry in use recoded once, by content.
        let sparse = gather(&[&x, &y], &[Some((0, 0)), Some((1, 3)), None]);
        assert_eq!(contents(&sparse), vec![a, a, None]);
        assert_eq!(sparse.values().len(), 1);
    }

    #[test]
    fn builder_codes_by_content_in_first_appearance_order() {
        let mut b = DictBuilder::with_values(&dict(&["x", "y"]));
        assert_eq!(b.code(&Arc::from("y")), 1);
        assert_eq!(b.code(&Arc::from("new")), 2);
        assert_eq!(b.code(&Arc::from("x")), 0);
        assert_eq!(b.code(&Arc::from("new")), 2);
        let source = dict(&["q", "new", "x"]);
        let mut remap = Remap::new(&source);
        assert_eq!(remap.code(1, &mut b), 2);
        assert_eq!(remap.code(0, &mut b), 3);
        assert_eq!(remap.code(DictColumn::NULL, &mut b), DictColumn::NULL);
        assert_eq!(&*b.finish(), &*dict(&["x", "y", "new", "q"]));
        let cells = DictColumn::from_cells([Some(Arc::from("p")), None, Some(Arc::from("p"))]);
        assert_eq!(cells.codes(), &[0, DictColumn::NULL, 1]);
        assert_eq!(
            Column::Str(cells),
            coded(vec![0, DictColumn::NULL, 0], &["p"])
        );
    }
}
