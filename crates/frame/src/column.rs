//! Typed columnar storage.

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
/// String cells come in two forms of one [`DataType::Str`]: [`Column::Str`]
/// holds a shared payload per cell, [`Column::Dict`] a `u32` code per cell
/// into a dictionary shared by every column cut from it. Every accessor
/// serves both ([`str_cells`](Column::str_cells) is the borrowed view), and
/// equality compares cell content, so a `Dict` column equals the `Str`
/// column holding the same strings.
#[derive(Debug, Clone)]
pub enum Column {
    /// Boolean cells.
    Bool(Vec<Option<bool>>),
    /// Integer cells.
    Int(Vec<Option<i64>>),
    /// Float cells.
    Float(Vec<Option<f64>>),
    /// String cells (shared payloads).
    Str(Vec<Option<Arc<str>>>),
    /// String cells as codes into a shared dictionary.
    Dict(DictColumn),
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
            DataType::Str => Column::Str(Vec::new()),
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

    /// Builds a non-null string column from shared payloads.
    pub fn from_strs<I: IntoIterator<Item = Arc<str>>>(values: I) -> Self {
        Column::Str(values.into_iter().map(Some).collect())
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
            Column::Str(_) | Column::Dict(_) => DataType::Str,
            Column::Bytes(_) => DataType::Bytes,
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        match self {
            Column::Bool(v) => v.len(),
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Str(v) => v.len(),
            Column::Dict(d) => d.codes.len(),
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
            Column::Str(v) => v[row]
                .as_ref()
                .map(|s| Value::Str(s.clone()))
                .unwrap_or(Value::Null),
            Column::Dict(d) => d
                .get(row)
                .map(|s| Value::Str(s.clone()))
                .unwrap_or(Value::Null),
            Column::Bytes(v) => v[row]
                .as_ref()
                .map(|b| Value::Bytes(b.clone()))
                .unwrap_or(Value::Null),
        }
    }

    /// Appends a value.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TypeMismatch`] if the value's type does not match the
    /// column's (nulls always match; ints are widened into float columns).
    pub fn push(&mut self, value: Value) -> Result<()> {
        match (self, value) {
            (Column::Bool(v), Value::Null) => v.push(None),
            (Column::Int(v), Value::Null) => v.push(None),
            (Column::Float(v), Value::Null) => v.push(None),
            (Column::Str(v), Value::Null) => v.push(None),
            (Column::Dict(d), Value::Null) => d.codes.push(DictColumn::NULL),
            (Column::Bytes(v), Value::Null) => v.push(None),
            (Column::Bool(v), Value::Bool(b)) => v.push(Some(b)),
            (Column::Int(v), Value::Int(i)) => v.push(Some(i)),
            (Column::Float(v), Value::Float(f)) => v.push(Some(f)),
            (Column::Float(v), Value::Int(i)) => v.push(Some(i as f64)),
            (Column::Str(v), Value::Str(s)) => v.push(Some(s)),
            (Column::Dict(d), Value::Str(s)) => {
                let code = d.code_of(&s);
                d.codes.push(code);
            }
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
            Column::Str(v) => Column::Str(gather(v, indices)),
            Column::Dict(d) => d.with_codes(indices.iter().map(|&i| d.codes[i]).collect()),
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
        fn keep<T: Clone>(v: &[Option<T>], mask: &[bool]) -> Vec<Option<T>> {
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
            Column::Str(v) => Column::Str(keep(v, mask)),
            Column::Dict(d) => d.with_codes(
                d.codes
                    .iter()
                    .zip(mask)
                    .filter(|(_, &m)| m)
                    .map(|(c, _)| *c)
                    .collect(),
            ),
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
            Column::Str(v) => Column::Str(v[start..start + len].to_vec()),
            Column::Dict(d) => d.with_codes(d.codes[start..start + len].to_vec()),
            Column::Bytes(v) => Column::Bytes(v[start..start + len].to_vec()),
        }
    }

    /// Appends all cells of `other`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TypeMismatch`] if the types differ.
    pub fn extend_from(&mut self, other: &Column) -> Result<()> {
        match (self, other) {
            (Column::Bool(a), Column::Bool(b)) => a.extend_from_slice(b),
            (Column::Int(a), Column::Int(b)) => a.extend_from_slice(b),
            (Column::Float(a), Column::Float(b)) => a.extend_from_slice(b),
            (Column::Str(a), Column::Str(b)) => a.extend_from_slice(b),
            (Column::Str(a), Column::Dict(b)) => {
                a.extend(b.iter().map(Option::<&Arc<str>>::cloned))
            }
            (Column::Dict(a), b @ (Column::Str(_) | Column::Dict(_))) => a.extend_from(b),
            (Column::Bytes(a), Column::Bytes(b)) => a.extend_from_slice(b),
            (a, b) => {
                return Err(Error::TypeMismatch {
                    expected: a.data_type().to_string(),
                    actual: b.data_type().to_string(),
                })
            }
        }
        Ok(())
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
            Column::Str(v) => count(v),
            Column::Dict(d) => d.codes.iter().filter(|&&c| c == DictColumn::NULL).count(),
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

    /// Borrows the string cells of either form, if this is a string
    /// column.
    pub fn str_cells(&self) -> Option<StrCells<'_>> {
        match self {
            Column::Str(v) => Some(StrCells::Plain(v)),
            Column::Dict(d) => Some(StrCells::Coded(d)),
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
    /// Cell content: the two string forms compare equal when their cells
    /// are, whatever the dictionary or the allocations.
    fn eq(&self, other: &Column) -> bool {
        match (self, other) {
            (Column::Bool(a), Column::Bool(b)) => a == b,
            (Column::Int(a), Column::Int(b)) => a == b,
            (Column::Float(a), Column::Float(b)) => a == b,
            (Column::Str(a), Column::Str(b)) => a == b,
            (Column::Bytes(a), Column::Bytes(b)) => a == b,
            _ => match (self.str_cells(), other.str_cells()) {
                (Some(a), Some(b)) => a.len() == b.len() && a.iter().eq(b.iter()),
                _ => false,
            },
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
#[derive(Debug, Clone)]
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
        Column::Dict(DictColumn {
            codes,
            values: self.values.clone(),
        })
    }

    /// The code of `s`, appending it to the dictionary (a copy of it, when
    /// shared) if no entry holds that content. Linear in the dictionary:
    /// for row-at-a-time pushes, which no bulk path takes.
    fn code_of(&mut self, s: &Arc<str>) -> u32 {
        if let Some(i) = self.values.iter().position(|v| v == s) {
            return i as u32;
        }
        let mut values = self.values.to_vec();
        values.push(s.clone());
        self.values = values.into();
        (self.values.len() - 1) as u32
    }

    /// Appends the cells of a string column of either form. A column over
    /// the same dictionary appends its codes as they are; any other has
    /// each distinct string coded once.
    fn extend_from(&mut self, other: &Column) {
        match other {
            Column::Dict(b) if Arc::ptr_eq(&self.values, &b.values) => {
                self.codes.extend_from_slice(&b.codes);
            }
            Column::Dict(b) => {
                let remap: Vec<u32> = b.values.iter().map(|s| self.code_of(s)).collect();
                let code = |c: u32| remap.get(c as usize).copied().unwrap_or(DictColumn::NULL);
                self.codes.extend(b.codes.iter().map(|&c| code(c)));
            }
            Column::Str(b) => {
                for cell in b {
                    let code = cell.as_ref().map_or(DictColumn::NULL, |s| self.code_of(s));
                    self.codes.push(code);
                }
            }
            _ => unreachable!("Column::extend_from checked the type"),
        }
    }
}

/// The borrowed cells of a string column of either form.
#[derive(Debug, Clone, Copy)]
pub enum StrCells<'a> {
    /// A [`Column::Str`]'s cells.
    Plain(&'a [Option<Arc<str>>]),
    /// A [`Column::Dict`]'s codes and dictionary.
    Coded(&'a DictColumn),
}

impl<'a> StrCells<'a> {
    /// Number of cells.
    pub fn len(&self) -> usize {
        match self {
            StrCells::Plain(v) => v.len(),
            StrCells::Coded(d) => d.codes.len(),
        }
    }

    /// `true` if there are no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cell at `row`, `None` for a null.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.len()`.
    #[inline]
    pub fn get(&self, row: usize) -> Option<&'a Arc<str>> {
        match *self {
            StrCells::Plain(v) => v[row].as_ref(),
            StrCells::Coded(d) => d.get(row),
        }
    }

    /// Cells in row order.
    pub fn iter(self) -> impl Iterator<Item = Option<&'a Arc<str>>> + 'a {
        (0..self.len()).map(move |row| self.get(row))
    }
}

/// The string cells at `picks` (`None` for a null cell) across `cols`,
/// each a string column of either form: codes over the one dictionary
/// when every column shares it, shared payloads otherwise.
pub(crate) fn gather_str<'a>(
    cols: &[&'a Column],
    picks: impl Iterator<Item = Option<(usize, usize)>>,
) -> Column {
    let views: Vec<StrCells<'a>> = cols
        .iter()
        .map(|c| c.str_cells().expect("schema-checked string column"))
        .collect();
    if let Some(StrCells::Coded(first)) = views.first() {
        let codes: Option<Vec<&[u32]>> = views
            .iter()
            .map(|v| match v {
                StrCells::Coded(d) if Arc::ptr_eq(&d.values, &first.values) => Some(&d.codes[..]),
                _ => None,
            })
            .collect();
        if let Some(codes) = codes {
            let picked = picks
                .map(|p| p.map_or(DictColumn::NULL, |(c, r)| codes[c][r]))
                .collect();
            return first.with_codes(picked);
        }
    }
    Column::Str(
        picks
            .map(|p| p.and_then(|(c, r)| views[c].get(r).cloned()))
            .collect(),
    )
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
        let mut c = Column::new_empty(DataType::Int);
        c.push(Value::Int(1)).unwrap();
        c.push(Value::Null).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(0), Value::Int(1));
        assert!(c.get(1).is_null());
        assert_eq!(c.null_count(), 1);
    }

    #[test]
    fn push_type_mismatch() {
        let mut c = Column::new_empty(DataType::Int);
        let err = c.push(Value::from("x")).unwrap_err();
        assert!(matches!(err, Error::TypeMismatch { .. }));
    }

    #[test]
    fn int_widens_into_float_column() {
        let mut c = Column::new_empty(DataType::Float);
        c.push(Value::Int(3)).unwrap();
        assert_eq!(c.get(0), Value::Float(3.0));
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
    fn extend_concatenates() {
        let mut a = int_col(&[1]);
        a.extend_from(&int_col(&[2, 3])).unwrap();
        assert_eq!(a, int_col(&[1, 2, 3]));
        let err = a
            .extend_from(&Column::new_empty(DataType::Str))
            .unwrap_err();
        assert!(matches!(err, Error::TypeMismatch { .. }));
    }

    #[test]
    fn non_null_constructors() {
        assert_eq!(Column::from_ints([1, 2]), int_col(&[1, 2]));
        assert_eq!(Column::from_floats([1.5]), Column::Float(vec![Some(1.5)]));
        let s = Column::from_strs([Arc::from("a")]);
        assert_eq!(s.get(0), Value::from("a"));
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

    fn names() -> Arc<[Arc<str>]> {
        ["a", "b", "a", "unused"].map(Arc::<str>::from).into()
    }

    /// `a, null, b, a` twice over: once coded (through both entries that
    /// hold "a"), once as shared payloads.
    fn twins() -> (Column, Column) {
        let n = DictColumn::NULL;
        let dict = DictColumn::new(vec![0, n, 1, 2], names()).unwrap();
        let plain = ["a", "", "b", "a"]
            .iter()
            .map(|s| (!s.is_empty()).then(|| Arc::from(*s)))
            .collect();
        (Column::Dict(dict), Column::Str(plain))
    }

    #[test]
    fn dict_equals_its_str_twin_by_content() {
        let (dict, plain) = twins();
        assert_eq!(dict, plain);
        assert_eq!(plain, dict);
        assert_eq!(dict.data_type(), DataType::Str);
        assert_eq!((dict.len(), dict.null_count()), (4, 1));
        assert_eq!(dict.get(2), Value::from("b"));
        assert!(dict.get(1).is_null());
        assert_eq!(
            dict.iter().collect::<Vec<_>>(),
            plain.iter().collect::<Vec<_>>()
        );
        // One cell differs: not equal, in either direction.
        let other =
            Column::Dict(DictColumn::new(vec![0, DictColumn::NULL, 1, 1], names()).unwrap());
        assert_ne!(other, plain);
        assert_ne!(plain, other);
        assert_ne!(dict, Column::Str(vec![None; 4]));
        assert_ne!(dict, int_col(&[1, 2, 3, 4]));
    }

    #[test]
    fn dict_operators_move_codes_and_keep_content() {
        let (dict, plain) = twins();
        assert_eq!(dict.take(&[3, 1, 2]), plain.take(&[3, 1, 2]));
        let mask = [true, true, false, true];
        assert_eq!(dict.filter(&mask).unwrap(), plain.filter(&mask).unwrap());
        assert_eq!(dict.slice(1, 2), plain.slice(1, 2));
        let Column::Dict(taken) = dict.take(&[0]) else {
            panic!("take keeps the coded form");
        };
        let Column::Dict(d) = &dict else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(taken.values(), d.values()));
        assert!(DictColumn::new(vec![4], names()).is_err());
    }

    #[test]
    fn dict_extends_across_forms_and_dictionaries() {
        let (dict, plain) = twins();
        let foreign = Column::Dict(
            DictColumn::new(vec![1, 0], ["z", "b"].map(Arc::<str>::from).into()).unwrap(),
        );
        let mut coded = dict.clone();
        coded.extend_from(&dict).unwrap();
        coded.extend_from(&plain).unwrap();
        coded.extend_from(&foreign).unwrap();
        let mut flat = plain.clone();
        flat.extend_from(&dict).unwrap();
        flat.extend_from(&plain).unwrap();
        flat.extend_from(&foreign).unwrap();
        assert!(matches!(coded, Column::Dict(_)));
        assert!(matches!(flat, Column::Str(_)));
        assert_eq!(coded, flat);
        assert_eq!(coded.len(), 14);
        coded.push(Value::from("new")).unwrap();
        coded.push(Value::Null).unwrap();
        assert_eq!(coded.get(14), Value::from("new"));
        assert!(coded.get(15).is_null());
        assert!(coded.extend_from(&int_col(&[1])).is_err());
    }
}
