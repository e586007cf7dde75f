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
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Boolean cells.
    Bool(Vec<Option<bool>>),
    /// Integer cells.
    Int(Vec<Option<i64>>),
    /// Float cells.
    Float(Vec<Option<f64>>),
    /// String cells (shared payloads).
    Str(Vec<Option<Arc<str>>>),
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
            Column::Str(v) => v.len(),
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
            (Column::Bytes(v), Value::Null) => v.push(None),
            (Column::Bool(v), Value::Bool(b)) => v.push(Some(b)),
            (Column::Int(v), Value::Int(i)) => v.push(Some(i)),
            (Column::Float(v), Value::Float(f)) => v.push(Some(f)),
            (Column::Float(v), Value::Int(i)) => v.push(Some(i as f64)),
            (Column::Str(v), Value::Str(s)) => v.push(Some(s)),
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

    /// Borrows the string cells, if this is a string column.
    pub fn as_str_slice(&self) -> Option<&[Option<Arc<str>>]> {
        match self {
            Column::Str(v) => Some(v),
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
}
