//! Row batches: one horizontal partition of a DataFrame.

use std::sync::Arc;

use crate::column::{gather_str, Column, ColumnBuilder, DictColumn};
use crate::datatype::{DataType, Schema};
use crate::error::{Error, Result};
use crate::value::Value;

/// A set of equally long [`Column`]s described by a shared [`Schema`].
///
/// A `Batch` is one horizontal partition of a
/// [`DataFrame`](crate::frame::DataFrame); partition-parallel operators map
/// over batches independently.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    schema: Arc<Schema>,
    columns: Vec<Column>,
    rows: usize,
}

impl Batch {
    /// Creates a batch from a schema and matching columns.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SchemaMismatch`] if the column count or any column
    /// type disagrees with the schema, and [`Error::LengthMismatch`] if the
    /// columns differ in length.
    pub fn new(schema: Arc<Schema>, columns: Vec<Column>) -> Result<Self> {
        if schema.len() != columns.len() {
            return Err(Error::SchemaMismatch(format!(
                "schema has {} fields but {} columns were provided",
                schema.len(),
                columns.len()
            )));
        }
        for (field, col) in schema.fields().iter().zip(&columns) {
            if field.data_type() != col.data_type() {
                return Err(Error::SchemaMismatch(format!(
                    "column {} declared {} but stores {}",
                    field.name(),
                    field.data_type(),
                    col.data_type()
                )));
            }
        }
        let rows = columns.first().map(Column::len).unwrap_or(0);
        for col in &columns {
            if col.len() != rows {
                return Err(Error::LengthMismatch {
                    left: rows,
                    right: col.len(),
                });
            }
        }
        Ok(Batch {
            schema,
            columns,
            rows,
        })
    }

    /// Creates an empty batch with the given schema.
    pub fn empty(schema: Arc<Schema>) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::new_empty(f.data_type()))
            .collect();
        Batch {
            schema,
            columns,
            rows: 0,
        }
    }

    /// Builds a batch from row tuples.
    ///
    /// # Errors
    ///
    /// Propagates type mismatches between row values and the schema, and
    /// rejects rows whose arity differs from the schema.
    pub fn from_rows<I, R>(schema: Arc<Schema>, rows: I) -> Result<Self>
    where
        I: IntoIterator<Item = R>,
        R: IntoIterator<Item = Value>,
    {
        let mut columns: Vec<ColumnBuilder> = schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::new(f.data_type()))
            .collect();
        let mut count = 0usize;
        for row in rows {
            let mut n = 0;
            for (i, v) in row.into_iter().enumerate() {
                let col = columns.get_mut(i).ok_or_else(|| {
                    Error::SchemaMismatch("row has more values than schema fields".into())
                })?;
                col.push(v)?;
                n = i + 1;
            }
            if n != schema.len() {
                return Err(Error::SchemaMismatch(format!(
                    "row has {n} values but schema has {} fields",
                    schema.len()
                )));
            }
            count += 1;
        }
        Ok(Batch {
            schema,
            columns: columns.into_iter().map(ColumnBuilder::finish).collect(),
            rows: count,
        })
    }

    /// The batch's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Column at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Column by name.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ColumnNotFound`] for unknown names.
    pub fn column_by_name(&self, name: &str) -> Result<&Column> {
        Ok(&self.columns[self.schema.index_of(name)?])
    }

    /// All columns, in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Materializes row `i` as a vector of values.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.num_rows()`.
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(i)).collect()
    }

    /// Rows selected by `indices`, in that order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn take(&self, indices: &[usize]) -> Batch {
        Batch {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.take(indices)).collect(),
            rows: indices.len(),
        }
    }

    /// Rows picked across `batches` by `(batch, row)` positions, in that
    /// order: a [`take`](Batch::take) over their concatenation that never
    /// builds the concatenation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SchemaMismatch`] if any batch's schema differs from
    /// `schema`.
    ///
    /// # Panics
    ///
    /// Panics if any position is out of bounds.
    pub fn gather(
        schema: Arc<Schema>,
        batches: &[&Batch],
        rows: &[(usize, usize)],
    ) -> Result<Batch> {
        if let Some(b) = batches.iter().find(|b| b.schema != schema) {
            return Err(Error::SchemaMismatch(format!(
                "cannot gather {} into {schema}",
                b.schema
            )));
        }
        // Every batch's column `ci` has the field's type (`Batch::new`).
        fn pick<'a, T: Clone + 'a>(
            cols: impl Iterator<Item = &'a Column>,
            slice: fn(&'a Column) -> Option<&'a [Option<T>]>,
            rows: &[(usize, usize)],
        ) -> Vec<Option<T>> {
            let cells: Vec<_> = cols.flat_map(slice).collect();
            rows.iter().map(|&(b, r)| cells[b][r].clone()).collect()
        }
        let columns = schema
            .fields()
            .iter()
            .enumerate()
            .map(|(ci, field)| {
                let cols = batches.iter().map(|b| &b.columns[ci]);
                match field.data_type() {
                    DataType::Bool => Column::Bool(pick(cols, Column::as_bool_slice, rows)),
                    DataType::Int => Column::Int(pick(cols, Column::as_int_slice, rows)),
                    DataType::Float => Column::Float(pick(cols, Column::as_float_slice, rows)),
                    DataType::Str => {
                        let cols: Vec<&DictColumn> = cols.flat_map(Column::as_dict).collect();
                        gather_str(&cols, rows.iter().map(|&pick| Some(pick)))
                    }
                    DataType::Bytes => Column::Bytes(pick(cols, Column::as_bytes_slice, rows)),
                }
            })
            .collect();
        Ok(Batch {
            schema,
            columns,
            rows: rows.len(),
        })
    }

    /// Rows where `mask` is `true`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LengthMismatch`] if the mask length differs from the
    /// row count.
    pub fn filter(&self, mask: &[bool]) -> Result<Batch> {
        let columns = self
            .columns
            .iter()
            .map(|c| c.filter(mask))
            .collect::<Result<Vec<_>>>()?;
        let rows = mask.iter().filter(|&&m| m).count();
        Ok(Batch {
            schema: self.schema.clone(),
            columns,
            rows,
        })
    }

    /// Contiguous row slice `[start, start+len)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, start: usize, len: usize) -> Batch {
        Batch {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.slice(start, len)).collect(),
            rows: len,
        }
    }

    /// Replaces an existing column, keeping its position.
    ///
    /// The new column may have a different data type; the schema is updated.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ColumnNotFound`] for unknown names and
    /// [`Error::LengthMismatch`] if lengths differ.
    pub fn replace_column(&self, name: &str, column: Column) -> Result<Batch> {
        if column.len() != self.rows {
            return Err(Error::LengthMismatch {
                left: self.rows,
                right: column.len(),
            });
        }
        let idx = self.schema.index_of(name)?;
        let mut fields = self.schema.fields().to_vec();
        fields[idx] = crate::datatype::Field::new(name, column.data_type());
        let schema = Arc::new(Schema::new(fields)?);
        let mut columns = self.columns.clone();
        columns[idx] = column;
        Ok(Batch {
            schema,
            columns,
            rows: self.rows,
        })
    }

    /// Vertically concatenates batches sharing one schema: a
    /// [`gather`](Batch::gather) of all their rows in order.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SchemaMismatch`] if any batch disagrees with the
    /// first one's schema, and [`Error::InvalidArgument`] for empty input.
    pub fn concat(batches: &[Batch]) -> Result<Batch> {
        let first = batches
            .first()
            .ok_or_else(|| Error::InvalidArgument("concat of zero batches".into()))?;
        let refs: Vec<&Batch> = batches.iter().collect();
        let rows: Vec<(usize, usize)> = (batches.iter().enumerate())
            .flat_map(|(b, batch)| (0..batch.rows).map(move |r| (b, r)))
            .collect();
        Batch::gather(first.schema.clone(), &refs, &rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::DataType;

    fn sample() -> Batch {
        let schema = Schema::from_pairs([("t", DataType::Float), ("id", DataType::Int)])
            .unwrap()
            .into_shared();
        Batch::from_rows(
            schema,
            vec![
                vec![Value::Float(1.0), Value::Int(10)],
                vec![Value::Float(2.0), Value::Int(20)],
                vec![Value::Float(3.0), Value::Int(30)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn from_rows_and_access() {
        let b = sample();
        assert_eq!(b.num_rows(), 3);
        assert_eq!(b.num_columns(), 2);
        assert_eq!(b.row(1), vec![Value::Float(2.0), Value::Int(20)]);
        assert_eq!(b.column_by_name("id").unwrap().get(2), Value::Int(30));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let schema = Schema::from_pairs([("a", DataType::Int), ("b", DataType::Int)])
            .unwrap()
            .into_shared();
        let r = Batch::from_rows(schema, vec![vec![Value::Int(1)]]);
        assert!(matches!(r, Err(Error::SchemaMismatch(_))));
    }

    #[test]
    fn filter_take_slice() {
        let b = sample();
        let f = b.filter(&[true, false, true]).unwrap();
        assert_eq!(f.num_rows(), 2);
        assert_eq!(f.row(1), vec![Value::Float(3.0), Value::Int(30)]);
        let t = b.take(&[2, 0]);
        assert_eq!(t.row(0), vec![Value::Float(3.0), Value::Int(30)]);
        let s = b.slice(1, 1);
        assert_eq!(s.row(0), vec![Value::Float(2.0), Value::Int(20)]);
    }

    #[test]
    fn replace_column_retypes_in_place() {
        let r = sample()
            .replace_column(
                "id",
                Column::Str(DictColumn::from_cells([None, None, None])),
            )
            .unwrap();
        assert_eq!(r.schema().fields()[1].data_type(), DataType::Str);
        assert!(r.replace_column("id", Column::Int(vec![Some(1)])).is_err());
    }

    #[test]
    fn concat_batches() {
        let b = sample();
        let c = Batch::concat(&[b.clone(), b.clone()]).unwrap();
        assert_eq!(c.num_rows(), 6);
        assert_eq!(c.row(3), c.row(0));
        assert!(Batch::concat(&[]).is_err());
    }

    #[test]
    fn schema_column_count_checked() {
        let schema = Schema::from_pairs([("a", DataType::Int)])
            .unwrap()
            .into_shared();
        let r = Batch::new(schema, vec![]);
        assert!(matches!(r, Err(Error::SchemaMismatch(_))));
    }

    fn str_batch(schema: &Arc<Schema>, codes: Vec<u32>, values: &[&str]) -> Batch {
        let values: Arc<[Arc<str>]> = values.iter().map(|&s| Arc::<str>::from(s)).collect();
        let col = Column::Str(DictColumn::new(codes, values).unwrap());
        Batch::new(schema.clone(), vec![col]).unwrap()
    }

    fn cells(batch: &Batch) -> Vec<Value> {
        batch.column(0).iter().collect()
    }

    #[test]
    fn gather_and_concat_read_string_cells_by_content() {
        let schema = Schema::from_pairs([("s", DataType::Str)])
            .unwrap()
            .into_shared();
        let n = DictColumn::NULL;
        // One dictionary shared: gathered codes keep it.
        let a = str_batch(&schema, vec![0, 1], &["x", "y"]);
        let shared = a.slice(1, 1);
        let out = Batch::gather(schema.clone(), &[&a, &shared], &[(1, 0), (0, 0)]).unwrap();
        let (Column::Str(o), Column::Str(d)) = (out.column(0), a.column(0)) else {
            unreachable!("string columns")
        };
        assert!(Arc::ptr_eq(o.values(), d.values()));
        assert_eq!(cells(&out), vec![Value::from("y"), Value::from("x")]);
        // Dictionaries in another order, with a duplicate, an unused
        // entry and nulls.
        let b = str_batch(&schema, vec![n, 2, 0], &["y", "unused", "x", "y"]);
        let c = str_batch(&schema, vec![3, n], &["x", "x", "q", "y"]);
        let picks = [(1, 2), (2, 0), (0, 0), (1, 0), (2, 1), (1, 1)];
        let out = Batch::gather(schema.clone(), &[&a, &b, &c], &picks).unwrap();
        let (x, y) = (Value::from("x"), Value::from("y"));
        assert_eq!(
            cells(&out),
            vec![
                y.clone(),
                y.clone(),
                x.clone(),
                Value::Null,
                Value::Null,
                x.clone()
            ]
        );
        let all = Batch::concat(&[a.clone(), b.clone(), c.clone()]).unwrap();
        assert_eq!(all.num_rows(), 7);
        assert_eq!(
            cells(&all),
            vec![
                x.clone(),
                y.clone(),
                Value::Null,
                x,
                y.clone(),
                y,
                Value::Null
            ]
        );
        // Equal to the same cells over any other dictionary.
        let rows: Vec<Vec<Value>> = cells(&all).into_iter().map(|v| vec![v]).collect();
        assert_eq!(all, Batch::from_rows(schema, rows).unwrap());
    }

    #[test]
    fn from_rows_codes_many_distinct_strings() {
        let schema = Schema::from_pairs([("s", DataType::Str)])
            .unwrap()
            .into_shared();
        let n = 100_000;
        let rows = (0..n).map(|i| vec![Value::from(format!("cell-{i}"))]);
        let batch = Batch::from_rows(schema, rows).unwrap();
        let Column::Str(d) = batch.column(0) else {
            unreachable!("a string column")
        };
        assert_eq!(d.values().len(), n);
        assert_eq!(
            batch.column(0).get(n - 1),
            Value::from(format!("cell-{}", n - 1))
        );
        assert!(d.codes().iter().enumerate().all(|(i, &c)| c as usize == i));
    }

    #[test]
    fn empty_has_zero_rows() {
        let schema = Schema::from_pairs([("a", DataType::Int)])
            .unwrap()
            .into_shared();
        let b = Batch::empty(schema);
        assert_eq!((b.num_rows(), b.num_columns()), (0, 1));
    }
}
