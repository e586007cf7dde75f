//! # ivnt-frame — embedded columnar DataFrame engine
//!
//! A small, partition-parallel relational engine standing in for Apache
//! Spark in the DAC'18 reproduction *"Automated Interpretation and Reduction
//! of In-Vehicle Network Traces at a Large Scale"*. The paper's Algorithm 1
//! is written in relational algebra (selection σ, join ⋈, row-wise map `F`,
//! union ∪) over horizontally partitioned tables. The pipeline compiles `F`
//! into its own kernel; this crate holds the tables and the rest:
//!
//! * [`DataFrame`] — immutable, horizontally partitioned
//!   table of typed [`Column`]s; string cells are `u32` codes into a
//!   shared dictionary ([`DictColumn`], Arrow's `DictionaryArray`), coded
//!   by content through one [`DictBuilder`],
//! * [`Batch`] — one partition, with the mask [`filter`](Batch::filter)
//!   (σ), [`take`](Batch::take), [`slice`](Batch::slice) and
//!   [`concat`](Batch::concat) the pipeline's columnar stages build on,
//! * hash [`join`](frame::DataFrame::join) (⋈),
//!   [`union`](frame::DataFrame::union) (∪), a stable
//!   [`sort_by`](frame::DataFrame::sort_by) and
//!   [`repartition`](frame::DataFrame::repartition),
//! * an [`Executor`] that runs per-partition work on a persistent worker
//!   pool with deterministic output order, and [`csv`] import/export.
//!
//! # Examples
//!
//! ```
//! use ivnt_frame::prelude::*;
//!
//! # fn main() -> ivnt_frame::Result<()> {
//! let schema = Schema::from_pairs([
//!     ("t", DataType::Float),
//!     ("m_id", DataType::Int),
//!     ("b_id", DataType::Str),
//! ])?
//! .into_shared();
//! let trace = Batch::from_rows(
//!     schema,
//!     vec![
//!         vec![Value::Float(2.0), Value::Int(3), Value::from("FC")],
//!         vec![Value::Float(2.5), Value::Int(3), Value::from("FC")],
//!         vec![Value::Float(2.6), Value::Int(11), Value::from("K-LIN")],
//!     ],
//! )?;
//!
//! // Preselection: keep only messages relevant to the wiper domain.
//! let ids = trace.column_by_name("m_id")?.as_int_slice().unwrap_or_default();
//! let mask: Vec<bool> = ids.iter().map(|id| *id == Some(3)).collect();
//! let pre = trace.filter(&mask)?;
//! assert_eq!(pre.num_rows(), 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod column;
pub mod csv;
pub mod datatype;
pub mod error;
pub mod exec;
pub mod frame;
pub mod join;
pub mod value;

pub use batch::Batch;
pub use column::{Column, DictBuilder, DictColumn, Remap};
pub use datatype::{DataType, Field, Schema};
pub use error::{Error, Result};
pub use exec::Executor;
pub use frame::DataFrame;
pub use join::JoinType;
pub use value::Value;

/// Convenient glob import of the engine's common types.
pub mod prelude {
    pub use crate::batch::Batch;
    pub use crate::column::{Column, DictBuilder, DictColumn, Remap};
    pub use crate::datatype::{DataType, Field, Schema};
    pub use crate::exec::Executor;
    pub use crate::frame::DataFrame;
    pub use crate::join::JoinType;
    pub use crate::value::Value;
}
