//! Conversion of raw traces into the tabular engine, through the one
//! record→frame builder ([`ivnt_store::schema::records_to_batch`]).

use std::sync::Arc;

use ivnt_frame::prelude::*;
use ivnt_simulator::trace::Trace;
use ivnt_store::schema::records_to_batch;
use ivnt_store::Record;

use crate::error::Result;
use crate::interpret::RecordSelector;

/// Column names of the raw-trace frame (the tabular `K_b`).
///
/// The raw-trace names are canonical in [`ivnt_store::schema::columns`] —
/// shared with the on-disk store so frames scanned from disk and frames
/// built from in-memory traces agree by construction.
pub mod columns {
    pub use ivnt_store::schema::columns::{BUS, INFO, MESSAGE_ID, PAYLOAD, T};

    /// Signal identifier (`s_id`), present from interpretation onwards.
    pub const SIGNAL: &str = "s_id";
    /// Numeric physical value (null for textual signals).
    pub const VALUE_NUM: &str = "v_num";
    /// Textual physical value (null for numeric signals).
    pub const VALUE_TEXT: &str = "v_text";
}

/// Schema of the tabular raw trace `K_b` (canonical in `ivnt_store`).
pub fn raw_schema() -> Arc<Schema> {
    ivnt_store::schema::raw_trace_schema()
}

/// Converts a recorded trace into the partitioned tabular form `K_b`,
/// splitting into `partitions` horizontal slices for parallel operators.
///
/// Traces are kept raw (bytes, not signals) at this stage — the paper's
/// memory argument: storing `K_b` beats storing the up-to-8× larger `K_s`.
///
/// # Errors
///
/// Propagates tabular-engine failures.
pub fn trace_to_frame(trace: &Trace, partitions: usize) -> Result<DataFrame> {
    ingest(trace, partitions, Executor::new(1), None)
}

/// [`trace_to_frame`] with the slices mapped over `executor` and, given a
/// selector, only the records it keeps materialized. Slices are cut on
/// the unfiltered trace, so the result equals filtering the full frame
/// partition by partition, empty partitions included.
pub(crate) fn ingest(
    trace: &Trace,
    partitions: usize,
    executor: Executor,
    selector: Option<&RecordSelector>,
) -> Result<DataFrame> {
    let schema = raw_schema();
    let chunk = trace.len().div_ceil(partitions.max(1)).max(1);
    let slices: Vec<&[Record]> = trace.records().chunks(chunk).collect();
    let mut batches = executor
        .map_ref(&slices, |slice| match selector {
            Some(selector) => {
                records_to_batch(schema.clone(), selector.select(slice).iter().copied())
            }
            None => records_to_batch(schema.clone(), *slice),
        })
        .into_iter()
        .collect::<std::result::Result<Vec<_>, _>>()?;
    if batches.is_empty() {
        batches.push(Batch::empty(schema.clone()));
    }
    Ok(DataFrame::from_partitions(schema, batches)?)
}

/// Per-column null counts of a batch, in schema order (via
/// [`Column::null_count`]). The interpretation kernel gates its null-free
/// fast paths on columns reporting zero here — `bus`/`m_id`/`payload` are
/// null-free by construction for every frame built by [`trace_to_frame`]
/// or scanned from an `.ivns` store.
pub fn null_counts(batch: &Batch) -> Vec<usize> {
    (0..batch.schema().len())
        .map(|i| batch.column(i).null_count())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivnt_protocol::message::Protocol;
    use ivnt_simulator::trace::TraceRecord;

    fn trace(n: usize) -> Trace {
        Trace::from_records(
            (0..n)
                .map(|i| TraceRecord {
                    timestamp_us: i as u64 * 1000,
                    bus: Arc::from("FC"),
                    message_id: 3,
                    payload: vec![i as u8],
                    protocol: Protocol::Can,
                })
                .collect(),
        )
    }

    #[test]
    fn converts_all_records() {
        let df = trace_to_frame(&trace(10), 3).unwrap();
        assert_eq!(df.num_rows(), 10);
        assert_eq!(df.num_partitions(), 3);
        let rows = df.collect_rows().unwrap();
        assert_eq!(rows[1][0], Value::Float(0.001));
        assert_eq!(rows[1][3], Value::Int(3));
        assert_eq!(rows[1][4], Value::from("CAN"));
    }

    #[test]
    fn empty_trace_gives_empty_frame() {
        let df = trace_to_frame(&Trace::new(), 4).unwrap();
        assert_eq!(df.num_rows(), 0);
        assert_eq!(df.schema().len(), 5);
    }

    #[test]
    fn trace_frames_are_null_free() {
        let df = trace_to_frame(&trace(6), 2).unwrap();
        for batch in df.partitions() {
            assert!(null_counts(batch).iter().all(|&n| n == 0));
            assert!((0..batch.schema().len()).all(|i| !batch.column(i).has_nulls()));
        }
    }

    #[test]
    fn partition_count_clamped() {
        let df = trace_to_frame(&trace(2), 10).unwrap();
        assert!(df.num_partitions() <= 2);
        let df = trace_to_frame(&trace(5), 0).unwrap();
        assert_eq!(df.num_partitions(), 1);
    }
}
