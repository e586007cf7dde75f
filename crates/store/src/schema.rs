//! The canonical tabular shape of a raw trace (`K_b`).
//!
//! Column names and the raw schema live here — *below* the pipeline — so
//! the on-disk store, the simulator's repository and the interpretation
//! engine all agree on one definition (`ivnt_core::tabular` re-exports
//! these) — and so does [`records_to_batch`], the column-wise
//! record→frame builder of in-memory and streamed rows. Store scans never
//! build records: [`GroupColumns::to_batch`](crate::GroupColumns::to_batch)
//! emits the same cells straight from decoded columns.

use std::sync::Arc;

use ivnt_frame::prelude::*;
use ivnt_protocol::message::Protocol;

use crate::error::Result;
use crate::record::Record;

/// Column names of the raw-trace frame.
pub mod columns {
    /// Timestamp in seconds (`t`).
    pub const T: &str = "t";
    /// Payload bytes (`l`).
    pub const PAYLOAD: &str = "l";
    /// Channel identifier (`b_id`).
    pub const BUS: &str = "b_id";
    /// Message identifier (`m_id`).
    pub const MESSAGE_ID: &str = "m_id";
    /// Protocol tag (`m_info`).
    pub const INFO: &str = "m_info";
}

/// Schema of the tabular raw trace `K_b`.
pub fn raw_trace_schema() -> Arc<Schema> {
    Schema::from_pairs([
        (columns::T, DataType::Float),
        (columns::PAYLOAD, DataType::Bytes),
        (columns::BUS, DataType::Str),
        (columns::MESSAGE_ID, DataType::Int),
        (columns::INFO, DataType::Str),
    ])
    .expect("static schema is valid")
    .into_shared()
}

/// Converts records into one raw-trace [`Batch`], column-wise — the
/// record→frame ingest behind the stream tier and in-memory traces. Takes
/// any re-iterable source of `&Record` (a slice, or preselected
/// survivors), so filtering never copies a record.
///
/// Cells are typed from the start: seconds as `µs / 1e6`, protocol display
/// names interned per batch, bus `Arc`s shared with the records (the
/// interpretation kernel's learned bus-pointer table relies on that).
///
/// # Errors
///
/// Propagates tabular-engine failures.
pub fn records_to_batch<'a, I>(schema: Arc<Schema>, records: I) -> Result<Batch>
where
    I: IntoIterator<Item = &'a Record>,
    I::IntoIter: Clone,
{
    let records = records.into_iter();
    // Protocol display names repeat endlessly; intern them per batch.
    let mut names: Vec<(Protocol, Arc<str>)> = Vec::new();
    let protos = records.clone().map(|r| {
        let at = names.iter().position(|(p, _)| *p == r.protocol);
        let at = at.unwrap_or_else(|| {
            names.push((r.protocol, Arc::from(r.protocol.to_string())));
            names.len() - 1
        });
        names[at].1.clone()
    });
    let columns = vec![
        Column::from_floats(records.clone().map(Record::timestamp_s)),
        Column::from_byte_payloads(records.clone().map(|r| Arc::from(r.payload.as_slice()))),
        Column::from_strs(records.clone().map(|r| r.bus.clone())),
        Column::from_ints(records.map(|r| i64::from(r.message_id))),
        Column::from_strs(protos),
    ];
    Ok(Batch::new(schema, columns)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_matches_row_wise_conversion() {
        let records = vec![
            Record {
                timestamp_us: 1_000,
                bus: Arc::from("FC"),
                message_id: 3,
                payload: vec![0xAB],
                protocol: Protocol::Can,
            },
            Record {
                timestamp_us: 2_500,
                bus: Arc::from("DC"),
                message_id: 9,
                payload: vec![],
                protocol: Protocol::Lin,
            },
        ];
        let schema = raw_trace_schema();
        let batch = records_to_batch(schema.clone(), &records).unwrap();
        let row_wise = Batch::from_rows(
            schema.clone(),
            records.iter().map(|r| {
                vec![
                    Value::Float(r.timestamp_s()),
                    Value::from(r.payload.clone()),
                    Value::Str(r.bus.clone()),
                    Value::Int(i64::from(r.message_id)),
                    Value::from(r.protocol.to_string()),
                ]
            }),
        )
        .unwrap();
        assert_eq!(batch, row_wise);
        // A selection of borrowed records builds the same cells.
        let picked = [&records[1]];
        let batch = records_to_batch(schema, picked.iter().copied()).unwrap();
        assert_eq!(batch, row_wise.slice(1, 1));
    }

    #[test]
    fn empty_batch_keeps_schema() {
        let batch = records_to_batch(raw_trace_schema(), &[]).unwrap();
        assert_eq!(batch.num_rows(), 0);
        assert_eq!(batch.schema().len(), 5);
    }
}
