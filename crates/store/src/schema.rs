//! The canonical tabular shape of a raw trace (`K_b`).
//!
//! Column names and the raw schema live here — *below* the pipeline — so
//! the on-disk store, the simulator's repository and the interpretation
//! engine all agree on one definition (`ivnt_core::tabular` re-exports
//! these) — and so does [`records_to_batch`], the column-wise
//! record→frame builder of in-memory traces. Store scans and stream
//! micro-batches build neither records nor batches: the interpretation
//! kernel reads their [`GroupColumns`](crate::GroupColumns) in place.

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
/// record→frame ingest behind in-memory traces. Takes
/// any re-iterable source of `&Record` (a slice, or preselected
/// survivors), so filtering never copies a record.
///
/// Cells are typed from the start: seconds as `µs / 1e6`, and `b_id` /
/// `m_info` as dictionary codes. Records share one bus `Arc` per bus, so a
/// row's bus matches its dictionary entry without reading the name.
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
    let mut buses = DictBuilder::default();
    let bus_codes: Vec<u32> = records.clone().map(|r| buses.code(&r.bus)).collect();
    // A protocol's code is its index in `protocols`.
    let mut protocols: Vec<Protocol> = Vec::new();
    let info_codes = records.clone().map(|r| {
        let at = protocols.iter().position(|&p| p == r.protocol);
        at.unwrap_or_else(|| {
            protocols.push(r.protocol);
            protocols.len() - 1
        }) as u32
    });
    let info_codes: Vec<u32> = info_codes.collect();
    let names = protocols.iter().map(|p| Arc::from(p.to_string())).collect();
    let columns = vec![
        Column::from_floats(records.clone().map(Record::timestamp_s)),
        Column::from_byte_payloads(records.clone().map(|r| Arc::from(r.payload.as_slice()))),
        Column::Str(DictColumn::new(bus_codes, buses.finish())?),
        Column::from_ints(records.map(|r| i64::from(r.message_id))),
        Column::Str(DictColumn::new(info_codes, names)?),
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
            // The same bus name in an allocation of its own.
            Record {
                timestamp_us: 3_000,
                bus: Arc::from("FC"),
                message_id: 4,
                payload: vec![1, 2],
                protocol: Protocol::Can,
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
        let buses = batch.column(2).as_dict().unwrap();
        assert_eq!((buses.codes(), buses.values().len()), (&[0, 1, 0][..], 2));
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
