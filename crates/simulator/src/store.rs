//! Raw-trace CSV import.
//!
//! Traces recorded by external capture tooling arrive as raw-trace CSV
//! (`t,l,b_id,m_id,m_info`); [`read_csv_trace`] parses it into a [`Trace`]
//! that `ivnt store ingest` writes into the chunked columnar `.ivns`
//! format ([`ivnt_store`]), the only trace file format.

use std::io::Read;
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::trace::{Trace, TraceRecord};

/// Parses a raw-trace CSV (`t,l,b_id,m_id,m_info`) into a [`Trace`].
///
/// # Errors
///
/// Returns [`Error::Format`] for unparsable CSV, unknown protocol names,
/// or out-of-range timestamps/message ids.
pub fn read_csv_trace<R: Read>(reader: R) -> Result<Trace> {
    use ivnt_protocol::message::Protocol;
    use ivnt_store::schema::columns as c;

    let frame = ivnt_frame::csv::read_csv(reader, ivnt_store::schema::raw_trace_schema())
        .map_err(|e| Error::Format(format!("csv trace import failed: {e}")))?;
    // Intern bus names so repeated channels share one allocation, as the
    // simulator's own traces do.
    let mut buses: Vec<Arc<str>> = Vec::new();
    let mut records = Vec::with_capacity(frame.num_rows());
    for row in frame
        .collect_rows()
        .map_err(|e| Error::Format(format!("csv trace import failed: {e}")))?
    {
        let cell = |i: usize| &row[i];
        let t = cell(0)
            .as_float()
            .ok_or_else(|| Error::Format(format!("csv {} cell is not a number", c::T)))?;
        if !t.is_finite() || t < 0.0 {
            return Err(Error::Format(format!("csv {} cell {t} out of range", c::T)));
        }
        let payload = match cell(1) {
            ivnt_frame::value::Value::Bytes(b) => b.to_vec(),
            ivnt_frame::value::Value::Null => Vec::new(),
            other => {
                return Err(Error::Format(format!(
                    "csv {} cell {other:?} is not bytes",
                    c::PAYLOAD
                )))
            }
        };
        let bus_name = match cell(2) {
            ivnt_frame::value::Value::Str(s) => s.clone(),
            other => {
                return Err(Error::Format(format!(
                    "csv {} cell {other:?} is not a string",
                    c::BUS
                )))
            }
        };
        let bus = match buses.iter().find(|b| b.as_ref() == bus_name.as_ref()) {
            Some(b) => b.clone(),
            None => {
                buses.push(bus_name.clone());
                bus_name
            }
        };
        let mid = cell(3)
            .as_int()
            .and_then(|m| u32::try_from(m).ok())
            .ok_or_else(|| {
                Error::Format(format!("csv {} cell is not a message id", c::MESSAGE_ID))
            })?;
        let protocol = match cell(4) {
            ivnt_frame::value::Value::Str(s) => match s.as_ref() {
                "CAN" => Protocol::Can,
                "CAN FD" => Protocol::CanFd,
                "LIN" => Protocol::Lin,
                "SOME/IP" => Protocol::SomeIp,
                other => return Err(Error::Format(format!("csv unknown protocol {other:?}"))),
            },
            other => {
                return Err(Error::Format(format!(
                    "csv {} cell {other:?} is not a string",
                    c::INFO
                )))
            }
        };
        records.push(TraceRecord {
            timestamp_us: (t * 1e6).round() as u64,
            bus,
            message_id: mid,
            payload,
            protocol,
        });
    }
    Ok(Trace::from_records(records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{generate, DataSetSpec};

    #[test]
    fn csv_trace_roundtrips() {
        let trace = generate(&DataSetSpec::syn().with_duration_s(1.0).with_seed(5))
            .unwrap()
            .trace;
        // Render the trace as a raw-trace CSV, as external tooling would.
        let schema = ivnt_store::schema::raw_trace_schema();
        let batch = ivnt_store::schema::records_to_batch(schema.clone(), trace.records()).unwrap();
        let frame = ivnt_frame::frame::DataFrame::from_partitions(schema, vec![batch]).unwrap();
        let mut csv = Vec::new();
        ivnt_frame::csv::write_csv(&frame, &mut csv).unwrap();
        assert_eq!(read_csv_trace(csv.as_slice()).unwrap(), trace);
    }
}
