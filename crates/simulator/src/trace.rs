//! The recorded trace: the paper's byte sequence `K_b`.

use std::io::{Read, Write};
use std::sync::Arc;

use ivnt_store::record::{protocol_from_tag, protocol_tag};

use crate::error::{Error, Result};

/// One recorded byte tuple `k_b = (t, l, b_id, m_id, m_info)` — the store's
/// [`ivnt_store::Record`] under its trace-side name. One type end to end:
/// traces append to stores, and stores load into traces, without a
/// per-record conversion.
pub use ivnt_store::Record as TraceRecord;

/// An ordered sequence of [`TraceRecord`]s — the raw trace `K_b`.
///
/// # Examples
///
/// ```
/// use ivnt_simulator::trace::{Trace, TraceRecord};
/// use ivnt_protocol::message::Protocol;
/// use std::sync::Arc;
///
/// let mut trace = Trace::new();
/// trace.push(TraceRecord {
///     timestamp_us: 2_000_000,
///     bus: Arc::from("FC"),
///     message_id: 3,
///     payload: vec![0x5A, 0x00, 0x01, 0x00],
///     protocol: Protocol::Can,
/// });
/// assert_eq!(trace.len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    records: Vec<TraceRecord>,
}

const MAGIC: &[u8; 5] = b"IVNT1";

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Creates a trace from records (kept in the given order).
    pub fn from_records(records: Vec<TraceRecord>) -> Trace {
        Trace { records }
    }

    /// Appends a record.
    pub fn push(&mut self, record: TraceRecord) {
        self.records.push(record);
    }

    /// The records.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of records (`|K_b| = w`).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no records were captured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates over the records.
    pub fn iter(&self) -> std::slice::Iter<'_, TraceRecord> {
        self.records.iter()
    }

    /// Stably sorts records by timestamp (monitoring devices on several
    /// buses log asynchronously; analysis assumes time order).
    pub fn sort_by_time(&mut self) {
        self.records.sort_by_key(|r| r.timestamp_us);
    }

    /// Merges another trace into this one, keeping time order.
    pub fn merge(&mut self, other: Trace) {
        self.records.extend(other.records);
        self.sort_by_time();
    }

    /// Keeps only the first `n` records.
    pub fn truncate(&mut self, n: usize) {
        self.records.truncate(n);
    }

    /// Returns a prefix copy with at most `n` records — used by the Fig. 5
    /// experiment's step-wise growing subsets.
    pub fn prefix(&self, n: usize) -> Trace {
        Trace {
            records: self.records[..n.min(self.records.len())].to_vec(),
        }
    }

    /// Recording duration in seconds (last minus first timestamp).
    pub fn duration_s(&self) -> f64 {
        match (self.records.first(), self.records.last()) {
            (Some(a), Some(b)) => (b.timestamp_us.saturating_sub(a.timestamp_us)) as f64 / 1e6,
            _ => 0.0,
        }
    }

    /// Serializes the trace to a compact binary stream.
    ///
    /// Layout: magic `IVNT1`, record count (u64 LE), then per record:
    /// `t(u64) | proto(u8) | bus_len(u8) bus | m_id(u32) | payload_len(u16) payload`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; remind: a `&mut` reference to any writer can
    /// be passed.
    pub fn write_to<W: Write>(&self, mut writer: W) -> Result<()> {
        writer.write_all(MAGIC)?;
        writer.write_all(&(self.records.len() as u64).to_le_bytes())?;
        for r in &self.records {
            writer.write_all(&r.timestamp_us.to_le_bytes())?;
            writer.write_all(&[protocol_tag(r.protocol)])?;
            let bus = r.bus.as_bytes();
            if bus.len() > u8::MAX as usize {
                return Err(Error::Format("bus id longer than 255 bytes".into()));
            }
            writer.write_all(&[bus.len() as u8])?;
            writer.write_all(bus)?;
            writer.write_all(&r.message_id.to_le_bytes())?;
            if r.payload.len() > u16::MAX as usize {
                return Err(Error::Format("payload longer than 65535 bytes".into()));
            }
            writer.write_all(&(r.payload.len() as u16).to_le_bytes())?;
            writer.write_all(&r.payload)?;
        }
        Ok(())
    }

    /// Deserializes a trace written by [`Trace::write_to`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Format`] for bad magic or malformed records and
    /// propagates I/O failures. A `&mut` reference to any reader can be
    /// passed.
    pub fn read_from<R: Read>(mut reader: R) -> Result<Trace> {
        let mut magic = [0u8; 5];
        reader.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(Error::Format("bad magic".into()));
        }
        let mut u64buf = [0u8; 8];
        reader.read_exact(&mut u64buf)?;
        let count = u64::from_le_bytes(u64buf) as usize;
        let mut records = Vec::with_capacity(count.min(1 << 20));
        let mut bus_cache: std::collections::HashMap<Vec<u8>, Arc<str>> = Default::default();
        for _ in 0..count {
            reader.read_exact(&mut u64buf)?;
            let timestamp_us = u64::from_le_bytes(u64buf);
            let mut b1 = [0u8; 1];
            reader.read_exact(&mut b1)?;
            let protocol = protocol_from_tag(b1[0])
                .map_err(|_| Error::Format(format!("unknown protocol tag {}", b1[0])))?;
            reader.read_exact(&mut b1)?;
            let mut bus_bytes = vec![0u8; b1[0] as usize];
            reader.read_exact(&mut bus_bytes)?;
            let bus = match bus_cache.get(&bus_bytes) {
                Some(b) => b.clone(),
                None => {
                    let s: Arc<str> = Arc::from(
                        std::str::from_utf8(&bus_bytes)
                            .map_err(|_| Error::Format("bus id not UTF-8".into()))?,
                    );
                    bus_cache.insert(bus_bytes.clone(), s.clone());
                    s
                }
            };
            let mut u32buf = [0u8; 4];
            reader.read_exact(&mut u32buf)?;
            let message_id = u32::from_le_bytes(u32buf);
            let mut u16buf = [0u8; 2];
            reader.read_exact(&mut u16buf)?;
            let len = u16::from_le_bytes(u16buf) as usize;
            let mut payload = vec![0u8; len];
            reader.read_exact(&mut payload)?;
            records.push(TraceRecord {
                timestamp_us,
                bus,
                message_id,
                payload,
                protocol,
            });
        }
        Ok(Trace { records })
    }
}

impl IntoIterator for Trace {
    type Item = TraceRecord;
    type IntoIter = std::vec::IntoIter<TraceRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.into_iter()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceRecord;
    type IntoIter = std::slice::Iter<'a, TraceRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

impl FromIterator<TraceRecord> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceRecord>>(iter: I) -> Self {
        Trace {
            records: iter.into_iter().collect(),
        }
    }
}

impl Extend<TraceRecord> for Trace {
    fn extend<I: IntoIterator<Item = TraceRecord>>(&mut self, iter: I) {
        self.records.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivnt_protocol::message::Protocol;

    fn record(t: u64, bus: &str, id: u32) -> TraceRecord {
        TraceRecord {
            timestamp_us: t,
            bus: Arc::from(bus),
            message_id: id,
            payload: vec![t as u8, id as u8],
            protocol: Protocol::Can,
        }
    }

    #[test]
    fn push_sort_merge() {
        let mut t = Trace::new();
        t.push(record(30, "FC", 1));
        t.push(record(10, "FC", 2));
        t.sort_by_time();
        assert_eq!(t.records()[0].timestamp_us, 10);
        let mut other = Trace::from_records(vec![record(20, "DC", 3)]);
        other.merge(t);
        let times: Vec<u64> = other.iter().map(|r| r.timestamp_us).collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn prefix_and_duration() {
        let t = Trace::from_records(vec![record(0, "A", 1), record(1_500_000, "A", 1)]);
        assert_eq!(t.duration_s(), 1.5);
        assert_eq!(t.prefix(1).len(), 1);
        assert_eq!(t.prefix(10).len(), 2);
        assert_eq!(Trace::new().duration_s(), 0.0);
    }

    #[test]
    fn binary_roundtrip() {
        let t = Trace::from_records(vec![
            record(5, "FC", 3),
            TraceRecord {
                timestamp_us: 9,
                bus: Arc::from("K-LIN"),
                message_id: 11,
                payload: vec![],
                protocol: Protocol::Lin,
            },
            TraceRecord {
                timestamp_us: 12,
                bus: Arc::from("ETH"),
                message_id: 0x00D4_0001,
                payload: vec![1; 40],
                protocol: Protocol::SomeIp,
            },
        ]);
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let parsed = Trace::read_from(buf.as_slice()).unwrap();
        assert_eq!(parsed, t);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = Trace::read_from(&b"NOPE!"[..]).unwrap_err();
        assert!(matches!(err, Error::Io(_) | Error::Format(_)));
        let err = Trace::read_from(&b"XXXXX\0\0\0\0\0\0\0\0"[..]).unwrap_err();
        assert!(matches!(err, Error::Format(_)));
    }

    #[test]
    fn truncated_stream_rejected() {
        let t = Trace::from_records(vec![record(5, "FC", 3)]);
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        assert!(Trace::read_from(&buf[..buf.len() - 1]).is_err());
    }

    #[test]
    fn collection_traits() {
        let t: Trace = vec![record(1, "A", 1)].into_iter().collect();
        assert_eq!(t.len(), 1);
        let mut t2 = Trace::new();
        t2.extend(t.clone());
        assert_eq!(t2.len(), 1);
        assert_eq!((&t2).into_iter().count(), 1);
        assert_eq!(t2.into_iter().count(), 1);
    }
}
