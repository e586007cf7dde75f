//! The recorded trace: the paper's byte sequence `K_b`.

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
    use std::sync::Arc;

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
