//! [`GroupColumns`] — the store's one columnar row container.
//!
//! Rows live as key columns plus one payload arena, with bus names coded
//! against the container's own dictionary. The same type carries a scan's
//! surviving rows, a live source's batch on its way to the writer, the
//! writers' pending groups and the follower's decoded frame, so no row
//! becomes a per-row struct before a caller asks for records.

use std::sync::Arc;

use ivnt_frame::prelude::{Batch, Column, Schema};
use ivnt_protocol::message::Protocol;

use crate::error::Result;
use crate::layout::{ChunkColumns, IndexedRecord};
use crate::record::{protocol_tag, Record};

/// Rows as key columns plus one payload arena — a scan's surviving rows
/// of one row group (in original trace order once emitted), or a batch of
/// frames in arrival order.
#[derive(Debug, Default)]
pub struct GroupColumns {
    /// Original trace positions of rows decoded from chunks; empty for
    /// rows pushed in arrival order, whose position is their order.
    pub(crate) index: Vec<u64>,
    pub(crate) t_us: Vec<u64>,
    pub(crate) bus: Vec<u32>,
    pub(crate) mid: Vec<u32>,
    pub(crate) protocol: Vec<Protocol>,
    /// `[start, end)` of each row's payload in `arena`, which batches and
    /// row views each copy out of once.
    spans: Vec<(usize, usize)>,
    arena: Vec<u8>,
    /// The dictionary `bus` codes index.
    pub(crate) buses: Vec<Arc<str>>,
}

impl GroupColumns {
    /// Rows held.
    pub fn len(&self) -> usize {
        self.t_us.len()
    }

    /// Whether no row is held.
    pub fn is_empty(&self) -> bool {
        self.t_us.is_empty()
    }

    /// Each row's `(bus code, message id, timestamp µs)` — the keys
    /// [`CompiledPredicate::matches`](crate::CompiledPredicate::matches)
    /// tests.
    pub fn keys(&self) -> impl Iterator<Item = (u32, u32, u64)> + '_ {
        (0..self.len()).map(|i| (self.bus[i], self.mid[i], self.t_us[i]))
    }

    /// The dictionary code of bus `name`, added in first-seen order when
    /// new.
    pub fn intern_bus(&mut self, name: &str) -> u32 {
        // Frames cluster by bus, so the previous row's bus usually repeats.
        if let Some(&last) = self.bus.last() {
            if self.buses[last as usize].as_ref() == name {
                return last;
            }
        }
        match self.buses.iter().position(|b| b.as_ref() == name) {
            Some(code) => code as u32,
            None => {
                self.buses.push(Arc::from(name));
                (self.buses.len() - 1) as u32
            }
        }
    }

    /// Appends one row; `bus` is a code [`GroupColumns::intern_bus`]
    /// returned.
    pub fn push_row(
        &mut self,
        t_us: u64,
        bus: u32,
        message_id: u32,
        protocol: Protocol,
        payload: &[u8],
    ) {
        assert!(
            (bus as usize) < self.buses.len(),
            "bus code {bus} not interned"
        );
        self.t_us.push(t_us);
        self.bus.push(bus);
        self.mid.push(message_id);
        self.protocol.push(protocol);
        let start = self.arena.len();
        self.arena.extend_from_slice(payload);
        self.spans.push((start, self.arena.len()));
    }

    /// Copies row `i` of `chunk`, its trace position included.
    pub(crate) fn push_decoded(&mut self, chunk: &ChunkColumns<'_>, i: usize) {
        self.index.push(chunk.index[i]);
        self.push_row(
            chunk.t_us[i],
            chunk.bus[i],
            chunk.mid[i],
            chunk.protocol[i],
            chunk.payload(i),
        );
    }

    /// Row `i`'s payload bytes.
    pub(crate) fn payload(&self, i: usize) -> &[u8] {
        &self.arena[self.spans[i].0..self.spans[i].1]
    }

    /// Restores trace order: a stable permutation by `index`, skipped when
    /// the rows are already in order.
    pub(crate) fn restore_order(&mut self) {
        if self.index.is_sorted() {
            return;
        }
        let mut perm: Vec<u32> = (0..self.len() as u32).collect();
        perm.sort_by_key(|&i| self.index[i as usize]);
        fn gather<T: Copy>(v: &mut Vec<T>, perm: &[u32]) {
            *v = perm.iter().map(|&i| v[i as usize]).collect();
        }
        gather(&mut self.index, &perm);
        gather(&mut self.t_us, &perm);
        gather(&mut self.bus, &perm);
        gather(&mut self.mid, &perm);
        gather(&mut self.protocol, &perm);
        gather(&mut self.spans, &perm);
    }

    /// Keeps the first `rows` rows.
    pub fn truncate(&mut self, rows: usize) {
        if rows >= self.len() {
            return;
        }
        self.index.truncate(rows);
        self.t_us.truncate(rows);
        self.bus.truncate(rows);
        self.mid.truncate(rows);
        self.protocol.truncate(rows);
        self.arena.truncate(self.spans[rows].0);
        self.spans.truncate(rows);
    }

    /// Empties the rows but keeps the dictionary and the buffers: the next
    /// rows code their buses against the same names.
    pub fn clear(&mut self) {
        self.index.clear();
        self.t_us.clear();
        self.bus.clear();
        self.mid.clear();
        self.protocol.clear();
        self.spans.clear();
        self.arena.clear();
    }

    /// The rows as one raw-trace batch under `schema`
    /// ([`raw_trace_schema`](crate::schema::raw_trace_schema)), cell for
    /// cell what [`records_to_batch`](crate::schema::records_to_batch)
    /// builds from the same rows.
    ///
    /// # Errors
    ///
    /// Propagates tabular-engine failures (a schema of another shape).
    pub fn to_batch(&self, schema: Arc<Schema>) -> Result<Batch> {
        // Protocol display names interned per batch, as records_to_batch does.
        let mut names: [Option<Arc<str>>; 4] = Default::default();
        let columns = vec![
            Column::from_floats(self.t_us.iter().map(|&t| t as f64 / 1e6)),
            Column::from_byte_payloads((0..self.len()).map(|i| Arc::from(self.payload(i)))),
            Column::from_strs(self.bus.iter().map(|&b| self.buses[b as usize].clone())),
            Column::from_ints(self.mid.iter().map(|&m| i64::from(m))),
            Column::from_strs(self.protocol.iter().map(|&p| {
                let name = &mut names[usize::from(protocol_tag(p))];
                name.get_or_insert_with(|| Arc::from(p.to_string())).clone()
            })),
        ];
        Ok(Batch::new(schema, columns)?)
    }

    /// Rows decoded from chunks materialized as indexed records — the row
    /// view of a scan.
    pub fn indexed_records(&self) -> Vec<IndexedRecord> {
        (0..self.len())
            .map(|i| IndexedRecord {
                index: self.index[i],
                bus_id: self.bus[i],
                record: self.record(i),
            })
            .collect()
    }

    /// The rows materialized as records.
    pub fn records(&self) -> Vec<Record> {
        (0..self.len()).map(|i| self.record(i)).collect()
    }

    fn record(&self, i: usize) -> Record {
        Record {
            timestamp_us: self.t_us[i],
            bus: self.buses[self.bus[i] as usize].clone(),
            message_id: self.mid[i],
            payload: self.payload(i).to_vec(),
            protocol: self.protocol[i],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pushed_rows_read_back_and_truncate() {
        let mut rows = GroupColumns::default();
        for (i, bus) in ["FC", "DC", "FC"].iter().enumerate() {
            let code = rows.intern_bus(bus);
            rows.push_row(i as u64, code, 7, Protocol::Lin, &[i as u8; 2]);
        }
        assert_eq!(rows.buses.len(), 2, "buses interned once each");
        let records = rows.records();
        assert_eq!(records[2].bus.as_ref(), "FC");
        assert_eq!(records[1].payload, vec![1, 1]);
        rows.truncate(1);
        assert_eq!(rows.records(), records[..1]);
        assert_eq!(rows.arena.len(), 2, "truncate drops the cut rows' payloads");
        rows.clear();
        assert!(rows.is_empty() && rows.buses.len() == 2);
    }
}
