//! [`GroupColumns`] — the store's one columnar row container.
//!
//! Rows live as key columns plus one payload arena, with bus names coded
//! against the container's own dictionary. The same type carries a scan's
//! surviving rows, a live source's batch on its way to the writer, the
//! writers' pending groups and the follower's decoded frame, so no row
//! becomes a per-row struct before a caller asks for records. The
//! interpretation kernel decodes it in place: its accessors are the
//! kernel's row source, so no raw-trace batch sits between a scan and
//! `K_s`.

use std::ops::Range;
use std::sync::Arc;

use ivnt_protocol::message::Protocol;

use crate::layout::{ChunkColumns, IndexedRecord};
use crate::record::Record;

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
    /// `[start, end)` of each row's payload in `arena`, which row views
    /// copy out of and the kernel reads in place.
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

    /// Each row's timestamp (µs).
    pub fn t_us(&self) -> &[u64] {
        &self.t_us
    }

    /// Each row's bus code, an index into [`GroupColumns::buses`].
    pub fn bus_codes(&self) -> &[u32] {
        &self.bus
    }

    /// Each row's message id.
    pub fn message_ids(&self) -> &[u32] {
        &self.mid
    }

    /// The bus dictionary the row codes index.
    pub fn buses(&self) -> &[Arc<str>] {
        &self.buses
    }

    /// Row `i`'s payload bytes, a slice of the arena.
    pub fn payload(&self, i: usize) -> &[u8] {
        &self.arena[self.spans[i].0..self.spans[i].1]
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

    /// Copies the `rows` of `chunk`, trace positions included, a column
    /// at a time. The chunk's bus codes index this container's dictionary.
    pub(crate) fn push_decoded(&mut self, chunk: &ChunkColumns<'_>, rows: Range<usize>) {
        self.index.extend_from_slice(&chunk.index[rows.clone()]);
        self.t_us.extend_from_slice(&chunk.t_us[rows.clone()]);
        self.bus.extend_from_slice(&chunk.bus[rows.clone()]);
        self.mid.extend_from_slice(&chunk.mid[rows.clone()]);
        self.protocol
            .extend_from_slice(&chunk.protocol[rows.clone()]);
        let (bytes, offsets) = chunk.payloads(rows);
        // Chunk offsets rebased from the first row's onto the arena's end.
        let (start, first) = (self.arena.len(), offsets[0]);
        self.arena.extend_from_slice(bytes);
        let cuts = offsets.windows(2);
        self.spans
            .extend(cuts.map(|w| (start + w[0] - first, start + w[1] - first)));
    }

    /// Restores trace order: a stable permutation by `index`, skipped when
    /// the rows are already in order. Positions are untrusted file
    /// content, so placement by offset (`GroupColumns::placement`) may
    /// take at most `slots` slots, the group's rows as the file backs
    /// them; otherwise `(index, row)` pairs are sorted — rows are
    /// distinct, so the unstable sort keeps equal positions in row order.
    pub(crate) fn restore_order(&mut self, slots: usize) {
        if self.index.is_sorted() {
            return;
        }
        let perm = self.placement(slots).unwrap_or_else(|| {
            let mut pairs: Vec<(u64, u32)> = (self.index.iter().copied())
                .zip(0..self.len() as u32)
                .collect();
            pairs.sort_unstable();
            pairs.into_iter().map(|(_, row)| row).collect()
        });
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

    /// The trace-order permutation built by placing each row at its
    /// position's offset in the group's index span: `None` when the span
    /// exceeds `slots` or two rows share a position.
    fn placement(&self, slots: usize) -> Option<Vec<u32>> {
        let min = *self.index.iter().min()?;
        let max = *self.index.iter().max()?;
        let span = usize::try_from(max - min).ok()?.checked_add(1)?;
        if span > slots {
            return None;
        }
        let mut at = vec![u32::MAX; span];
        for (row, &i) in self.index.iter().enumerate() {
            let slot = &mut at[(i - min) as usize];
            if *slot != u32::MAX {
                return None;
            }
            *slot = row as u32;
        }
        at.retain(|&row| row != u32::MAX);
        Some(at)
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

    /// Rows at trace positions `index`: row `k` carries `k` as its message
    /// id and in its payload, so any mix-up shows.
    fn at_positions(index: &[u64]) -> GroupColumns {
        let mut rows = GroupColumns::default();
        let bus = rows.intern_bus("FC");
        for (k, &i) in index.iter().enumerate() {
            rows.index.push(i);
            rows.push_row(i, bus, k as u32, Protocol::Can, &vec![k as u8; k % 3]);
        }
        rows
    }

    #[test]
    fn restore_order_is_a_stable_sort_by_position() {
        // The writer clusters a group by key, so a scan decodes each key's
        // rows in trace order, key after key.
        let clustered: Vec<u64> = (0..3u64)
            .flat_map(|key| (100..160u64).filter(move |i| i % 3 == key))
            .collect();
        let cases: [(Vec<u64>, usize); 5] = [
            // Placed by offset: the span fits the decoded rows.
            (clustered.clone(), 60),
            // Span beyond the slot budget: sorted pairs.
            (clustered, 40),
            // Already in order: untouched.
            ((500..540).collect(), 0),
            // A span no budget covers.
            (vec![9, 1 << 40, 3, 7], 4),
            // Shared positions: sorted pairs, ties in row order.
            (vec![5, 3, 5, 4, 3], 100),
        ];
        for (index, slots) in cases {
            let original = at_positions(&index);
            let mut perm: Vec<usize> = (0..index.len()).collect();
            perm.sort_by_key(|&k| index[k]);
            let want: Vec<Record> = perm.iter().map(|&k| original.record(k)).collect();
            let mut rows = at_positions(&index);
            rows.restore_order(slots);
            assert_eq!(rows.records(), want, "positions {index:?}");
            assert!(rows.index.is_sorted(), "positions {index:?}");
        }
    }
}
