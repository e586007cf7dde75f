//! On-disk layout: magics, checksums, zone maps, chunk codec and footer.
//!
//! A store file is one self-describing journey:
//!
//! ```text
//! ┌──────────────┐
//! │ magic IVNS1\0 │  8 bytes
//! ├──────────────┤
//! │ chunk 0      │  encoded columnar chunk (checksummed)
//! │ chunk 1      │
//! │ ...          │
//! ├──────────────┤
//! │ footer       │  bus dictionary + per-chunk index with zone maps
//! ├──────────────┤
//! │ trailer      │  footer offset/len/checksum + magic IVNSEND1 (32 bytes)
//! └──────────────┘
//! ```
//!
//! Chunks hold a fixed number of rows (the last chunk may be short) and are
//! encoded column-wise: original row indices and timestamps as zigzag-delta
//! varints, bus ids dictionary-encoded, message ids / payload lengths as
//! varints, payload bytes concatenated. Each chunk carries its row count and
//! is covered by an FNV-1a 64 checksum stored in the footer index, so a
//! reader touching only surviving chunks still detects corruption in what it
//! reads — and never pays for what it skips.

use std::ops::Range;
use std::sync::Arc;

use ivnt_protocol::message::Protocol;

use crate::columns::GroupColumns;
use crate::error::{Error, Result};
use crate::record::{protocol_from_tag, protocol_tag, Record};
use crate::varint::{self, Cursor};

/// Leading file magic (8 bytes, versioned).
pub const MAGIC: &[u8; 8] = b"IVNS1\0\0\0";

/// Trailing file magic (8 bytes, versioned).
pub const END_MAGIC: &[u8; 8] = b"IVNSEND1";

/// Fixed byte length of the trailer:
/// `footer_offset u64 | footer_len u64 | footer_checksum u64 | END_MAGIC`.
pub const TRAILER_LEN: usize = 8 + 8 + 8 + 8;

/// FNV-1a 64 — the store's checksum. Not cryptographic; it detects the
/// bit rot and truncation flaky capture hardware produces.
pub fn checksum(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, bytes)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 of `bytes`, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    hash
}

/// [`checksum`] of each of `bodies`, four FNV-1a chains at a time. Each
/// byte's multiply waits on the previous one's, so a single chain leaves
/// the multiplier idle most cycles; four independent bodies keep it busy.
/// A lane whose body ends takes the next body, and the last (at most
/// three) remainders finish one chain each.
pub(crate) fn checksums(bodies: &[&[u8]]) -> Vec<u64> {
    let mut sums = vec![FNV_OFFSET; bodies.len()];
    let mut queue = bodies.iter().enumerate();
    // In flight: (body, bytes not yet hashed).
    let mut lanes: Vec<(usize, &[u8])> = Vec::with_capacity(4);
    loop {
        lanes.retain(|(_, rest)| !rest.is_empty());
        lanes.extend(queue.by_ref().take(4 - lanes.len()).map(|(j, b)| (j, *b)));
        let [a, b, c, d] = lanes.as_mut_slice() else {
            break;
        };
        let step = a.1.len().min(b.1.len()).min(c.1.len()).min(d.1.len());
        let mut h = [sums[a.0], sums[b.0], sums[c.0], sums[d.0]];
        let bytes = a.1[..step].iter().zip(&b.1[..step]);
        for (((&x0, &x1), &x2), &x3) in bytes.zip(&c.1[..step]).zip(&d.1[..step]) {
            h[0] = (h[0] ^ u64::from(x0)).wrapping_mul(FNV_PRIME);
            h[1] = (h[1] ^ u64::from(x1)).wrapping_mul(FNV_PRIME);
            h[2] = (h[2] ^ u64::from(x2)).wrapping_mul(FNV_PRIME);
            h[3] = (h[3] ^ u64::from(x3)).wrapping_mul(FNV_PRIME);
        }
        for (lane, hash) in [a, b, c, d].into_iter().zip(h) {
            sums[lane.0] = hash;
            lane.1 = &lane.1[step..];
        }
    }
    for (j, rest) in lanes {
        sums[j] = fnv1a(sums[j], rest);
    }
    sums
}

/// Per-chunk statistics a scan consults *instead of* decoding the chunk.
///
/// The predicate test is conservative: a `true` means "may contain a
/// matching row", a `false` is a proof of absence (zone-map soundness — the
/// property tests assert a skipped chunk never holds a matching row).
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneMap {
    /// Smallest timestamp in the chunk (µs).
    pub min_t_us: u64,
    /// Largest timestamp in the chunk (µs).
    pub max_t_us: u64,
    /// Smallest message id in the chunk.
    pub min_mid: u32,
    /// Largest message id in the chunk.
    pub max_mid: u32,
    /// Bitset over the footer's bus dictionary: bit `i` set ⇔ the chunk
    /// contains a row on bus `i`.
    pub bus_bits: Vec<u8>,
}

impl ZoneMap {
    /// Zone map of rows `order` of `rows`, against their bus dictionary.
    pub(crate) fn compute(rows: &GroupColumns, order: &[u32]) -> ZoneMap {
        let mut zm = ZoneMap {
            min_t_us: u64::MAX,
            max_t_us: 0,
            min_mid: u32::MAX,
            max_mid: 0,
            bus_bits: vec![0u8; rows.buses.len().div_ceil(8)],
        };
        for &i in order {
            let (t, mid, bus) = (
                rows.t_us[i as usize],
                rows.mid[i as usize],
                rows.bus[i as usize],
            );
            zm.min_t_us = zm.min_t_us.min(t);
            zm.max_t_us = zm.max_t_us.max(t);
            zm.min_mid = zm.min_mid.min(mid);
            zm.max_mid = zm.max_mid.max(mid);
            zm.bus_bits[bus as usize / 8] |= 1 << (bus % 8);
        }
        zm
    }

    /// Whether bus dictionary id `bus` occurs in the chunk.
    #[inline]
    pub fn has_bus(&self, bus: u32) -> bool {
        self.bus_bits
            .get(bus as usize / 8)
            .is_some_and(|b| b & (1 << (bus % 8)) != 0)
    }

    /// Whether `mid` lies within the chunk's message-id band.
    #[inline]
    pub fn mid_in_range(&self, mid: u32) -> bool {
        (self.min_mid..=self.max_mid).contains(&mid)
    }

    /// Whether `[from_us, to_us]` overlaps the chunk's time band.
    #[inline]
    pub fn time_overlaps(&self, from_us: u64, to_us: u64) -> bool {
        self.min_t_us <= to_us && self.max_t_us >= from_us
    }
}

/// Footer index entry for one chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkMeta {
    /// Byte offset of the encoded chunk within the file.
    pub offset: u64,
    /// Encoded byte length.
    pub len: u32,
    /// Rows in the chunk.
    pub rows: u32,
    /// Row group the chunk belongs to (order restoration scope).
    pub group: u32,
    /// FNV-1a 64 over the encoded chunk bytes.
    pub checksum: u64,
    /// Skip statistics.
    pub zone: ZoneMap,
}

/// The decoded footer: dictionary + index.
#[derive(Debug, Clone, PartialEq)]
pub struct Footer {
    /// Bus dictionary; chunk rows reference entries by position.
    pub buses: Vec<Arc<str>>,
    /// Total rows across all chunks.
    pub rows: u64,
    /// Number of row groups.
    pub groups: u32,
    /// Rows the writer buffered (and the reader must buffer) per group.
    pub group_rows: u32,
    /// Whether groups were clustered by `(b_id, m_id)` before chunking.
    pub clustered: bool,
    /// Store generation: the number of row-group flushes ever performed
    /// on this file. Advances on every append-mode micro-batch flush, so
    /// plan/result caches keyed on it are invalidated the moment new data
    /// lands. Readers that want a collision-resistant cache epoch should
    /// combine it with `rows` and `chunks.len()` (a compacted rewrite has
    /// the same rows but different chunk geometry).
    pub generation: u64,
    /// Per-chunk index, in file order.
    pub chunks: Vec<ChunkMeta>,
}

/// One row group's extent within the chunk index — the scheduling granule
/// of shard planners (a group is the order-restoration scope, so a shard
/// boundary may never cut through one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupSpan {
    /// Group id.
    pub group: u32,
    /// Index of the group's first chunk in [`Footer::chunks`].
    pub chunk_start: usize,
    /// One past the group's last chunk in [`Footer::chunks`].
    pub chunk_end: usize,
    /// Rows across the group's chunks.
    pub rows: u64,
}

impl Footer {
    /// Per-group chunk ranges, in group order. Consumed by shard planners
    /// and by `store info --json`; groups are contiguous in file order by
    /// construction (the writer flushes one group at a time). Sized from
    /// the chunk index, never from the declared `groups` count.
    pub fn group_spans(&self) -> Vec<GroupSpan> {
        let mut spans: Vec<GroupSpan> = Vec::with_capacity(self.chunks.len());
        for (idx, chunk) in self.chunks.iter().enumerate() {
            match spans.last_mut() {
                Some(span) if span.group == chunk.group => {
                    span.chunk_end = idx + 1;
                    span.rows += u64::from(chunk.rows);
                }
                _ => spans.push(GroupSpan {
                    group: chunk.group,
                    chunk_start: idx,
                    chunk_end: idx + 1,
                    rows: u64::from(chunk.rows),
                }),
            }
        }
        spans
    }

    /// Checks that the chunks lie in file order, without overlap, inside
    /// the data region `[MAGIC.len(), data_end)` — so no length taken from
    /// the index can size a read past the bytes the file holds.
    ///
    /// # Errors
    ///
    /// [`Error::Truncated`] for a chunk outside the region,
    /// [`Error::Format`] for overlapping or out-of-order chunks.
    pub(crate) fn check_extents(&self, data_end: u64) -> Result<()> {
        let mut prev_end = MAGIC.len() as u64;
        for (i, c) in self.chunks.iter().enumerate() {
            let end = c.offset.saturating_add(u64::from(c.len));
            if c.offset < MAGIC.len() as u64 || end > data_end {
                return Err(Error::Truncated(format!(
                    "chunk {i} outside the data region"
                )));
            }
            if c.offset < prev_end {
                return Err(Error::Format(format!("chunk {i} overlaps its predecessor")));
            }
            prev_end = end;
        }
        Ok(())
    }
}

/// Encodes rows `order` of `rows` as one chunk, column-wise. The rows were
/// pushed in trace order: row `i` sits at trace index `first_index + i`.
pub(crate) fn encode_chunk(rows: &GroupColumns, order: &[u32], first_index: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(order.len() * 12);
    out.extend_from_slice(&(order.len() as u32).to_le_bytes());
    let rows_at = order.iter().map(|&i| i as usize);
    // Original row indices and timestamps: absolute first, zigzag deltas
    // after.
    let mut deltas = |values: &mut dyn Iterator<Item = u64>| {
        let mut prev = None;
        for v in values {
            match prev {
                None => varint::write_u64(&mut out, v),
                Some(p) => varint::write_i64(&mut out, v.wrapping_sub(p) as i64),
            }
            prev = Some(v);
        }
    };
    deltas(&mut rows_at.clone().map(|i| first_index + i as u64));
    deltas(&mut rows_at.clone().map(|i| rows.t_us[i]));
    for i in rows_at.clone() {
        varint::write_u64(&mut out, u64::from(rows.bus[i]));
    }
    for i in rows_at.clone() {
        varint::write_u64(&mut out, u64::from(rows.mid[i]));
    }
    out.extend(rows_at.clone().map(|i| protocol_tag(rows.protocol[i])));
    for i in rows_at.clone() {
        varint::write_u64(&mut out, rows.payload(i).len() as u64);
    }
    for i in rows_at {
        out.extend_from_slice(rows.payload(i));
    }
    out
}

/// A decoded row carrying its original trace position.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexedRecord {
    /// Original position of the row within the whole trace.
    pub index: u64,
    /// Dictionary id of the row's bus in the file footer.
    pub bus_id: u32,
    /// The record itself.
    pub record: Record,
}

/// One chunk decoded into key columns — the store's only chunk decoder's
/// output. No row value is built: payloads stay in the checksummed chunk
/// bytes this borrows, so a scan tests keys first and copies only
/// survivors. The columns borrow the [`ChunkBuffers`] they were decoded
/// into.
pub(crate) struct ChunkColumns<'a> {
    pub(crate) index: &'a [u64],
    pub(crate) t_us: &'a [u64],
    pub(crate) bus: &'a [u32],
    pub(crate) mid: &'a [u32],
    pub(crate) protocol: &'a [Protocol],
    /// `rows + 1` offsets into `payloads`.
    payload_offsets: &'a [usize],
    payloads: &'a [u8],
}

impl<'a> ChunkColumns<'a> {
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    pub(crate) fn payload(&self, i: usize) -> &'a [u8] {
        &self.payloads[self.payload_offsets[i]..self.payload_offsets[i + 1]]
    }

    /// The payload bytes of `rows`, back to back, and the `rows.len() + 1`
    /// offsets that cut them (relative to the chunk's payload region).
    pub(crate) fn payloads(&self, rows: Range<usize>) -> (&'a [u8], &'a [usize]) {
        let offsets = &self.payload_offsets[rows.start..=rows.end];
        (&self.payloads[offsets[0]..offsets[rows.len()]], offsets)
    }
}

/// The column buffers chunks decode into. A scan keeps one across all
/// its chunks, so a chunk's decode reuses the previous one's allocations.
#[derive(Debug, Default)]
pub(crate) struct ChunkBuffers {
    index: Vec<u64>,
    t_us: Vec<u64>,
    bus: Vec<u32>,
    mid: Vec<u32>,
    protocol: Vec<Protocol>,
    payload_offsets: Vec<usize>,
}

impl ChunkBuffers {
    /// Decodes an encoded chunk into these buffers; bus codes must lie
    /// below `bus_count` (the footer dictionary's size). Malformed bytes
    /// and out-of-dictionary bus references are [`Error::Truncated`] /
    /// [`Error::Format`].
    pub(crate) fn decode<'a>(
        &'a mut self,
        bytes: &'a [u8],
        bus_count: usize,
    ) -> Result<ChunkColumns<'a>> {
        let mut cur = Cursor::new(bytes);
        let rows = cur.read_u32_le()? as usize;
        // A chunk never holds more rows than bytes; reject sizes that a
        // truncated-then-checksum-bypassed file could otherwise allocate.
        if rows > bytes.len() {
            return Err(Error::Format(format!(
                "chunk declares {rows} rows in {} bytes",
                bytes.len()
            )));
        }
        // Indices and timestamps: absolute first value, zigzag deltas after.
        let deltas = |cur: &mut Cursor<'_>, out: &mut Vec<u64>| -> Result<()> {
            out.clear();
            out.reserve(rows);
            let mut prev: u64 = 0;
            for i in 0..rows {
                prev = if i == 0 {
                    cur.read_u64()?
                } else {
                    prev.wrapping_add(cur.read_i64()? as u64)
                };
                out.push(prev);
            }
            Ok(())
        };
        deltas(&mut cur, &mut self.index)?;
        deltas(&mut cur, &mut self.t_us)?;
        self.bus.clear();
        self.bus.reserve(rows);
        for _ in 0..rows {
            let id = cur.read_u64()?;
            if usize::try_from(id).ok().is_none_or(|i| i >= bus_count) {
                return Err(Error::Format(format!("bus id {id} not in dictionary")));
            }
            self.bus.push(id as u32);
        }
        self.mid.clear();
        self.mid.reserve(rows);
        for _ in 0..rows {
            let m = cur.read_u64()?;
            self.mid.push(
                u32::try_from(m)
                    .map_err(|_| Error::Format(format!("message id {m} exceeds u32")))?,
            );
        }
        self.protocol.clear();
        self.protocol.reserve(rows);
        for _ in 0..rows {
            self.protocol.push(protocol_from_tag(cur.read_u8()?)?);
        }
        self.payload_offsets.clear();
        self.payload_offsets.reserve(rows + 1);
        self.payload_offsets.push(0usize);
        let mut total: usize = 0;
        for _ in 0..rows {
            let len = usize::try_from(cur.read_u64()?)
                .map_err(|_| Error::Format("payload length overflow".into()))?;
            total = total
                .checked_add(len)
                .ok_or_else(|| Error::Format("payload length overflow".into()))?;
            self.payload_offsets.push(total);
        }
        if total != cur.remaining() {
            return Err(Error::Format(format!(
                "payload section is {} bytes, lengths sum to {total}",
                cur.remaining()
            )));
        }
        Ok(ChunkColumns {
            index: &self.index,
            t_us: &self.t_us,
            bus: &self.bus,
            mid: &self.mid,
            protocol: &self.protocol,
            payload_offsets: &self.payload_offsets,
            payloads: cur.read_slice(total)?,
        })
    }
}

/// Decodes an encoded chunk into indexed records (chunk order), resolving
/// bus ids through `buses` (the footer dictionary) — a row view over
/// [`ChunkBuffers::decode`].
///
/// # Errors
///
/// Returns [`Error::Truncated`] / [`Error::Format`] for malformed bytes and
/// out-of-dictionary bus references.
pub fn decode_chunk(bytes: &[u8], buses: &[Arc<str>]) -> Result<Vec<IndexedRecord>> {
    let mut buffers = ChunkBuffers::default();
    let cols = buffers.decode(bytes, buses.len())?;
    Ok((0..cols.len())
        .map(|i| IndexedRecord {
            index: cols.index[i],
            bus_id: cols.bus[i],
            record: Record {
                timestamp_us: cols.t_us[i],
                bus: buses[cols.bus[i] as usize].clone(),
                message_id: cols.mid[i],
                payload: cols.payload(i).to_vec(),
                protocol: cols.protocol[i],
            },
        })
        .collect())
}

/// Encodes the footer.
///
/// # Errors
///
/// Returns [`Error::Format`] for bus names longer than `u16::MAX` bytes.
pub fn encode_footer(footer: &Footer) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    out.extend_from_slice(&(footer.buses.len() as u32).to_le_bytes());
    for bus in &footer.buses {
        let bytes = bus.as_bytes();
        if bytes.len() > u16::MAX as usize {
            return Err(Error::Format("bus id longer than 65535 bytes".into()));
        }
        out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
        out.extend_from_slice(bytes);
    }
    out.extend_from_slice(&footer.rows.to_le_bytes());
    out.extend_from_slice(&footer.groups.to_le_bytes());
    out.extend_from_slice(&footer.group_rows.to_le_bytes());
    out.push(u8::from(footer.clustered));
    out.extend_from_slice(&footer.generation.to_le_bytes());
    out.extend_from_slice(&(footer.chunks.len() as u32).to_le_bytes());
    let bus_bitset_len = footer.buses.len().div_ceil(8);
    for c in &footer.chunks {
        out.extend_from_slice(&c.offset.to_le_bytes());
        out.extend_from_slice(&c.len.to_le_bytes());
        out.extend_from_slice(&c.rows.to_le_bytes());
        out.extend_from_slice(&c.group.to_le_bytes());
        out.extend_from_slice(&c.checksum.to_le_bytes());
        out.extend_from_slice(&c.zone.min_t_us.to_le_bytes());
        out.extend_from_slice(&c.zone.max_t_us.to_le_bytes());
        out.extend_from_slice(&c.zone.min_mid.to_le_bytes());
        out.extend_from_slice(&c.zone.max_mid.to_le_bytes());
        // Chunks flushed before the dictionary grew carry shorter bitsets
        // (bits for later buses are implicitly zero). The footer stride is
        // fixed at the final dictionary width, so pad with zero bytes —
        // otherwise a 9th bus appearing after an earlier group flush would
        // desynchronize every reader of the index.
        if c.zone.bus_bits.len() > bus_bitset_len {
            return Err(Error::Format(format!(
                "chunk bus bitset is {} bytes, dictionary allows {bus_bitset_len}",
                c.zone.bus_bits.len()
            )));
        }
        out.extend_from_slice(&c.zone.bus_bits);
        out.resize(out.len() + (bus_bitset_len - c.zone.bus_bits.len()), 0);
    }
    Ok(out)
}

/// Decodes a footer written by [`encode_footer`].
///
/// # Errors
///
/// Returns [`Error::Truncated`] / [`Error::Format`] for malformed bytes,
/// including a chunk whose group id is not below the declared `groups`
/// count or decreases along the index.
pub fn decode_footer(bytes: &[u8]) -> Result<Footer> {
    let mut cur = Cursor::new(bytes);
    let bus_count = cur.read_u32_le()? as usize;
    // Declared counts drive allocations: each must fit the bytes left at
    // its entries' minimum encoded size (2-byte name length per bus).
    check_room(bus_count, 2, cur.remaining(), "buses")?;
    let mut buses = Vec::with_capacity(bus_count);
    for _ in 0..bus_count {
        let len = u16::from_le_bytes(cur.read_slice(2)?.try_into().expect("2 bytes")) as usize;
        let name = std::str::from_utf8(cur.read_slice(len)?)
            .map_err(|_| Error::Format("bus id not UTF-8".into()))?;
        buses.push(Arc::from(name));
    }
    let rows = cur.read_u64_le()?;
    let groups = cur.read_u32_le()?;
    let group_rows = cur.read_u32_le()?;
    let clustered = match cur.read_u8()? {
        0 => false,
        1 => true,
        other => return Err(Error::Format(format!("bad clustered flag {other}"))),
    };
    let generation = cur.read_u64_le()?;
    let chunk_count = cur.read_u32_le()? as usize;
    let bus_bitset_len = bus_count.div_ceil(8);
    check_room(
        chunk_count,
        CHUNK_META_FIXED_LEN + bus_bitset_len,
        cur.remaining(),
        "chunks",
    )?;
    let mut chunks = Vec::with_capacity(chunk_count);
    for _ in 0..chunk_count {
        let offset = cur.read_u64_le()?;
        let len = cur.read_u32_le()?;
        let rows = cur.read_u32_le()?;
        let group = cur.read_u32_le()?;
        let checksum = cur.read_u64_le()?;
        let min_t_us = cur.read_u64_le()?;
        let max_t_us = cur.read_u64_le()?;
        let min_mid = cur.read_u32_le()?;
        let max_mid = cur.read_u32_le()?;
        let bus_bits = cur.read_slice(bus_bitset_len)?.to_vec();
        let prev_group = chunks.last().map_or(0, |c: &ChunkMeta| c.group);
        if group >= groups || group < prev_group {
            return Err(Error::Format(format!(
                "chunk {} has group {group}, expected {prev_group}..{groups}",
                chunks.len()
            )));
        }
        chunks.push(ChunkMeta {
            offset,
            len,
            rows,
            group,
            checksum,
            zone: ZoneMap {
                min_t_us,
                max_t_us,
                min_mid,
                max_mid,
                bus_bits,
            },
        });
    }
    Ok(Footer {
        buses,
        rows,
        groups,
        group_rows,
        clustered,
        generation,
        chunks,
    })
}

/// Encoded bytes of one footer index entry before its bus bitset:
/// offset, len, rows, group, checksum, zone-map times and message ids.
const CHUNK_META_FIXED_LEN: usize = 8 + 4 + 4 + 4 + 8 + 8 + 8 + 4 + 4;

fn check_room(count: usize, entry_len: usize, remaining: usize, what: &str) -> Result<()> {
    match count.checked_mul(entry_len) {
        Some(need) if need <= remaining => Ok(()),
        _ => Err(Error::Format(format!(
            "{count} {what} in {remaining} bytes"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivnt_protocol::message::Protocol;

    /// `n` rows alternating buses FC and DC, row `i` with an `i`-byte
    /// payload.
    fn rows(n: usize) -> GroupColumns {
        let mut rows = GroupColumns::default();
        for i in 0..n {
            let bus = rows.intern_bus(["FC", "DC"][i % 2]);
            let payload = vec![i as u8; i];
            rows.push_row(
                1_000 * i as u64,
                bus,
                100 + (i % 3) as u32,
                Protocol::Can,
                &payload,
            );
        }
        rows
    }

    #[test]
    fn chunk_roundtrip() {
        let rows = rows(5);
        let buses: Vec<Arc<str>> = vec![Arc::from("FC"), Arc::from("DC")];
        let encoded = encode_chunk(&rows, &[0, 1, 2, 3, 4], 10);
        let decoded = decode_chunk(&encoded, &buses).unwrap();
        assert_eq!(decoded.len(), 5);
        assert_eq!(decoded[3].index, 13);
        assert_eq!(decoded[3].record.timestamp_us, 3_000);
        assert_eq!(decoded[3].record.bus.as_ref(), "DC");
        assert_eq!(decoded[3].record.message_id, 100);
        assert_eq!(decoded[3].record.payload, vec![3u8; 3]);
    }

    #[test]
    fn zone_map_covers_rows() {
        let zm = ZoneMap::compute(&rows(4), &[3, 1, 0, 2]);
        assert_eq!((zm.min_t_us, zm.max_t_us), (0, 3_000));
        assert_eq!((zm.min_mid, zm.max_mid), (100, 102));
        assert!(zm.has_bus(0) && zm.has_bus(1) && !zm.has_bus(2));
        assert!(zm.time_overlaps(2_500, 9_999));
        assert!(!zm.time_overlaps(3_001, 9_999));
        assert!(zm.mid_in_range(101) && !zm.mid_in_range(99));
    }

    #[test]
    fn footer_roundtrip() {
        let footer = Footer {
            buses: vec![Arc::from("FC"), Arc::from("DC"), Arc::from("K-LIN")],
            rows: 12345,
            groups: 3,
            group_rows: 4096,
            clustered: true,
            generation: 7,
            chunks: vec![ChunkMeta {
                offset: 8,
                len: 99,
                rows: 50,
                group: 0,
                checksum: 0xABCD,
                zone: ZoneMap {
                    min_t_us: 1,
                    max_t_us: 2,
                    min_mid: 3,
                    max_mid: 4,
                    bus_bits: vec![0b101],
                },
            }],
        };
        let encoded = encode_footer(&footer).unwrap();
        assert_eq!(decode_footer(&encoded).unwrap(), footer);
    }

    #[test]
    fn footer_pads_bitsets_written_before_dictionary_grew() {
        // A chunk flushed while the dictionary held 8 buses carries a
        // 1-byte bitset; once a 9th bus exists the footer stride is 2
        // bytes and the short bitset must be zero-padded on encode.
        let buses: Vec<Arc<str>> = (0..9)
            .map(|i| Arc::from(format!("B{i}").as_str()))
            .collect();
        let chunk = |bus_bits: Vec<u8>| ChunkMeta {
            offset: 8,
            len: 1,
            rows: 1,
            group: 0,
            checksum: 0,
            zone: ZoneMap {
                min_t_us: 0,
                max_t_us: 0,
                min_mid: 0,
                max_mid: 0,
                bus_bits,
            },
        };
        let footer = Footer {
            buses,
            rows: 2,
            groups: 2,
            group_rows: 1,
            clustered: true,
            generation: 2,
            chunks: vec![chunk(vec![0b1]), chunk(vec![0, 0b1])],
        };
        let decoded = decode_footer(&encode_footer(&footer).unwrap()).unwrap();
        assert_eq!(decoded.chunks[0].zone.bus_bits, vec![0b1, 0]);
        assert_eq!(decoded.chunks[1].zone.bus_bits, vec![0, 0b1]);
        assert!(decoded.chunks[0].zone.has_bus(0) && !decoded.chunks[0].zone.has_bus(8));
        assert!(decoded.chunks[1].zone.has_bus(8));
        // An oversized bitset is a writer bug — reported, not mangled.
        let bad = Footer {
            chunks: vec![chunk(vec![0; 3])],
            ..footer
        };
        assert!(matches!(encode_footer(&bad), Err(Error::Format(_))));
    }

    #[test]
    fn malformed_chunk_rejected() {
        let buses: Vec<Arc<str>> = vec![Arc::from("FC")];
        assert!(decode_chunk(&[1, 2], &buses).is_err());
        // Row count far beyond the byte count.
        let mut bytes = (u32::MAX).to_le_bytes().to_vec();
        bytes.push(0);
        assert!(matches!(
            decode_chunk(&bytes, &buses),
            Err(Error::Format(_))
        ));
        // Bus reference outside the dictionary.
        let mut rows = GroupColumns::default();
        let bus = (0..8)
            .map(|b| rows.intern_bus(&format!("B{b}")))
            .last()
            .unwrap();
        rows.push_row(0, bus, 0, Protocol::Can, &[]);
        let encoded = encode_chunk(&rows, &[0], 0);
        assert!(matches!(
            decode_chunk(&encoded, &buses),
            Err(Error::Format(_))
        ));
    }

    #[test]
    fn interleaved_checksums_match_one_chain_each() {
        // Lengths cover empty bodies, lanes ending at once and refills
        // after the queue runs dry.
        let bodies: Vec<Vec<u8>> = [0usize, 5, 64, 3, 3, 0, 17, 1, 200, 9, 2]
            .iter()
            .enumerate()
            .map(|(k, &len)| (0..len).map(|i| (i * 31 + k * 7) as u8).collect())
            .collect();
        for n in 0..=bodies.len() {
            let slices: Vec<&[u8]> = bodies[..n].iter().map(Vec::as_slice).collect();
            let one_each: Vec<u64> = slices.iter().map(|b| checksum(b)).collect();
            assert_eq!(checksums(&slices), one_each, "{n} bodies");
        }
    }

    #[test]
    fn checksum_is_stable_and_sensitive() {
        let a = checksum(b"hello");
        assert_eq!(a, checksum(b"hello"));
        assert_ne!(a, checksum(b"hellp"));
        assert_ne!(checksum(b""), 0);
    }
}
