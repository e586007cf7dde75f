//! Bit-exact wire encoding of result batches.
//!
//! A worker's shard result is a list of [`Batch`]es in the interpreted
//! signal schema. Each batch is encoded column-wise: a validity bitmap
//! followed by the non-null cells. Floats are shipped as their raw
//! IEEE-754 bit pattern (`u64` LE) so the coordinator's merge is
//! *bit*-identical to a single-process run — NaN payloads, signed zeros
//! and subnormals all survive the trip. Both ends hold the schema (it is
//! implied by the job), so only a consistency tag per column travels.
//!
//! Two encodings coexist:
//!
//! * [`encode_batch`]/[`decode_batch`] — the flat encoding of the retired
//!   wire v2. Neither the wire nor checkpoints carry it: it is the
//!   byte-level fingerprint format tests and benchmarks compare frames
//!   by, and the round-trip oracle the compressed codec is checked
//!   against.
//! * [`encode_batch_compressed`]/[`decode_batch_compressed`] — the v3
//!   encoding, reusing the store's varint/zigzag-delta codecs on
//!   numeric columns and dictionary encoding on low-cardinality
//!   string/value columns. Every column carries a one-byte mode chosen
//!   *deterministically from the cell values*, so re-encoding a decoded
//!   batch reproduces the exact bytes (the proptests pin this).
//!   Compression is lossless at the bit level: float deltas and float
//!   dictionaries operate on raw IEEE-754 bit patterns, never values.
//!   The encoder *sizes* every mode arithmetically and writes only the
//!   winner; the race that materialized every candidate body survives
//!   as the test oracle (`tests/codec_oracle.rs`).

use std::borrow::Cow;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::Arc;

use ivnt_frame::batch::Batch;
use ivnt_frame::column::{Column, DictColumn};
use ivnt_frame::datatype::{DataType, Schema};
use ivnt_store::varint::{self, Cursor};

use crate::error::{Error, Result};
use crate::wire::MAX_FRAME_LEN;

/// Per-column encoding modes of the v3 compressed batch format.
mod mode {
    /// Cells exactly as in the v2 encoding.
    pub const RAW: u8 = 0;
    /// Int: zigzag varint of the wrapping delta between consecutive
    /// non-null cells (previous value starts at 0).
    pub const DELTA: u8 = 1;
    /// Float: zigzag varint of the wrapping delta between consecutive
    /// non-null cells' raw bit patterns (previous bits start at 0).
    /// Bit patterns of ordered positive floats are themselves ordered,
    /// so near-monotone series (timestamps) delta small.
    pub const BITS_DELTA: u8 = 2;
    /// Str: dictionary in first-appearance order + varint indexes.
    pub const DICT: u8 = 3;
    /// Float: dictionary of raw bit patterns + varint indexes — wins
    /// when physical values are quantized onto few distinct levels.
    pub const DICT_BITS: u8 = 4;
    /// Bool: non-null cells packed eight to a byte.
    pub const PACKED: u8 = 5;
    /// Float: second-order bit-pattern delta. Regularly sampled
    /// timestamps have near-constant first deltas, so the second
    /// difference collapses to one-byte varints.
    pub const BITS_DELTA2: u8 = 6;
    /// Float: bit-pattern delta against the previous non-null cell
    /// holding the *same key* — the cell of the batch's first string
    /// column on the same row. Interpreted traces interleave many
    /// signals into one column; per-signal series are smooth even when
    /// the column as a whole is not.
    pub const BITS_KEYED: u8 = 7;
    /// Float: second-order keyed bit-pattern delta. Per-signal
    /// timestamps are near-periodic, so the keyed first deltas are
    /// near-constant and the second difference collapses.
    pub const BITS_KEYED2: u8 = 8;
}

fn type_tag(dt: DataType) -> u8 {
    match dt {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Str => 3,
        DataType::Bytes => 4,
    }
}

/// Appends a validity bitmap, one `valid` flag per cell.
fn write_bitmap(out: &mut Vec<u8>, valid: impl Iterator<Item = bool>) {
    let (mut byte, mut filled) = (0u8, 0u32);
    for v in valid {
        byte |= u8::from(v) << filled;
        filled += 1;
        if filled == 8 {
            out.push(byte);
            (byte, filled) = (0, 0);
        }
    }
    if filled > 0 {
        out.push(byte);
    }
}

fn validity<T>(cells: &[Option<T>]) -> impl Iterator<Item = bool> + '_ {
    cells.iter().map(Option::is_some)
}

/// [`write_bitmap`] of `rows` cells that skips the walk when none is
/// null.
fn write_validity(out: &mut Vec<u8>, rows: usize, nulls: bool, valid: impl Iterator<Item = bool>) {
    if nulls {
        write_bitmap(out, valid);
    } else {
        out.resize(out.len() + rows / 8, 0xFF);
        if !rows.is_multiple_of(8) {
            out.push((1u8 << (rows % 8)) - 1);
        }
    }
}

/// Appends a length-prefixed byte string.
fn write_blob(out: &mut Vec<u8>, bytes: &[u8]) {
    varint::write_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Encodes one batch into bytes decodable by [`decode_batch`]. Only
/// string content travels, never a dictionary's codes.
pub fn encode_batch(batch: &Batch) -> Vec<u8> {
    let rows = batch.num_rows();
    let mut out = Vec::new();
    varint::write_u64(&mut out, rows as u64);
    varint::write_u64(&mut out, batch.columns().len() as u64);
    for col in batch.columns() {
        out.push(type_tag(col.data_type()));
        match col {
            Column::Bool(cells) => {
                write_bitmap(&mut out, validity(cells));
                for c in cells.iter().flatten() {
                    out.push(u8::from(*c));
                }
            }
            Column::Int(cells) => {
                write_bitmap(&mut out, validity(cells));
                for c in cells.iter().flatten() {
                    varint::write_i64(&mut out, *c);
                }
            }
            Column::Float(cells) => {
                write_bitmap(&mut out, validity(cells));
                for c in cells.iter().flatten() {
                    out.extend_from_slice(&c.to_bits().to_le_bytes());
                }
            }
            Column::Str(cells) => {
                write_bitmap(&mut out, cells.iter().map(|c| c.is_some()));
                for c in cells.iter().flatten() {
                    write_blob(&mut out, c.as_bytes());
                }
            }
            Column::Bytes(cells) => {
                write_bitmap(&mut out, validity(cells));
                for c in cells.iter().flatten() {
                    write_blob(&mut out, c);
                }
            }
        }
    }
    out
}

/// Bytes `v` costs as an LEB128 varint.
fn varint_len(v: u64) -> u64 {
    u64::from((70 - (v | 1).leading_zeros()) / 7)
}

/// Bytes `v` costs as a zigzag varint.
fn zigzag_len(v: i64) -> u64 {
    varint_len(varint::zigzag(v))
}

/// Bytes a length-prefixed byte string costs.
fn blob_len(len: usize) -> u64 {
    varint_len(len as u64) + len as u64
}

/// Hasher for the `u64` keys of the encoder's float dictionary (bit
/// patterns): a seeded folded multiply instead of SipHash per cell. The
/// high half of the 128-bit product carries every key bit into the low
/// bits that pick the bucket: quantized floats share their low mantissa
/// bits, and a 64-bit product alone would pile them into a few buckets. Float bits come from
/// trace files, so the seed is drawn per table from [`RandomState`] —
/// bucket placement cannot be predicted from the data. Table *contents*
/// never depend on it: dictionaries are in first-appearance order.
struct BitsHasher(u64);

impl Hasher for BitsHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("BitsHasher only hashes u64 keys");
    }

    fn write_u64(&mut self, v: u64) {
        let product = u128::from(v ^ self.0) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

struct BitsState(u64);

impl Default for BitsState {
    fn default() -> BitsState {
        BitsState(RandomState::new().hash_one(0u64))
    }
}

impl BuildHasher for BitsState {
    type Hasher = BitsHasher;

    fn build_hasher(&self) -> BitsHasher {
        BitsHasher(self.0)
    }
}

type BitsMap = HashMap<u64, u32, BitsState>;

fn dict_code(len: usize) -> u32 {
    u32::try_from(len).expect("dictionary entries fit u32")
}

/// A code whose slot is not assigned yet in [`StrDict::from_codes`].
const UNSEEN: u32 = u32::MAX;

/// A string column's dictionary in first-appearance order and every
/// row's slot in it — 0 for a null, else 1 + the entry's index: the DICT
/// body of the column itself and, for the batch's first string column,
/// the key the keyed float modes chain on.
///
/// The column lends its codes ([`DictColumn::NULL`] for a null); they
/// reach their slot through `remap`, indexed by code + 1, so a null's code
/// wraps onto slot 0.
struct StrDict<'a> {
    entries: Vec<&'a str>,
    codes: Cow<'a, [u32]>,
    remap: Vec<u32>,
    /// Per slot: the rows holding it.
    counts: Vec<u64>,
}

impl<'a> StrDict<'a> {
    /// No row is hashed: one histogram pass over the codes, then a walk of
    /// the leading rows that stops once every code in use has met its
    /// first row, resolving each by content — a remap the size of the
    /// dictionary, content-equal entries merged.
    fn from_codes(col: &'a DictColumn) -> StrDict<'a> {
        let (values, codes) = (col.values(), col.codes());
        let mut rows = vec![0u64; values.len() + 1];
        for &code in codes {
            rows[code.wrapping_add(1) as usize] += 1;
        }
        let mut dict = StrDict {
            entries: Vec::new(),
            codes: Cow::Borrowed(codes),
            remap: vec![UNSEEN; values.len() + 1],
            counts: vec![rows[0]],
        };
        dict.remap[0] = 0;
        let mut by_content: HashMap<&'a str, u32> = HashMap::new();
        let mut pending = rows[1..].iter().filter(|&&n| n > 0).count();
        for &code in codes {
            if pending == 0 {
                break;
            }
            let at = code.wrapping_add(1) as usize;
            if dict.remap[at] == UNSEEN {
                let slot = dict.slot_of(&mut by_content, &values[code as usize]);
                dict.remap[at] = slot;
                dict.counts[slot as usize] += rows[at];
                pending -= 1;
            }
        }
        dict
    }

    /// The slot of `s`'s content, a new entry on its first appearance.
    fn slot_of(&mut self, by_content: &mut HashMap<&'a str, u32>, s: &'a str) -> u32 {
        *by_content.entry(s).or_insert_with(|| {
            self.entries.push(s);
            self.counts.push(0);
            dict_code(self.entries.len())
        })
    }

    /// Every row's slot, in row order.
    fn slots(&self) -> impl Iterator<Item = u32> + '_ {
        self.codes
            .iter()
            .map(|&code| self.remap[code.wrapping_add(1) as usize])
    }
}

/// Bytes past a body's end [`Body::varint`] may scribble on.
const BODY_SLACK: usize = 8;

/// A column body written in place. The encoder sized it exactly, so the
/// buffer grows once and every cell is a store at a known offset, with
/// no capacity check per byte.
struct Body<'a> {
    buf: &'a mut [u8],
    pos: usize,
}

impl Body<'_> {
    /// Appends a body of exactly `len` bytes, written by `fill`.
    ///
    /// # Panics
    ///
    /// When `fill` writes another length than the one it was sized at.
    fn write(out: &mut Vec<u8>, len: u64, fill: impl FnOnce(&mut Body<'_>)) {
        let (base, len) = (out.len(), len as usize);
        out.resize(base + len + BODY_SLACK, 0);
        let mut body = Body {
            buf: &mut out[base..],
            pos: 0,
        };
        fill(&mut body);
        assert_eq!(body.pos, len, "a body fills the size it was given");
        out.truncate(base + len);
    }

    /// An LEB128 varint. Up to 56 bits it is one 8-byte store: the 7-bit
    /// groups spread one to a byte, continuation bits on all but the last.
    #[inline]
    fn varint(&mut self, v: u64) {
        let n = varint_len(v) as usize;
        if n > 8 {
            let mut v = v;
            while v >= 0x80 {
                self.buf[self.pos] = v as u8 | 0x80;
                v >>= 7;
                self.pos += 1;
            }
            self.buf[self.pos] = v as u8;
            self.pos += 1;
            return;
        }
        let mut word = 0u64;
        for group in 0..8 {
            word |= (v << group) & (0x7F << (8 * group));
        }
        word |= 0x8080_8080_8080_8080 & ((1u64 << (8 * (n - 1))) - 1);
        self.buf[self.pos..self.pos + 8].copy_from_slice(&word.to_le_bytes());
        self.pos += n;
    }

    #[inline]
    fn byte(&mut self, byte: u8) {
        self.buf[self.pos] = byte;
        self.pos += 1;
    }

    #[inline]
    fn zigzag(&mut self, v: i64) {
        self.varint(varint::zigzag(v));
    }

    #[inline]
    fn bytes(&mut self, bytes: &[u8]) {
        self.buf[self.pos..self.pos + bytes.len()].copy_from_slice(bytes);
        self.pos += bytes.len();
    }

    fn blob(&mut self, bytes: &[u8]) {
        self.varint(bytes.len() as u64);
        self.bytes(bytes);
    }
}

/// Encodes one batch in the v3 compressed format, decodable by
/// [`decode_batch_compressed`]. Lossless at the bit level; the mode
/// chosen per column is a pure function of the cell values, so
/// `encode(decode(bytes)) == bytes` (canonical encoding).
pub fn encode_batch_compressed(batch: &Batch) -> Vec<u8> {
    encode_batch_compressed_with_raw_len(batch).0
}

/// [`encode_batch_compressed`], plus the exact byte count
/// [`encode_batch`] would produce for the same batch — the
/// uncompressed-v2 denominator of the wire compression ratio, which
/// falls out of sizing the RAW mode of every column.
///
/// Every mode a column could use is *sized* arithmetically first
/// (sums of varint lengths, no candidate body is materialized); the
/// shortest wins, ties break on the lower mode byte, and only the
/// winner is written, into a body of exactly its size.
pub fn encode_batch_compressed_with_raw_len(batch: &Batch) -> (Vec<u8>, u64) {
    let rows = batch.num_rows();
    let mut out = Vec::new();
    varint::write_u64(&mut out, rows as u64);
    varint::write_u64(&mut out, batch.columns().len() as u64);
    let mut raw_len = out.len() as u64;
    // Keyed float modes delta within the groups the first string column
    // defines; a float column may precede it, so it is coded up front.
    let key_col = batch.columns().iter().position(|c| c.as_dict().is_some());
    let key = key_col.and_then(|i| batch.columns()[i].as_dict().map(StrDict::from_codes));
    for (i, col) in batch.columns().iter().enumerate() {
        raw_len += 1 + rows.div_ceil(8) as u64;
        out.push(type_tag(col.data_type()));
        match col {
            Column::Bool(cells) => {
                out.push(mode::PACKED);
                write_bitmap(&mut out, validity(cells));
                raw_len += cells.iter().flatten().count() as u64;
                write_bitmap(&mut out, cells.iter().flatten().copied());
            }
            Column::Int(cells) => {
                let (mut delta, mut raw) = (0u64, 0u64);
                let mut prev = 0i64;
                for c in cells.iter().flatten() {
                    delta += zigzag_len(c.wrapping_sub(prev));
                    raw += zigzag_len(*c);
                    prev = *c;
                }
                raw_len += raw;
                let (len, m) = (raw, mode::RAW).min((delta, mode::DELTA));
                out.push(m);
                write_bitmap(&mut out, validity(cells));
                Body::write(&mut out, len, |body| {
                    let mut prev = 0i64;
                    for &c in cells.iter().flatten() {
                        body.zigzag(if m == mode::DELTA {
                            c.wrapping_sub(prev)
                        } else {
                            c
                        });
                        prev = c;
                    }
                });
            }
            Column::Float(cells) => {
                raw_len += encode_float_column(&mut out, cells, key.as_ref());
            }
            Column::Str(cells) => {
                let own;
                let dict = match &key {
                    Some(key) if key_col == Some(i) => key,
                    _ => {
                        own = StrDict::from_codes(cells);
                        &own
                    }
                };
                raw_len += encode_str_column(&mut out, cells, dict);
            }
            Column::Bytes(cells) => {
                out.push(mode::RAW);
                write_bitmap(&mut out, validity(cells));
                let base = out.len();
                for c in cells.iter().flatten() {
                    write_blob(&mut out, c);
                }
                raw_len += (out.len() - base) as u64;
            }
        }
    }
    (out, raw_len)
}

/// Writes a string column's mode byte, bitmap and body; returns the
/// size of its RAW body. Both bodies are sized from the per-slot row
/// counts. Signal/bus/symbol columns carry a handful of distinct strings
/// and go DICT; mostly-unique columns fall back to raw cells.
fn encode_str_column(out: &mut Vec<u8>, cells: &DictColumn, dict: &StrDict<'_>) -> u64 {
    let mut raw = 0u64;
    let mut dict_body = varint_len(dict.entries.len() as u64);
    for (i, (s, &rows)) in dict.entries.iter().zip(&dict.counts[1..]).enumerate() {
        let entry = blob_len(s.len());
        raw += rows * entry;
        dict_body += entry + rows * varint_len(i as u64);
    }
    let (len, m) = (raw, mode::RAW).min((dict_body, mode::DICT));
    out.push(m);
    let nulls = dict.counts[0] != 0;
    write_validity(
        out,
        dict.codes.len(),
        nulls,
        dict.codes.iter().map(|&c| c != DictColumn::NULL),
    );
    Body::write(out, len, |body| {
        if m == mode::DICT {
            body.varint(dict.entries.len() as u64);
            for s in &dict.entries {
                body.blob(s.as_bytes());
            }
            let slots = dict.slots().filter(|&slot| !nulls || slot != 0);
            if dict.entries.len() <= 0x80 {
                // Every index is a one-byte varint.
                slots.for_each(|slot| body.byte((slot - 1) as u8));
            } else {
                slots.for_each(|slot| body.varint(u64::from(slot - 1)));
            }
        } else {
            for c in cells.iter().flatten() {
                body.blob(c.as_bytes());
            }
        }
    });
    raw
}

/// One step of a bit-pattern delta chain: `bits`' first- and
/// second-order wrapping deltas against the chain's previous cell (both
/// start at 0).
#[inline]
fn chain_step(chain: &mut (i64, i64), bits: i64) -> (i64, i64) {
    let (prev, prev_d) = chain;
    let d = bits.wrapping_sub(*prev);
    let d2 = d.wrapping_sub(*prev_d);
    (*prev, *prev_d) = (bits, d);
    (d, d2)
}

/// Walks a float column's non-null cells as raw bit patterns chained by
/// `slots` (one per row, each below `chains`): `f` receives the cell's
/// first- and second-order delta. A constant slot is the plain
/// BITS_DELTA/BITS_DELTA2 chain; one slot per key is the keyed pair.
fn float_deltas(
    cells: &[Option<f64>],
    chains: usize,
    slots: impl Iterator<Item = u32>,
    mut f: impl FnMut(i64, i64),
) {
    let mut state = vec![(0i64, 0i64); chains];
    for (c, slot) in cells.iter().zip(slots) {
        let Some(c) = c else { continue };
        let (d, d2) = chain_step(&mut state[slot as usize], c.to_bits() as i64);
        f(d, d2);
    }
}

/// Writes a float column's mode byte, bitmap and body; returns the size
/// of its RAW body.
///
/// The keyed modes only exist when the batch has a string column to key
/// on; interpreted traces key on the signal-id column, which turns an
/// interleaved many-signal column back into the smooth per-signal
/// series the delta codecs were built for. One walk sizes RAW and the
/// plain chains, one the keyed chains (two tight loops outrun one that
/// carries both), and the dictionary is sized last, against the best.
fn encode_float_column(out: &mut Vec<u8>, cells: &[Option<f64>], key: Option<&StrDict<'_>>) -> u64 {
    let (mut non_null, mut delta, mut delta2) = (0u64, 0u64, 0u64);
    float_deltas(cells, 1, std::iter::repeat(0), |d, d2| {
        non_null += 1;
        delta += zigzag_len(d);
        delta2 += zigzag_len(d2);
    });
    let raw = 8 * non_null;
    let mut best = (raw, mode::RAW)
        .min((delta, mode::BITS_DELTA))
        .min((delta2, mode::BITS_DELTA2));
    // Null keys chain together, in a slot of their own.
    let chains = key.map_or(0, |k| k.entries.len() + 1);
    if let Some(key) = key {
        let (mut keyed, mut keyed2) = (0u64, 0u64);
        float_deltas(cells, chains, key.slots(), |d, d2| {
            keyed += zigzag_len(d);
            keyed2 += zigzag_len(d2);
        });
        best = best
            .min((keyed, mode::BITS_KEYED))
            .min((keyed2, mode::BITS_KEYED2));
    }
    let dict = match key {
        Some(key) => float_dict(cells, chains, key.slots(), non_null, best.0),
        None => float_dict(cells, 1, std::iter::repeat(0), non_null, best.0),
    };
    if let Some((_, _, len)) = &dict {
        best = best.min((*len, mode::DICT_BITS));
    }

    let (len, m) = best;
    out.push(m);
    write_validity(
        out,
        cells.len(),
        non_null != cells.len() as u64,
        validity(cells),
    );
    Body::write(out, len, |body| match m {
        mode::RAW => {
            for c in cells.iter().flatten() {
                body.bytes(&c.to_bits().to_le_bytes());
            }
        }
        mode::BITS_DELTA => float_deltas(cells, 1, std::iter::repeat(0), |d, _| body.zigzag(d)),
        mode::BITS_DELTA2 => {
            float_deltas(cells, 1, std::iter::repeat(0), |_, d2| body.zigzag(d2));
        }
        mode::BITS_KEYED | mode::BITS_KEYED2 => {
            let key = key.expect("keyed modes are only sized with a key column");
            let second = m == mode::BITS_KEYED2;
            float_deltas(cells, chains, key.slots(), |d, d2| {
                body.zigzag(if second { d2 } else { d });
            });
        }
        mode::DICT_BITS => {
            let (entries, indexes, _) = dict.expect("dictionary mode won, so it was completed");
            body.varint(entries.len() as u64);
            for bits in entries {
                body.bytes(&bits.to_le_bytes());
            }
            for idx in indexes {
                body.varint(u64::from(idx));
            }
        }
        other => unreachable!("float mode {other} is never sized"),
    });
    raw
}

/// First-appearance dictionary of a float column's `non_null` raw bit
/// patterns: `(entries, per-cell indexes, DICT_BITS body size)`.
/// Abandoned (`None`) as soon as a lower bound on that size — the
/// entries and indexes so far, at least one byte for the entry count and
/// one index byte per cell still to come — exceeds `budget`, the best
/// other mode: a dictionary that large can no longer win or tie, and an
/// all-distinct column stops hashing after a sliver of its cells.
///
/// A cell equal to the previous cell, or to the previous cell of its
/// chain (`slots`, as the keyed modes walk them), takes that cell's
/// index without a table probe: sampled signals repeat themselves.
fn float_dict(
    cells: &[Option<f64>],
    chains: usize,
    slots: impl Iterator<Item = u32>,
    non_null: u64,
    budget: u64,
) -> Option<(Vec<u64>, Vec<u32>, u64)> {
    let mut floor = 1 + non_null;
    if floor > budget {
        return None;
    }
    // More than `budget / 8` entries end the walk, so a table sized for
    // that many never has to grow and rehash.
    let cap = (non_null as usize).min((budget / 8) as usize + 1);
    let mut entries: Vec<u64> = Vec::with_capacity(cap);
    // Built on the first cell below the largest pattern so far: while
    // the patterns never fall (a time column), a new one is one larger
    // than every entry and a repeat is the previous cell's.
    let mut seen: Option<BitsMap> = None;
    let mut indexes: Vec<u32> = Vec::with_capacity(non_null as usize);
    let mut last: Option<(u64, u32)> = None;
    let mut chain_last: Vec<Option<(u64, u32)>> = vec![None; chains];
    for (c, slot) in cells.iter().zip(slots) {
        let Some(c) = c else { continue };
        let bits = c.to_bits();
        let chain = &mut chain_last[slot as usize];
        let idx = match (last, *chain) {
            (Some((b, idx)), _) | (_, Some((b, idx))) if b == bits => idx,
            _ => {
                let top = entries.last().copied();
                if seen.is_none() && top.is_some_and(|top| bits < top) {
                    let mut map = BitsMap::with_capacity_and_hasher(cap, BitsState::default());
                    map.extend(entries.iter().zip(0..).map(|(&b, i)| (b, i)));
                    seen = Some(map);
                }
                let next = dict_code(entries.len());
                let idx = match &mut seen {
                    Some(map) => *map.entry(bits).or_insert(next),
                    None if top == Some(bits) => next - 1,
                    None => next,
                };
                if idx == next {
                    entries.push(bits);
                    floor += 8;
                }
                idx
            }
        };
        (last, *chain) = (Some((bits, idx)), Some((bits, idx)));
        indexes.push(idx);
        // The floor already counted this cell's first index byte.
        floor += varint_len(u64::from(idx)) - 1;
        if floor > budget {
            return None;
        }
    }
    let index_bytes = floor - 1 - 8 * entries.len() as u64;
    let len = varint_len(entries.len() as u64) + 8 * entries.len() as u64 + index_bytes;
    Some((entries, indexes, len))
}

fn read_dict_index(cur: &mut Cursor<'_>, dict_len: usize) -> Result<u32> {
    let idx = cur.read_u64()?;
    if idx >= dict_len as u64 {
        return Err(Error::Protocol(format!(
            "dictionary index {idx} out of range ({dict_len} entries)"
        )));
    }
    Ok(idx as u32)
}

fn read_dict_len(cur: &mut Cursor<'_>, non_null: usize) -> Result<usize> {
    let n = cur.read_u64()?;
    if n > non_null as u64 {
        // A dictionary can never hold more entries than there are cells.
        return Err(Error::Protocol(format!(
            "dictionary of {n} entries for {non_null} cells"
        )));
    }
    Ok(n as usize)
}

fn read_str<'a>(cur: &mut Cursor<'a>, what: &str) -> Result<&'a str> {
    let len = cur.read_u64()?;
    if len > MAX_FRAME_LEN {
        return Err(Error::Protocol(format!("{what} of {len} bytes")));
    }
    std::str::from_utf8(cur.read_slice(len as usize)?)
        .map_err(|_| Error::Protocol(format!("{what} not UTF-8")))
}

/// A column's validity bitmap as read: its bytes, borrowed, and how
/// many of its `rows` cells are set.
struct Validity<'a> {
    bits: &'a [u8],
    rows: usize,
    non_null: usize,
}

impl<'a> Validity<'a> {
    fn read(cur: &mut Cursor<'a>, rows: usize) -> Result<Validity<'a>> {
        let bits = cur.read_slice(rows.div_ceil(8))?;
        // Bits past the last row are padding, never cells.
        let full = rows / 8;
        let tail = bits.get(full).map_or(0, |b| b & ((1u8 << (rows % 8)) - 1));
        let non_null = bits[..full]
            .iter()
            .map(|b| b.count_ones() as usize)
            .sum::<usize>()
            + tail.count_ones() as usize;
        Ok(Validity {
            bits,
            rows,
            non_null,
        })
    }

    /// One cell per row: `next(row)` for a set one, `null` for the
    /// rest. An all-valid column never tests a bit.
    fn cells<T: Copy>(&self, null: T, mut next: impl FnMut(usize) -> Result<T>) -> Result<Vec<T>> {
        let mut out = Vec::with_capacity(self.rows);
        if self.non_null == self.rows {
            for row in 0..self.rows {
                out.push(next(row)?);
            }
        } else {
            for row in 0..self.rows {
                out.push(if self.bits[row / 8] & (1 << (row % 8)) != 0 {
                    next(row)?
                } else {
                    null
                });
            }
        }
        Ok(out)
    }

    /// [`Validity::cells`] of `Option`s, for cells that are not `Copy`.
    fn options<T>(&self, mut next: impl FnMut() -> Result<T>) -> Result<Vec<Option<T>>> {
        let mut out = Vec::with_capacity(self.rows);
        for row in 0..self.rows {
            let set = self.non_null == self.rows || self.bits[row / 8] & (1 << (row % 8)) != 0;
            out.push(if set { Some(next()?) } else { None });
        }
        Ok(out)
    }
}

/// The keyed float chains' slot per row, from the batch's first string
/// column: the slots the encoder chained on ([`StrDict`]), so
/// equal-content keys share a chain whatever their code or allocation.
struct KeySlots {
    slots: Vec<u32>,
    count: usize,
}

impl KeySlots {
    fn of(col: &Column) -> KeySlots {
        let dict = StrDict::from_codes(col.as_dict().expect("the key is a string column"));
        KeySlots {
            count: dict.entries.len() + 1,
            slots: dict.slots().collect(),
        }
    }

    /// A keyed float column's cells, replayed from its deltas.
    fn replay(&self, cur: &mut Cursor<'_>, valid: &Validity<'_>, m: u8) -> Result<Column> {
        let mut chains = vec![(0i64, 0i64); self.count];
        let second = m == mode::BITS_KEYED2;
        let cells = valid.cells(None, |row| {
            let (prev, prev_d) = &mut chains[self.slots[row] as usize];
            let mut d = cur.read_i64()?;
            if second {
                d = prev_d.wrapping_add(d);
            }
            (*prev, *prev_d) = (prev.wrapping_add(d), d);
            Ok(Some(f64::from_bits(*prev as u64)))
        })?;
        Ok(Column::Float(cells))
    }
}

/// Advances `cur` past `n` varints; returns the bytes they span.
fn skip_varints<'a>(cur: &mut Cursor<'a>, n: usize) -> Result<&'a [u8]> {
    let rest = cur.peek_rest();
    let mut left = n;
    let len = if n == 0 {
        0
    } else {
        rest.iter()
            .position(|&b| {
                left -= usize::from(b < 0x80);
                left == 0
            })
            .ok_or_else(|| Error::Protocol(format!("{n} deltas expected")))?
            + 1
    };
    Ok(cur.read_slice(len)?)
}

/// Decodes a batch written by [`encode_batch_compressed`] against the
/// schema both peers agreed on. A DICT string column's dictionary is read
/// once and each row is a code; a RAW one's dictionary is its cells in
/// order, nothing hashed.
///
/// # Errors
///
/// Returns [`Error::Protocol`] when the bytes disagree with `schema`
/// (wrong column count, type tag, or encoding mode), out-of-range
/// dictionary indexes, and [`Error::Truncated`] when they end early.
/// Never panics on arbitrary input.
pub fn decode_batch_compressed(bytes: &[u8], schema: &Arc<Schema>) -> Result<Batch> {
    decode(bytes, schema, true)
}

/// Decodes a batch written by [`encode_batch`] against the schema both
/// peers agreed on.
///
/// # Errors
///
/// Returns [`Error::Protocol`] when the bytes disagree with `schema`
/// (wrong column count or type tag) and [`Error::Truncated`] when they
/// end early. Never panics on arbitrary input.
pub fn decode_batch(bytes: &[u8], schema: &Arc<Schema>) -> Result<Batch> {
    decode(bytes, schema, false)
}

/// The one decoder. The flat encoding is the compressed one without
/// mode bytes — every column RAW — except that it spends a whole byte
/// per bool where the compressed format only knows PACKED.
fn decode(bytes: &[u8], schema: &Arc<Schema>, compressed: bool) -> Result<Batch> {
    let mut cur = Cursor::new(bytes);
    let rows = cur.read_u64()?;
    if rows > MAX_FRAME_LEN {
        return Err(Error::Protocol(format!("batch declares {rows} rows")));
    }
    let rows = rows as usize;
    if rows > bytes.len() * 8 {
        return Err(Error::Protocol(format!(
            "batch declares {rows} rows in {} bytes",
            bytes.len()
        )));
    }
    let cols = cur.read_u64()?;
    if cols != schema.len() as u64 {
        return Err(Error::Protocol(format!(
            "batch has {cols} columns, schema {}",
            schema.len()
        )));
    }
    let key_col = schema
        .fields()
        .iter()
        .position(|f| f.data_type() == DataType::Str);
    let mut key: Option<KeySlots> = None;
    let mut columns = Vec::with_capacity(schema.len());
    // Keyed float columns may precede their key column (the first
    // string column): their deltas are skipped and replayed once the key
    // has been decoded.
    let mut deferred: Vec<(usize, u8, Validity<'_>, &[u8])> = Vec::new();
    for field in schema.fields() {
        let tag = cur.read_u8()?;
        if tag != type_tag(field.data_type()) {
            return Err(Error::Protocol(format!(
                "column {:?} tagged {tag}, schema says {}",
                field.name(),
                field.data_type()
            )));
        }
        let col_mode = if compressed {
            cur.read_u8()?
        } else {
            mode::RAW
        };
        let valid = Validity::read(&mut cur, rows)?;
        let non_null = valid.non_null;
        let col = match (field.data_type(), col_mode) {
            (DataType::Bool, mode::RAW) if !compressed => {
                Column::Bool(valid.cells(None, |_| match cur.read_u8()? {
                    0 => Ok(Some(false)),
                    1 => Ok(Some(true)),
                    other => Err(Error::Protocol(format!("bad bool byte {other}"))),
                })?)
            }
            (DataType::Bool, mode::PACKED) => {
                let packed = cur.read_slice(non_null.div_ceil(8))?;
                let mut taken = 0usize;
                Column::Bool(valid.cells(None, |_| {
                    let bit = packed[taken / 8] & (1 << (taken % 8)) != 0;
                    taken += 1;
                    Ok(Some(bit))
                })?)
            }
            (DataType::Int, mode::DELTA) => {
                let mut prev = 0i64;
                Column::Int(valid.cells(None, |_| {
                    prev = prev.wrapping_add(cur.read_i64()?);
                    Ok(Some(prev))
                })?)
            }
            (DataType::Int, mode::RAW) => {
                Column::Int(valid.cells(None, |_| Ok(Some(cur.read_i64()?)))?)
            }
            (DataType::Float, mode::RAW) => {
                Column::Float(valid.cells(None, |_| Ok(Some(f64::from_bits(cur.read_u64_le()?))))?)
            }
            (DataType::Float, m @ (mode::BITS_KEYED | mode::BITS_KEYED2)) => {
                let Some(k) = key_col else {
                    return Err(Error::Protocol(
                        "keyed float mode in a schema with no string key column".into(),
                    ));
                };
                if k < columns.len() {
                    let key = key.get_or_insert_with(|| KeySlots::of(&columns[k]));
                    key.replay(&mut cur, &valid, m)?
                } else {
                    let body = skip_varints(&mut cur, non_null)?;
                    deferred.push((columns.len(), m, valid, body));
                    // Placeholder; replaced once the key is decoded.
                    Column::Float(Vec::new())
                }
            }
            (DataType::Float, mode::BITS_DELTA) => {
                let mut prev = 0i64;
                Column::Float(valid.cells(None, |_| {
                    prev = prev.wrapping_add(cur.read_i64()?);
                    Ok(Some(f64::from_bits(prev as u64)))
                })?)
            }
            (DataType::Float, mode::BITS_DELTA2) => {
                let (mut prev, mut prev_d) = (0i64, 0i64);
                Column::Float(valid.cells(None, |_| {
                    prev_d = prev_d.wrapping_add(cur.read_i64()?);
                    prev = prev.wrapping_add(prev_d);
                    Ok(Some(f64::from_bits(prev as u64)))
                })?)
            }
            (DataType::Float, mode::DICT_BITS) => {
                let dict_len = read_dict_len(&mut cur, non_null)?;
                let mut dict = Vec::with_capacity(dict_len);
                for _ in 0..dict_len {
                    dict.push(cur.read_u64_le()?);
                }
                Column::Float(valid.cells(None, |_| {
                    let idx = read_dict_index(&mut cur, dict_len)?;
                    Ok(Some(f64::from_bits(dict[idx as usize])))
                })?)
            }
            (DataType::Str, mode::DICT) => {
                let dict_len = read_dict_len(&mut cur, non_null)?;
                let mut dict: Vec<Arc<str>> = Vec::with_capacity(dict_len);
                for _ in 0..dict_len {
                    dict.push(Arc::from(read_str(&mut cur, "dictionary string")?));
                }
                let codes =
                    valid.cells(DictColumn::NULL, |_| read_dict_index(&mut cur, dict_len))?;
                Column::Str(
                    DictColumn::new(codes, dict.into())
                        .map_err(|e| Error::Protocol(e.to_string()))?,
                )
            }
            (DataType::Str, mode::RAW) => {
                let mut cells: Vec<Arc<str>> = Vec::new();
                let codes = valid.cells(DictColumn::NULL, |_| {
                    cells.push(Arc::from(read_str(&mut cur, "string cell")?));
                    Ok((cells.len() - 1) as u32)
                })?;
                Column::Str(
                    DictColumn::new(codes, cells.into())
                        .map_err(|e| Error::Protocol(e.to_string()))?,
                )
            }
            (DataType::Bytes, mode::RAW) => Column::Bytes(valid.options(|| {
                let len = cur.read_u64()?;
                if len > MAX_FRAME_LEN {
                    return Err(Error::Protocol(format!("bytes cell of {len} bytes")));
                }
                Ok(Arc::from(cur.read_slice(len as usize)?))
            })?),
            (dt, m) => {
                return Err(Error::Protocol(format!(
                    "column {:?} of type {dt} carries unknown mode {m}",
                    field.name()
                )))
            }
        };
        columns.push(col);
    }
    if cur.remaining() != 0 {
        return Err(Error::Protocol(format!(
            "{} trailing bytes after batch",
            cur.remaining()
        )));
    }
    if let (Some(k), false) = (key_col, deferred.is_empty()) {
        let key = key.get_or_insert_with(|| KeySlots::of(&columns[k]));
        for (idx, m, valid, body) in deferred {
            columns[idx] = key.replay(&mut Cursor::new(body), &valid, m)?;
        }
    }
    Ok(Batch::new(schema.clone(), columns)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_schema() -> Arc<Schema> {
        Schema::from_pairs([
            ("t", DataType::Float),
            ("bus", DataType::Str),
            ("n", DataType::Int),
            ("flag", DataType::Bool),
            ("blob", DataType::Bytes),
        ])
        .expect("static schema")
        .into_shared()
    }

    fn mixed_batch(schema: &Arc<Schema>) -> Batch {
        let rows = 50usize;
        let t: Vec<Option<f64>> = (0..rows).map(|i| Some(0.01 * i as f64)).collect();
        let bus: Vec<Option<Arc<str>>> = (0..rows)
            .map(|i| {
                if i % 7 == 0 {
                    None
                } else {
                    Some(Arc::from(if i % 2 == 0 { "powertrain" } else { "chassis" }))
                }
            })
            .collect();
        let n: Vec<Option<i64>> = (0..rows)
            .map(|i| Some(1_000_000 + 3 * i as i64 - (i as i64 % 5)))
            .collect();
        let flag: Vec<Option<bool>> = (0..rows)
            .map(|i| if i % 3 == 0 { None } else { Some(i % 2 == 0) })
            .collect();
        let blob: Vec<Option<Arc<[u8]>>> = (0..rows)
            .map(|i| Some(Arc::from(vec![i as u8; i % 4].as_slice())))
            .collect();
        Batch::new(
            schema.clone(),
            vec![
                Column::Float(t),
                Column::Str(DictColumn::from_cells(bus)),
                Column::Int(n),
                Column::Bool(flag),
                Column::Bytes(blob),
            ],
        )
        .unwrap()
    }

    #[test]
    fn compressed_roundtrip_and_canonical() {
        let schema = mixed_schema();
        let batch = mixed_batch(&schema);
        let bytes = encode_batch_compressed(&batch);
        let decoded = decode_batch_compressed(&bytes, &schema).unwrap();
        assert_eq!(encode_batch(&decoded), encode_batch(&batch));
        // Deterministic mode choice makes the encoding canonical.
        assert_eq!(encode_batch_compressed(&decoded), bytes);
    }

    #[test]
    fn compressed_preserves_float_bits() {
        let schema = Schema::from_pairs([("v", DataType::Float)])
            .expect("static schema")
            .into_shared();
        let specials = vec![
            Some(f64::NAN),
            Some(f64::from_bits(0x7FF8_0000_0000_0001)),
            Some(-0.0),
            None,
            Some(f64::MIN_POSITIVE / 2.0),
            Some(f64::NEG_INFINITY),
            Some(1.0e300),
        ];
        let batch = Batch::new(schema.clone(), vec![Column::Float(specials.clone())]).unwrap();
        let decoded = decode_batch_compressed(&encode_batch_compressed(&batch), &schema).unwrap();
        let Column::Float(cells) = &decoded.columns()[0] else {
            panic!("float column expected");
        };
        for (orig, got) in specials.iter().zip(cells) {
            assert_eq!(orig.map(f64::to_bits), got.map(f64::to_bits));
        }
    }

    #[test]
    fn compressed_shrinks_signal_like_batches() {
        let schema = mixed_schema();
        let batch = mixed_batch(&schema);
        let (compressed, raw) = encode_batch_compressed_with_raw_len(&batch);
        assert_eq!(raw, encode_batch(&batch).len() as u64);
        let compressed = compressed.len() as u64;
        assert!(compressed * 2 < raw, "compressed {compressed} vs raw {raw}");
    }

    #[test]
    fn compressed_rejects_garbage_without_panic() {
        let schema = mixed_schema();
        let batch = mixed_batch(&schema);
        let good = encode_batch_compressed(&batch);
        for cut in 0..good.len() {
            assert!(decode_batch_compressed(&good[..cut], &schema).is_err());
        }
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0xFF;
            // Any outcome but a panic is acceptable; most flips must fail.
            let _ = decode_batch_compressed(&bad, &schema);
        }
        // Unknown mode byte is a typed protocol error.
        let mut bad = good.clone();
        // rows varint, cols varint, then tag byte + mode byte of column 0.
        let mut cur = Cursor::new(&good);
        cur.read_u64().unwrap();
        cur.read_u64().unwrap();
        let mode_pos = good.len() - cur.remaining() + 1;
        bad[mode_pos] = 99;
        assert!(matches!(
            decode_batch_compressed(&bad, &schema),
            Err(Error::Protocol(_))
        ));
    }

    #[test]
    fn varint_len_matches_writer() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            varint::write_u64(&mut buf, v);
            assert_eq!(varint_len(v), buf.len() as u64, "v={v}");
        }
    }
}
