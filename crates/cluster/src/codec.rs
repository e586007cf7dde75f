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

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::Arc;

use ivnt_frame::batch::Batch;
use ivnt_frame::column::Column;
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

/// Appends the validity bitmap of `cells`.
fn write_bitmap<T>(out: &mut Vec<u8>, cells: &[Option<T>]) {
    let base = out.len();
    out.resize(base + cells.len().div_ceil(8), 0);
    for (i, c) in cells.iter().enumerate() {
        if c.is_some() {
            out[base + i / 8] |= 1 << (i % 8);
        }
    }
}

/// Appends a length-prefixed byte string.
fn write_blob(out: &mut Vec<u8>, bytes: &[u8]) {
    varint::write_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Encodes one batch into bytes decodable by [`decode_batch`].
pub fn encode_batch(batch: &Batch) -> Vec<u8> {
    let rows = batch.num_rows();
    let mut out = Vec::new();
    varint::write_u64(&mut out, rows as u64);
    varint::write_u64(&mut out, batch.columns().len() as u64);
    for col in batch.columns() {
        match col {
            Column::Bool(cells) => {
                out.push(type_tag(DataType::Bool));
                write_bitmap(&mut out, cells);
                for c in cells.iter().flatten() {
                    out.push(u8::from(*c));
                }
            }
            Column::Int(cells) => {
                out.push(type_tag(DataType::Int));
                write_bitmap(&mut out, cells);
                for c in cells.iter().flatten() {
                    varint::write_i64(&mut out, *c);
                }
            }
            Column::Float(cells) => {
                out.push(type_tag(DataType::Float));
                write_bitmap(&mut out, cells);
                for c in cells.iter().flatten() {
                    out.extend_from_slice(&c.to_bits().to_le_bytes());
                }
            }
            Column::Str(cells) => {
                out.push(type_tag(DataType::Str));
                write_bitmap(&mut out, cells);
                for c in cells.iter().flatten() {
                    write_blob(&mut out, c.as_bytes());
                }
            }
            Column::Bytes(cells) => {
                out.push(type_tag(DataType::Bytes));
                write_bitmap(&mut out, cells);
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

/// Hasher for the `u64` keys of the encoder's lookup tables (float bit
/// patterns, `Arc` addresses): a seeded multiply and fold instead of
/// SipHash per cell. Float bits come from trace files, so the seed is
/// drawn per table from [`RandomState`] — bucket placement cannot be
/// predicted from the data. Table *contents* never depend on it:
/// dictionaries are in first-appearance order.
struct BitsHasher(u64);

impl Hasher for BitsHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("BitsHasher only hashes u64 keys");
    }

    fn write_u64(&mut self, v: u64) {
        let h = (v ^ self.0).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
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

/// A string column's dictionary in first-appearance order, with every
/// row's slot — the DICT body of the column itself and, for the batch's
/// first string column, the key the keyed float modes chain on.
struct StrDict<'a> {
    entries: Vec<&'a str>,
    /// Per row: 0 for a null, else the cell's index into `entries` + 1.
    slots: Vec<u32>,
}

impl<'a> StrDict<'a> {
    /// Cells are resolved by `Arc` address first: extracted and
    /// dictionary-decoded columns share a handful of allocations, so
    /// string content is hashed once per distinct allocation, not once
    /// per row.
    fn build(cells: &'a [Option<Arc<str>>]) -> StrDict<'a> {
        let mut entries: Vec<&'a str> = Vec::new();
        let mut by_content: HashMap<&'a str, u32> = HashMap::new();
        let mut by_addr = BitsMap::default();
        let slots = cells
            .iter()
            .map(|c| match c {
                None => 0,
                Some(s) => *by_addr
                    .entry(Arc::as_ptr(s).cast::<u8>() as u64)
                    .or_insert_with(|| {
                        *by_content.entry(s).or_insert_with(|| {
                            entries.push(s);
                            dict_code(entries.len())
                        })
                    }),
            })
            .collect();
        StrDict { entries, slots }
    }

    /// Dictionary indexes of the non-null cells, in row order.
    fn indexes(&self) -> impl Iterator<Item = u32> + '_ {
        self.slots.iter().filter(|s| **s != 0).map(|s| s - 1)
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
/// winner is written.
pub fn encode_batch_compressed_with_raw_len(batch: &Batch) -> (Vec<u8>, u64) {
    let rows = batch.num_rows();
    let mut out = Vec::new();
    varint::write_u64(&mut out, rows as u64);
    varint::write_u64(&mut out, batch.columns().len() as u64);
    let mut raw_len = out.len() as u64;
    // Keyed float modes delta within the groups the first string column
    // defines; a float column may precede it, so it is coded up front.
    let key_col = batch
        .columns()
        .iter()
        .position(|c| matches!(c, Column::Str(_)));
    let key = key_col.map(|i| match &batch.columns()[i] {
        Column::Str(cells) => StrDict::build(cells),
        _ => unreachable!("position matched a string column"),
    });
    for (i, col) in batch.columns().iter().enumerate() {
        raw_len += 1 + rows.div_ceil(8) as u64;
        match col {
            Column::Bool(cells) => {
                out.push(type_tag(DataType::Bool));
                out.push(mode::PACKED);
                write_bitmap(&mut out, cells);
                let mut packed = 0u8;
                let mut filled = 0u32;
                for c in cells.iter().flatten() {
                    packed |= u8::from(*c) << filled;
                    filled += 1;
                    raw_len += 1;
                    if filled == 8 {
                        out.push(packed);
                        packed = 0;
                        filled = 0;
                    }
                }
                if filled > 0 {
                    out.push(packed);
                }
            }
            Column::Int(cells) => {
                out.push(type_tag(DataType::Int));
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
                write_bitmap(&mut out, cells);
                out.reserve(len as usize);
                let mut prev = 0i64;
                for c in cells.iter().flatten() {
                    if m == mode::DELTA {
                        varint::write_i64(&mut out, c.wrapping_sub(prev));
                        prev = *c;
                    } else {
                        varint::write_i64(&mut out, *c);
                    }
                }
            }
            Column::Float(cells) => {
                out.push(type_tag(DataType::Float));
                raw_len += encode_float_column(&mut out, cells, key.as_ref());
            }
            Column::Str(cells) => {
                out.push(type_tag(DataType::Str));
                let own;
                let dict = match &key {
                    Some(key) if key_col == Some(i) => key,
                    _ => {
                        own = StrDict::build(cells);
                        &own
                    }
                };
                raw_len += encode_str_column(&mut out, cells, dict);
            }
            Column::Bytes(cells) => {
                out.push(type_tag(DataType::Bytes));
                out.push(mode::RAW);
                write_bitmap(&mut out, cells);
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
/// size of its RAW body. Signal/bus/symbol columns carry a handful of
/// distinct strings and go DICT; mostly-unique columns fall back to
/// raw cells.
fn encode_str_column(out: &mut Vec<u8>, cells: &[Option<Arc<str>>], dict: &StrDict<'_>) -> u64 {
    let entry_len: Vec<u64> = dict.entries.iter().map(|s| blob_len(s.len())).collect();
    let mut raw = 0u64;
    let mut dict_body = varint_len(dict.entries.len() as u64) + entry_len.iter().sum::<u64>();
    for code in dict.indexes() {
        raw += entry_len[code as usize];
        dict_body += varint_len(u64::from(code));
    }
    let (len, m) = (raw, mode::RAW).min((dict_body, mode::DICT));
    out.push(m);
    write_bitmap(out, cells);
    out.reserve(len as usize);
    if m == mode::DICT {
        varint::write_u64(out, dict.entries.len() as u64);
        for s in &dict.entries {
            write_blob(out, s.as_bytes());
        }
        for code in dict.indexes() {
            varint::write_u64(out, u64::from(code));
        }
    } else {
        for c in cells.iter().flatten() {
            write_blob(out, c.as_bytes());
        }
    }
    raw
}

/// Walks a float column's non-null cells as raw bit patterns chained
/// per slot (`slot_of(row)`, below `slots`): `f` receives the cell's
/// first- and second-order wrapping delta against the previous cell of
/// the same slot (both start at 0). One slot is the plain
/// BITS_DELTA/BITS_DELTA2 chain; one slot per key is the keyed pair.
fn float_deltas(
    cells: &[Option<f64>],
    slots: usize,
    slot_of: impl Fn(usize) -> usize,
    mut f: impl FnMut(i64, i64),
) {
    let mut state = vec![(0i64, 0i64); slots];
    for (row, c) in cells.iter().enumerate() {
        let Some(c) = c else { continue };
        let bits = c.to_bits() as i64;
        let (prev, prev_d) = &mut state[slot_of(row)];
        let d = bits.wrapping_sub(*prev);
        f(d, d.wrapping_sub(*prev_d));
        *prev = bits;
        *prev_d = d;
    }
}

/// Writes a float column's mode byte, bitmap and body; returns the size
/// of its RAW body.
///
/// The keyed modes only exist when the batch has a string column to key
/// on; interpreted traces key on the signal-id column, which turns an
/// interleaved many-signal column back into the smooth per-signal
/// series the delta codecs were built for.
fn encode_float_column(out: &mut Vec<u8>, cells: &[Option<f64>], key: Option<&StrDict<'_>>) -> u64 {
    let raw = 8 * cells.iter().flatten().count() as u64;
    let (mut delta, mut delta2) = (0u64, 0u64);
    float_deltas(
        cells,
        1,
        |_| 0,
        |d, d2| {
            delta += zigzag_len(d);
            delta2 += zigzag_len(d2);
        },
    );
    let mut best = (raw, mode::RAW)
        .min((delta, mode::BITS_DELTA))
        .min((delta2, mode::BITS_DELTA2));
    // Null keys chain together, in a slot of their own.
    let keyed = key.map(|k| (k.entries.len() + 1, |row: usize| k.slots[row] as usize));
    if let Some((slots, slot_of)) = &keyed {
        let (mut keyed, mut keyed2) = (0u64, 0u64);
        float_deltas(cells, *slots, slot_of, |d, d2| {
            keyed += zigzag_len(d);
            keyed2 += zigzag_len(d2);
        });
        best = best
            .min((keyed, mode::BITS_KEYED))
            .min((keyed2, mode::BITS_KEYED2));
    }
    let dict = float_dict(cells, best.0);
    if let Some((_, _, len)) = &dict {
        best = best.min((*len, mode::DICT_BITS));
    }

    let (len, m) = best;
    out.push(m);
    write_bitmap(out, cells);
    out.reserve(len as usize);
    match m {
        mode::RAW => {
            for c in cells.iter().flatten() {
                out.extend_from_slice(&c.to_bits().to_le_bytes());
            }
        }
        mode::BITS_DELTA => float_deltas(cells, 1, |_| 0, |d, _| varint::write_i64(out, d)),
        mode::BITS_DELTA2 => float_deltas(cells, 1, |_| 0, |_, d2| varint::write_i64(out, d2)),
        mode::BITS_KEYED | mode::BITS_KEYED2 => {
            let (slots, slot_of) = keyed.expect("keyed modes are only sized with a key column");
            float_deltas(cells, slots, slot_of, |d, d2| {
                varint::write_i64(out, if m == mode::BITS_KEYED { d } else { d2 });
            });
        }
        mode::DICT_BITS => {
            let (entries, indexes, _) = dict.expect("dictionary mode won, so it was completed");
            varint::write_u64(out, entries.len() as u64);
            for bits in entries {
                out.extend_from_slice(&bits.to_le_bytes());
            }
            for idx in indexes {
                varint::write_u64(out, u64::from(idx));
            }
        }
        other => unreachable!("float mode {other} is never sized"),
    }
    raw
}

/// First-appearance dictionary of a float column's raw bit patterns:
/// `(entries, per-cell indexes, DICT_BITS body size)`. Abandoned (`None`)
/// as soon as entries plus indexes alone outgrow `budget`, the best
/// other mode — a dictionary that large can no longer win or tie, and
/// an all-distinct column stops hashing after a fraction of its cells.
fn float_dict(cells: &[Option<f64>], budget: u64) -> Option<(Vec<u64>, Vec<u32>, u64)> {
    // More than `budget / 8` entries end the walk, so a table sized for
    // that many never has to grow and rehash.
    let cap = cells.len().min((budget / 8) as usize + 1);
    let mut entries: Vec<u64> = Vec::with_capacity(cap);
    let mut seen = BitsMap::with_capacity_and_hasher(cap, BitsState::default());
    let mut indexes: Vec<u32> = Vec::with_capacity(cells.len());
    let mut index_bytes = 0u64;
    for c in cells.iter().flatten() {
        let idx = *seen.entry(c.to_bits()).or_insert_with(|| {
            entries.push(c.to_bits());
            dict_code(entries.len() - 1)
        });
        indexes.push(idx);
        index_bytes += varint_len(u64::from(idx));
        if 8 * entries.len() as u64 + index_bytes > budget {
            return None;
        }
    }
    let len = varint_len(entries.len() as u64) + 8 * entries.len() as u64 + index_bytes;
    Some((entries, indexes, len))
}

fn read_dict_index(cur: &mut Cursor<'_>, dict_len: usize) -> Result<usize> {
    let idx = cur.read_u64()?;
    if idx >= dict_len as u64 {
        return Err(Error::Protocol(format!(
            "dictionary index {idx} out of range ({dict_len} entries)"
        )));
    }
    Ok(idx as usize)
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

/// Decodes a batch written by [`encode_batch_compressed`] against the
/// schema both peers agreed on.
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
    let mut columns = Vec::with_capacity(schema.len());
    // Keyed float columns may precede their key column (the first
    // string column); their deltas are parsed in place and replayed
    // once every column — including the key — has been decoded.
    let mut keyed: Vec<(usize, u8, Vec<bool>, Vec<i64>)> = Vec::new();
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
        let valid = read_bitmap(&mut cur, rows)?;
        let non_null = valid.iter().filter(|v| **v).count();
        let col = match (field.data_type(), col_mode) {
            (DataType::Bool, mode::RAW) if !compressed => {
                let mut cells = Vec::with_capacity(rows);
                for v in valid {
                    cells.push(if v {
                        Some(match cur.read_u8()? {
                            0 => false,
                            1 => true,
                            other => return Err(Error::Protocol(format!("bad bool byte {other}"))),
                        })
                    } else {
                        None
                    });
                }
                Column::Bool(cells)
            }
            (DataType::Bool, mode::PACKED) => {
                let packed = cur.read_slice(non_null.div_ceil(8))?;
                let mut taken = 0usize;
                let mut cells = Vec::with_capacity(rows);
                for v in valid {
                    cells.push(if v {
                        let bit = packed[taken / 8] & (1 << (taken % 8)) != 0;
                        taken += 1;
                        Some(bit)
                    } else {
                        None
                    });
                }
                Column::Bool(cells)
            }
            (DataType::Int, mode::DELTA) => {
                let mut prev = 0i64;
                let mut cells = Vec::with_capacity(rows);
                for v in valid {
                    cells.push(if v {
                        prev = prev.wrapping_add(cur.read_i64()?);
                        Some(prev)
                    } else {
                        None
                    });
                }
                Column::Int(cells)
            }
            (DataType::Int, mode::RAW) => {
                let mut cells = Vec::with_capacity(rows);
                for v in valid {
                    cells.push(if v { Some(cur.read_i64()?) } else { None });
                }
                Column::Int(cells)
            }
            (DataType::Float, mode::RAW) => {
                let mut cells = Vec::with_capacity(rows);
                for v in valid {
                    cells.push(if v {
                        Some(f64::from_bits(cur.read_u64_le()?))
                    } else {
                        None
                    });
                }
                Column::Float(cells)
            }
            (DataType::Float, m @ (mode::BITS_KEYED | mode::BITS_KEYED2)) => {
                if !schema
                    .fields()
                    .iter()
                    .any(|f| f.data_type() == DataType::Str)
                {
                    return Err(Error::Protocol(
                        "keyed float mode in a schema with no string key column".into(),
                    ));
                }
                let mut deltas = Vec::with_capacity(non_null);
                for _ in 0..non_null {
                    deltas.push(cur.read_i64()?);
                }
                keyed.push((columns.len(), m, valid, deltas));
                // Placeholder; replaced once the key column is decoded.
                Column::Float(vec![None; rows])
            }
            (DataType::Float, mode::BITS_DELTA) => {
                let mut prev = 0i64;
                let mut cells = Vec::with_capacity(rows);
                for v in valid {
                    cells.push(if v {
                        prev = prev.wrapping_add(cur.read_i64()?);
                        Some(f64::from_bits(prev as u64))
                    } else {
                        None
                    });
                }
                Column::Float(cells)
            }
            (DataType::Float, mode::BITS_DELTA2) => {
                let (mut prev, mut prev_d) = (0i64, 0i64);
                let mut cells = Vec::with_capacity(rows);
                for v in valid {
                    cells.push(if v {
                        prev_d = prev_d.wrapping_add(cur.read_i64()?);
                        prev = prev.wrapping_add(prev_d);
                        Some(f64::from_bits(prev as u64))
                    } else {
                        None
                    });
                }
                Column::Float(cells)
            }
            (DataType::Float, mode::DICT_BITS) => {
                let dict_len = read_dict_len(&mut cur, non_null)?;
                let mut dict = Vec::with_capacity(dict_len);
                for _ in 0..dict_len {
                    dict.push(cur.read_u64_le()?);
                }
                let mut cells = Vec::with_capacity(rows);
                for v in valid {
                    cells.push(if v {
                        Some(f64::from_bits(dict[read_dict_index(&mut cur, dict_len)?]))
                    } else {
                        None
                    });
                }
                Column::Float(cells)
            }
            (DataType::Str, mode::DICT) => {
                let dict_len = read_dict_len(&mut cur, non_null)?;
                let mut dict: Vec<Arc<str>> = Vec::with_capacity(dict_len);
                for _ in 0..dict_len {
                    let len = cur.read_u64()?;
                    if len > MAX_FRAME_LEN {
                        return Err(Error::Protocol(format!("dictionary string of {len} bytes")));
                    }
                    let s = std::str::from_utf8(cur.read_slice(len as usize)?)
                        .map_err(|_| Error::Protocol("dictionary string not UTF-8".into()))?;
                    dict.push(Arc::from(s));
                }
                let mut cells: Vec<Option<Arc<str>>> = Vec::with_capacity(rows);
                for v in valid {
                    cells.push(if v {
                        Some(Arc::clone(&dict[read_dict_index(&mut cur, dict_len)?]))
                    } else {
                        None
                    });
                }
                Column::Str(cells)
            }
            (DataType::Str, mode::RAW) => {
                let mut cells: Vec<Option<Arc<str>>> = Vec::with_capacity(rows);
                for v in valid {
                    cells.push(if v {
                        let len = cur.read_u64()?;
                        if len > MAX_FRAME_LEN {
                            return Err(Error::Protocol(format!("string cell of {len} bytes")));
                        }
                        let s = std::str::from_utf8(cur.read_slice(len as usize)?)
                            .map_err(|_| Error::Protocol("string cell not UTF-8".into()))?;
                        Some(Arc::from(s))
                    } else {
                        None
                    });
                }
                Column::Str(cells)
            }
            (DataType::Bytes, mode::RAW) => {
                let mut cells: Vec<Option<Arc<[u8]>>> = Vec::with_capacity(rows);
                for v in valid {
                    cells.push(if v {
                        let len = cur.read_u64()?;
                        if len > MAX_FRAME_LEN {
                            return Err(Error::Protocol(format!("bytes cell of {len} bytes")));
                        }
                        Some(Arc::from(cur.read_slice(len as usize)?))
                    } else {
                        None
                    });
                }
                Column::Bytes(cells)
            }
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
    if !keyed.is_empty() {
        let replayed: Vec<(usize, Column)> = {
            let key_cells = columns
                .iter()
                .find_map(|c| match c {
                    Column::Str(cells) => Some(cells.as_slice()),
                    _ => None,
                })
                .ok_or_else(|| {
                    Error::Protocol("keyed float mode in a batch with no string key column".into())
                })?;
            // The same coding the encoder chained on: equal-content keys
            // share a slot whatever allocation they sit in.
            let key = StrDict::build(key_cells);
            keyed
                .into_iter()
                .map(|(idx, m, valid, deltas)| {
                    let mut state = vec![(0i64, 0i64); key.entries.len() + 1];
                    let mut cells = Vec::with_capacity(rows);
                    let mut next = deltas.into_iter();
                    for (row, v) in valid.into_iter().enumerate() {
                        cells.push(if v {
                            let (prev, prev_d) = &mut state[key.slots[row] as usize];
                            let mut d = next.next().expect("one delta per non-null cell");
                            if m == mode::BITS_KEYED2 {
                                d = prev_d.wrapping_add(d);
                            }
                            let bits = prev.wrapping_add(d);
                            *prev = bits;
                            *prev_d = d;
                            Some(f64::from_bits(bits as u64))
                        } else {
                            None
                        });
                    }
                    (idx, Column::Float(cells))
                })
                .collect()
        };
        for (idx, col) in replayed {
            columns[idx] = col;
        }
    }
    Ok(Batch::new(schema.clone(), columns)?)
}

fn read_bitmap(cur: &mut Cursor<'_>, rows: usize) -> Result<Vec<bool>> {
    let bytes = cur.read_slice(rows.div_ceil(8))?;
    Ok((0..rows)
        .map(|i| bytes[i / 8] & (1 << (i % 8)) != 0)
        .collect())
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
                Column::Str(bus),
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
