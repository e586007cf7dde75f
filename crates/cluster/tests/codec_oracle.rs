//! `encode_batch_compressed` against the encoder it replaced.
//!
//! Until this file existed the v3 encoder *raced* its modes: it built
//! every candidate body of every column and kept the shortest. The
//! production encoder now sizes the modes arithmetically and writes
//! only the winner; the race lives on here as the oracle. The claim,
//! held against randomized and hand-picked batches: the two produce the
//! same bytes — so nothing on the wire, in a checkpoint or in
//! `bytes_per_row` moved — and the RAW sizes the new encoder reports
//! are exactly what the flat encoding costs.
//!
//! The race reads string columns by cell content. Every batch is encoded
//! in two twins — each string column's dictionary its cells in order (the
//! form a RAW column decodes to), and a shuffled dictionary with unused
//! and content-duplicate entries — which must both produce the very bytes
//! the race gives.

use std::collections::HashMap;
use std::sync::Arc;

use ivnt_cluster::codec::{
    decode_batch_compressed, encode_batch, encode_batch_compressed,
    encode_batch_compressed_with_raw_len,
};
use ivnt_frame::batch::Batch;
use ivnt_frame::column::{Column, DictColumn};
use ivnt_frame::datatype::{DataType, Schema};
use ivnt_store::varint;
use proptest::prelude::*;

mod mode {
    pub const RAW: u8 = 0;
    pub const DELTA: u8 = 1;
    pub const BITS_DELTA: u8 = 2;
    pub const DICT: u8 = 3;
    pub const DICT_BITS: u8 = 4;
    pub const PACKED: u8 = 5;
    pub const BITS_DELTA2: u8 = 6;
    pub const BITS_KEYED: u8 = 7;
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

fn bitmap<T>(cells: &[Option<T>]) -> Vec<u8> {
    let mut bits = vec![0u8; cells.len().div_ceil(8)];
    for (i, c) in cells.iter().enumerate() {
        if c.is_some() {
            bits[i / 8] |= 1 << (i % 8);
        }
    }
    bits
}

/// The racing encoder `encode_batch_compressed` replaced: every mode's
/// body is materialized and the shortest kept. Slow, obviously right,
/// and the definition of the v3 format's canonical bytes.
fn oracle_encode(batch: &Batch) -> Vec<u8> {
    let rows = batch.num_rows();
    let mut out = Vec::new();
    varint::write_u64(&mut out, rows as u64);
    varint::write_u64(&mut out, batch.columns().len() as u64);
    // Keyed float modes delta within the groups this column defines.
    let keys = batch.columns().iter().find_map(str_cells);
    let keys = keys.as_deref();
    for col in batch.columns() {
        match col {
            Column::Bool(cells) => {
                out.push(type_tag(DataType::Bool));
                out.push(mode::PACKED);
                out.extend_from_slice(&bitmap(cells));
                let mut packed = 0u8;
                let mut filled = 0u32;
                for c in cells.iter().flatten() {
                    packed |= u8::from(*c) << filled;
                    filled += 1;
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
                let mut delta = Vec::new();
                let mut raw = Vec::new();
                let mut prev = 0i64;
                for c in cells.iter().flatten() {
                    varint::write_i64(&mut delta, c.wrapping_sub(prev));
                    varint::write_i64(&mut raw, *c);
                    prev = *c;
                }
                let (m, body) = pick_mode(vec![(mode::DELTA, delta), (mode::RAW, raw)]);
                out.push(m);
                out.extend_from_slice(&bitmap(cells));
                out.extend_from_slice(&body);
            }
            Column::Float(cells) => {
                out.push(type_tag(DataType::Float));
                let (m, body) = encode_float_body(cells, keys);
                out.push(m);
                out.extend_from_slice(&bitmap(cells));
                out.extend_from_slice(&body);
            }
            Column::Str(_) => {
                let cells = str_cells(col).expect("a string column");
                out.push(type_tag(DataType::Str));
                // Signal/bus/symbol columns carry a handful of distinct
                // strings; mostly-unique columns fall back to raw cells.
                let (dict, indexes) = build_dict(cells.iter().flatten().map(Arc::clone));
                let mut dict_body = Vec::new();
                varint::write_u64(&mut dict_body, dict.len() as u64);
                for s in &dict {
                    varint::write_u64(&mut dict_body, s.len() as u64);
                    dict_body.extend_from_slice(s.as_bytes());
                }
                for idx in indexes {
                    varint::write_u64(&mut dict_body, idx as u64);
                }
                let mut raw = Vec::new();
                for c in cells.iter().flatten() {
                    varint::write_u64(&mut raw, c.len() as u64);
                    raw.extend_from_slice(c.as_bytes());
                }
                let (m, body) = pick_mode(vec![(mode::DICT, dict_body), (mode::RAW, raw)]);
                out.push(m);
                out.extend_from_slice(&bitmap(&cells));
                out.extend_from_slice(&body);
            }
            Column::Bytes(cells) => {
                out.push(type_tag(DataType::Bytes));
                out.push(mode::RAW);
                out.extend_from_slice(&bitmap(cells));
                for c in cells.iter().flatten() {
                    varint::write_u64(&mut out, c.len() as u64);
                    out.extend_from_slice(c);
                }
            }
        }
    }
    out
}

/// A string column's cells by content, `None` for another column.
fn str_cells(col: &Column) -> Option<Vec<Option<Arc<str>>>> {
    col.as_dict()
        .map(|d| d.iter().map(Option::<&Arc<str>>::cloned).collect())
}

/// Shortest candidate body wins; ties break on the lower mode byte.
/// Both the bodies and the ordering are pure functions of the cell
/// values, so the choice keeps the encoding canonical.
fn pick_mode(candidates: Vec<(u8, Vec<u8>)>) -> (u8, Vec<u8>) {
    candidates
        .into_iter()
        .min_by_key(|(m, body)| (body.len(), *m))
        .expect("at least one candidate encoding")
}

/// Every float encoding the format knows, raced against each other.
///
/// The keyed modes only exist when the batch has a string column to key
/// on; interpreted traces key on the signal-id column, which turns an
/// interleaved many-signal column back into the smooth per-signal
/// series the delta codecs were built for.
fn encode_float_body(cells: &[Option<f64>], keys: Option<&[Option<Arc<str>>]>) -> (u8, Vec<u8>) {
    let mut delta = Vec::new();
    let mut delta2 = Vec::new();
    let mut raw = Vec::new();
    let (mut prev, mut prev_d) = (0i64, 0i64);
    for c in cells.iter().flatten() {
        let bits = c.to_bits() as i64;
        let d = bits.wrapping_sub(prev);
        varint::write_i64(&mut delta, d);
        varint::write_i64(&mut delta2, d.wrapping_sub(prev_d));
        raw.extend_from_slice(&c.to_bits().to_le_bytes());
        prev = bits;
        prev_d = d;
    }
    let mut candidates = vec![
        (mode::RAW, raw),
        (mode::BITS_DELTA, delta),
        (mode::BITS_DELTA2, delta2),
    ];
    if let Some(keys) = keys {
        let mut keyed = Vec::new();
        let mut keyed2 = Vec::new();
        let mut state: HashMap<Option<&Arc<str>>, (i64, i64)> = HashMap::new();
        for (c, k) in cells.iter().zip(keys) {
            let Some(c) = c else { continue };
            let bits = c.to_bits() as i64;
            let (prev, prev_d) = state.entry(k.as_ref()).or_insert((0, 0));
            let d = bits.wrapping_sub(*prev);
            varint::write_i64(&mut keyed, d);
            varint::write_i64(&mut keyed2, d.wrapping_sub(*prev_d));
            *prev = bits;
            *prev_d = d;
        }
        candidates.push((mode::BITS_KEYED, keyed));
        candidates.push((mode::BITS_KEYED2, keyed2));
    }
    let (dict, indexes) = build_dict(cells.iter().flatten().map(|c| c.to_bits()));
    let mut dict_body = Vec::new();
    varint::write_u64(&mut dict_body, dict.len() as u64);
    for bits in &dict {
        dict_body.extend_from_slice(&bits.to_le_bytes());
    }
    for idx in indexes {
        varint::write_u64(&mut dict_body, idx as u64);
    }
    candidates.push((mode::DICT_BITS, dict_body));
    pick_mode(candidates)
}

/// First-appearance-order dictionary plus the per-cell index stream.
fn build_dict<T: Clone + Eq + std::hash::Hash>(
    cells: impl Iterator<Item = T>,
) -> (Vec<T>, Vec<usize>) {
    let mut dict: Vec<T> = Vec::new();
    let mut seen: HashMap<T, usize> = HashMap::new();
    let mut indexes = Vec::new();
    for c in cells {
        let idx = *seen.entry(c.clone()).or_insert_with(|| {
            dict.push(c);
            dict.len() - 1
        });
        indexes.push(idx);
    }
    (dict, indexes)
}

/// Deterministic generator state (splitmix64): the batch shapes below
/// need correlated draws (palettes, per-key series) the stand-in
/// proptest's strategies cannot express, so a case is one seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }
}

const SPECIALS: [u64; 8] = [
    0x7FF8_0000_0000_0000, // NaN
    0x7FF8_0000_0000_0001, // NaN with payload
    0xFFF0_0000_0000_0001, // signaling-ish negative NaN
    0x8000_0000_0000_0000, // -0.0
    0x0000_0000_0000_0000, // +0.0
    0x0000_0000_0000_0001, // smallest subnormal
    0x000F_FFFF_FFFF_FFFF, // largest subnormal
    0xFFF0_0000_0000_0000, // -inf
];

/// A string column over a palette of `names` distinct strings. A cell
/// either shares the palette's allocation or gets a fresh `Arc` with
/// equal content; `null_in` makes one cell in that many null.
fn str_column(g: &mut Gen, rows: usize, names: usize, null_in: usize) -> Vec<Option<Arc<str>>> {
    let palette: Vec<Arc<str>> = (0..names)
        .map(|i| Arc::from(format!("sig_{i:03}_{}", "x".repeat(i % 5))))
        .collect();
    (0..rows)
        .map(|_| {
            if null_in > 0 && g.one_in(null_in) {
                return None;
            }
            let name = &palette[g.below(names)];
            Some(if g.one_in(3) {
                Arc::from(&**name)
            } else {
                Arc::clone(name)
            })
        })
        .collect()
}

/// A float column in one of the shapes the modes were built for (or
/// against): smooth per-key series, few-level palettes on both sides of
/// the dictionary threshold, all-distinct bits, IEEE specials.
fn float_column(
    g: &mut Gen,
    rows: usize,
    key: Option<&[Option<Arc<str>>]>,
    null_in: usize,
) -> Vec<Option<f64>> {
    let style = g.below(6);
    let levels = 1 + g.below(48);
    let palette: Vec<u64> = (0..levels).map(|_| g.next()).collect();
    let step = 1 + g.below(1 << 20) as u64;
    // Small jitter leaves the second difference near zero; jitter as
    // large as the step makes the first-order modes the better ones.
    let jitter = if g.one_in(2) { 3 } else { step as usize };
    let mut series: HashMap<Option<Arc<str>>, u64> = HashMap::new();
    (0..rows)
        .map(|row| {
            if null_in > 0 && g.one_in(null_in) {
                return None;
            }
            let bits = match style {
                // One global ramp: BITS_DELTA / BITS_DELTA2 territory.
                0 => 0x4000_0000_0000_0000 + row as u64 * step + g.below(jitter) as u64,
                // One ramp per key: the keyed modes' territory.
                1 => {
                    let k = key.and_then(|k| k[row].clone());
                    let base =
                        0x3FF0_0000_0000_0000 + (k.as_ref().map_or(0, |s| s.len()) << 40) as u64;
                    let v = series.entry(k).or_insert(base);
                    *v = v.wrapping_add(step + g.below(jitter) as u64);
                    *v
                }
                // Two levels, then a palette straddling the point where
                // the dictionary stops paying for itself.
                2 => palette[g.below(2.min(levels))],
                3 => palette[g.below(levels)],
                // All distinct: the dictionary must be abandoned.
                4 => g.next(),
                _ => SPECIALS[g.below(SPECIALS.len())],
            };
            Some(f64::from_bits(bits))
        })
        .collect()
}

fn int_column(g: &mut Gen, rows: usize) -> Vec<Option<i64>> {
    let wild = g.one_in(2);
    (0..rows)
        .map(|row| {
            (!g.one_in(7)).then(|| {
                if wild {
                    g.next() as i64
                } else {
                    1_000_000 + 3 * row as i64 - g.below(5) as i64
                }
            })
        })
        .collect()
}

fn schema(fields: &[(&str, DataType)]) -> Arc<Schema> {
    Schema::from_pairs(fields.iter().copied())
        .expect("static schema")
        .into_shared()
}

/// One random batch in one of three layouts: the interpreted-signal
/// layout (a float column *before* its key column), a layout with no
/// string column at all, and one with the key column first.
fn batch_from(seed: u64, rows: usize) -> Batch {
    let mut g = Gen(seed);
    let names = 1 + g.below(7);
    let key_nulls = [0, 0, 4, 1][g.below(4)];
    let float_nulls = [0, 9][g.below(2)];
    match g.below(3) {
        0 => {
            let s = str_column(&mut g, rows, names, key_nulls);
            let t = float_column(&mut g, rows, Some(&s), 0);
            let v = float_column(&mut g, rows, Some(&s), float_nulls);
            let bus = str_column(&mut g, rows, 2, 0);
            // Mostly-unique strings: the RAW side of the string race.
            let text = (0..rows)
                .map(|i| (!g.one_in(2)).then(|| Arc::from(format!("txt{i}-{}", g.below(1000)))))
                .collect();
            Batch::new(
                schema(&[
                    ("t", DataType::Float),
                    ("s_id", DataType::Str),
                    ("bus", DataType::Str),
                    ("v", DataType::Float),
                    ("text", DataType::Str),
                ]),
                vec![
                    Column::Float(t),
                    cells_column(s),
                    cells_column(bus),
                    Column::Float(v),
                    cells_column(text),
                ],
            )
        }
        1 => {
            let f = float_column(&mut g, rows, None, float_nulls);
            let i = int_column(&mut g, rows);
            let b = (0..rows)
                .map(|_| (!g.one_in(3)).then(|| g.one_in(2)))
                .collect();
            let f2 = float_column(&mut g, rows, None, 0);
            Batch::new(
                schema(&[
                    ("f", DataType::Float),
                    ("i", DataType::Int),
                    ("b", DataType::Bool),
                    ("f2", DataType::Float),
                ]),
                vec![
                    Column::Float(f),
                    Column::Int(i),
                    Column::Bool(b),
                    Column::Float(f2),
                ],
            )
        }
        _ => {
            let s = str_column(&mut g, rows, names, key_nulls);
            let f = float_column(&mut g, rows, Some(&s), float_nulls);
            let y = (0..rows)
                .map(|i| (!g.one_in(5)).then(|| Arc::from(vec![i as u8; g.below(4)].as_slice())))
                .collect();
            let i = int_column(&mut g, rows);
            Batch::new(
                schema(&[
                    ("s_id", DataType::Str),
                    ("f", DataType::Float),
                    ("y", DataType::Bytes),
                    ("i", DataType::Int),
                ]),
                vec![
                    cells_column(s),
                    Column::Float(f),
                    Column::Bytes(y),
                    Column::Int(i),
                ],
            )
        }
    }
    .expect("columns match the schema")
}

/// A string column whose dictionary is `cells` in order.
fn cells_column(cells: Vec<Option<Arc<str>>>) -> Column {
    Column::Str(DictColumn::from_cells(cells))
}

/// `batch` with every string column's dictionary its cells in order.
fn cells_twin(batch: &Batch) -> Batch {
    let columns = batch
        .columns()
        .iter()
        .map(|col| str_cells(col).map_or_else(|| col.clone(), cells_column))
        .collect();
    Batch::new(batch.schema().clone(), columns).unwrap()
}

/// `batch` with every string column coded: the distinct strings in
/// reverse first-appearance order, each twice (equal content, separate
/// allocations, cells split between the two codes), behind an entry no
/// cell uses.
fn coded_twin(batch: &Batch) -> Batch {
    let columns = batch
        .columns()
        .iter()
        .map(|col| {
            let Some(cells) = str_cells(col) else {
                return col.clone();
            };
            let mut distinct: Vec<Arc<str>> = Vec::new();
            for s in cells.iter().flatten() {
                if !distinct.iter().any(|d| d == s) {
                    distinct.push(s.clone());
                }
            }
            distinct.reverse();
            let mut values: Vec<Arc<str>> = vec![Arc::from("never-used")];
            for s in &distinct {
                values.push(s.clone());
                values.push(Arc::from(&**s));
            }
            let codes = cells
                .iter()
                .enumerate()
                .map(|(row, cell)| match cell {
                    None => DictColumn::NULL,
                    Some(s) => {
                        let at = distinct.iter().position(|d| d == s).unwrap();
                        (1 + 2 * at + row % 2) as u32
                    }
                })
                .collect();
            Column::Str(DictColumn::new(codes, values.into()).unwrap())
        })
        .collect();
    Batch::new(batch.schema().clone(), columns).unwrap()
}

/// The whole claim for one batch, in both twins.
fn assert_matches_oracle(batch: &Batch) {
    let plain = cells_twin(batch);
    assert_form_matches_oracle(&plain, &plain);
    assert_form_matches_oracle(&coded_twin(batch), &plain);
}

/// `batch` encodes to the race's bytes for `plain`, its twin whose
/// dictionaries are its cells.
fn assert_form_matches_oracle(batch: &Batch, plain: &Batch) {
    let expected = oracle_encode(plain);
    let (bytes, raw_len) = encode_batch_compressed_with_raw_len(batch);
    assert_eq!(bytes, expected, "size-then-write diverged from the race");
    assert_eq!(encode_batch_compressed(batch), expected);
    assert_eq!(raw_len, encode_batch(batch).len() as u64);
    assert_eq!(encode_batch(batch), encode_batch(plain));
    let decoded = decode_batch_compressed(&bytes, batch.schema()).expect("own bytes decode");
    assert_eq!(encode_batch(&decoded), encode_batch(batch));
    // Decoding lands every cell in a fresh allocation pattern; the
    // encoding is a function of content, so the bytes must not care.
    assert_eq!(encode_batch_compressed(&decoded), expected);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `new == oracle`, byte for byte, over random batches of every
    /// layout — including the empty and the one-row batch.
    #[test]
    fn size_then_write_equals_the_race(seed in 0u64..u64::MAX, rows in 0usize..300) {
        assert_matches_oracle(&batch_from(seed, rows));
        assert_matches_oracle(&batch_from(seed, rows.min(1)));
    }
}

fn float_batch(cells: Vec<Option<f64>>) -> Batch {
    Batch::new(
        schema(&[("v", DataType::Float)]),
        vec![Column::Float(cells)],
    )
    .unwrap()
}

fn mode_of_first_column(bytes: &[u8]) -> u8 {
    let mut cur = varint::Cursor::new(bytes);
    cur.read_u64().unwrap();
    cur.read_u64().unwrap();
    bytes[bytes.len() - cur.remaining() + 1]
}

/// The dictionary bail-out, on both sides of its threshold: `levels`
/// random bit patterns cycled over 256 cells. With few levels the
/// dictionary completes and wins; as the levels grow it must first lose
/// on size and then be abandoned mid-column — the output equals the
/// race throughout.
#[test]
fn float_dictionary_threshold_is_crossed_without_a_seam() {
    let mut g = Gen(7);
    let pool: Vec<u64> = (0..256).map(|_| g.next()).collect();
    let mut modes = Vec::new();
    for levels in 1..=256usize {
        let cells = (0..256)
            .map(|i| Some(f64::from_bits(pool[(i * 7 + i / levels) % levels])))
            .collect();
        let batch = float_batch(cells);
        assert_matches_oracle(&batch);
        modes.push(mode_of_first_column(&encode_batch_compressed(&batch)));
    }
    assert_eq!(modes[1], mode::DICT_BITS, "two levels must go dictionary");
    assert_ne!(
        modes[255],
        mode::DICT_BITS,
        "all-distinct must not go dictionary"
    );
}

/// The dictionary walk needs no table while the bit patterns rise; the
/// first fall builds one from the entries so far, and a later repeat of
/// an early pattern must find its index there. A rising prefix, then the
/// same patterns again: the dictionary wins, and equals the race's.
#[test]
fn float_dictionary_finds_repeats_after_a_rising_prefix() {
    for (levels, repeats) in [(3usize, 40usize), (40, 6), (200, 2)] {
        let cells = (0..levels * repeats)
            .map(|i| {
                Some(f64::from_bits(
                    0x4000_0000_0000_0000 + (i % levels) as u64 * 977,
                ))
            })
            .collect();
        let batch = float_batch(cells);
        assert_matches_oracle(&batch);
        if levels == 3 {
            let m = mode_of_first_column(&encode_batch_compressed(&batch));
            assert_eq!(m, mode::DICT_BITS, "three levels must go dictionary");
        }
    }
}

/// String dictionaries past 128 entries take multi-byte indexes, coded
/// or plain; an all-null coded column is a bitmap and nothing else.
#[test]
fn wide_and_empty_string_dictionaries_match_the_race() {
    let mut g = Gen(5);
    let rows = 900;
    for names in [120usize, 129, 300] {
        let s = str_column(&mut g, rows, names, 9);
        let f = float_column(&mut g, rows, Some(&s), 0);
        let batch = Batch::new(
            schema(&[("f", DataType::Float), ("s_id", DataType::Str)]),
            vec![Column::Float(f), cells_column(s)],
        )
        .unwrap();
        assert_matches_oracle(&batch);
    }
    let nulls = Column::Str(DictColumn::new(vec![DictColumn::NULL; 17], vec![].into()).unwrap());
    let batch = Batch::new(schema(&[("s", DataType::Str)]), vec![nulls]).unwrap();
    assert_matches_oracle(&batch);
}

#[test]
fn degenerate_batches_match_the_race() {
    for rows in [0usize, 1, 2, 7, 8, 9] {
        for seed in 0..64 {
            assert_matches_oracle(&batch_from(seed, rows));
        }
    }
    // All-null columns: every mode sizes to zero and RAW must win the tie.
    assert_matches_oracle(&float_batch(vec![None; 20]));
    let batch = float_batch(vec![None; 20]);
    assert_eq!(
        mode_of_first_column(&encode_batch_compressed(&batch)),
        mode::RAW
    );
}

/// Keys are compared by content: the same signal name in different
/// allocations (a decoded RAW column, say) is one delta chain, and a
/// null key is a chain of its own.
#[test]
fn equal_content_keys_in_distinct_allocations_share_a_chain() {
    let rows = 120;
    let shared: [Arc<str>; 2] = [Arc::from("alpha"), Arc::from("beta")];
    for fresh in [false, true] {
        // An aperiodic interleaving, so only the per-key view is smooth.
        let mut g = Gen(99);
        let picks: Vec<usize> = (0..rows).map(|_| g.below(3)).collect();
        let keys: Vec<Option<Arc<str>>> = picks
            .iter()
            .map(|&k| {
                let name = shared.get(k)?;
                Some(if fresh {
                    Arc::from(&**name)
                } else {
                    Arc::clone(name)
                })
            })
            .collect();
        let values = picks
            .iter()
            .enumerate()
            .map(|(i, &k)| Some(f64::from_bits(((0x400 + k as u64) << 52) + i as u64)))
            .collect();
        let batch = Batch::new(
            schema(&[("v", DataType::Float), ("s_id", DataType::Str)]),
            vec![Column::Float(values), cells_column(keys)],
        )
        .unwrap();
        assert_matches_oracle(&batch);
        let m = mode_of_first_column(&encode_batch_compressed(&batch));
        assert!(
            m == mode::BITS_KEYED || m == mode::BITS_KEYED2,
            "per-key ramps should pick a keyed mode, got {m}"
        );
    }
}

/// The generator is only an argument if it reaches every branch of the
/// race: each float mode and both string modes must win somewhere.
#[test]
fn random_batches_exercise_every_mode() {
    let mut seen = std::collections::BTreeSet::new();
    for seed in 0..2000u64 {
        let batch = batch_from(seed.wrapping_mul(0x1234_5678_9ABC_DEF1), 200);
        let bytes = encode_batch_compressed(&batch);
        seen.insert((
            type_tag(batch.schema().fields()[0].data_type()),
            mode_of_first_column(&bytes),
        ));
    }
    let float = type_tag(DataType::Float);
    let string = type_tag(DataType::Str);
    let expected = [
        (float, mode::RAW),
        (float, mode::BITS_DELTA),
        (float, mode::DICT_BITS),
        (float, mode::BITS_DELTA2),
        (float, mode::BITS_KEYED),
        (float, mode::BITS_KEYED2),
        (string, mode::RAW),
        (string, mode::DICT),
    ];
    assert_eq!(seen.into_iter().collect::<Vec<_>>(), expected);
}

/// A mostly-unique string column goes RAW, decodes to a column whose
/// dictionary is its non-null cells in order, and re-encodes to the same
/// bytes.
#[test]
fn a_raw_string_column_decodes_to_its_cells_and_reencodes() {
    let cells: Vec<Option<Arc<str>>> = (0..300)
        .map(|i| (i % 7 != 0).then(|| Arc::from(format!("cell-{i}"))))
        .collect();
    let batch = Batch::new(
        schema(&[("s", DataType::Str)]),
        vec![cells_column(cells.clone())],
    )
    .unwrap();
    let bytes = encode_batch_compressed(&batch);
    assert_eq!(bytes, oracle_encode(&batch));
    assert_eq!(mode_of_first_column(&bytes), mode::RAW);
    let decoded = decode_batch_compressed(&bytes, batch.schema()).expect("decodes");
    let column = decoded.column(0).as_dict().expect("a string column");
    assert_eq!(column.values().len(), cells.iter().flatten().count());
    assert_eq!(decoded, batch);
    assert_eq!(encode_batch_compressed(&decoded), bytes);
}
