//! Property tests: round-trip fidelity, zone-map soundness, corruption
//! robustness of the store format, and the columnar scan against the
//! row-materializing scan it replaced.

use std::io::Cursor;
use std::sync::Arc;

use ivnt_frame::batch::Batch;
use ivnt_protocol::message::Protocol;
use ivnt_store::layout::{checksum, decode_chunk};
use ivnt_store::record::protocol_from_tag;
use ivnt_store::schema::{raw_trace_schema, records_to_batch};
use ivnt_store::varint;
use ivnt_store::{
    Error, IndexedRecord, Predicate, Record, ScanStats, StoreReader, StoreWriter, WriterOptions,
};
use proptest::prelude::*;

const BUSES: [&str; 3] = ["FC", "DC", "K-LIN"];

/// Raw generator tuple per record: (time delta µs, bus index, message id,
/// payload, protocol tag).
type RawRecord = (u32, usize, u32, Vec<u8>, u8);

fn build_records(raw: Vec<RawRecord>) -> Vec<Record> {
    let buses: Vec<Arc<str>> = BUSES.iter().map(|&b| Arc::from(b)).collect();
    let mut t = 0u64;
    raw.into_iter()
        .map(|(dt, bus, mid, payload, proto)| {
            t += u64::from(dt);
            Record {
                timestamp_us: t,
                bus: buses[bus % BUSES.len()].clone(),
                message_id: mid,
                payload,
                protocol: match proto % 4 {
                    0 => Protocol::Can,
                    1 => Protocol::Lin,
                    2 => Protocol::SomeIp,
                    _ => Protocol::CanFd,
                },
            }
        })
        .collect()
}

fn raw_record_strategy() -> impl Strategy<Value = RawRecord> {
    (
        0u32..50_000,
        0usize..BUSES.len(),
        0u32..24,
        prop::collection::vec(0u8..=255, 0..9),
        0u8..4,
    )
}

fn write_store(records: &[Record], options: WriterOptions) -> Vec<u8> {
    let mut writer = StoreWriter::new(Vec::new(), options).unwrap();
    for r in records {
        writer.append(r).unwrap();
    }
    writer.seal().unwrap()
}

/// One scan's raw-trace batches (one per emitting row group) and counters.
type ScanOut = (Vec<Batch>, ScanStats);

/// The oracle's own chunk decoder, written from the layout rather than
/// shared with the scan under test: row count, then one section per
/// column — zigzag-delta indices and times, bus codes, message ids,
/// protocol tags, payload lengths — then the payload bytes.
fn oracle_decode(bytes: &[u8], buses: &[Arc<str>]) -> Result<Vec<IndexedRecord>, Error> {
    let mut cur = varint::Cursor::new(bytes);
    let rows = cur.read_u32_le()? as usize;
    let deltas = |cur: &mut varint::Cursor<'_>| -> Result<Vec<u64>, Error> {
        let mut prev = 0u64;
        (0..rows)
            .map(|i| {
                let step = if i == 0 {
                    cur.read_u64()?
                } else {
                    cur.read_i64()? as u64
                };
                prev = prev.wrapping_add(step);
                Ok(prev)
            })
            .collect()
    };
    let varints = |cur: &mut varint::Cursor<'_>| -> Result<Vec<u64>, Error> {
        (0..rows).map(|_| cur.read_u64()).collect()
    };
    let index = deltas(&mut cur)?;
    let t_us = deltas(&mut cur)?;
    let bus = varints(&mut cur)?;
    let mid = varints(&mut cur)?;
    let protocol: Vec<Protocol> = (0..rows)
        .map(|_| protocol_from_tag(cur.read_u8()?))
        .collect::<Result<_, Error>>()?;
    let lens = varints(&mut cur)?;
    (0..rows)
        .map(|i| {
            Ok(IndexedRecord {
                index: index[i],
                bus_id: bus[i] as u32,
                record: Record {
                    timestamp_us: t_us[i],
                    bus: buses[bus[i] as usize].clone(),
                    message_id: mid[i] as u32,
                    payload: cur.read_slice(lens[i] as usize)?.to_vec(),
                    protocol: protocol[i],
                },
            })
        })
        .collect()
}

/// The oracle: the row-materializing scan the columnar core replaced.
/// Every admitted chunk is decoded into records, filtered row by row,
/// sorted by trace position per group and built by `records_to_batch`.
fn oracle_scan(bytes: &[u8], preds: &[Predicate]) -> Result<ScanOut, Error> {
    let reader = StoreReader::from_reader(Cursor::new(bytes.to_vec()))?;
    let footer = reader.footer();
    let preds: Vec<_> = preds.iter().map(|p| p.compile(footer)).collect();
    let mut stats = ScanStats {
        chunks_total: footer.chunks.len(),
        ..ScanStats::default()
    };
    let mut batches = Vec::new();
    let mut pending: Vec<IndexedRecord> = Vec::new();
    let mut emit = |pending: &mut Vec<IndexedRecord>, stats: &mut ScanStats| {
        if !pending.is_empty() {
            pending.sort_by_key(|r| r.index);
            stats.rows_emitted += pending.len() as u64;
            let rows = pending.iter().map(|r| &r.record);
            batches.push(records_to_batch(raw_trace_schema(), rows)?);
            pending.clear();
        }
        Ok::<(), Error>(())
    };
    let mut group = None;
    for meta in &footer.chunks {
        if group.is_some_and(|g| g != meta.group) {
            emit(&mut pending, &mut stats)?;
        }
        group = Some(meta.group);
        if !preds.iter().any(|p| p.chunk_may_match(meta)) {
            stats.chunks_skipped += 1;
            continue;
        }
        stats.chunks_scanned += 1;
        let chunk = &bytes[meta.offset as usize..][..meta.len as usize];
        assert_eq!(checksum(chunk), meta.checksum);
        let rows = oracle_decode(chunk, &footer.buses)?;
        let row_view = decode_chunk(chunk, &footer.buses)?;
        assert_eq!(row_view, rows);
        stats.rows_decoded += rows.len() as u64;
        stats.peak_rows_buffered = stats.peak_rows_buffered.max(pending.len() + rows.len());
        pending.extend(rows.into_iter().filter(|r| {
            let (bus, mid, t) = (r.bus_id, r.record.message_id, r.record.timestamp_us);
            preds.iter().any(|p| p.matches(bus, mid, t))
        }));
    }
    emit(&mut pending, &mut stats)?;
    Ok((batches, stats))
}

/// The scan under test: `scan_columns`, each group's rows built into a
/// batch as the oracle builds its own.
fn columnar_scan(bytes: &[u8], preds: &[Predicate]) -> Result<ScanOut, Error> {
    let mut reader = StoreReader::from_reader(Cursor::new(bytes.to_vec()))?;
    let preds: Vec<_> = preds.iter().map(|p| p.compile(reader.footer())).collect();
    let mut batches = Vec::new();
    let stats = reader.scan_columns::<Error, _>(&preds, |group| {
        batches.push(records_to_batch(raw_trace_schema(), &group.records())?);
        Ok(())
    })?;
    Ok((batches, stats))
}

/// Generator tuple per predicate: `(bus, mid)` selections (bus index
/// `BUSES.len()` names a bus absent from every file), time window, group
/// range; `None` fields keep everything.
type RawPredicate = (
    Option<Vec<(usize, u32)>>,
    Option<(u64, u64)>,
    Option<(u32, u32)>,
);

fn raw_predicate_strategy() -> impl Strategy<Value = RawPredicate> {
    (
        prop::option::of(prop::collection::vec(
            (0usize..=BUSES.len(), 0u32..24),
            0..4,
        )),
        prop::option::of((0u64..6_000_000, 0u64..3_000_000)),
        prop::option::of((0u32..6, 0u32..4)),
    )
}

fn build_predicate((pairs, window, groups): RawPredicate, buses: &[String]) -> Predicate {
    let name = |b: usize| buses.get(b).map_or("NOPE".to_string(), Clone::clone);
    Predicate {
        selections: pairs.map(|p| p.into_iter().map(|(b, m)| (name(b), m)).collect()),
        time_range_us: window.map(|(from, len)| (from, from + len)),
        group_range: groups.map(|(from, len)| (from, from + len)),
    }
}

proptest! {
    /// The columnar scan emits, group for group, the batches the row
    /// oracle builds — cell for cell — with equal counters, under unions
    /// of multi-pair predicates (absent buses included), time windows and
    /// group ranges, on clustered and time-ordered files; groups without
    /// survivors emit nothing.
    #[test]
    fn columnar_scan_equals_row_oracle(
        raw in prop::collection::vec(raw_record_strategy(), 0..400),
        chunk_rows in 1usize..64,
        chunks_per_group in 1usize..6,
        cluster_bit in 0u8..2,
        raw_preds in prop::collection::vec(raw_predicate_strategy(), 1..4),
    ) {
        let records = build_records(raw);
        let bytes = write_store(&records, WriterOptions {
            chunk_rows,
            chunks_per_group,
            cluster: cluster_bit == 1,
        });
        let buses: Vec<String> = BUSES.iter().map(|b| b.to_string()).collect();
        let preds: Vec<Predicate> = raw_preds
            .into_iter()
            .map(|p| build_predicate(p, &buses))
            .collect();
        let (batches, stats) = columnar_scan(&bytes, &preds).unwrap();
        prop_assert!(batches.iter().all(|b| b.num_rows() > 0));
        prop_assert_eq!((batches, stats), oracle_scan(&bytes, &preds).unwrap());
    }

    /// The same differential over a dictionary that keeps growing after
    /// groups were flushed, with every third payload empty.
    #[test]
    fn columnar_scan_equals_row_oracle_on_growing_dictionary(
        n in 1usize..300,
        stride in 1usize..24,
        chunk_rows in 1usize..32,
        chunks_per_group in 1usize..4,
        raw_preds in prop::collection::vec(raw_predicate_strategy(), 1..3),
    ) {
        let records: Vec<Record> = (0..n)
            .map(|i| Record {
                timestamp_us: i as u64 * 20_000,
                bus: Arc::from(format!("B{}", i / stride).as_str()),
                message_id: (i % 7) as u32,
                payload: if i % 3 == 0 { vec![] } else { vec![i as u8; i % 5] },
                protocol: Protocol::Can,
            })
            .collect();
        let bytes = write_store(&records, WriterOptions {
            chunk_rows,
            chunks_per_group,
            cluster: true,
        });
        let buses: Vec<String> = (0..BUSES.len()).map(|i| format!("B{i}")).collect();
        let preds: Vec<Predicate> = raw_preds
            .into_iter()
            .map(|p| build_predicate(p, &buses))
            .collect();
        prop_assert_eq!(columnar_scan(&bytes, &preds).unwrap(), oracle_scan(&bytes, &preds).unwrap());
    }

    /// Whatever layout parameters the writer uses, a full scan returns
    /// the exact input sequence.
    #[test]
    fn roundtrip_is_lossless(
        raw in prop::collection::vec(raw_record_strategy(), 0..400),
        chunk_rows in 1usize..96,
        chunks_per_group in 1usize..6,
        cluster_bit in 0u8..2,
    ) {
        let records = build_records(raw);
        let bytes = write_store(&records, WriterOptions {
            chunk_rows,
            chunks_per_group,
            cluster: cluster_bit == 1,
        });
        let mut reader = StoreReader::from_reader(Cursor::new(bytes)).unwrap();
        prop_assert_eq!(reader.footer().rows, records.len() as u64);
        prop_assert_eq!(reader.read_all().unwrap(), records);
    }

    /// Zone-map soundness, stated end-to-end: a predicate scan returns
    /// exactly the brute-force row filter. If a skipped chunk ever held a
    /// matching row, that row would be missing here.
    #[test]
    fn scan_equals_brute_force_filter(
        raw in prop::collection::vec(raw_record_strategy(), 0..400),
        chunk_rows in 1usize..64,
        chunks_per_group in 1usize..6,
        cluster_bit in 0u8..2,
        sel_bus in 0usize..BUSES.len(),
        sel_mid in 0u32..24,
        from_us in 0u64..6_000_000,
        window_us in 0u64..6_000_000,
    ) {
        let records = build_records(raw);
        let bytes = write_store(&records, WriterOptions {
            chunk_rows,
            chunks_per_group,
            cluster: cluster_bit == 1,
        });
        let to_us = from_us.saturating_add(window_us);
        let pred = Predicate::for_messages([(BUSES[sel_bus], sel_mid)])
            .with_time_range_us(from_us, to_us);
        let mut got = Vec::new();
        let mut reader = StoreReader::from_reader(Cursor::new(bytes)).unwrap();
        let stats = reader.scan::<Error, _>(&pred, |mut g| {
            got.append(&mut g);
            Ok(())
        }).unwrap();
        let expected: Vec<Record> = records
            .iter()
            .filter(|r| {
                r.bus.as_ref() == BUSES[sel_bus]
                    && r.message_id == sel_mid
                    && (from_us..=to_us).contains(&r.timestamp_us)
            })
            .cloned()
            .collect();
        prop_assert_eq!(stats.rows_emitted, expected.len() as u64);
        prop_assert_eq!(got, expected);
        prop_assert!(stats.peak_rows_buffered <= chunk_rows * chunks_per_group);
    }

    /// The dictionary may grow for the whole life of the file: bus
    /// `B{i/stride}` first appears at row `i*stride`, so later groups keep
    /// widening the footer bitset past byte boundaries after earlier
    /// groups already flushed shorter ones.
    #[test]
    fn growing_bus_dictionary_roundtrips(
        n in 1usize..300,
        stride in 1usize..24,
        chunk_rows in 1usize..32,
        chunks_per_group in 1usize..4,
    ) {
        let records: Vec<Record> = (0..n)
            .map(|i| Record {
                timestamp_us: i as u64 * 100,
                bus: Arc::from(format!("B{}", i / stride).as_str()),
                message_id: (i % 7) as u32,
                payload: vec![i as u8],
                protocol: Protocol::Can,
            })
            .collect();
        let bytes = write_store(&records, WriterOptions {
            chunk_rows,
            chunks_per_group,
            cluster: true,
        });
        let mut reader = StoreReader::from_reader(Cursor::new(bytes)).unwrap();
        prop_assert_eq!(reader.footer().buses.len(), records.len().div_ceil(stride));
        prop_assert_eq!(reader.read_all().unwrap(), records);
    }

    /// Damaged files yield typed errors, never panics and never silently
    /// wrong data: any truncation, and any single-byte flip in a byte the
    /// reader reads (header, chunks, footer, trailer), is caught at open
    /// or at scan time. A flip inside a group frame header — bytes only
    /// recovery and followers read — leaves what the reader returns intact.
    #[test]
    fn corruption_never_panics(
        raw in prop::collection::vec(raw_record_strategy(), 1..150),
        chunk_rows in 1usize..32,
        damage_kind in 0u8..2,
        damage_at in 0usize..10_000,
    ) {
        let records = build_records(raw);
        let mut bytes = write_store(&records, WriterOptions {
            chunk_rows,
            chunks_per_group: 2,
            cluster: true,
        });
        let mut read_bytes = true;
        if damage_kind == 0 {
            // Truncate somewhere strictly inside the file.
            let cut = damage_at % bytes.len().max(1);
            bytes.truncate(cut);
        } else {
            let at = damage_at % bytes.len();
            let footer = StoreReader::from_reader(Cursor::new(bytes.clone())).unwrap().footer().clone();
            let footer_at = footer.chunks.last().map_or(8, |c| c.offset + u64::from(c.len));
            read_bytes = (at as u64) < 8
                || at as u64 >= footer_at
                || footer.chunks.iter().any(|c| (c.offset..c.offset + u64::from(c.len)).contains(&(at as u64)));
            bytes[at] ^= 0x5A;
        }
        match StoreReader::from_reader(Cursor::new(bytes)) {
            Err(_) => {}
            Ok(mut reader) if !read_bytes => {
                prop_assert_eq!(reader.read_all().unwrap(), records);
            }
            Ok(mut reader) => {
                prop_assert!(reader.read_all().is_err());
                // The columnar core hits the same damage.
                let all = [Predicate::all().compile(reader.footer())];
                let scanned = reader.scan_columns::<Error, _>(&all, |_| Ok(()));
                prop_assert!(scanned.is_err());
            }
        }
    }
}

/// Rewrites a store's footer through `forge` and re-seals it with a
/// recomputed checksum — what an adversary (or a buggy tool) can do, since
/// the footer checksum is not a MAC.
fn forge_footer(bytes: &[u8], forge: impl FnOnce(&mut ivnt_store::Footer)) -> Vec<u8> {
    use ivnt_store::layout::{decode_footer, encode_footer, END_MAGIC, TRAILER_LEN};
    let trailer = &bytes[bytes.len() - TRAILER_LEN..];
    let offset = u64::from_le_bytes(trailer[0..8].try_into().unwrap()) as usize;
    let mut footer = decode_footer(&bytes[offset..bytes.len() - TRAILER_LEN]).unwrap();
    forge(&mut footer);
    let encoded = encode_footer(&footer).unwrap();
    let mut out = bytes[..offset].to_vec();
    out.extend_from_slice(&encoded);
    out.extend_from_slice(&(offset as u64).to_le_bytes());
    out.extend_from_slice(&(encoded.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum(&encoded).to_le_bytes());
    out.extend_from_slice(END_MAGIC);
    out
}

#[test]
fn forged_group_counts_never_drive_allocations() {
    let raw: Vec<RawRecord> = (0..200)
        .map(|i| (10, i % 3, i as u32 % 24, vec![1, 2], 0))
        .collect();
    let bytes = write_store(
        &build_records(raw),
        WriterOptions {
            chunk_rows: 16,
            chunks_per_group: 2,
            cluster: false,
        },
    );
    let real_groups = StoreReader::from_reader(Cursor::new(bytes.clone()))
        .unwrap()
        .footer()
        .group_spans()
        .len();
    assert!(real_groups > 2);

    // A huge declared count opens, but sizes nothing: the spans come from
    // the chunk index.
    let huge = forge_footer(&bytes, |f| f.groups = u32::MAX);
    let reader = StoreReader::from_reader(Cursor::new(huge)).unwrap();
    assert_eq!(reader.footer().group_spans().len(), real_groups);

    // A chunk past the declared count, or a decreasing group id, is a
    // typed format error at open.
    let short = forge_footer(&bytes, |f| f.groups = 1);
    assert!(matches!(
        StoreReader::from_reader(Cursor::new(short)),
        Err(Error::Format(_))
    ));
    let unordered = forge_footer(&bytes, |f| f.chunks[0].group = 2);
    assert!(matches!(
        StoreReader::from_reader(Cursor::new(unordered)),
        Err(Error::Format(_))
    ));
}
