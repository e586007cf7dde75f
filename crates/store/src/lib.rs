//! # ivnt-store — chunked columnar trace store with zone-map pushdown
//!
//! The paper's fleet back end keeps recorded byte traces (`K_b`) in a
//! distributed file system and lets Spark push the interpretation
//! projection down to the storage layer. This crate is that layer's
//! single-node analogue: a binary, chunked, columnar file format
//! (`.ivns`) in which a journey's `(t, l, b_id, m_id, m_info)` tuples are
//! stored delta- and dictionary-encoded with per-chunk **zone maps**
//! (min/max timestamp, min/max message id, bus bitset).
//!
//! Extraction of a handful of signals from an 800-signal trace touches a
//! tiny fraction of the rows; zone maps let the scan *prove* most chunks
//! irrelevant from the footer index alone and skip them unread. Because
//! in-vehicle traffic is cyclic (every chunk of a time-ordered log holds
//! nearly every message id), the writer first **clusters** each row group
//! by `(b_id, m_id)` before cutting chunks, storing original row
//! positions so scans restore exact trace order per group — pruning that
//! actually fires, at the cost of ~1 byte/row.
//!
//! - [`StoreWriter`] — streaming append, bounded by one row group.
//! - [`StoreReader`] — validated open ([`Error::BadMagic`],
//!   [`Error::Truncated`], checksum variants), [`Predicate`]-driven
//!   [`StoreReader::scan_columns`] with [`ScanStats`]: keys are tested on
//!   decoded key columns before any payload is copied, and each row
//!   group's survivors arrive as [`GroupColumns`] (one raw-trace batch via
//!   [`GroupColumns::to_batch`]); [`StoreReader::scan`] and
//!   [`StoreReader::read_all`] are row views over it.
//! - [`append`] — live-session mode: [`AppendWriter`] flushes
//!   crash-recoverable micro-batched group frames, [`recover`] rebuilds
//!   the index of a torn file by walking checksummed frames, and
//!   [`StoreFollower`] tails a growing file group by group.
//! - [`schema`] — the canonical tabular form of a raw trace, shared with
//!   the interpretation pipeline.

#![warn(missing_docs)]

pub mod append;
pub mod columns;
pub mod compact;
pub mod error;
pub mod layout;
pub mod reader;
pub mod record;
pub mod schema;
pub mod varint;
pub mod writer;

pub use append::{
    open_recovered, recover, recover_reader, seal_recovered, AppendOptions, AppendWriter,
    GroupFlush, Recovered, StoreFollower, TailBatch, TailGroup,
};
pub use columns::GroupColumns;
pub use compact::{compact, compact_file, CompactReport};
pub use error::{Error, Result};
pub use layout::{ChunkMeta, Footer, GroupSpan, IndexedRecord, ZoneMap};
pub use reader::{CompiledPredicate, Predicate, ScanStats, StoreReader};
pub use record::Record;
pub use writer::{StoreWriter, WriterOptions};

/// Canonical file extension of store files.
pub const FILE_EXTENSION: &str = "ivns";

#[cfg(test)]
mod tests {
    use std::io::Cursor;
    use std::sync::Arc;

    use ivnt_protocol::message::Protocol;

    use super::*;

    fn record(i: u64, bus: &str, mid: u32) -> Record {
        Record {
            timestamp_us: i * 10_000,
            bus: Arc::from(bus),
            message_id: mid,
            payload: vec![(i % 251) as u8, mid as u8],
            protocol: if mid.is_multiple_of(2) {
                Protocol::Can
            } else {
                Protocol::Lin
            },
        }
    }

    /// A cyclic two-bus trace, the adversarial case for zone maps.
    fn cyclic_trace(n: u64, mids: u32) -> Vec<Record> {
        (0..n)
            .map(|i| {
                record(
                    i,
                    if i % 2 == 0 { "FC" } else { "DC" },
                    (i % u64::from(mids)) as u32,
                )
            })
            .collect()
    }

    fn write_store(records: &[Record], options: WriterOptions) -> Vec<u8> {
        let mut writer = StoreWriter::new(Vec::new(), options).unwrap();
        for r in records {
            writer.append(r).unwrap();
        }
        writer.finish().unwrap()
    }

    #[test]
    fn roundtrip_preserves_order_and_content() {
        let records = cyclic_trace(1_000, 40);
        for cluster in [true, false] {
            let bytes = write_store(
                &records,
                WriterOptions {
                    chunk_rows: 64,
                    chunks_per_group: 4,
                    cluster,
                },
            );
            let mut reader = StoreReader::from_reader(Cursor::new(bytes)).unwrap();
            assert_eq!(reader.footer().rows, 1_000);
            assert_eq!(reader.read_all().unwrap(), records);
        }
    }

    #[test]
    fn selective_scan_filters_and_skips() {
        let records = cyclic_trace(4_096, 64);
        let bytes = write_store(
            &records,
            WriterOptions {
                chunk_rows: 64,
                chunks_per_group: 16,
                cluster: true,
            },
        );
        let mut reader = StoreReader::from_reader(Cursor::new(bytes)).unwrap();
        let pred = Predicate::for_messages([("FC", 2u32), ("DC", 63u32)]);
        let mut got = Vec::new();
        let stats = reader
            .scan::<Error, _>(&pred, |mut g| {
                got.append(&mut g);
                Ok(())
            })
            .unwrap();
        let expected: Vec<Record> = records
            .iter()
            .filter(|r| {
                (r.bus.as_ref() == "FC" && r.message_id == 2)
                    || (r.bus.as_ref() == "DC" && r.message_id == 63)
            })
            .cloned()
            .collect();
        assert_eq!(got, expected);
        assert_eq!(stats.rows_emitted, expected.len() as u64);
        assert!(
            stats.chunks_skipped > stats.chunks_total / 2,
            "clustered layout must skip most chunks: {stats:?}"
        );
        assert!(stats.peak_rows_buffered <= 64 * 16);
    }

    #[test]
    fn time_range_scan_uses_zone_maps() {
        // Unclustered layout keeps chunks time-contiguous, so a narrow
        // window skips almost everything.
        let records = cyclic_trace(2_048, 16);
        let bytes = write_store(
            &records,
            WriterOptions {
                chunk_rows: 64,
                chunks_per_group: 4,
                cluster: false,
            },
        );
        let mut reader = StoreReader::from_reader(Cursor::new(bytes)).unwrap();
        let pred = Predicate::all().with_time_range_us(100 * 10_000, 109 * 10_000);
        let mut got = Vec::new();
        let stats = reader
            .scan::<Error, _>(&pred, |mut g| {
                got.append(&mut g);
                Ok(())
            })
            .unwrap();
        assert_eq!(got.len(), 10);
        assert!(got
            .iter()
            .all(|r| (1_000_000..=1_090_000).contains(&r.timestamp_us)));
        assert!(stats.chunks_skipped > 0);
    }

    #[test]
    fn bus_appearing_after_group_flush_keeps_file_readable() {
        // The first two groups intern buses B0..B7 (1-byte zone-map
        // bitsets); B8 first appears in a later group, widening the footer
        // bitset stride past the byte boundary to 2. Earlier chunks' short
        // bitsets must be padded on encode, not misparse the whole index.
        let bus_record = |i: u64, bus: &str, mid: u32| Record {
            timestamp_us: i * 1_000,
            bus: Arc::from(bus),
            message_id: mid,
            payload: vec![i as u8],
            protocol: Protocol::Can,
        };
        let mut records: Vec<Record> = (0..16u64)
            .map(|i| bus_record(i, &format!("B{}", i % 8), (i % 4) as u32))
            .collect();
        records.extend((16..20u64).map(|i| bus_record(i, "B8", 99)));
        let bytes = write_store(
            &records,
            WriterOptions {
                chunk_rows: 4,
                chunks_per_group: 2,
                cluster: true,
            },
        );
        let mut reader = StoreReader::from_reader(Cursor::new(bytes)).unwrap();
        assert_eq!(reader.footer().buses.len(), 9);
        assert_eq!(reader.read_all().unwrap(), records);
        // The late bus is selectable and its zone-map bit prunes the rest.
        let mut got = Vec::new();
        let stats = reader
            .scan::<Error, _>(&Predicate::for_messages([("B8", 99u32)]), |mut g| {
                got.append(&mut g);
                Ok(())
            })
            .unwrap();
        assert_eq!(got.len(), 4);
        assert!(got.iter().all(|r| r.bus.as_ref() == "B8"));
        assert!(stats.chunks_skipped > 0);
    }

    #[test]
    fn unknown_bus_selection_matches_nothing() {
        let bytes = write_store(&cyclic_trace(100, 4), WriterOptions::default());
        let mut reader = StoreReader::from_reader(Cursor::new(bytes)).unwrap();
        let stats = reader
            .scan::<Error, _>(&Predicate::for_messages([("NOPE", 1u32)]), |_| {
                panic!("no group should match")
            })
            .unwrap();
        assert_eq!(stats.chunks_scanned, 0);
        assert_eq!(stats.chunks_skipped, stats.chunks_total);
    }

    #[test]
    fn group_range_scan_restricts_to_groups() {
        let records = cyclic_trace(1_024, 16);
        let options = WriterOptions {
            chunk_rows: 32,
            chunks_per_group: 4,
            cluster: true,
        };
        let bytes = write_store(&records, options);
        let mut reader = StoreReader::from_reader(Cursor::new(bytes)).unwrap();
        let spans = reader.footer().group_spans();
        assert_eq!(spans.len(), reader.footer().groups as usize);
        assert_eq!(spans.iter().map(|s| s.rows).sum::<u64>(), 1_024);
        // Spans tile the chunk index contiguously.
        let mut next = 0usize;
        for s in &spans {
            assert_eq!(s.chunk_start, next);
            next = s.chunk_end;
        }
        assert_eq!(next, reader.footer().chunks.len());

        // Scanning groups [1, 3) returns exactly the rows the writer
        // buffered into those groups, in trace order.
        let group_rows = options.group_rows();
        let mut got = Vec::new();
        reader
            .scan::<Error, _>(&Predicate::all().with_group_range(1, 3), |mut g| {
                got.append(&mut g);
                Ok(())
            })
            .unwrap();
        assert_eq!(got, records[group_rows..3 * group_rows]);
        // An empty window matches nothing; a full one matches everything.
        let stats = reader
            .scan::<Error, _>(&Predicate::all().with_group_range(2, 2), |_| {
                panic!("empty group window must not emit")
            })
            .unwrap();
        assert_eq!(stats.rows_emitted, 0);
    }

    #[test]
    fn union_scan_routes_back_to_per_predicate_scans() {
        let records = cyclic_trace(4_096, 64);
        let bytes = write_store(
            &records,
            WriterOptions {
                chunk_rows: 64,
                chunks_per_group: 16,
                cluster: true,
            },
        );
        let mut reader = StoreReader::from_reader(Cursor::new(bytes)).unwrap();
        let preds = [
            Predicate::for_messages([("FC", 2u32), ("FC", 4u32)]),
            Predicate::for_messages([("DC", 63u32)]).with_time_range_us(0, 20_000_000),
            Predicate::for_messages([("NOPE", 1u32)]),
        ];
        let compiled: Vec<CompiledPredicate> =
            preds.iter().map(|p| p.compile(reader.footer())).collect();
        let mut routed: Vec<Vec<Record>> = vec![Vec::new(); preds.len()];
        let mut union_rows = 0u64;
        let stats = reader
            .scan_indexed::<Error, _>(&compiled, |rows| {
                union_rows += rows.len() as u64;
                for row in &rows {
                    for (q, c) in compiled.iter().enumerate() {
                        if c.matches(row.bus_id, row.record.message_id, row.record.timestamp_us) {
                            routed[q].push(row.record.clone());
                        }
                    }
                }
                Ok(())
            })
            .unwrap();
        assert_eq!(stats.rows_emitted, union_rows);
        // Each predicate's routed rows equal its own solo scan.
        for (pred, routed) in preds.iter().zip(&routed) {
            let mut solo = Vec::new();
            reader
                .scan::<Error, _>(pred, |mut g| {
                    solo.append(&mut g);
                    Ok(())
                })
                .unwrap();
            assert_eq!(&solo, routed);
        }
        assert!(routed[2].is_empty());
    }

    #[test]
    fn generation_counts_group_flushes() {
        let records = cyclic_trace(1_024, 16);
        let options = WriterOptions {
            chunk_rows: 32,
            chunks_per_group: 4,
            cluster: true,
        };
        let bytes = write_store(&records, options);
        let reader = StoreReader::from_reader(Cursor::new(bytes)).unwrap();
        assert_eq!(reader.generation(), u64::from(reader.footer().groups));
        assert_eq!(reader.generation(), 8);
    }

    #[test]
    fn compact_merges_micro_groups_bit_identically() {
        // A sealed live session: many tiny append-mode group frames.
        let records = cyclic_trace(2_000, 24);
        let mut aw = AppendWriter::new(
            Vec::new(),
            AppendOptions {
                writer: WriterOptions {
                    chunk_rows: 32,
                    chunks_per_group: 2,
                    cluster: true,
                },
                flush_rows: 64,
                flush_interval_us: 0,
            },
        )
        .unwrap();
        for r in &records {
            aw.append(r).unwrap();
        }
        let bytes = aw.seal().unwrap();
        let mut input = StoreReader::from_reader(Cursor::new(bytes)).unwrap();
        let groups_before = input.footer().groups;
        assert!(
            groups_before > 10,
            "expected micro-groups, got {groups_before}"
        );

        let out_options = WriterOptions {
            chunk_rows: 128,
            chunks_per_group: 8,
            cluster: true,
        };
        let (out, report) = compact(&mut input, Vec::new(), out_options).unwrap();
        assert_eq!(report.rows, records.len() as u64);
        assert_eq!(report.groups_before, groups_before);
        assert!(
            report.groups_after < groups_before,
            "compaction must merge groups: {report:?}"
        );

        let mut compacted = StoreReader::from_reader(Cursor::new(out)).unwrap();
        assert_eq!(compacted.footer().groups, report.groups_after);
        assert_eq!(compacted.footer().chunks.len(), report.chunks_after);
        assert_eq!(compacted.footer().rows, records.len() as u64);
        assert_eq!(compacted.generation(), u64::from(report.groups_after));
        // Bit-identical contents: same records, same trace order.
        assert_eq!(compacted.read_all().unwrap(), records);
    }

    #[test]
    fn empty_store_roundtrips() {
        let bytes = write_store(&[], WriterOptions::default());
        let mut reader = StoreReader::from_reader(Cursor::new(bytes)).unwrap();
        assert_eq!(reader.footer().rows, 0);
        assert!(reader.read_all().unwrap().is_empty());
    }

    #[test]
    fn bad_magic_is_typed() {
        let err = StoreReader::from_reader(Cursor::new(b"NOTASTOREFILE_LONG_ENOUGH".to_vec()))
            .unwrap_err();
        assert!(matches!(err, Error::BadMagic));
        let err = StoreReader::from_reader(Cursor::new(b"IV".to_vec())).unwrap_err();
        assert!(matches!(err, Error::Truncated(_)));
    }

    #[test]
    fn truncated_footer_is_typed() {
        let bytes = write_store(&cyclic_trace(200, 8), WriterOptions::default());
        for cut in [bytes.len() - 1, bytes.len() - 20, bytes.len() / 2] {
            let err = StoreReader::from_reader(Cursor::new(bytes[..cut].to_vec())).unwrap_err();
            assert!(
                matches!(err, Error::Truncated(_) | Error::FooterChecksum),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn corrupt_footer_checksum_is_typed() {
        let mut bytes = write_store(&cyclic_trace(200, 8), WriterOptions::default());
        // Flip a byte inside the footer (just before the 32-byte trailer).
        let idx = bytes.len() - layout::TRAILER_LEN - 1;
        bytes[idx] ^= 0xFF;
        let err = StoreReader::from_reader(Cursor::new(bytes)).unwrap_err();
        assert!(matches!(err, Error::FooterChecksum));
    }

    #[test]
    fn corrupt_chunk_checksum_is_typed() {
        let mut bytes = write_store(
            &cyclic_trace(512, 8),
            WriterOptions {
                chunk_rows: 64,
                chunks_per_group: 2,
                cluster: true,
            },
        );
        // Flip a byte inside the first chunk's payload region (after the
        // 8-byte magic and the chunk's row-count word).
        bytes[16] ^= 0xFF;
        let mut reader = StoreReader::from_reader(Cursor::new(bytes)).unwrap();
        let err = reader.read_all().unwrap_err();
        assert!(matches!(err, Error::ChunkChecksum { chunk: 0 }));
    }

    /// Replaces the footer of `bytes` by `forge(footer bytes)` under a
    /// recomputed checksum and trailer, so only the footer's content can
    /// get it rejected.
    fn reseal(bytes: &[u8], forge: impl FnOnce(Vec<u8>) -> Vec<u8>) -> Vec<u8> {
        let trailer_start = bytes.len() - layout::TRAILER_LEN;
        let offset = u64::from_le_bytes(bytes[trailer_start..][..8].try_into().unwrap());
        let footer = forge(bytes[offset as usize..trailer_start].to_vec());
        let mut out = bytes[..offset as usize].to_vec();
        out.extend_from_slice(&footer);
        out.extend_from_slice(&offset.to_le_bytes());
        out.extend_from_slice(&(footer.len() as u64).to_le_bytes());
        out.extend_from_slice(&layout::checksum(&footer).to_le_bytes());
        out.extend_from_slice(layout::END_MAGIC);
        out
    }

    #[test]
    fn forged_footers_are_rejected_at_open() {
        let bytes = write_store(
            &cyclic_trace(512, 8),
            WriterOptions {
                chunk_rows: 64,
                chunks_per_group: 2,
                cluster: true,
            },
        );
        let open = |forge: &dyn Fn(&mut Footer)| {
            let forged = reseal(&bytes, |footer| {
                let mut footer = layout::decode_footer(&footer).unwrap();
                forge(&mut footer);
                layout::encode_footer(&footer).unwrap()
            });
            StoreReader::from_reader(Cursor::new(forged)).map(|_| ())
        };
        assert!(open(&|_| {}).is_ok());
        // A chunk length no file holds must fail before any read sizes a
        // buffer by it.
        let err = open(&|f| f.chunks[0].len = u32::MAX).unwrap_err();
        assert!(matches!(err, Error::Truncated(_)), "{err}");
        let err = open(&|f| f.chunks[3].offset = bytes.len() as u64).unwrap_err();
        assert!(matches!(err, Error::Truncated(_)), "{err}");
        let err = open(&|f| f.chunks[0].offset = 0).unwrap_err();
        assert!(matches!(err, Error::Truncated(_)), "{err}");
        let err = open(&|f| f.chunks[1].offset = f.chunks[0].offset + 1).unwrap_err();
        assert!(matches!(err, Error::Format(_)), "{err}");
        let err = open(&|f| f.chunks.swap(1, 2)).unwrap_err();
        assert!(matches!(err, Error::Format(_)), "{err}");

        // Declared counts that the footer bytes left cannot hold are
        // refused before they size an allocation: one chunk entry per
        // footer byte passes a bytes-per-entry guard of 1, not the real
        // 52-plus-bitset minimum.
        let footer = StoreReader::from_reader(Cursor::new(bytes.clone()))
            .unwrap()
            .footer()
            .clone();
        let chunk_count_at = 4 + footer.buses.iter().map(|b| 2 + b.len()).sum::<usize>() + 25;
        for (at, what) in [(0, "buses"), (chunk_count_at, "chunks")] {
            let forged = reseal(&bytes, |mut fb| {
                let count = fb.len() as u32;
                fb[at..at + 4].copy_from_slice(&count.to_le_bytes());
                fb
            });
            let err = StoreReader::from_reader(Cursor::new(forged)).unwrap_err();
            assert!(matches!(err, Error::Format(_)), "{what}: {err}");
        }
    }
}
