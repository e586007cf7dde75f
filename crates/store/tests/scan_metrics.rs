//! The scan's selectivity as its own counters report it: rows decoded
//! (keys tested) against rows emitted, in `ScanStats` and in the
//! `store_scan_rows_*_total` counters `ivnt run --metrics` prints. A test
//! binary of its own, because the subscriber is process-wide.

use std::io::Cursor;
use std::sync::Arc;

use ivnt_protocol::message::Protocol;
use ivnt_store::{Error, Predicate, Record, StoreReader, StoreWriter, WriterOptions};

#[test]
fn rows_decoded_and_emitted_are_pinned_on_a_clustered_store() {
    // Two buses alternating, 16 message ids cycling: FC carries the even
    // ids. Clustered groups of 4 × 64 rows put FC/2 in the first chunk
    // of each group, whose zone map alone admits it.
    let mut writer = StoreWriter::new(
        Vec::new(),
        WriterOptions {
            chunk_rows: 64,
            chunks_per_group: 4,
            cluster: true,
        },
    )
    .unwrap();
    for i in 0..1_024u64 {
        writer
            .append(&Record {
                timestamp_us: i * 1_000,
                bus: Arc::from(if i % 2 == 0 { "FC" } else { "DC" }),
                message_id: (i % 16) as u32,
                payload: vec![i as u8],
                protocol: Protocol::Can,
            })
            .unwrap();
    }
    let mut reader = StoreReader::from_reader(Cursor::new(writer.finish().unwrap())).unwrap();
    let pred = Predicate::for_messages([("FC", 2u32)]).compile(reader.footer());

    let registry = Arc::new(ivnt_obs::Registry::new());
    let stats = {
        let _guard = ivnt_obs::install(Arc::clone(&registry));
        reader
            .scan_columns::<Error, _>(&[pred], |_| Ok(()))
            .unwrap()
    };
    assert_eq!((stats.chunks_scanned, stats.chunks_skipped), (4, 12));
    assert_eq!(stats.rows_decoded, 256);
    assert_eq!(stats.rows_emitted, 64);
    let counters = registry.snapshot().counters;
    assert_eq!(counters["store_scan_rows_decoded_total"], 256);
    assert_eq!(counters["store_scan_rows_emitted_total"], 64);
}
