//! Append-mode store: crash recovery, follower tailing, seal compatibility.
//!
//! The recovery contract under test: whatever byte the file is cut at, the
//! reopened store recovers **every sealed (fully flushed) group** with
//! typed errors only — no panics — losing at most the torn tail group.

use std::io::Cursor;
use std::sync::Arc;

use ivnt_protocol::message::Protocol;
use ivnt_store::{
    recover, seal_recovered, AppendOptions, Record, StoreFollower, StoreReader, StoreWriter,
    WriterOptions,
};
use proptest::prelude::*;

const BUSES: [&str; 3] = ["FC", "DC", "K-LIN"];

fn record(i: u64) -> Record {
    let buses: Vec<Arc<str>> = BUSES.iter().map(|&b| Arc::from(b)).collect();
    Record {
        timestamp_us: i * 500,
        bus: buses[(i % 3) as usize].clone(),
        message_id: (i % 24) as u32,
        payload: vec![(i & 0xff) as u8, ((i * 7) & 0xff) as u8],
        protocol: match i % 4 {
            0 => Protocol::Can,
            1 => Protocol::Lin,
            2 => Protocol::SomeIp,
            _ => Protocol::CanFd,
        },
    }
}

fn append_options(chunk_rows: usize, flush_rows: usize) -> AppendOptions {
    AppendOptions {
        writer: WriterOptions {
            chunk_rows,
            chunks_per_group: 4,
            cluster: true,
        },
        flush_rows,
        flush_interval_us: 0,
    }
}

/// Writes `n` records through an append writer, returning the raw bytes
/// (unsealed) plus per-flushed-group `(rows, end byte offset)`.
fn append_bytes(n: u64, options: AppendOptions) -> (Vec<u8>, Vec<(usize, u64)>) {
    let mut writer = StoreWriter::new(Vec::new(), options).unwrap();
    let mut groups = Vec::new();
    for i in 0..n {
        if let Some(flush) = writer.append(&record(i)).unwrap() {
            groups.push((flush.rows, writer.bytes_written()));
        }
    }
    if let Some(flush) = writer.flush().unwrap() {
        groups.push((flush.rows, writer.bytes_written()));
    }
    let frames_end = writer.bytes_written() as usize;
    // Unseal on purpose: keep the frames, drop the footer + trailer.
    let bytes = writer.seal().unwrap();
    (bytes[..frames_end].to_vec(), groups)
}

#[test]
fn sealed_append_file_reads_like_a_batch_store() {
    let records: Vec<Record> = (0..500).map(record).collect();
    let mut writer = StoreWriter::new(Vec::new(), append_options(16, 100)).unwrap();
    for r in &records {
        writer.append(r).unwrap();
    }
    let bytes = writer.seal().unwrap();
    // The standard reader must accept the sealed file unchanged: footer
    // offsets skip over the interleaved frame headers.
    let mut reader = StoreReader::from_reader(Cursor::new(bytes)).unwrap();
    assert_eq!(reader.footer().rows, 500);
    assert_eq!(reader.footer().groups, 5);
    assert_eq!(reader.read_all().unwrap(), records);
}

#[test]
fn time_trigger_flushes_between_row_triggers() {
    let mut writer = StoreWriter::new(
        Vec::new(),
        AppendOptions {
            writer: WriterOptions {
                chunk_rows: 1024,
                chunks_per_group: 32,
                cluster: true,
            },
            flush_rows: 1_000_000,
            flush_interval_us: 10_000, // 20 records at 500 µs spacing
        },
    )
    .unwrap();
    let mut flushes = 0;
    for i in 0..100 {
        if writer.append(&record(i)).unwrap().is_some() {
            flushes += 1;
        }
    }
    assert!(
        (4..=6).contains(&flushes),
        "expected ~5 time-triggered flushes, got {flushes}"
    );
}

#[test]
fn torn_tail_is_truncated_and_sealed_groups_survive() {
    let (bytes, groups) = append_bytes(330, append_options(16, 64));
    assert_eq!(groups.len(), 6); // 5×64 + trailing 10
                                 // Cut mid-way through the final frame.
    let torn = &bytes[..bytes.len() - 7];
    let recovered = ivnt_store::recover_reader(&mut Cursor::new(torn)).unwrap();
    assert!(!recovered.sealed);
    assert_eq!(recovered.footer.groups, 5);
    assert_eq!(recovered.footer.rows, 320);
    // The plain reader must refuse the torn file with a typed error.
    assert!(StoreReader::from_reader(Cursor::new(torn.to_vec())).is_err());
}

#[test]
fn follower_tails_groups_as_they_complete_and_sees_the_seal() {
    let path = std::env::temp_dir().join(format!(
        "ivnt-follow-{}-{:?}.ivns",
        std::process::id(),
        std::thread::current().id()
    ));
    let mut writer = StoreWriter::create(&path, append_options(16, 50)).unwrap();
    let mut follower = StoreFollower::open(&path).unwrap();
    let mut tailed: Vec<Record> = Vec::new();
    for i in 0..500u64 {
        writer.append(&record(i)).unwrap();
        if i % 100 == 0 {
            let batch = follower.poll().unwrap();
            assert!(!batch.sealed);
            for g in batch.groups {
                tailed.extend(g.records);
            }
        }
    }
    writer.seal().unwrap();
    let batch = follower.poll().unwrap();
    assert!(batch.sealed);
    for g in batch.groups {
        tailed.extend(g.records);
    }
    assert_eq!(tailed, (0..500).map(record).collect::<Vec<_>>());
    // A sealed follower stays sealed and empty.
    let again = follower.poll().unwrap();
    assert!(again.sealed && again.groups.is_empty());
    std::fs::remove_file(&path).ok();
}

#[test]
fn seal_recovered_produces_a_standard_readable_store() {
    let (bytes, _) = append_bytes(330, append_options(16, 64));
    let torn = &bytes[..bytes.len() - 7];
    let path = std::env::temp_dir().join(format!(
        "ivnt-reseal-{}-{:?}.ivns",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&path, torn).unwrap();
    let recovered = seal_recovered(&path).unwrap();
    assert!(recovered.sealed);
    let mut reader = StoreReader::open(&path).unwrap();
    assert_eq!(reader.footer().rows, 320);
    assert_eq!(
        reader.read_all().unwrap(),
        (0..320).map(record).collect::<Vec<_>>()
    );
    // Idempotent: sealing an already-sealed file changes nothing.
    let len = std::fs::metadata(&path).unwrap().len();
    let again = seal_recovered(&path).unwrap();
    assert!(again.sealed);
    assert_eq!(std::fs::metadata(&path).unwrap().len(), len);
    std::fs::remove_file(&path).ok();
}

proptest! {
    /// Cut an unsealed append file at *any* byte offset: recovery must
    /// return typed results (never panic), keep exactly the complete
    /// frames, and the recovered prefix must replay losslessly.
    #[test]
    fn recovery_at_any_truncation_offset_keeps_all_sealed_groups(
        n in 1u64..400,
        chunk_rows in 1usize..48,
        flush_rows in 1usize..96,
        cut_fraction in 0.0f64..1.0,
    ) {
        let (bytes, groups) = append_bytes(n, append_options(chunk_rows, flush_rows));
        let cut = ((bytes.len() as f64) * cut_fraction) as usize;
        let torn = &bytes[..cut];

        let outcome = ivnt_store::recover_reader(&mut Cursor::new(torn));
        if cut < 8 {
            // Shorter than the store header: typed BadMagic, nothing else.
            prop_assert!(matches!(outcome, Err(ivnt_store::Error::BadMagic)));
            return Ok(());
        }
        let recovered = outcome.unwrap();
        prop_assert!(!recovered.sealed);

        // Every frame wholly inside the cut must survive — no more, no
        // less. Frame end offsets were captured at flush time.
        let survivors: Vec<&(usize, u64)> =
            groups.iter().filter(|(_, end)| *end <= cut as u64).collect();
        let expect_rows: u64 = survivors.iter().map(|(r, _)| *r as u64).sum();
        prop_assert_eq!(recovered.footer.groups as usize, survivors.len());
        prop_assert_eq!(recovered.footer.rows, expect_rows);
        prop_assert_eq!(
            recovered.valid_len,
            survivors.last().map(|(_, end)| *end).unwrap_or(8)
        );

        // And the recovered prefix replays losslessly in trace order.
        let mut reader = StoreReader::with_footer(
            Cursor::new(torn.to_vec()),
            recovered.footer.clone(),
        );
        let got = reader.read_all().unwrap();
        let expected: Vec<Record> = (0..expect_rows).map(record).collect();
        prop_assert_eq!(got, expected);
        prop_assert_eq!(recovered.torn_bytes(), (torn.len() as u64).saturating_sub(recovered.valid_len));
    }

    /// Recovery of an *uncut* unsealed file loses nothing, and resealing
    /// round-trips through the standard reader.
    #[test]
    fn recovery_of_complete_unsealed_file_is_lossless(
        n in 1u64..300,
        chunk_rows in 1usize..32,
        flush_rows in 1usize..64,
    ) {
        let (bytes, groups) = append_bytes(n, append_options(chunk_rows, flush_rows));
        let recovered = ivnt_store::recover_reader(&mut Cursor::new(&bytes)).unwrap();
        let flushed: u64 = groups.iter().map(|&(r, _)| r as u64).sum();
        prop_assert_eq!(recovered.footer.rows, flushed);
        prop_assert_eq!(recovered.footer.rows, n); // explicit flush drained everything
        let mut reader = StoreReader::with_footer(
            Cursor::new(bytes),
            recovered.footer.clone(),
        );
        prop_assert_eq!(reader.read_all().unwrap(), (0..n).map(record).collect::<Vec<_>>());
    }

    /// Corrupting a single byte inside the frame region never panics:
    /// recovery either drops the damaged suffix or (for bytes the
    /// checksums don't cover, like padding) still replays a valid prefix.
    #[test]
    fn corruption_inside_frames_never_panics(
        n in 10u64..200,
        flush_rows in 4usize..48,
        pos_fraction in 0.0f64..1.0,
        xor in 1u8..=255,
    ) {
        let (mut bytes, _) = append_bytes(n, append_options(8, flush_rows));
        let pos = 8 + (((bytes.len() - 9) as f64) * pos_fraction) as usize;
        bytes[pos] ^= xor;
        // A typed error is acceptable; a panic is not. Whatever survives
        // recovery must still replay without panicking.
        if let Ok(recovered) = ivnt_store::recover_reader(&mut Cursor::new(&bytes)) {
            let mut reader = StoreReader::with_footer(
                Cursor::new(bytes),
                recovered.footer.clone(),
            );
            let _ = reader.read_all();
        }
    }
}

#[test]
fn recover_on_path_matches_reader_recovery() {
    let (bytes, _) = append_bytes(120, append_options(8, 40));
    let torn = &bytes[..bytes.len() - 3];
    let path = std::env::temp_dir().join(format!(
        "ivnt-recover-{}-{:?}.ivns",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&path, torn).unwrap();
    let from_path = recover(&path).unwrap();
    let from_reader = ivnt_store::recover_reader(&mut Cursor::new(torn)).unwrap();
    assert_eq!(from_path.footer.rows, from_reader.footer.rows);
    assert_eq!(from_path.valid_len, from_reader.valid_len);
    let (mut reader, recovered) = ivnt_store::open_recovered(&path).unwrap();
    assert_eq!(recovered.footer.rows, from_path.footer.rows);
    assert_eq!(
        reader.read_all().unwrap().len() as u64,
        recovered.footer.rows
    );
    std::fs::remove_file(&path).ok();
}
