//! Source and ingest-driver behavior: frame-line round trips, stdin/TCP
//! sources, end-to-end ingest into a sealed `.ivns` store, graceful
//! drain-on-stop, and recoverability of an unsealed ingest output.

use std::io::Write;
use std::sync::OnceLock;
use std::time::Duration;

use ivnt_simulator::prelude::*;
use ivnt_store::{open_recovered, AppendOptions, AppendWriter, Record, StoreReader, WriterOptions};
use ivnt_stream::{
    format_line, ingest, parse_line, FrameSource, IngestOptions, LineSource, SimulatorSource,
    SourceEvent, StopFlag, TcpLineSource,
};
use proptest::prelude::*;

fn dataset() -> &'static GeneratedDataSet {
    static DATA: OnceLock<GeneratedDataSet> = OnceLock::new();
    DATA.get_or_init(|| {
        generate(&DataSetSpec::syn().with_seed(17).with_target_examples(2_000))
            .expect("generate SYN dataset")
    })
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ivnt-ingest-{tag}-{}.ivns", std::process::id()))
}

fn append_options() -> AppendOptions {
    AppendOptions {
        writer: WriterOptions {
            chunk_rows: 64,
            chunks_per_group: 4,
            cluster: true,
        },
        flush_rows: 256,
        flush_interval_us: 0,
    }
}

#[test]
fn frame_line_round_trips() {
    let records: Vec<Record> = dataset()
        .trace
        .records()
        .iter()
        .take(500)
        .cloned()
        .collect();
    for r in &records {
        let line = format_line(r);
        let back = parse_line(&line).expect("parse").expect("record");
        assert_eq!(r, &back);
    }
}

#[test]
fn parse_line_rejects_malformed_input() {
    assert!(parse_line("").unwrap().is_none());
    assert!(parse_line("   # comment").unwrap().is_none());
    assert!(parse_line("abc FC 3 00").is_err());
    assert!(parse_line("100 FC notanid 00").is_err());
    assert!(parse_line("100 FC 3 0g").is_err());
    assert!(parse_line("100 FC 3 0ff").is_err(), "odd-length hex");
    assert!(parse_line("100 FC 3 00 modbus").is_err());
    assert!(parse_line("100 FC 3 00 can extra").is_err());
    let r = parse_line("100 FC 3 -").unwrap().unwrap();
    assert!(r.payload.is_empty());
    let r = parse_line("100 FC 3 0aff").unwrap().unwrap();
    assert_eq!(r.payload, vec![0x0a, 0xff]);
}

#[test]
fn line_source_reads_a_textual_stream() {
    let records: Vec<Record> = dataset()
        .trace
        .records()
        .iter()
        .take(200)
        .cloned()
        .collect();
    let mut text = String::from("# header comment\n\n");
    for r in &records {
        text.push_str(&format_line(r));
        text.push('\n');
    }
    let mut source = LineSource::new(std::io::Cursor::new(text));
    let mut got = Vec::new();
    loop {
        match source.next_event().expect("event") {
            SourceEvent::Frame(r) => got.push(r),
            SourceEvent::Idle => continue,
            SourceEvent::End => break,
        }
    }
    assert_eq!(records, got);
}

#[test]
fn tcp_source_reassembles_lines_across_packets() {
    let records: Vec<Record> = dataset()
        .trace
        .records()
        .iter()
        .take(150)
        .cloned()
        .collect();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let payload: Vec<u8> = {
        let mut text = String::new();
        for r in &records {
            text.push_str(&format_line(r));
            text.push('\n');
        }
        text.into_bytes()
    };
    let writer = std::thread::spawn(move || {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        // Deliberately split at awkward offsets so lines straddle reads.
        for chunk in payload.chunks(37) {
            stream.write_all(chunk).expect("write");
        }
        // The last line has no trailing newline only if the payload did;
        // closing the socket must still flush a partial line.
    });
    let (stream, _) = listener.accept().expect("accept");
    let mut source = TcpLineSource::new(stream, Duration::from_millis(50)).expect("tcp source");
    let mut got = Vec::new();
    loop {
        match source.next_event().expect("event") {
            SourceEvent::Frame(r) => got.push(r),
            SourceEvent::Idle => continue,
            SourceEvent::End => break,
        }
    }
    writer.join().expect("writer thread");
    assert_eq!(records, got);
}

#[test]
fn ingest_seals_a_store_identical_to_the_source() {
    let data = dataset();
    let records: Vec<Record> = data.trace.records().to_vec();
    let path = temp_path("seal");
    let writer = AppendWriter::create(&path, append_options()).expect("writer");
    let stop = StopFlag::new();
    let (_, stats) = ingest(
        SimulatorSource::new(&data.trace),
        writer,
        &IngestOptions::default(),
        &stop,
    )
    .expect("ingest");
    assert_eq!(stats.frames, records.len() as u64);
    assert!(stats.sealed);
    assert!(stats.groups > 1, "micro-batching produced several groups");
    assert_eq!(stats.dropped_frames, 0);

    let mut reader = StoreReader::open(&path).expect("open sealed");
    let got = reader.read_all().expect("read_all");
    let _ = std::fs::remove_file(&path);
    assert_eq!(records.len(), got.len());
    for (a, b) in records.iter().zip(&got) {
        assert_eq!(a, b);
    }
}

#[test]
fn ingest_stops_at_max_frames_and_leaves_a_recoverable_store() {
    let data = dataset();
    let path = temp_path("maxframes");
    let writer = AppendWriter::create(&path, append_options()).expect("writer");
    let stop = StopFlag::new();
    let options = IngestOptions {
        max_frames: Some(700),
        seal: false,
        ..IngestOptions::default()
    };
    // Looped source: would stream forever without the frame cap.
    let (out, stats) = ingest(
        SimulatorSource::new(&data.trace).looped(),
        writer,
        &options,
        &stop,
    )
    .expect("ingest");
    assert!(out.is_none(), "unsealed run keeps the file appendable");
    assert_eq!(stats.frames, 700);
    assert!(!stats.sealed);

    let (mut reader, recovered) = open_recovered(&path).expect("recover");
    assert!(!recovered.sealed);
    assert_eq!(recovered.torn_bytes(), 0, "flush left no torn tail");
    let got = reader.read_all().expect("read_all");
    let _ = std::fs::remove_file(&path);
    assert_eq!(got.len(), 700);
}

#[test]
fn stop_flag_drains_gracefully() {
    let data = dataset();
    let path = temp_path("stop");
    let writer = AppendWriter::create(&path, append_options()).expect("writer");
    let stop = StopFlag::new();
    // A slow source that stops producing only when asked: loop the trace
    // and trip the flag from another thread shortly after start.
    let flag = stop.clone();
    let trip = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(50));
        flag.stop();
    });
    let (_out, stats) = ingest(
        SimulatorSource::new(&data.trace).looped(),
        writer,
        &IngestOptions {
            poll_timeout: Duration::from_millis(10),
            ..IngestOptions::default()
        },
        &stop,
    )
    .expect("ingest");
    trip.join().expect("trip thread");
    assert!(stats.sealed);
    assert!(stats.frames > 0, "ran until the stop");
    let mut reader = StoreReader::open(&path).expect("sealed store opens");
    let got = reader.read_all().expect("read_all");
    let _ = std::fs::remove_file(&path);
    assert_eq!(got.len() as u64, stats.frames);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Round trip of arbitrary synthetic records through the line format.
    fn line_format_round_trips(
        t in 0u64..u64::MAX / 2,
        mid in 0u32..1 << 29,
        bus_idx in 0usize..3,
        payload in prop::collection::vec(0u8..255, 0..16),
        proto in 0u8..4,
    ) {
        let buses = ["FC", "DC", "K-LIN"];
        let record = Record {
            timestamp_us: t,
            bus: std::sync::Arc::from(buses[bus_idx]),
            message_id: mid,
            payload,
            protocol: ivnt_store::record::protocol_from_tag(proto).expect("tag"),
        };
        let back = parse_line(&format_line(&record)).expect("parse").expect("record");
        prop_assert_eq!(record, back);
    }
}
