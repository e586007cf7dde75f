//! Source and ingest-driver behavior: frame-line round trips, stdin/TCP
//! sources, bounded line length, end-to-end ingest into a sealed `.ivns`
//! store byte-identical to per-record appends, the hand-off's frame cap,
//! delivery latency, graceful drain-on-stop, and recoverability of an
//! unsealed ingest output.

use std::io::{BufReader, Cursor, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::{Duration, Instant};

use ivnt_protocol::message::Protocol;
use ivnt_simulator::prelude::*;
use ivnt_store::{
    open_recovered, AppendOptions, GroupColumns, Record, StoreFollower, StoreReader, StoreWriter,
    WriterOptions,
};
use ivnt_stream::{
    format_line, ingest, parse_line, Error, FrameSource, IngestOptions, IngestStats, LineSource,
    SimulatorSource, SourceEvent, StopFlag, TcpLineSource, MAX_LINE_LEN,
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

/// Every frame `source` yields, filled `max_rows` at a time.
fn drain_source(source: &mut impl FrameSource, max_rows: usize) -> Vec<Record> {
    let mut batch = GroupColumns::default();
    let mut got = Vec::new();
    loop {
        batch.clear();
        let event = source.fill(&mut batch, max_rows).expect("fill");
        got.extend(batch.records());
        if event == SourceEvent::End {
            return got;
        }
    }
}

fn lines_of(records: &[Record]) -> String {
    records.iter().map(|r| format_line(r) + "\n").collect()
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
    let got = drain_source(&mut LineSource::new(Cursor::new(text.clone())), 64);
    assert_eq!(records, got);
    // Lines straddling the reader's buffer carry over to the next fill.
    let reader = BufReader::with_capacity(7, Cursor::new(text));
    assert_eq!(records, drain_source(&mut LineSource::new(reader), 5));
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
    let got = drain_source(&mut source, 16);
    writer.join().expect("writer thread");
    assert_eq!(records, got);
}

/// A line that never ends: 1 MiB without a newline, then a newline and one
/// valid frame.
fn endless_line_then(record: &Record) -> (Vec<u8>, Vec<u8>) {
    (
        vec![b'7'; 1 << 20],
        format!("\n{}\n", format_line(record)).into_bytes(),
    )
}

#[test]
fn line_source_rejects_a_line_without_end() {
    let record = &dataset().trace.records()[0];
    let (endless, rest) = endless_line_then(record);
    let input = [endless, rest].concat();
    for capacity in [4096, 1 << 21] {
        let reader = BufReader::with_capacity(capacity, Cursor::new(input.clone()));
        let mut source = LineSource::new(reader);
        let mut batch = GroupColumns::default();
        let err = source.fill(&mut batch, 64).unwrap_err();
        assert!(matches!(err, Error::Parse(_)), "{err}");
        assert!(batch.is_empty());
        // The over-long line is dropped whole; parsing resumes after it.
        assert_eq!(drain_source(&mut source, 64), vec![record.clone()]);
    }
    let line = "1".repeat(MAX_LINE_LEN + 1) + " FC 3 00\n";
    let err = LineSource::new(Cursor::new(line))
        .fill(&mut GroupColumns::default(), 64)
        .unwrap_err();
    assert!(matches!(err, Error::Parse(_)), "{err}");
}

#[test]
fn tcp_source_rejects_a_line_without_end() {
    let record = dataset().trace.records()[0].clone();
    let (endless, rest) = endless_line_then(&record);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let (go_tx, go_rx) = mpsc::channel::<()>();
    let peer = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(&endless).expect("write");
        // Keep the socket open: the source must reject the line from what
        // it has, not at end of stream.
        go_rx.recv().expect("go");
        stream.write_all(&rest).expect("write");
    });
    let (stream, _) = listener.accept().expect("accept");
    let mut source = TcpLineSource::new(stream, Duration::from_millis(20)).expect("tcp source");
    let mut batch = GroupColumns::default();
    let err = loop {
        match source.fill(&mut batch, 64) {
            Ok(event) => assert_eq!(event, SourceEvent::Idle),
            Err(e) => break e,
        }
    };
    assert!(matches!(err, Error::Parse(_)), "{err}");
    assert!(batch.is_empty());
    go_tx.send(()).expect("go");
    assert_eq!(drain_source(&mut source, 64), vec![record]);
    peer.join().expect("peer thread");
}

/// `count` records on buses that first appear at rows 0, 1, 90, 150, …
/// (crossing the 8-bus bitset boundary), with timestamps stepping
/// unevenly and varied payloads and protocols.
fn varied_records(count: usize) -> Vec<Record> {
    let first_seen = [0, 1, 90, 150, 151, 300, 301, 302, 420, 421, 600];
    let protocols = [
        Protocol::Can,
        Protocol::Lin,
        Protocol::CanFd,
        Protocol::SomeIp,
    ];
    let names: Vec<Arc<str>> = (0..first_seen.len())
        .map(|b| Arc::from(format!("B{b}").as_str()))
        .collect();
    let mut t = 0u64;
    (0..count)
        .map(|i| {
            let known = first_seen.iter().filter(|&&at| at <= i).count();
            t += 250 + (i as u64 * 7919) % 2_000;
            Record {
                timestamp_us: t,
                bus: names[(i * 5 + i / 3) % known].clone(),
                message_id: (i % 13) as u32 * 17,
                payload: vec![i as u8; i % 9],
                protocol: protocols[i % 4],
            }
        })
        .collect()
}

/// The sealed file of `records` appended one [`StoreWriter::append`] at
/// a time.
fn appended(records: &[Record], options: AppendOptions) -> Vec<u8> {
    let mut writer = StoreWriter::new(Vec::new(), options).expect("writer");
    for r in records {
        writer.append(r).expect("append");
    }
    writer.seal().expect("seal")
}

fn ingested(
    source: impl FrameSource + 'static,
    append: AppendOptions,
    options: &IngestOptions,
) -> (Vec<u8>, IngestStats) {
    let writer = StoreWriter::new(Vec::new(), append).expect("writer");
    let (bytes, stats) = ingest(source, writer, options, &StopFlag::new()).expect("ingest");
    (bytes.expect("sealed"), stats)
}

#[test]
fn ingest_writes_the_bytes_of_per_record_appends() {
    let records = varied_records(1_000);
    let text = lines_of(&records);
    let geometry = |flush_rows: usize, flush_interval_us: u64| AppendOptions {
        writer: WriterOptions {
            chunk_rows: 32,
            chunks_per_group: 4,
            cluster: true,
        },
        flush_rows,
        flush_interval_us,
    };
    // No idle flush: its timing would decide where groups are cut.
    let base = IngestOptions {
        flush_on_idle: false,
        ..IngestOptions::default()
    };
    let cases = [
        // Flushes fall mid-batch, and bus B2 first appears at row 90 of a
        // batch whose group was flushed at row 100 of the previous one.
        (
            "flush rows not a batch multiple",
            geometry(100, 0),
            base.clone(),
        ),
        ("time trigger", geometry(10_000, 40_000), base.clone()),
        (
            "unclustered",
            AppendOptions {
                writer: WriterOptions {
                    cluster: false,
                    ..WriterOptions::default()
                },
                ..geometry(77, 0)
            },
            base.clone(),
        ),
        (
            "queue smaller than a batch",
            geometry(100, 0),
            IngestOptions {
                queue_capacity: 10,
                ..base.clone()
            },
        ),
        (
            "frame cap mid-batch",
            geometry(100, 0),
            IngestOptions {
                max_frames: Some(300),
                ..base.clone()
            },
        ),
    ];
    for (case, append, options) in cases {
        let written = options.max_frames.map_or(records.len(), |m| m as usize);
        let expected = appended(&records[..written], append);
        let trace = Trace::from_records(records.clone());
        for (source, (bytes, stats)) in [
            (
                "lines",
                ingested(LineSource::new(Cursor::new(text.clone())), append, &options),
            ),
            (
                "simulator",
                ingested(SimulatorSource::new(&trace), append, &options),
            ),
        ] {
            assert_eq!(stats.frames, written as u64, "{case} via {source}");
            assert!(bytes == expected, "{case} via {source}: file differs");
        }
    }
}

#[test]
fn frame_cap_cuts_a_batch_and_counts_the_rest_dropped() {
    // 200 rows are one hand-off (a batch holds up to 256), so all of them
    // are queued when the cap is reached.
    let records = varied_records(200);
    let options = IngestOptions {
        max_frames: Some(70),
        flush_on_idle: false,
        ..IngestOptions::default()
    };
    let (bytes, stats) = ingested(
        LineSource::new(Cursor::new(lines_of(&records))),
        append_options(),
        &options,
    );
    assert_eq!(stats.frames, 70);
    assert_eq!(stats.dropped_frames, 130);
    assert!(bytes == appended(&records[..70], append_options()));
}

#[test]
fn delivered_rows_become_visible_while_the_peer_idles() {
    let records: Vec<Record> = dataset().trace.records()[..6].to_vec();
    let (first, second) = (lines_of(&records[..3]), lines_of(&records[3..]));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let (go_tx, go_rx) = mpsc::channel::<()>();
    let peer = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(first.as_bytes()).expect("write");
        // Idle with the socket open until the rows were seen.
        go_rx.recv().expect("go");
        stream.write_all(second.as_bytes()).expect("write");
    });
    let (stream, _) = listener.accept().expect("accept");
    let source = TcpLineSource::new(stream, Duration::from_millis(10)).expect("tcp source");
    let path = temp_path("latency");
    // 256-row groups: only the idle flush can publish three rows.
    let writer = StoreWriter::create(&path, append_options()).expect("writer");
    let options = IngestOptions {
        poll_timeout: Duration::from_millis(10),
        ..IngestOptions::default()
    };
    let ingest_run = std::thread::spawn(move || ingest(source, writer, &options, &StopFlag::new()));

    let mut follower = StoreFollower::open(&path).expect("follower");
    let mut seen: Vec<Record> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(60);
    while seen.len() < 3 {
        assert!(
            Instant::now() < deadline,
            "delivered rows never became visible"
        );
        for group in follower.poll().expect("poll").groups {
            seen.extend(group.records);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(seen, records[..3]);
    go_tx.send(()).expect("go");
    peer.join().expect("peer thread");
    let (_, stats) = ingest_run.join().expect("ingest thread").expect("ingest");
    assert_eq!(stats.frames, 6);
    let got = StoreReader::open(&path)
        .expect("sealed")
        .read_all()
        .expect("read");
    let _ = std::fs::remove_file(&path);
    assert_eq!(got, records);
}

#[test]
fn ingest_seals_a_store_identical_to_the_source() {
    let data = dataset();
    let records: Vec<Record> = data.trace.records().to_vec();
    let path = temp_path("seal");
    let writer = StoreWriter::create(&path, append_options()).expect("writer");
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
fn every_flush_is_counted_the_tail_group_too() {
    // 1 000 records in 256-row groups: three full groups and a tail.
    let records = varied_records(1_000);
    let source = LineSource::new(Cursor::new(lines_of(&records).into_bytes()));
    let (bytes, stats) = ingested(source, append_options(), &IngestOptions::default());
    assert_eq!(stats.groups, 4);
    assert_eq!(stats.flush_seconds.len(), stats.groups as usize);
    assert_eq!(bytes, appended(&records, append_options()));
}

#[test]
fn a_source_error_keeps_the_rows_accepted_before_it() {
    let records = varied_records(3);
    let text = lines_of(&records) + "bad line\n";
    let path = temp_path("source-error");
    let writer = StoreWriter::create(&path, append_options()).expect("writer");
    let source = LineSource::new(Cursor::new(text.into_bytes()));
    let err = ingest(source, writer, &IngestOptions::default(), &StopFlag::new());
    assert!(err.is_err(), "the bad line fails the run");
    let (mut reader, recovered) = open_recovered(&path).expect("recover");
    let got = reader.read_all().expect("read_all");
    let _ = std::fs::remove_file(&path);
    assert!(!recovered.sealed, "a failed run leaves the store unsealed");
    assert_eq!(recovered.torn_bytes(), 0);
    assert_eq!(got, records);
}

#[test]
fn ingest_stops_at_max_frames_and_leaves_a_recoverable_store() {
    let data = dataset();
    let path = temp_path("maxframes");
    let writer = StoreWriter::create(&path, append_options()).expect("writer");
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
    let writer = StoreWriter::create(&path, append_options()).expect("writer");
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
    #[test]
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
