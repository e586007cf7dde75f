//! The frame-line byte parser against the line parser it replaced.
//!
//! `oracle_parse_line` is the `&str` parser the sources used before they
//! parsed straight from their byte buffers; it stays here as the oracle.
//! Every generated line must give the same record — or the same error —
//! through `parse_line`, through a `LineSource` whose reader buffers a few
//! bytes at a time, and through a `TcpLineSource` fed at awkward chunk
//! sizes.

use std::io::{BufReader, Cursor, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use ivnt_protocol::message::Protocol;
use ivnt_store::{GroupColumns, Record};
use ivnt_stream::{parse_line, FrameSource, LineSource, SourceEvent, TcpLineSource};
use proptest::prelude::*;

/// The previous frame-line parser. It sliced payload pairs as
/// `&s[i..i + 2]`, which panicked where a pair splits a multi-byte
/// character; here that pair is malformed, as it is for the byte parser.
fn oracle_parse_line(line: &str) -> Result<Option<Record>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut fields = line.split_whitespace();
    let t = fields.next().ok_or("missing timestamp")?;
    let timestamp_us: u64 = t.parse().map_err(|_| format!("bad timestamp {t:?}"))?;
    let bus = fields.next().ok_or("missing bus")?;
    let mid = fields.next().ok_or("missing message id")?;
    let message_id: u32 = mid.parse().map_err(|_| format!("bad message id {mid:?}"))?;
    let payload_hex = fields.next().ok_or("missing payload")?;
    let payload = if payload_hex == "-" {
        Vec::new()
    } else {
        oracle_decode_hex(payload_hex)?
    };
    let protocol = match fields.next() {
        None => Protocol::Can,
        Some(tag) => match tag.to_ascii_lowercase().as_str() {
            "can" => Protocol::Can,
            "canfd" => Protocol::CanFd,
            "lin" => Protocol::Lin,
            "someip" => Protocol::SomeIp,
            other => return Err(format!("unknown protocol {other:?}")),
        },
    };
    if let Some(extra) = fields.next() {
        return Err(format!("trailing field {extra:?}"));
    }
    Ok(Some(Record {
        timestamp_us,
        bus: Arc::from(bus),
        message_id,
        payload,
        protocol,
    }))
}

fn oracle_decode_hex(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err(format!("odd-length payload hex {s:?}"));
    }
    (0..s.len())
        .step_by(2)
        .map(|i| {
            s.get(i..i + 2)
                .and_then(|pair| u8::from_str_radix(pair, 16).ok())
                .ok_or_else(|| format!("bad payload hex {s:?}"))
        })
        .collect()
}

/// What a source made of one line: a record or an error.
type Event = Result<Record, ()>;

/// The oracle's events for `lines`: sources read lines as UTF-8 first.
fn expected(lines: &[Vec<u8>]) -> Vec<Event> {
    lines
        .iter()
        .filter_map(|line| {
            match std::str::from_utf8(line)
                .map_err(|e| e.to_string())
                .and_then(oracle_parse_line)
            {
                Ok(None) => None,
                Ok(Some(record)) => Some(Ok(record)),
                Err(_) => Some(Err(())),
            }
        })
        .collect()
}

/// The events `source` yields, `max_rows` per fill, resuming after errors.
fn events(source: &mut impl FrameSource, max_rows: usize) -> Vec<Event> {
    let mut out = Vec::new();
    let mut batch = GroupColumns::default();
    for _ in 0..1_000_000 {
        batch.clear();
        let event = source.fill(&mut batch, max_rows);
        out.extend(batch.records().into_iter().map(Ok));
        match event {
            Ok(SourceEvent::End) => return out,
            Ok(SourceEvent::Frames | SourceEvent::Idle) => {}
            Err(_) => out.push(Err(())),
        }
    }
    panic!("source never ended");
}

fn line_source_events(text: &[u8], chunk: usize, max_rows: usize) -> Vec<Event> {
    let reader = BufReader::with_capacity(chunk, Cursor::new(text.to_vec()));
    events(&mut LineSource::new(reader), max_rows)
}

fn tcp_events(text: &[u8], chunk: usize, max_rows: usize) -> Vec<Event> {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let bytes = text.to_vec();
    let peer = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        for piece in bytes.chunks(chunk) {
            stream.write_all(piece).expect("write");
        }
    });
    let (stream, _) = listener.accept().expect("accept");
    let mut source = TcpLineSource::new(stream, Duration::from_millis(5)).expect("tcp source");
    let got = events(&mut source, max_rows);
    peer.join().expect("peer thread");
    got
}

/// Checks `lines` through `parse_line` and both sources.
fn check(lines: &[Vec<u8>], newline_at_end: bool, chunk: usize, max_rows: usize) {
    for line in lines {
        if let Ok(text) = std::str::from_utf8(line) {
            let oracle = oracle_parse_line(text).map_err(drop);
            assert_eq!(parse_line(text).map_err(drop), oracle, "line {text:?}");
        }
    }
    let mut text = lines.join(&b'\n');
    if newline_at_end {
        text.push(b'\n');
    }
    let want = expected(lines);
    assert_eq!(
        line_source_events(&text, chunk, max_rows),
        want,
        "LineSource"
    );
    assert_eq!(tcp_events(&text, chunk, max_rows), want, "TcpLineSource");
}

#[test]
fn byte_parser_matches_oracle_on_edge_lines() {
    let lines: Vec<&[u8]> = vec![
        b"+5 FC 3 00",
        b"18446744073709551615 FC 4294967295 00",
        b"18446744073709551616 FC 3 00",
        b"00000000000000000000001 FC 3 00",
        b"1 FC 4294967296 00",
        b"-0 FC 3 00",
        b"+ FC 3 00",
        "1\u{a0}FC\u{2003}3\u{b}0a\u{c}CaNfD".as_bytes(),
        "\u{85}1 FC 3 00 lin\u{3000}".as_bytes(),
        b"1 FC 3 +f",
        b"1 FC 3 -f",
        "1 FC 3 a\u{e9}0".as_bytes(),
        "1 B\u{e9} 3 00 SomeIP".as_bytes(),
        b"1 FC 3 0G",
        b"1 FC 3 abc",
        b"1 FC 3",
        b"1 FC 3 00 can x",
        b"1 FC 3 00 c\xc3\xa1n",
        b"1 FC 3 00 \xff",
        b"# comment \xff",
        b"   # comment",
        b"",
        b" \t\r",
        b"1 F\0C 3 00",
    ];
    let lines: Vec<Vec<u8>> = lines.into_iter().map(<[u8]>::to_vec).collect();
    for (chunk, max_rows) in [(1, 1), (3, 2), (4096, 64)] {
        check(&lines, false, chunk, max_rows);
    }
}

fn number() -> impl Strategy<Value = String> {
    (0u8..9, any::<u64>(), 0u64..100_000).prop_map(|(kind, big, small)| match kind {
        0..=2 => small.to_string(),
        3 => big.to_string(),
        4 => format!("+{small}"),
        5 => format!("{big}{}", small % 10),
        6 => format!("000{small}"),
        7 => [
            "4294967295",
            "4294967296",
            "-1",
            "+",
            "1e3",
            "0x1f",
            "12a",
            "\u{663}",
        ][(small % 8) as usize]
            .to_string(),
        _ => format!("-{small}"),
    })
}

fn payload() -> impl Strategy<Value = String> {
    (0u8..10, prop::collection::vec(any::<u8>(), 0..6), 0usize..5).prop_map(
        |(kind, bytes, pick)| {
            let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            let hex = if hex.is_empty() {
                "00".to_string()
            } else {
                hex
            };
            match kind {
                0..=2 => hex,
                3 => hex
                    .chars()
                    .enumerate()
                    .map(|(i, c)| {
                        if i % 3 == 0 {
                            c.to_ascii_uppercase()
                        } else {
                            c
                        }
                    })
                    .collect(),
                4 => "-".to_string(),
                5 => format!("{hex}0"),
                6 => format!("{hex}g0"),
                7 => format!("+f{hex}"),
                8 => format!("{hex}a\u{e9}0"),
                _ => ["--", "+-", "-0", "0+", "++"][pick].to_string(),
            }
        },
    )
}

const SEPARATORS: [&str; 10] = [
    " ",
    "  ",
    "\t",
    "\u{b}",
    "\u{c}",
    "\r",
    "\u{a0}",
    "\u{2003}",
    "\u{85}",
    " \u{3000} ",
];

fn separator() -> impl Strategy<Value = &'static str> {
    prop::sample::select(SEPARATORS.to_vec())
}

/// One generated line: mostly frames (valid or with one bad field), some
/// blanks and comments, now and then a byte that breaks UTF-8.
fn line() -> impl Strategy<Value = Vec<u8>> {
    let lead = prop::sample::select(vec!["", "", "", " ", "\t", "\u{a0}", "\u{2003}", "\u{c}"]);
    let bus = prop::sample::select(vec!["FC", "DC", "K-LIN", "B\u{e9}", "#x", "can"]);
    let protocol = (
        0u8..3,
        prop::sample::select(vec![
            "can", "CAN", "CanFd", "canFD", "lin", "LiN", "someip", "SOMEIP", "modbus", "c\u{e1}n",
        ]),
    );
    let trailing = (0u8..8, prop::sample::select(vec!["extra", "#", "0"]));
    let tail = prop::sample::select(vec!["", "", " ", "\r", "\u{a0}", "\u{b}"]);
    let corrupt = (
        0u8..16,
        any::<usize>(),
        prop::sample::select(vec![0xffu8, 0xc3, 0x80, 0]),
    );
    (
        (0u8..12, lead),
        number(),
        (separator(), bus),
        (separator(), number()),
        (separator(), payload()),
        (separator(), protocol),
        (separator(), trailing),
        tail,
        corrupt,
    )
        .prop_map(
            |(
                (kind, lead),
                t,
                (s1, bus),
                (s2, mid),
                (s3, payload),
                (s4, (proto_kind, proto)),
                (s5, (trailing_kind, extra)),
                tail,
                (corrupt_kind, at, byte),
            )| {
                let mut line = match kind {
                    0 => String::new(),
                    1 => format!("{lead}{s1}"),
                    2 => format!("{lead}# comment {t}"),
                    _ => {
                        let mut line = format!("{lead}{t}{s1}{bus}{s2}{mid}{s3}{payload}");
                        if proto_kind > 0 {
                            line += &format!("{s4}{proto}");
                            if trailing_kind == 0 {
                                line += &format!("{s5}{extra}");
                            }
                        }
                        line + tail
                    }
                }
                .into_bytes();
                if corrupt_kind == 0 {
                    line.insert(at % (line.len() + 1), byte);
                }
                line
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    fn byte_parser_matches_oracle(
        lines in prop::collection::vec(line(), 1..24),
        newline_at_end in any::<bool>(),
        chunk in 1usize..48,
        max_rows in 1usize..8,
    ) {
        check(&lines, newline_at_end, chunk, max_rows);
    }
}
