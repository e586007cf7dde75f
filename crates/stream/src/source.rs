//! Frame sources: where live records come from.
//!
//! A [`FrameSource`] fills a column batch ([`GroupColumns`]) with what it
//! has ready. Three implementations cover the deployment shapes the
//! paper's fleet back end implies:
//!
//! * [`SimulatorSource`] — replays a simulated [`Trace`], optionally looped
//!   with monotonically advancing timestamps (soak testing, benches).
//! * [`LineSource`] — parses the textual frame-line format from any
//!   `BufRead` (stdin piping: `candump`-style tooling, shell pipelines).
//! * [`TcpLineSource`] — the same line format over a TCP socket with a
//!   read timeout, the "vehicle uploading live" shape. Timeouts surface as
//!   [`SourceEvent::Idle`] so the ingest loop can check its shutdown flag.
//!
//! ## Frame-line format
//!
//! One frame per line, whitespace-separated:
//!
//! ```text
//! <timestamp_us> <bus> <message_id> <payload_hex|-> [can|canfd|lin|someip]
//! ```
//!
//! e.g. `1500 FC 3 0aff can`. Empty lines and `#` comments are skipped;
//! the protocol token defaults to `can`. [`format_line`] is the inverse.
//! Lines longer than [`MAX_LINE_LEN`] bytes are rejected.

use std::io::{BufRead, Read};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use ivnt_protocol::message::Protocol;
use ivnt_simulator::trace::Trace;
use ivnt_store::{GroupColumns, Record};

use crate::error::{Error, Result};

/// Longest frame line a source accepts, newline excluded. The longest
/// valid line is under 3 KiB (a 1 400-byte SOME/IP payload is 2 800 hex
/// digits), so this only stops input that never ends a line from growing
/// a buffer without bound.
pub const MAX_LINE_LEN: usize = 64 * 1024;

/// Bytes one socket read of a [`TcpLineSource`] takes at most.
const TCP_READ_LEN: usize = 64 * 1024;

/// What one [`FrameSource::fill`] call found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceEvent {
    /// Frames were appended; more may follow.
    Frames,
    /// Nothing arrived within the source's timeout; the stream may still
    /// produce more. Gives the caller a chance to check its stop flag.
    Idle,
    /// The stream ended: frames this call appended are its last.
    End,
}

/// A live producer of trace records.
pub trait FrameSource: Send {
    /// Appends up to `max_rows` frames (at least one) to `batch`, bus names
    /// interned in its dictionary. Blocks, at most for the source's own
    /// timeout, only until a first frame is appended, and returns as soon
    /// as the source has nothing more buffered — so a frame already
    /// delivered is never held back while the source waits for more input.
    ///
    /// # Errors
    ///
    /// Source-specific I/O or parse failures. Frames appended before a
    /// malformed line stay in `batch`, and the line is consumed: a later
    /// call resumes after it.
    fn fill(&mut self, batch: &mut GroupColumns, max_rows: usize) -> Result<SourceEvent>;
}

/// Replays a simulated trace as a live source.
pub struct SimulatorSource {
    records: Vec<Record>,
    pos: usize,
    looped: bool,
    /// Timestamp offset applied to the current lap (µs).
    lap_offset_us: u64,
    /// One lap's time span including a cycle gap, so looped laps advance
    /// monotonically instead of rewinding time.
    lap_span_us: u64,
}

impl SimulatorSource {
    /// Wraps an in-memory trace.
    pub fn new(trace: &Trace) -> SimulatorSource {
        let records = trace.records().to_vec();
        let lap_span_us = records
            .iter()
            .map(|r| r.timestamp_us)
            .max()
            .unwrap_or(0)
            .saturating_add(1_000);
        SimulatorSource {
            records,
            pos: 0,
            looped: false,
            lap_offset_us: 0,
            lap_span_us,
        }
    }

    /// Loops the trace endlessly, shifting each lap's timestamps forward —
    /// the soak-test / kill-mid-stream workload.
    pub fn looped(mut self) -> SimulatorSource {
        self.looped = true;
        self
    }
}

impl FrameSource for SimulatorSource {
    fn fill(&mut self, batch: &mut GroupColumns, max_rows: usize) -> Result<SourceEvent> {
        for _ in 0..max_rows.max(1) {
            if self.pos >= self.records.len() {
                if !self.looped || self.records.is_empty() {
                    return Ok(SourceEvent::End);
                }
                self.pos = 0;
                self.lap_offset_us += self.lap_span_us;
            }
            let r = &self.records[self.pos];
            let bus = batch.intern_bus(&r.bus);
            let t_us = r.timestamp_us + self.lap_offset_us;
            batch.push_row(t_us, bus, r.message_id, r.protocol, &r.payload);
            self.pos += 1;
        }
        Ok(SourceEvent::Frames)
    }
}

/// One parsed frame line; its payload went to the caller's buffer.
struct Frame<'a> {
    timestamp_us: u64,
    bus: &'a str,
    message_id: u32,
    protocol: Protocol,
}

/// Parses one frame line; `Ok(None)` for blanks and comments.
///
/// # Errors
///
/// [`Error::Parse`] with the offending field on malformed input.
pub fn parse_line(line: &str) -> Result<Option<Record>> {
    let mut payload = Vec::new();
    Ok(parse_frame(line.as_bytes(), &mut payload)?.map(|f| Record {
        timestamp_us: f.timestamp_us,
        bus: Arc::from(f.bus),
        message_id: f.message_id,
        payload,
        protocol: f.protocol,
    }))
}

/// The frame-line parser, over bytes: `Ok(None)` for blanks and comments;
/// otherwise the payload bytes replace the contents of `payload`. Fields
/// are separated by whitespace as `str::split_whitespace` defines it;
/// a line that is not UTF-8 is malformed.
fn parse_frame<'a>(line: &'a [u8], payload: &mut Vec<u8>) -> Result<Option<Frame<'a>>> {
    if line.is_ascii() {
        let fields = line
            .split(|b| matches!(b, b' ' | b'\t'..=b'\r'))
            .filter(|f| !f.is_empty());
        return parse_fields(fields, payload);
    }
    // Multi-byte characters may be separators (U+00A0, U+2003, ...).
    let text =
        std::str::from_utf8(line).map_err(|_| Error::Parse("frame line is not utf-8".into()))?;
    parse_fields(text.split_whitespace().map(str::as_bytes), payload)
}

fn parse_fields<'a>(
    mut fields: impl Iterator<Item = &'a [u8]>,
    payload: &mut Vec<u8>,
) -> Result<Option<Frame<'a>>> {
    let Some(t) = fields.next() else {
        return Ok(None);
    };
    if t[0] == b'#' {
        return Ok(None);
    }
    let mut next = |what: &str| {
        fields
            .next()
            .ok_or_else(|| Error::Parse(format!("missing {what}")))
    };
    let timestamp_us =
        parse_decimal(t).ok_or_else(|| Error::Parse(format!("bad timestamp {:?}", text(t))))?;
    let bus =
        std::str::from_utf8(next("bus")?).map_err(|_| Error::Parse("bus is not utf-8".into()))?;
    let mid = next("message id")?;
    let message_id = parse_decimal(mid)
        .ok_or_else(|| Error::Parse(format!("bad message id {:?}", text(mid))))?;
    let hex = next("payload")?;
    payload.clear();
    if hex != b"-" {
        decode_hex(hex, payload)?;
    }
    let protocol = match fields.next() {
        None => Protocol::Can,
        Some(tag) if tag.eq_ignore_ascii_case(b"can") => Protocol::Can,
        Some(tag) if tag.eq_ignore_ascii_case(b"canfd") => Protocol::CanFd,
        Some(tag) if tag.eq_ignore_ascii_case(b"lin") => Protocol::Lin,
        Some(tag) if tag.eq_ignore_ascii_case(b"someip") => Protocol::SomeIp,
        Some(tag) => return Err(Error::Parse(format!("unknown protocol {:?}", text(tag)))),
    };
    if let Some(extra) = fields.next() {
        return Err(Error::Parse(format!("trailing field {:?}", text(extra))));
    }
    Ok(Some(Frame {
        timestamp_us,
        bus,
        message_id,
        protocol,
    }))
}

/// A field for an error message.
fn text(field: &[u8]) -> std::borrow::Cow<'_, str> {
    String::from_utf8_lossy(field)
}

fn parse_decimal<T: std::str::FromStr>(field: &[u8]) -> Option<T> {
    std::str::from_utf8(field).ok()?.parse().ok()
}

/// Hex digit values; `0xFF` marks a byte that is not a hex digit.
const HEX: [u8; 256] = {
    let mut table = [0xFF; 256];
    let mut i = 0;
    while i < 16 {
        let digit = b"0123456789abcdef"[i];
        table[digit as usize] = i as u8;
        table[digit.to_ascii_uppercase() as usize] = i as u8;
        i += 1;
    }
    table
};

/// Appends the bytes of hex digit pairs to `out`. A pair is read as
/// `u8::from_str_radix(pair, 16)` reads it, so `+f` is `0x0f`.
fn decode_hex(hex: &[u8], out: &mut Vec<u8>) -> Result<()> {
    if !hex.len().is_multiple_of(2) {
        return Err(Error::Parse(format!(
            "odd-length payload hex {:?}",
            text(hex)
        )));
    }
    out.reserve(hex.len() / 2);
    for pair in hex.chunks_exact(2) {
        let (hi, lo) = (HEX[usize::from(pair[0])], HEX[usize::from(pair[1])]);
        let byte = match pair[0] {
            b'+' if lo < 16 => lo,
            _ if hi < 16 && lo < 16 => hi << 4 | lo,
            _ => return Err(Error::Parse(format!("bad payload hex {:?}", text(hex)))),
        };
        out.push(byte);
    }
    Ok(())
}

/// Renders a record in the frame-line format [`parse_line`] accepts.
pub fn format_line(record: &Record) -> String {
    let payload = if record.payload.is_empty() {
        "-".to_string()
    } else {
        record
            .payload
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect::<String>()
    };
    let proto = match record.protocol {
        Protocol::Can => "can",
        Protocol::CanFd => "canfd",
        Protocol::Lin => "lin",
        Protocol::SomeIp => "someip",
    };
    format!(
        "{} {} {} {} {}",
        record.timestamp_us, record.bus, record.message_id, payload, proto
    )
}

/// Cuts a byte stream into frame lines and parses them into a batch — the
/// line path [`LineSource`] and [`TcpLineSource`] share.
#[derive(Default)]
struct LineParser {
    /// The start of a line whose newline has not arrived yet.
    carry: Vec<u8>,
    /// Dropping the rest of a line already reported as too long.
    skipping: bool,
    /// Payload bytes of the line being parsed.
    payload: Vec<u8>,
}

impl LineParser {
    /// Parses the lines of `bytes` into `batch` until it holds `limit`
    /// rows, carrying an unterminated tail over to the next call. Returns
    /// the bytes used; the caller passes the rest again next time. On a
    /// malformed line, the bytes used include it.
    fn feed(
        &mut self,
        bytes: &[u8],
        batch: &mut GroupColumns,
        limit: usize,
    ) -> (usize, Result<()>) {
        let mut used = 0;
        while batch.len() < limit {
            let rest = &bytes[used..];
            let Some(end) = find_newline(rest) else {
                return (bytes.len(), self.hold(rest));
            };
            used += end + 1;
            if let Err(e) = self.complete(&rest[..end], batch) {
                return (used, Err(e));
            }
        }
        (used, Ok(()))
    }

    /// Parses the unterminated last line of a stream that ended.
    fn finish(&mut self, batch: &mut GroupColumns) -> Result<()> {
        self.complete(&[], batch)
    }

    /// Keeps the start of a line whose newline has not arrived.
    fn hold(&mut self, tail: &[u8]) -> Result<()> {
        if self.skipping {
            return Ok(());
        }
        if self.carry.len() + tail.len() > MAX_LINE_LEN {
            self.carry.clear();
            self.skipping = true;
            return Err(line_too_long());
        }
        self.carry.extend_from_slice(tail);
        Ok(())
    }

    /// Parses the line that `end` (its bytes up to the newline) completes.
    fn complete(&mut self, end: &[u8], batch: &mut GroupColumns) -> Result<()> {
        if std::mem::take(&mut self.skipping) {
            return Ok(());
        }
        if self.carry.is_empty() {
            return self.parse_into(end, batch);
        }
        let mut line = std::mem::take(&mut self.carry);
        line.extend_from_slice(end);
        let result = self.parse_into(&line, batch);
        line.clear();
        self.carry = line;
        result
    }

    fn parse_into(&mut self, line: &[u8], batch: &mut GroupColumns) -> Result<()> {
        if line.len() > MAX_LINE_LEN {
            return Err(line_too_long());
        }
        if let Some(frame) = parse_frame(line, &mut self.payload)? {
            let bus = batch.intern_bus(frame.bus);
            batch.push_row(
                frame.timestamp_us,
                bus,
                frame.message_id,
                frame.protocol,
                &self.payload,
            );
        }
        Ok(())
    }
}

/// Position of the first `\n` in `bytes`, eight bytes per step: a word
/// XORed with eight newlines has a zero byte exactly where a newline was,
/// and `(w - 0x01…01) & !w & 0x80…80` flags the lowest zero byte.
fn find_newline(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);
    const NEWLINES: u64 = u64::from_ne_bytes([b'\n'; 8]);
    let mut words = bytes.chunks_exact(8);
    let mut at = 0;
    for word in &mut words {
        let w = u64::from_le_bytes(word.try_into().expect("eight bytes")) ^ NEWLINES;
        let zeros = w.wrapping_sub(ONES) & !w & HIGHS;
        if zeros != 0 {
            return Some(at + zeros.trailing_zeros() as usize / 8);
        }
        at += 8;
    }
    let tail = words.remainder();
    tail.iter().position(|&b| b == b'\n').map(|i| at + i)
}

fn line_too_long() -> Error {
    Error::Parse(format!("frame line longer than {MAX_LINE_LEN} bytes"))
}

/// Reads the frame-line format from any buffered reader (stdin, a file, a
/// pipe), parsing straight from its buffer. EOF is [`SourceEvent::End`].
pub struct LineSource<R: BufRead + Send> {
    reader: R,
    lines: LineParser,
}

impl<R: BufRead + Send> LineSource<R> {
    /// Wraps `reader`.
    pub fn new(reader: R) -> LineSource<R> {
        LineSource {
            reader,
            lines: LineParser::default(),
        }
    }
}

impl<R: BufRead + Send> FrameSource for LineSource<R> {
    fn fill(&mut self, batch: &mut GroupColumns, max_rows: usize) -> Result<SourceEvent> {
        let start = batch.len();
        let limit = start + max_rows.max(1);
        // One buffer's worth per call; a buffer of comments or of a line's
        // start only reads on, which blocks while nothing was appended.
        while batch.len() == start {
            let bytes = match self.reader.fill_buf() {
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                bytes => bytes?,
            };
            if bytes.is_empty() {
                self.lines.finish(batch)?;
                return Ok(SourceEvent::End);
            }
            let (used, result) = self.lines.feed(bytes, batch, limit);
            self.reader.consume(used);
            result?;
        }
        Ok(SourceEvent::Frames)
    }
}

/// Reads the frame-line format from a TCP socket with a read timeout.
///
/// Each read is parsed in place once; partial lines carry over to the
/// next read. A timeout yields [`SourceEvent::Idle`] so the ingest loop
/// can honor its stop flag even when the peer stalls.
pub struct TcpLineSource {
    stream: TcpStream,
    /// The last read; `buf[pos..len]` is not parsed yet.
    buf: Vec<u8>,
    pos: usize,
    len: usize,
    lines: LineParser,
    eof: bool,
}

impl TcpLineSource {
    /// Wraps a connected stream, setting its read timeout.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when the timeout cannot be applied.
    pub fn new(stream: TcpStream, timeout: Duration) -> Result<TcpLineSource> {
        stream.set_read_timeout(Some(timeout))?;
        Ok(TcpLineSource {
            stream,
            buf: vec![0; TCP_READ_LEN],
            pos: 0,
            len: 0,
            lines: LineParser::default(),
            eof: false,
        })
    }

    /// Binds `addr`, accepts one peer and wraps it.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on bind/accept failure.
    pub fn accept_on<A: ToSocketAddrs>(addr: A, timeout: Duration) -> Result<TcpLineSource> {
        let listener = std::net::TcpListener::bind(addr)?;
        let (stream, _) = listener.accept()?;
        TcpLineSource::new(stream, timeout)
    }

    /// Parses what the last read left, up to `limit` rows in `batch`.
    fn parse_buffered(&mut self, batch: &mut GroupColumns, limit: usize) -> Result<()> {
        let (used, result) = self.lines.feed(&self.buf[self.pos..self.len], batch, limit);
        self.pos += used;
        result
    }
}

impl FrameSource for TcpLineSource {
    fn fill(&mut self, batch: &mut GroupColumns, max_rows: usize) -> Result<SourceEvent> {
        let start = batch.len();
        let limit = start + max_rows.max(1);
        self.parse_buffered(batch, limit)?;
        if batch.len() > start {
            return Ok(SourceEvent::Frames);
        }
        if self.eof {
            return Ok(SourceEvent::End);
        }
        match self.stream.read(&mut self.buf) {
            Ok(0) => {
                self.eof = true;
                // A final line without a trailing newline still counts.
                self.lines.finish(batch)?;
                Ok(SourceEvent::End)
            }
            Ok(n) => {
                (self.pos, self.len) = (0, n);
                self.parse_buffered(batch, limit)?;
                Ok(if batch.len() > start {
                    SourceEvent::Frames
                } else {
                    SourceEvent::Idle
                })
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Ok(SourceEvent::Idle)
            }
            Err(e) => Err(Error::Io(e)),
        }
    }
}
