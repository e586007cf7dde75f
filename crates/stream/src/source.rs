//! Frame sources: where live records come from.
//!
//! A [`FrameSource`] yields one [`Record`] at a time. Three implementations
//! cover the deployment shapes the paper's fleet back end implies:
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

use std::collections::VecDeque;
use std::io::{BufRead, Read};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use ivnt_protocol::message::Protocol;
use ivnt_simulator::trace::Trace;
use ivnt_store::Record;

use crate::error::{Error, Result};

/// One step of a [`FrameSource`].
#[derive(Debug, Clone, PartialEq)]
pub enum SourceEvent {
    /// A frame arrived.
    Frame(Record),
    /// Nothing arrived within the source's timeout; the stream may still
    /// produce more. Gives the caller a chance to check its stop flag.
    Idle,
    /// The stream ended; no further frames will arrive.
    End,
}

/// A live producer of trace records.
pub trait FrameSource: Send {
    /// Yields the next event, blocking at most the source's own timeout.
    ///
    /// # Errors
    ///
    /// Source-specific I/O or parse failures.
    fn next_event(&mut self) -> Result<SourceEvent>;
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
    fn next_event(&mut self) -> Result<SourceEvent> {
        if self.pos >= self.records.len() {
            if !self.looped || self.records.is_empty() {
                return Ok(SourceEvent::End);
            }
            self.pos = 0;
            self.lap_offset_us += self.lap_span_us;
        }
        let mut record = self.records[self.pos].clone();
        record.timestamp_us += self.lap_offset_us;
        self.pos += 1;
        Ok(SourceEvent::Frame(record))
    }
}

/// Parses one frame line; `Ok(None)` for blanks and comments.
///
/// # Errors
///
/// [`Error::Parse`] with the offending field on malformed input.
pub fn parse_line(line: &str) -> Result<Option<Record>> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut fields = line.split_whitespace();
    let t = fields
        .next()
        .ok_or_else(|| Error::Parse("missing timestamp".into()))?;
    let timestamp_us: u64 = t
        .parse()
        .map_err(|_| Error::Parse(format!("bad timestamp {t:?}")))?;
    let bus = fields
        .next()
        .ok_or_else(|| Error::Parse("missing bus".into()))?;
    let mid = fields
        .next()
        .ok_or_else(|| Error::Parse("missing message id".into()))?;
    let message_id: u32 = mid
        .parse()
        .map_err(|_| Error::Parse(format!("bad message id {mid:?}")))?;
    let payload_hex = fields
        .next()
        .ok_or_else(|| Error::Parse("missing payload".into()))?;
    let payload = if payload_hex == "-" {
        Vec::new()
    } else {
        decode_hex(payload_hex)?
    };
    let protocol = match fields.next() {
        None => Protocol::Can,
        Some(tag) => match tag.to_ascii_lowercase().as_str() {
            "can" => Protocol::Can,
            "canfd" => Protocol::CanFd,
            "lin" => Protocol::Lin,
            "someip" => Protocol::SomeIp,
            other => return Err(Error::Parse(format!("unknown protocol {other:?}"))),
        },
    };
    if let Some(extra) = fields.next() {
        return Err(Error::Parse(format!("trailing field {extra:?}")));
    }
    Ok(Some(Record {
        timestamp_us,
        bus: Arc::from(bus),
        message_id,
        payload,
        protocol,
    }))
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

fn decode_hex(s: &str) -> Result<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return Err(Error::Parse(format!("odd-length payload hex {s:?}")));
    }
    (0..s.len())
        .step_by(2)
        .map(|i| {
            u8::from_str_radix(&s[i..i + 2], 16)
                .map_err(|_| Error::Parse(format!("bad payload hex {s:?}")))
        })
        .collect()
}

/// Reads the frame-line format from any buffered reader (stdin, a file, a
/// pipe). Blocks until a line arrives; EOF is [`SourceEvent::End`].
pub struct LineSource<R: BufRead + Send> {
    reader: R,
    line: String,
}

impl<R: BufRead + Send> LineSource<R> {
    /// Wraps `reader`.
    pub fn new(reader: R) -> LineSource<R> {
        LineSource {
            reader,
            line: String::new(),
        }
    }
}

impl<R: BufRead + Send> FrameSource for LineSource<R> {
    fn next_event(&mut self) -> Result<SourceEvent> {
        loop {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                return Ok(SourceEvent::End);
            }
            if let Some(record) = parse_line(&self.line)? {
                return Ok(SourceEvent::Frame(record));
            }
        }
    }
}

/// Reads the frame-line format from a TCP socket with a read timeout.
///
/// Partial lines are buffered across reads; a timeout yields
/// [`SourceEvent::Idle`] so the ingest loop can honor its stop flag even
/// when the peer stalls.
pub struct TcpLineSource {
    stream: TcpStream,
    partial: Vec<u8>,
    ready: VecDeque<Record>,
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
            partial: Vec::new(),
            ready: VecDeque::new(),
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

    fn drain_lines(&mut self) -> Result<()> {
        while let Some(nl) = self.partial.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.partial.drain(..=nl).collect();
            let text = std::str::from_utf8(&line)
                .map_err(|_| Error::Parse("frame line is not utf-8".into()))?;
            if let Some(record) = parse_line(text)? {
                self.ready.push_back(record);
            }
        }
        Ok(())
    }
}

impl FrameSource for TcpLineSource {
    fn next_event(&mut self) -> Result<SourceEvent> {
        if let Some(record) = self.ready.pop_front() {
            return Ok(SourceEvent::Frame(record));
        }
        if self.eof {
            return Ok(SourceEvent::End);
        }
        let mut buf = [0u8; 4096];
        match self.stream.read(&mut buf) {
            Ok(0) => {
                self.eof = true;
                // A final line without a trailing newline still counts.
                if !self.partial.is_empty() {
                    self.partial.push(b'\n');
                    self.drain_lines()?;
                }
                match self.ready.pop_front() {
                    Some(record) => Ok(SourceEvent::Frame(record)),
                    None => Ok(SourceEvent::End),
                }
            }
            Ok(n) => {
                self.partial.extend_from_slice(&buf[..n]);
                self.drain_lines()?;
                match self.ready.pop_front() {
                    Some(record) => Ok(SourceEvent::Frame(record)),
                    None => Ok(SourceEvent::Idle),
                }
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
