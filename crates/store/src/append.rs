//! Append-mode `.ivns`: live ingest with crash-recoverable group frames.
//!
//! The batch [`StoreWriter`](crate::StoreWriter) places its entire index in
//! a footer written at `finish()`; kill the process mid-trace and the file
//! is unreadable. Live-session ingest needs the opposite durability shape:
//! every flushed micro-batch must survive a crash, and a concurrent reader
//! must be able to tail the file while it grows.
//!
//! [`AppendWriter`] keeps the chunk encoding, clustering and zone maps of
//! the batch writer but makes the file *self-describing as it grows*: each
//! flushed row group is preceded by a checksummed **group frame header**
//! ([`GROUP_MAGIC`], varint-encoded chunk index for just that group, newly
//! interned bus names) followed by the ordinary chunk bytes. Flushes are
//! triggered by row count ([`AppendOptions::flush_rows`]), by record-time
//! advance ([`AppendOptions::flush_interval_us`]) or explicitly.
//!
//! * [`AppendWriter::seal`] appends the standard footer + trailer, so a
//!   cleanly closed append file is read by [`StoreReader`] unchanged — the
//!   interleaved frame headers are simply never consulted (chunk offsets in
//!   the footer are absolute and skip over them).
//! * [`recover`] walks the frames of a torn (unsealed) file, validating
//!   header and chunk checksums, truncating the torn tail group and
//!   rebuilding the footer index — at most the unflushed tail is lost.
//! * [`seal_recovered`] turns a recovered file back into a standard sealed
//!   store in place.
//! * [`StoreFollower`] tails a growing file, emitting each newly completed
//!   group's records in trace order — the reader half of a live session.
//!
//! The pending group is held column-wise ([`GroupColumns`]: key columns,
//! one payload arena, a row's trace index implied by its position), so
//! appending a frame copies its payload once and allocates nothing per
//! row; [`AppendWriter::append_batch`] takes a whole source batch.

use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ivnt_protocol::message::Protocol;

use crate::columns::GroupColumns;
use crate::error::{Error, Result};
use crate::layout::{
    checksum, decode_chunk_columns, ChunkMeta, Footer, ZoneMap, END_MAGIC, MAGIC, TRAILER_LEN,
};
use crate::reader::StoreReader;
use crate::record::Record;
use crate::varint;
use crate::writer::{encode_group, write_seal, WriterOptions};

/// Marker opening every appended group frame.
pub const GROUP_MAGIC: &[u8; 8] = b"IVNSGRP\0";

/// Upper bound on one frame header (sanity cap while walking; a header
/// indexes at most one group's chunks and bus names).
const MAX_HEADER_LEN: u32 = 16 << 20;

/// Tuning knobs for [`AppendWriter`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AppendOptions {
    /// Chunk layout of each flushed group (clustering, chunk rows).
    pub writer: WriterOptions,
    /// Row-count flush trigger: a group is flushed once this many rows are
    /// buffered. `0` falls back to [`WriterOptions::group_rows`].
    pub flush_rows: usize,
    /// Record-time flush trigger in microseconds: a group is flushed when
    /// the newest buffered record's timestamp is this far past the oldest's.
    /// `0` disables the time trigger.
    pub flush_interval_us: u64,
}

impl AppendOptions {
    /// Effective row-count trigger.
    pub fn effective_flush_rows(&self) -> usize {
        if self.flush_rows == 0 {
            self.writer.group_rows()
        } else {
            self.flush_rows
        }
    }
}

/// Report of one flushed group frame, for flush-latency accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupFlush {
    /// Flushed group id.
    pub group: u32,
    /// Rows in the group.
    pub rows: usize,
    /// Frame bytes written (header + chunks).
    pub bytes: u64,
    /// Wall-clock seconds spent encoding and writing the frame.
    pub seconds: f64,
}

/// Streaming append-mode writer for the `.ivns` format.
pub struct AppendWriter<W: Write> {
    out: W,
    options: AppendOptions,
    /// Bytes written so far == offset of the next write.
    offset: u64,
    /// Buffered rows of the current (unflushed) group, in append order;
    /// its dictionary is the file's bus dictionary in first-seen order.
    group: GroupColumns,
    /// Buses already persisted in earlier frame headers.
    buses_written: usize,
    /// Chunk index accumulated for the seal-time footer.
    chunks: Vec<ChunkMeta>,
    rows_total: u64,
    groups: u32,
    /// Oldest buffered record timestamp (time-trigger anchor).
    oldest_buffered_us: u64,
    /// Batch bus code → file bus code, filled row by row in
    /// [`AppendWriter::append_batch`] (`u32::MAX` = not seen yet).
    bus_codes: Vec<u32>,
}

impl AppendWriter<BufWriter<File>> {
    /// Creates `path` and writes the store header.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] on filesystem failure.
    pub fn create<P: AsRef<Path>>(path: P, options: AppendOptions) -> Result<Self> {
        AppendWriter::new(BufWriter::new(File::create(path)?), options)
    }
}

impl<W: Write> AppendWriter<W> {
    /// Wraps `out` and writes the store header.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] if the header write fails.
    pub fn new(mut out: W, options: AppendOptions) -> Result<Self> {
        out.write_all(MAGIC)?;
        out.flush()?;
        Ok(AppendWriter {
            out,
            options,
            offset: MAGIC.len() as u64,
            group: GroupColumns::default(),
            buses_written: 0,
            chunks: Vec::new(),
            rows_total: 0,
            groups: 0,
            oldest_buffered_us: 0,
            bus_codes: Vec::new(),
        })
    }

    /// Appends one record, flushing a micro-batched group frame when the
    /// row-count or record-time trigger fires. Returns the flush report
    /// when a frame was written.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] if a frame flush fails.
    pub fn append(&mut self, record: &Record) -> Result<Option<GroupFlush>> {
        let bus = self.group.intern_bus(&record.bus);
        self.push(
            record.timestamp_us,
            bus,
            record.message_id,
            record.protocol,
            &record.payload,
        )
    }

    /// Appends every row of `batch` in order, exactly as [`append`]ing
    /// them one by one would: the flush triggers fire at the same rows and
    /// a bus new to the file is interned when its first row is appended,
    /// so frame headers and zone maps come out byte-identical. Calls
    /// `on_flush` with each frame written.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] if a frame flush fails; rows before the
    /// failing flush stay appended.
    ///
    /// [`append`]: AppendWriter::append
    pub fn append_batch(
        &mut self,
        batch: &GroupColumns,
        mut on_flush: impl FnMut(GroupFlush),
    ) -> Result<()> {
        self.bus_codes.clear();
        self.bus_codes.resize(batch.buses.len(), u32::MAX);
        for i in 0..batch.len() {
            let code = &mut self.bus_codes[batch.bus[i] as usize];
            if *code == u32::MAX {
                *code = self.group.intern_bus(&batch.buses[batch.bus[i] as usize]);
            }
            let bus = *code;
            let flushed = self.push(
                batch.t_us[i],
                bus,
                batch.mid[i],
                batch.protocol[i],
                batch.payload(i),
            )?;
            if let Some(flush) = flushed {
                on_flush(flush);
            }
        }
        Ok(())
    }

    /// Buffers one row coded against the file dictionary and fires the
    /// flush triggers.
    fn push(
        &mut self,
        t_us: u64,
        bus: u32,
        message_id: u32,
        protocol: Protocol,
        payload: &[u8],
    ) -> Result<Option<GroupFlush>> {
        if self.group.is_empty() {
            self.oldest_buffered_us = t_us;
        }
        self.group
            .push_row(t_us, bus, message_id, protocol, payload);
        self.rows_total += 1;
        let rows_due = self.group.len() >= self.options.effective_flush_rows();
        let time_due = self.options.flush_interval_us > 0
            && t_us.saturating_sub(self.oldest_buffered_us) >= self.options.flush_interval_us;
        if rows_due || time_due {
            return self.flush();
        }
        Ok(None)
    }

    /// Flushes the buffered rows as one group frame (no-op when empty).
    ///
    /// After this returns, the frame is recoverable: the inner writer has
    /// been flushed through to its sink.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] on write failure.
    pub fn flush(&mut self) -> Result<Option<GroupFlush>> {
        if self.group.is_empty() {
            return Ok(None);
        }
        let started = Instant::now();
        let group_id = self.groups;
        self.groups += 1;
        // Cut chunks first: the frame header indexes them, so their bytes
        // and metadata must exist before the header can be written.
        let first_index = self.rows_total - self.group.len() as u64;
        let (mut metas, chunk_bytes) =
            encode_group(&self.group, first_index, &self.options.writer, group_id);
        self.group.clear();

        let header = encode_frame_header(
            group_id,
            self.options.writer.cluster,
            &self.group.buses[self.buses_written..],
            &metas,
        );
        self.out.write_all(GROUP_MAGIC)?;
        self.out.write_all(&(header.len() as u32).to_le_bytes())?;
        self.out.write_all(&header)?;
        self.out.write_all(&checksum(&header).to_le_bytes())?;
        let mut chunk_offset = self.offset + (GROUP_MAGIC.len() + 4 + header.len() + 8) as u64;
        for (meta, bytes) in metas.iter_mut().zip(&chunk_bytes) {
            meta.offset = chunk_offset;
            self.out.write_all(bytes)?;
            chunk_offset += bytes.len() as u64;
        }
        let frame_bytes = chunk_offset - self.offset;
        self.offset = chunk_offset;
        self.buses_written = self.group.buses.len();
        let group_rows: usize = metas.iter().map(|m| m.rows as usize).sum();
        self.chunks.extend(metas);
        // Durability point: push the frame through to the sink so a crash
        // after this call loses nothing.
        self.out.flush()?;
        Ok(Some(GroupFlush {
            group: group_id,
            rows: group_rows,
            bytes: frame_bytes,
            seconds: started.elapsed().as_secs_f64(),
        }))
    }

    /// Flushes any buffered rows, writes the standard footer and trailer
    /// (making the file a plain sealed `.ivns`), and returns the inner
    /// writer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] / [`Error::Format`] on write or encoding
    /// failure.
    pub fn seal(mut self) -> Result<W> {
        self.flush()?;
        let footer = Footer {
            buses: std::mem::take(&mut self.group.buses),
            rows: self.rows_total,
            groups: self.groups,
            group_rows: self.options.effective_flush_rows() as u32,
            clustered: self.options.writer.cluster,
            generation: u64::from(self.groups),
            chunks: std::mem::take(&mut self.chunks),
        };
        write_seal(&mut self.out, self.offset, &footer)?;
        Ok(self.out)
    }

    /// Rows appended so far (flushed + buffered).
    pub fn rows(&self) -> u64 {
        self.rows_total
    }

    /// Bytes written so far (header + flushed frames; excludes buffered
    /// rows and any future seal).
    pub fn bytes_written(&self) -> u64 {
        self.offset
    }

    /// Group frames flushed so far.
    pub fn groups(&self) -> u32 {
        self.groups
    }

    /// Rows buffered in the not-yet-flushed tail group.
    pub fn buffered_rows(&self) -> usize {
        self.group.len()
    }
}

/// Varint frame header: group id, flags, newly interned buses, chunk index.
fn encode_frame_header(
    group: u32,
    clustered: bool,
    new_buses: &[Arc<str>],
    metas: &[ChunkMeta],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + metas.len() * 32);
    varint::write_u64(&mut out, u64::from(group));
    out.push(u8::from(clustered));
    varint::write_u64(&mut out, new_buses.len() as u64);
    for bus in new_buses {
        varint::write_u64(&mut out, bus.len() as u64);
        out.extend_from_slice(bus.as_bytes());
    }
    varint::write_u64(&mut out, metas.len() as u64);
    for meta in metas {
        varint::write_u64(&mut out, u64::from(meta.rows));
        varint::write_u64(&mut out, u64::from(meta.len));
        out.extend_from_slice(&meta.checksum.to_le_bytes());
        varint::write_u64(&mut out, meta.zone.min_t_us);
        varint::write_u64(&mut out, meta.zone.max_t_us);
        varint::write_u64(&mut out, u64::from(meta.zone.min_mid));
        varint::write_u64(&mut out, u64::from(meta.zone.max_mid));
        varint::write_u64(&mut out, meta.zone.bus_bits.len() as u64);
        out.extend_from_slice(&meta.zone.bus_bits);
    }
    out
}

/// One validated group frame; its chunk bytes are left in the buffer the
/// caller passed to [`read_frame`].
struct FrameInfo {
    group: u32,
    clustered: bool,
    /// Names the frame adds to the bus dictionary.
    new_buses: Vec<Arc<str>>,
    /// Chunk index with absolute file offsets.
    metas: Vec<ChunkMeta>,
    /// File offset just past the frame.
    end: u64,
}

/// Outcome of trying to read one frame at a file position.
enum FrameRead {
    /// A complete, checksum-valid frame.
    Complete(FrameInfo),
    /// Not enough bytes yet — a torn tail (recovery) or a frame still
    /// being written (follower).
    Incomplete,
    /// The position does not start with [`GROUP_MAGIC`] — either the
    /// sealed footer begins here or the tail is garbage.
    NotAFrame,
    /// All bytes are present but a checksum or the header structure is
    /// invalid.
    Corrupt(String),
}

/// Reads the frame at `pos`, leaving its checksum-valid chunk bytes in
/// `chunks`.
fn read_frame<R: Read + Seek>(
    inner: &mut R,
    pos: u64,
    file_len: u64,
    chunks: &mut Vec<u8>,
) -> Result<FrameRead> {
    let avail = file_len.saturating_sub(pos);
    if avail < (GROUP_MAGIC.len() + 4) as u64 {
        return Ok(FrameRead::Incomplete);
    }
    inner.seek(SeekFrom::Start(pos))?;
    let mut magic = [0u8; 8];
    inner.read_exact(&mut magic)?;
    if &magic != GROUP_MAGIC {
        return Ok(FrameRead::NotAFrame);
    }
    let mut len4 = [0u8; 4];
    inner.read_exact(&mut len4)?;
    let header_len = u32::from_le_bytes(len4);
    if header_len > MAX_HEADER_LEN {
        return Ok(FrameRead::Corrupt(format!(
            "frame header length {header_len} exceeds cap"
        )));
    }
    if avail < (GROUP_MAGIC.len() + 4 + header_len as usize + 8) as u64 {
        return Ok(FrameRead::Incomplete);
    }
    let mut header = vec![0u8; header_len as usize];
    inner.read_exact(&mut header)?;
    let mut sum8 = [0u8; 8];
    inner.read_exact(&mut sum8)?;
    if checksum(&header) != u64::from_le_bytes(sum8) {
        return Ok(FrameRead::Corrupt("frame header checksum mismatch".into()));
    }

    // Parse the header.
    let mut cur = varint::Cursor::new(&header);
    type ParsedHeader = (u32, bool, Vec<Arc<str>>, Vec<ChunkMeta>);
    let mut parse = || -> Result<ParsedHeader> {
        let group = u32::try_from(cur.read_u64()?)
            .map_err(|_| Error::Format("frame group id out of range".into()))?;
        let clustered = cur.read_u8()? != 0;
        let n_buses = cur.read_u64()? as usize;
        if n_buses > header.len() {
            return Err(Error::Format("frame bus count exceeds header".into()));
        }
        let mut new_buses = Vec::with_capacity(n_buses);
        for _ in 0..n_buses {
            let len = cur.read_u64()? as usize;
            let bytes = cur.read_slice(len)?;
            let name = std::str::from_utf8(bytes)
                .map_err(|_| Error::Format("frame bus name is not utf-8".into()))?;
            new_buses.push(Arc::<str>::from(name));
        }
        let n_chunks = cur.read_u64()? as usize;
        if n_chunks > header.len() {
            return Err(Error::Format("frame chunk count exceeds header".into()));
        }
        let mut metas = Vec::with_capacity(n_chunks);
        for _ in 0..n_chunks {
            let rows = u32::try_from(cur.read_u64()?)
                .map_err(|_| Error::Format("frame chunk rows out of range".into()))?;
            let len = u32::try_from(cur.read_u64()?)
                .map_err(|_| Error::Format("frame chunk length out of range".into()))?;
            let chunk_sum = cur.read_u64_le()?;
            let min_t_us = cur.read_u64()?;
            let max_t_us = cur.read_u64()?;
            let min_mid = u32::try_from(cur.read_u64()?)
                .map_err(|_| Error::Format("frame zone min mid out of range".into()))?;
            let max_mid = u32::try_from(cur.read_u64()?)
                .map_err(|_| Error::Format("frame zone max mid out of range".into()))?;
            let bits_len = cur.read_u64()? as usize;
            let bus_bits = cur.read_slice(bits_len)?.to_vec();
            metas.push(ChunkMeta {
                offset: 0,
                len,
                rows,
                group: 0,
                checksum: chunk_sum,
                zone: ZoneMap {
                    min_t_us,
                    max_t_us,
                    min_mid,
                    max_mid,
                    bus_bits,
                },
            });
        }
        Ok((group, clustered, new_buses, metas))
    };
    let (group, clustered, new_buses, mut metas) = match parse() {
        Ok(parsed) => parsed,
        Err(Error::Io(e)) => return Err(Error::Io(e)),
        Err(e) => return Ok(FrameRead::Corrupt(e.to_string())),
    };

    // The chunks follow the header back to back: one read, no seek. The
    // total is bounded by the bytes the file holds before it sizes the
    // buffer.
    let chunks_start = pos + (GROUP_MAGIC.len() + 4 + header.len() + 8) as u64;
    let chunk_total: u64 = metas.iter().map(|m| u64::from(m.len)).sum();
    if file_len.saturating_sub(chunks_start) < chunk_total {
        return Ok(FrameRead::Incomplete);
    }
    let Ok(chunk_total) = usize::try_from(chunk_total) else {
        return Ok(FrameRead::Corrupt("frame chunks exceed memory".into()));
    };
    chunks.clear();
    chunks.resize(chunk_total, 0);
    inner.read_exact(chunks)?;
    let mut offset = chunks_start;
    let mut at = 0;
    for meta in &mut metas {
        let len = meta.len as usize;
        if checksum(&chunks[at..at + len]) != meta.checksum {
            return Ok(FrameRead::Corrupt(format!(
                "chunk checksum mismatch in group {group}"
            )));
        }
        meta.offset = offset;
        meta.group = group;
        offset += u64::from(meta.len);
        at += len;
    }
    Ok(FrameRead::Complete(FrameInfo {
        group,
        clustered,
        new_buses,
        metas,
        end: offset,
    }))
}

/// Result of [`recover`]: the rebuilt index plus what the walk found.
#[derive(Debug, Clone)]
pub struct Recovered {
    /// Rebuilt (or, for sealed files, decoded) footer index.
    pub footer: Footer,
    /// `true` when the file carries a valid footer + trailer already.
    pub sealed: bool,
    /// Bytes of the valid prefix: header plus all complete group frames.
    pub valid_len: u64,
    /// Total file length at recovery time.
    pub file_len: u64,
}

impl Recovered {
    /// Bytes past the valid prefix (the torn tail; `0` when sealed).
    pub fn torn_bytes(&self) -> u64 {
        if self.sealed {
            0
        } else {
            self.file_len.saturating_sub(self.valid_len)
        }
    }
}

/// Walks the group frames of `inner`, rebuilding the footer index from
/// checksummed frame headers and truncating (logically) any torn tail.
///
/// Works on sealed files too: the walk stops at the footer, whose
/// validated contents are then preferred.
///
/// # Errors
///
/// Returns [`Error::BadMagic`] when the file is not an `.ivns` store, and
/// [`Error::Io`] on read failure. A torn or corrupt tail is *not* an
/// error — it is truncated and reported via [`Recovered::torn_bytes`].
pub fn recover_reader<R: Read + Seek>(inner: &mut R) -> Result<Recovered> {
    let file_len = inner.seek(SeekFrom::End(0))?;
    inner.seek(SeekFrom::Start(0))?;
    let mut magic = [0u8; 8];
    if file_len < MAGIC.len() as u64 {
        return Err(Error::BadMagic);
    }
    inner.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(Error::BadMagic);
    }

    let mut buses: Vec<Arc<str>> = Vec::new();
    let mut chunks: Vec<ChunkMeta> = Vec::new();
    let mut rows = 0u64;
    let mut groups = 0u32;
    let mut max_group_rows = 0u64;
    let mut clustered = true;
    let mut pos = MAGIC.len() as u64;
    let mut chunk_bytes = Vec::new();
    // Incomplete, non-frame and corrupt reads all end the valid prefix.
    while let FrameRead::Complete(frame) = read_frame(inner, pos, file_len, &mut chunk_bytes)? {
        buses.extend(frame.new_buses);
        let frame_rows: u64 = frame.metas.iter().map(|m| u64::from(m.rows)).sum();
        rows += frame_rows;
        max_group_rows = max_group_rows.max(frame_rows);
        clustered = clustered && frame.clustered;
        groups = groups.max(frame.group + 1);
        chunks.extend(frame.metas);
        pos = frame.end;
    }

    // A sealed file's footer begins exactly where its frames end; prefer
    // the validated footer when the trailer checks out.
    if let Some(footer) = try_read_footer(inner, pos, file_len)? {
        return Ok(Recovered {
            footer,
            sealed: true,
            valid_len: file_len,
            file_len,
        });
    }

    Ok(Recovered {
        footer: Footer {
            buses,
            rows,
            groups,
            group_rows: max_group_rows.max(1) as u32,
            clustered,
            generation: u64::from(groups),
            chunks,
        },
        sealed: false,
        valid_len: pos,
        file_len,
    })
}

/// Validates the trailer + footer of a sealed file whose frames end at
/// `frames_end`. Returns `None` when no valid seal is present.
fn try_read_footer<R: Read + Seek>(
    inner: &mut R,
    frames_end: u64,
    file_len: u64,
) -> Result<Option<Footer>> {
    if file_len < frames_end + TRAILER_LEN as u64 {
        return Ok(None);
    }
    inner.seek(SeekFrom::Start(file_len - TRAILER_LEN as u64))?;
    let mut trailer = [0u8; TRAILER_LEN];
    inner.read_exact(&mut trailer)?;
    if &trailer[24..32] != END_MAGIC {
        return Ok(None);
    }
    let footer_offset = u64::from_le_bytes(trailer[0..8].try_into().expect("8 bytes"));
    let footer_len = u64::from_le_bytes(trailer[8..16].try_into().expect("8 bytes"));
    let footer_sum = u64::from_le_bytes(trailer[16..24].try_into().expect("8 bytes"));
    let trailer_start = file_len - TRAILER_LEN as u64;
    if footer_offset != frames_end || footer_offset.saturating_add(footer_len) != trailer_start {
        return Ok(None);
    }
    inner.seek(SeekFrom::Start(footer_offset))?;
    let mut footer_bytes = vec![0u8; footer_len as usize];
    inner.read_exact(&mut footer_bytes)?;
    if checksum(&footer_bytes) != footer_sum {
        return Ok(None);
    }
    match crate::layout::decode_footer(&footer_bytes)
        .and_then(|footer| footer.check_extents(footer_offset).map(|()| footer))
    {
        Ok(footer) => Ok(Some(footer)),
        Err(Error::Io(e)) => Err(Error::Io(e)),
        Err(_) => Ok(None),
    }
}

/// Recovers the index of the store at `path` (sealed or torn).
///
/// # Errors
///
/// See [`recover_reader`].
pub fn recover<P: AsRef<Path>>(path: P) -> Result<Recovered> {
    let mut file = BufReader::new(File::open(path)?);
    recover_reader(&mut file)
}

/// Opens a possibly-torn store for reading: recovers the index and binds
/// it to a [`StoreReader`] without requiring a seal.
///
/// # Errors
///
/// See [`recover_reader`].
pub fn open_recovered<P: AsRef<Path>>(
    path: P,
) -> Result<(StoreReader<BufReader<File>>, Recovered)> {
    let recovered = recover(&path)?;
    let inner = BufReader::new(File::open(path)?);
    let reader = StoreReader::with_footer(inner, recovered.footer.clone());
    Ok((reader, recovered))
}

/// Seals a recovered store in place: truncates the torn tail and appends
/// the standard footer + trailer, after which [`StoreReader::open`] works
/// unchanged. Already-sealed files are left untouched.
///
/// # Errors
///
/// See [`recover_reader`]; additionally [`Error::Io`] on truncate/write
/// failure.
pub fn seal_recovered<P: AsRef<Path>>(path: P) -> Result<Recovered> {
    let mut recovered = recover(&path)?;
    if recovered.sealed {
        return Ok(recovered);
    }
    let file = OpenOptions::new().read(true).write(true).open(&path)?;
    file.set_len(recovered.valid_len)?;
    let mut out = BufWriter::new(file);
    out.seek(SeekFrom::Start(recovered.valid_len))?;
    write_seal(&mut out, recovered.valid_len, &recovered.footer)?;
    recovered.sealed = true;
    recovered.file_len = recovered.valid_len;
    Ok(recovered)
}

/// One newly completed group surfaced by a [`StoreFollower`] poll.
#[derive(Debug, Clone)]
pub struct TailGroup {
    /// Group id as recorded in its frame header.
    pub group: u32,
    /// The group's records, restored to trace order.
    pub records: Vec<Record>,
}

/// Result of one [`StoreFollower::poll`].
#[derive(Debug, Clone, Default)]
pub struct TailBatch {
    /// Groups completed since the previous poll, in file order.
    pub groups: Vec<TailGroup>,
    /// `true` once a valid footer + trailer follows the final frame — the
    /// writer sealed the file; no further groups will appear.
    pub sealed: bool,
}

/// Tails a growing append-mode store, emitting each completed group once.
///
/// Safe to run concurrently with an [`AppendWriter`] on the same file:
/// frames are append-only and a frame is only surfaced once its header and
/// every chunk checksum validate, so a partially written tail is simply
/// not yet visible.
pub struct StoreFollower<R: Read + Seek> {
    inner: R,
    pos: u64,
    /// The frame under decode; its dictionary is the file's bus
    /// dictionary so far.
    rows: GroupColumns,
    /// Chunk bytes of the frame under decode.
    chunks: Vec<u8>,
    sealed: bool,
}

impl StoreFollower<BufReader<File>> {
    /// Opens `path` for tailing from the first group.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadMagic`] when the header is absent or wrong, and
    /// [`Error::Io`] on open failure.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        StoreFollower::new(BufReader::new(File::open(path)?))
    }
}

impl<R: Read + Seek> StoreFollower<R> {
    /// Wraps `inner` for tailing from the first group.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadMagic`] when the header is absent or wrong.
    pub fn new(mut inner: R) -> Result<Self> {
        let len = inner.seek(SeekFrom::End(0))?;
        if len < MAGIC.len() as u64 {
            return Err(Error::BadMagic);
        }
        inner.seek(SeekFrom::Start(0))?;
        let mut magic = [0u8; 8];
        inner.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(Error::BadMagic);
        }
        Ok(StoreFollower {
            inner,
            pos: MAGIC.len() as u64,
            rows: GroupColumns::default(),
            chunks: Vec::new(),
            sealed: false,
        })
    }

    /// Reads any groups completed since the previous poll.
    ///
    /// An in-progress tail frame is left for the next poll. Once the
    /// writer's seal is detected, [`TailBatch::sealed`] is `true` and
    /// subsequent polls return empty sealed batches.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] on read failure and
    /// [`Error::Format`] / [`Error::ChunkChecksum`]-shaped corruption as
    /// [`Error::Format`] when a *complete* frame fails validation (an
    /// appender never rewrites flushed bytes, so this is real corruption,
    /// not a race).
    pub fn poll(&mut self) -> Result<TailBatch> {
        if self.sealed {
            return Ok(TailBatch {
                groups: Vec::new(),
                sealed: true,
            });
        }
        let file_len = self.inner.seek(SeekFrom::End(0))?;
        let mut out = TailBatch::default();
        loop {
            match read_frame(&mut self.inner, self.pos, file_len, &mut self.chunks)? {
                FrameRead::Complete(frame) => {
                    let records = self.decode(frame.new_buses, &frame.metas).map_err(|e| {
                        Error::Format(format!("corrupt group frame at offset {}: {e}", self.pos))
                    })?;
                    out.groups.push(TailGroup {
                        group: frame.group,
                        records,
                    });
                    self.pos = frame.end;
                }
                FrameRead::Incomplete => break,
                FrameRead::NotAFrame => {
                    if try_read_footer(&mut self.inner, self.pos, file_len)?.is_some() {
                        self.sealed = true;
                        out.sealed = true;
                    }
                    break;
                }
                FrameRead::Corrupt(msg) => {
                    return Err(Error::Format(format!(
                        "corrupt group frame at offset {}: {msg}",
                        self.pos
                    )));
                }
            }
        }
        Ok(out)
    }

    /// File offset of the next unread frame.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Decodes the frame's chunks (in `self.chunks`, as `metas` cut them)
    /// and returns its records in trace order. The dictionary keeps
    /// `new_buses` only when every chunk decodes.
    fn decode(&mut self, new_buses: Vec<Arc<str>>, metas: &[ChunkMeta]) -> Result<Vec<Record>> {
        let known = self.rows.buses.len();
        self.rows.buses.extend(new_buses);
        let mut at = 0;
        for meta in metas {
            let bytes = &self.chunks[at..at + meta.len as usize];
            at += bytes.len();
            match decode_chunk_columns(bytes, self.rows.buses.len()) {
                Ok(chunk) => self.rows.push_decoded(&chunk, 0..chunk.len()),
                Err(e) => {
                    self.rows.clear();
                    self.rows.buses.truncate(known);
                    return Err(e);
                }
            }
        }
        // Every row of the frame was decoded, so each may take a slot.
        self.rows.restore_order(self.rows.len());
        let records = self.rows.records();
        self.rows.clear();
        Ok(records)
    }
}
