//! Store writer: the one writer of every `.ivns`, recorded or live.
//!
//! The writer buffers one *row group* at a time. When the group is due —
//! its row count reaches the row trigger ([`AppendOptions::flush_rows`],
//! by default `chunks_per_group × chunk_rows`), its record-time span
//! reaches the time trigger ([`AppendOptions::flush_interval_us`]), or
//! [`StoreWriter::flush`] is called — the group is optionally
//! **clustered** — sorted by `(b_id, m_id, original position)` — and cut
//! into fixed-row-count chunks. Clustering is what makes zone maps bite on
//! cyclic in-vehicle traffic: a time-contiguous chunk of a bus log
//! contains nearly every message id of the cycle, so min/max pruning never
//! fires; a clustered chunk covers a narrow id band and prunes hard. Each
//! row carries its original trace position (delta-encoded, ~1 byte/row)
//! so readers restore exact trace order per group.
//!
//! Every group reaches the file as a **group frame**: [`GROUP_MAGIC`], a
//! checksummed varint header indexing just that group's chunks and the
//! bus names it adds, then the ordinary chunk bytes. A store is therefore
//! self-describing while it grows, whoever wrote it: a crash loses at most
//! the unflushed group ([`recover`](crate::append::recover)), and a reader
//! can tail the file while it is written
//! ([`StoreFollower`](crate::append::StoreFollower)).
//! [`StoreWriter::seal`] appends the standard footer + trailer, from which
//! [`StoreReader`](crate::StoreReader) reads the whole index; its chunk
//! offsets are absolute and skip over the frame headers.
//!
//! The writer needs only `Write` — no seeking. The pending group is held
//! column-wise ([`GroupColumns`]: key columns, one payload arena, a row's
//! trace index implied by its position), so appending copies a payload
//! once and allocates nothing per row; [`StoreWriter::append_batch`] takes
//! a whole source batch.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ivnt_protocol::message::Protocol;

use crate::columns::GroupColumns;
use crate::error::Result;
use crate::layout::{
    checksum, encode_chunk, encode_footer, ChunkMeta, Footer, ZoneMap, END_MAGIC, MAGIC,
};
use crate::record::Record;
use crate::varint;

/// Marker opening every group frame.
pub const GROUP_MAGIC: &[u8; 8] = b"IVNSGRP\0";

/// Chunk layout of a store: chunk size, group size, clustering.
#[derive(Debug, Clone, Copy)]
pub struct WriterOptions {
    /// Rows per chunk (the pruning granule). Default 1024.
    pub chunk_rows: usize,
    /// Chunks per row group (the clustering / order-restoration granule,
    /// and the reader's memory budget in chunks). Default 32.
    pub chunks_per_group: usize,
    /// Sort each group by `(b_id, m_id)` before cutting chunks. Default
    /// `true`; disable only to benchmark how badly time-contiguous chunks
    /// prune.
    pub cluster: bool,
}

impl Default for WriterOptions {
    fn default() -> Self {
        WriterOptions {
            chunk_rows: 1024,
            chunks_per_group: 32,
            cluster: true,
        }
    }
}

impl WriterOptions {
    /// Rows buffered per group — the bound on both writer and reader memory.
    pub fn group_rows(&self) -> usize {
        self.chunk_rows.max(1) * self.chunks_per_group.max(1)
    }
}

/// Tuning knobs for [`StoreWriter`]: the chunk layout plus the two flush
/// triggers a live session sets.
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

/// A recorded store: full `group_rows` groups, no time trigger.
impl From<WriterOptions> for AppendOptions {
    fn from(writer: WriterOptions) -> Self {
        AppendOptions {
            writer,
            flush_rows: 0,
            flush_interval_us: 0,
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

/// Streaming writer for the framed `.ivns` format.
pub struct StoreWriter<W: Write> {
    out: W,
    options: AppendOptions,
    /// Bytes written so far == offset of the next write (no Seek needed).
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
    /// [`StoreWriter::append_batch`] (`u32::MAX` = not seen yet).
    bus_codes: Vec<u32>,
}

/// [`StoreWriter`] under the name the live-ingest API first gave it.
pub type AppendWriter<W> = StoreWriter<W>;

impl StoreWriter<BufWriter<File>> {
    /// Creates `path` and writes the store header.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`](crate::Error::Io) on filesystem failure.
    pub fn create<P: AsRef<Path>>(path: P, options: impl Into<AppendOptions>) -> Result<Self> {
        StoreWriter::new(BufWriter::new(File::create(path)?), options)
    }
}

impl<W: Write> StoreWriter<W> {
    /// Wraps `out` and writes the store header.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`](crate::Error::Io) if the header write fails.
    pub fn new(mut out: W, options: impl Into<AppendOptions>) -> Result<Self> {
        out.write_all(MAGIC)?;
        out.flush()?;
        Ok(StoreWriter {
            out,
            options: options.into(),
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

    /// Appends one record, flushing a group frame when the row-count or
    /// record-time trigger fires. Returns the flush report when a frame
    /// was written.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`](crate::Error::Io) if a frame flush fails.
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
    /// Returns [`Error::Io`](crate::Error::Io) if a frame flush fails; rows
    /// before the failing flush stay appended.
    ///
    /// [`append`]: StoreWriter::append
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
    /// Returns [`Error::Io`](crate::Error::Io) on write failure.
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
    /// (making the file a sealed `.ivns`), and returns the inner writer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`](crate::Error::Io) /
    /// [`Error::Format`](crate::Error::Format) on write or encoding failure.
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

    /// [`StoreWriter::seal`] under its older name.
    ///
    /// # Errors
    ///
    /// See [`StoreWriter::seal`].
    pub fn finish(self) -> Result<W> {
        self.seal()
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

/// Cuts a buffered group — rows in trace order, the first at trace index
/// `first_index`, buses coded against `rows`' dictionary — into encoded
/// chunks: clustered by `(b_id, m_id)` when `options` ask for it (ties
/// keep trace order), `chunk_rows` rows each, with zone maps. The metas
/// carry offset 0 for the caller to place.
pub(crate) fn encode_group(
    rows: &GroupColumns,
    first_index: u64,
    options: &WriterOptions,
    group: u32,
) -> (Vec<ChunkMeta>, Vec<Vec<u8>>) {
    let mut order: Vec<u32> = (0..rows.len() as u32).collect();
    if options.cluster {
        order.sort_by_key(|&i| (rows.bus[i as usize], rows.mid[i as usize]));
    }
    order
        .chunks(options.chunk_rows.max(1))
        .map(|chunk| {
            let bytes = encode_chunk(rows, chunk, first_index);
            let meta = ChunkMeta {
                offset: 0,
                len: bytes.len() as u32,
                rows: chunk.len() as u32,
                group,
                checksum: checksum(&bytes),
                zone: ZoneMap::compute(rows, chunk),
            };
            (meta, bytes)
        })
        .unzip()
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

/// Writes `footer` + trailer at `offset` through `out`.
pub(crate) fn write_seal<W: Write>(out: &mut W, offset: u64, footer: &Footer) -> Result<()> {
    let footer_bytes = encode_footer(footer)?;
    out.write_all(&footer_bytes)?;
    out.write_all(&offset.to_le_bytes())?;
    out.write_all(&(footer_bytes.len() as u64).to_le_bytes())?;
    out.write_all(&checksum(&footer_bytes).to_le_bytes())?;
    out.write_all(END_MAGIC)?;
    out.flush()?;
    Ok(())
}
