//! Store writer: appends records into group-clustered columnar chunks.
//!
//! The writer buffers one *row group* at a time (`chunks_per_group ×
//! chunk_rows` records). When a group fills (or the file finishes), the
//! group is optionally **clustered** — sorted by `(b_id, m_id, original
//! position)` — and cut into fixed-row-count chunks. Clustering is what
//! makes zone maps bite on cyclic in-vehicle traffic: a time-contiguous
//! chunk of a bus log contains nearly every message id of the cycle, so
//! min/max pruning never fires; a clustered chunk covers a narrow id band
//! and prunes hard. Each row carries its original trace position
//! (delta-encoded, ~1 byte/row) so readers restore exact trace order per
//! group.
//!
//! The writer needs only `Write` — no seeking. It tracks bytes written and
//! places the footer at the end, with a fixed-size trailer pointing back at
//! it.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use crate::columns::GroupColumns;
use crate::error::Result;
use crate::layout::{
    checksum, encode_chunk, encode_footer, ChunkMeta, Footer, ZoneMap, END_MAGIC, MAGIC,
};
use crate::record::Record;

/// Tuning knobs for [`StoreWriter`].
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

/// Streaming writer for the `.ivns` chunked columnar trace format.
pub struct StoreWriter<W: Write> {
    out: W,
    options: WriterOptions,
    /// Bytes written so far == offset of the next write (no Seek needed).
    offset: u64,
    /// Buffered rows of the current group, in append order; its dictionary
    /// is the file's bus dictionary in first-seen order.
    group: GroupColumns,
    chunks: Vec<ChunkMeta>,
    rows_total: u64,
    groups: u32,
}

impl StoreWriter<BufWriter<File>> {
    /// Creates `path` and writes the store header.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`](crate::Error::Io) on filesystem failure.
    pub fn create<P: AsRef<Path>>(path: P, options: WriterOptions) -> Result<Self> {
        StoreWriter::new(BufWriter::new(File::create(path)?), options)
    }
}

impl<W: Write> StoreWriter<W> {
    /// Wraps `out` and writes the store header.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`](crate::Error::Io) if the header write fails.
    pub fn new(mut out: W, options: WriterOptions) -> Result<Self> {
        out.write_all(MAGIC)?;
        Ok(StoreWriter {
            out,
            options,
            offset: MAGIC.len() as u64,
            group: GroupColumns::default(),
            chunks: Vec::new(),
            rows_total: 0,
            groups: 0,
        })
    }

    /// Appends one record, flushing a full group of chunks when the buffer
    /// reaches `chunks_per_group × chunk_rows` rows.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`](crate::Error::Io) if a group flush fails.
    pub fn append(&mut self, record: &Record) -> Result<()> {
        let bus = self.group.intern_bus(&record.bus);
        self.group.push_row(
            record.timestamp_us,
            bus,
            record.message_id,
            record.protocol,
            &record.payload,
        );
        self.rows_total += 1;
        if self.group.len() >= self.options.group_rows() {
            self.flush_group()?;
        }
        Ok(())
    }

    /// Flushes any buffered rows, writes the footer and trailer, and
    /// returns the inner writer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`](crate::Error::Io) /
    /// [`Error::Format`](crate::Error::Format) on write or encoding failure.
    pub fn finish(mut self) -> Result<W> {
        self.flush_group()?;
        let footer = Footer {
            buses: std::mem::take(&mut self.group.buses),
            rows: self.rows_total,
            groups: self.groups,
            group_rows: self.options.group_rows() as u32,
            clustered: self.options.cluster,
            generation: u64::from(self.groups),
            chunks: std::mem::take(&mut self.chunks),
        };
        write_seal(&mut self.out, self.offset, &footer)?;
        Ok(self.out)
    }

    /// Rows appended so far.
    pub fn rows(&self) -> u64 {
        self.rows_total
    }

    fn flush_group(&mut self) -> Result<()> {
        if self.group.is_empty() {
            return Ok(());
        }
        let first_index = self.rows_total - self.group.len() as u64;
        let (metas, chunks) = encode_group(&self.group, first_index, &self.options, self.groups);
        self.groups += 1;
        self.group.clear();
        for (mut meta, bytes) in metas.into_iter().zip(chunks) {
            meta.offset = self.offset;
            self.out.write_all(&bytes)?;
            self.offset += bytes.len() as u64;
            self.chunks.push(meta);
        }
        Ok(())
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
