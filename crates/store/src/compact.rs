//! Store compaction: rewrite a sealed store into full-size row groups.
//!
//! Live-session ingest ([`AppendWriter`](crate::append::AppendWriter))
//! flushes a group frame per micro-batch for durability, so a long session
//! seals into a file of many *small* row groups. Small groups hurt readers
//! twice: the chunk index grows (more zone-map probes per scan) and
//! clustering only sorts within a group, so narrow groups barely separate
//! message ids and pruning stops firing. Compaction streams the sealed
//! file through a fresh [`StoreWriter`] in exact trace order, re-buffering
//! rows into full `chunks_per_group × chunk_rows` groups and re-clustering
//! each one — the rerun-style "merge many small batches" rewrite.
//!
//! The rewritten file holds **bit-identical contents**: the same records
//! in the same trace order ([`StoreReader::read_all`] on input and output
//! agree), only the physical grouping changes. The output's
//! [`generation`](crate::layout::Footer::generation) restarts at its own
//! group count, so a cache keyed on (generation, rows, chunk count)
//! treats the compacted file as a new store.

use std::fs::File;
use std::io::{BufWriter, Read, Seek, Write};
use std::path::Path;

use crate::error::{Error, Result};
use crate::reader::{Predicate, StoreReader};
use crate::writer::{StoreWriter, WriterOptions};

/// What a compaction did — group counts are the headline (the whole point
/// is `groups_after ≪ groups_before`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactReport {
    /// Rows rewritten (identical before and after).
    pub rows: u64,
    /// Row groups in the input store.
    pub groups_before: u32,
    /// Row groups in the rewritten store.
    pub groups_after: u32,
    /// Chunks in the input store's index.
    pub chunks_before: usize,
    /// Chunks in the rewritten store's index.
    pub chunks_after: usize,
}

/// Streams every record of `reader` (trace order) into a new store written
/// to `out` with `options`, returning the finished sink and a report.
///
/// # Errors
///
/// Propagates read-side corruption errors ([`Error::ChunkChecksum`]) and
/// write-side I/O errors.
pub fn compact<R: Read + Seek, W: Write>(
    reader: &mut StoreReader<R>,
    out: W,
    options: WriterOptions,
) -> Result<(W, CompactReport)> {
    let groups_before = reader.footer().groups;
    let chunks_before = reader.footer().chunks.len();
    let mut writer = StoreWriter::new(out, options)?;
    reader.scan::<Error, _>(&Predicate::all(), |group| {
        for r in &group {
            writer.append(r)?;
        }
        Ok(())
    })?;
    let rows = writer.rows();
    let out = writer.finish()?;
    // The writer cuts full groups of `group_rows` rows plus one partial
    // tail, and `chunk_rows` divides `group_rows`, so the output geometry
    // is exactly the ceiling division — no need to re-read the sink.
    let group_rows = options.group_rows().max(1) as u64;
    let chunk_rows = options.chunk_rows.max(1) as u64;
    let report = CompactReport {
        rows,
        groups_before,
        groups_after: rows.div_ceil(group_rows) as u32,
        chunks_before,
        chunks_after: rows.div_ceil(chunk_rows) as usize,
    };
    ivnt_obs::with(|obs| {
        obs.add("store_compactions_total", 1);
        obs.add("store_compact_rows_total", report.rows);
        obs.add(
            "store_compact_groups_merged_total",
            u64::from(report.groups_before.saturating_sub(report.groups_after)),
        );
    });
    Ok((out, report))
}

/// Opens the sealed store at `input`, compacts it, and writes the result
/// to `output` (created/truncated).
///
/// # Errors
///
/// Same conditions as [`compact`], plus [`StoreReader::open`]'s validation
/// errors — an unsealed append-mode file must be sealed (e.g. with
/// [`seal_recovered`](crate::append::seal_recovered)) first.
pub fn compact_file<P: AsRef<Path>, Q: AsRef<Path>>(
    input: P,
    output: Q,
    options: WriterOptions,
) -> Result<CompactReport> {
    let mut reader = StoreReader::open(input)?;
    let out = BufWriter::new(File::create(output)?);
    let (mut out, report) = compact(&mut reader, out, options)?;
    out.flush()?;
    Ok(report)
}
