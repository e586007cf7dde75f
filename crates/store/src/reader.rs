//! Store reader: trailer/footer parsing and the zone-map pushdown scan.
//!
//! A scan walks the footer's chunk index in file order, evaluating the
//! caller's [`Predicate`] against each chunk's zone map first — chunks
//! proven empty of matches are **skipped without being read or decoded**.
//! Surviving chunks are decoded into key columns, each row's keys are
//! tested before its payload is touched, and only survivors are copied
//! into the row group under assembly ([`GroupColumns`]); when the group
//! completes, its rows are restored to trace order and handed over as
//! columns. Memory therefore stays bounded by one group (`group_rows`
//! records) regardless of file size — the out-of-core property.

use std::collections::HashSet;
use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::path::Path;

use crate::columns::GroupColumns;
use crate::error::{Error, Result};
use crate::layout::{checksum, checksums, decode_footer, ChunkBuffers, ChunkColumns};
use crate::layout::{ChunkMeta, Footer, IndexedRecord, END_MAGIC, MAGIC, TRAILER_LEN};
use crate::record::Record;

/// What a scan is looking for. Conservative by construction: `None`
/// fields mean "everything".
#[derive(Debug, Clone, Default)]
pub struct Predicate {
    /// `(b_id, m_id)` pairs to keep; `None` keeps every message.
    pub selections: Option<Vec<(String, u32)>>,
    /// Inclusive `[from, to]` time window in µs; `None` keeps all times.
    pub time_range_us: Option<(u64, u64)>,
    /// Half-open `[from, to)` row-group window; `None` scans every group.
    /// Shard executors use this to re-run one task's groups exactly.
    pub group_range: Option<(u32, u32)>,
}

impl Predicate {
    /// Matches every record (full-file scan).
    pub fn all() -> Predicate {
        Predicate::default()
    }

    /// Matches the given `(bus, message id)` pairs.
    pub fn for_messages<I, S>(pairs: I) -> Predicate
    where
        I: IntoIterator<Item = (S, u32)>,
        S: Into<String>,
    {
        Predicate {
            selections: Some(pairs.into_iter().map(|(b, m)| (b.into(), m)).collect()),
            time_range_us: None,
            group_range: None,
        }
    }

    /// Restricts the scan to an inclusive time window.
    pub fn with_time_range_us(mut self, from_us: u64, to_us: u64) -> Predicate {
        self.time_range_us = Some((from_us, to_us));
        self
    }

    /// Restricts the scan to row groups `[from, to)`.
    pub fn with_group_range(mut self, from: u32, to: u32) -> Predicate {
        self.group_range = Some((from, to));
        self
    }

    /// Resolves the predicate against one file's footer. Shard planners
    /// compile once and probe every chunk's zone map without decoding it.
    pub fn compile(&self, footer: &Footer) -> CompiledPredicate {
        CompiledPredicate::compile(self, footer)
    }
}

/// A [`Predicate`] resolved against one file's bus dictionary.
#[derive(Debug, Clone)]
pub struct CompiledPredicate {
    /// `(bus dictionary id, message id)` pairs; `None` = keep all.
    /// Selections naming buses absent from the file compile to an empty
    /// set — nothing can match, every chunk is skipped.
    pairs: Option<HashSet<(u32, u32)>>,
    time_range_us: Option<(u64, u64)>,
    group_range: Option<(u32, u32)>,
}

impl CompiledPredicate {
    fn compile(pred: &Predicate, footer: &Footer) -> CompiledPredicate {
        let pairs = pred.selections.as_ref().map(|sel| {
            sel.iter()
                .filter_map(|(bus, mid)| {
                    footer
                        .buses
                        .iter()
                        .position(|b| b.as_ref() == bus.as_str())
                        .map(|id| (id as u32, *mid))
                })
                .collect()
        });
        CompiledPredicate {
            pairs,
            time_range_us: pred.time_range_us,
            group_range: pred.group_range,
        }
    }

    /// Index test: may the chunk contain a matching row? `false` is a proof
    /// of absence (group outside the window, or zone maps excluding every
    /// selected message and time).
    pub fn chunk_may_match(&self, meta: &ChunkMeta) -> bool {
        if let Some((from, to)) = self.group_range {
            if !(from..to).contains(&meta.group) {
                return false;
            }
        }
        let zone = &meta.zone;
        if let Some((from, to)) = self.time_range_us {
            if !zone.time_overlaps(from, to) {
                return false;
            }
        }
        match &self.pairs {
            None => true,
            Some(pairs) => pairs
                .iter()
                .any(|&(bus, mid)| zone.has_bus(bus) && zone.mid_in_range(mid)),
        }
    }

    /// Exact row test on key columns (the zone-map test is only
    /// conservative): bus dictionary code, message id and timestamp (µs).
    /// Public so multi-query planners can route the rows of a shared union
    /// scan back to the individual query each row belongs to.
    pub fn matches(&self, bus: u32, mid: u32, t_us: u64) -> bool {
        self.time_range_us
            .is_none_or(|(from, to)| (from..=to).contains(&t_us))
            && self.pair_matches(bus, mid)
    }

    fn pair_matches(&self, bus: u32, mid: u32) -> bool {
        self.pairs.as_ref().is_none_or(|p| p.contains(&(bus, mid)))
    }
}

/// Counters a scan accumulates; the bench probe and the bounded-memory
/// tests read these.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Chunks in the file.
    pub chunks_total: usize,
    /// Chunks read and decoded.
    pub chunks_scanned: usize,
    /// Chunks skipped on zone maps alone.
    pub chunks_skipped: usize,
    /// Rows of the scanned chunks whose keys were decoded and tested;
    /// `rows_emitted / rows_decoded` is the scan's row selectivity.
    pub rows_decoded: u64,
    /// Rows that matched the predicate and were emitted.
    pub rows_emitted: u64,
    /// High-water mark of rows held in memory at once — the out-of-core
    /// guarantee is `peak_rows_buffered ≤ group_rows`.
    pub peak_rows_buffered: usize,
}

impl ScanStats {
    /// Fraction of chunks skipped, in `[0, 1]`.
    pub fn skip_ratio(&self) -> f64 {
        if self.chunks_total == 0 {
            return 0.0;
        }
        self.chunks_skipped as f64 / self.chunks_total as f64
    }
}

/// Reader over a store file (or any `Read + Seek`, e.g. an in-memory
/// cursor in tests).
#[derive(Debug)]
pub struct StoreReader<R: Read + Seek> {
    inner: R,
    footer: Footer,
}

impl StoreReader<BufReader<File>> {
    /// Opens a store file from disk.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] on filesystem failure and the typed
    /// corruption errors of [`StoreReader::from_reader`].
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        StoreReader::from_reader(BufReader::new(File::open(path)?))
    }
}

impl<R: Read + Seek> StoreReader<R> {
    /// Validates magics, trailer and footer checksum, and decodes the
    /// footer index.
    ///
    /// # Errors
    ///
    /// - [`Error::BadMagic`] — not a store file.
    /// - [`Error::Truncated`] — shorter than header + trailer, or the
    ///   trailer/footer point outside the file.
    /// - [`Error::FooterChecksum`] — damaged index.
    /// - [`Error::Format`] — malformed footer bytes, or a chunk index whose
    ///   entries overlap or leave file order (a chunk reaching past the
    ///   footer is [`Error::Truncated`]).
    pub fn from_reader(mut inner: R) -> Result<Self> {
        let mut magic = [0u8; MAGIC.len()];
        inner.seek(SeekFrom::Start(0))?;
        read_exact_or_truncated(&mut inner, &mut magic, "file header")?;
        if &magic != MAGIC {
            return Err(Error::BadMagic);
        }
        let (footer, _) = read_seal(&mut inner)?;
        Ok(StoreReader { inner, footer })
    }

    /// Binds an already-validated footer to `inner` without requiring a
    /// trailer — how [`open_recovered`](crate::append::open_recovered)
    /// reads a torn append-mode file whose index was rebuilt by walking
    /// checksummed group frames.
    pub fn with_footer(inner: R, footer: Footer) -> Self {
        StoreReader { inner, footer }
    }

    /// The decoded footer (dictionary, row counts, chunk index).
    pub fn footer(&self) -> &Footer {
        &self.footer
    }

    /// Store generation (row-group flushes ever performed). Result caches
    /// key on this: any append advances it.
    pub fn generation(&self) -> u64 {
        self.footer.generation
    }

    /// Scans the file under `pred`, calling `on_group` once per row group
    /// with that group's matching rows restored to original trace order —
    /// a row view over [`StoreReader::scan_columns`].
    ///
    /// # Errors
    ///
    /// Propagates I/O and corruption errors ([`Error::ChunkChecksum`] for
    /// damaged chunks) and whatever error the callback returns.
    pub fn scan<E, F>(
        &mut self,
        pred: &Predicate,
        mut on_group: F,
    ) -> std::result::Result<ScanStats, E>
    where
        E: From<Error>,
        F: FnMut(Vec<Record>) -> std::result::Result<(), E>,
    {
        let compiled = CompiledPredicate::compile(pred, &self.footer);
        self.scan_columns(std::slice::from_ref(&compiled), |group| {
            on_group(group.records())
        })
    }

    /// [`StoreReader::scan_columns`] with each group materialized as
    /// indexed records (dictionary ids kept, so callers can re-route rows
    /// per predicate with [`CompiledPredicate::matches`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`StoreReader::scan`].
    pub fn scan_indexed<E, F>(
        &mut self,
        preds: &[CompiledPredicate],
        mut on_group: F,
    ) -> std::result::Result<ScanStats, E>
    where
        E: From<Error>,
        F: FnMut(Vec<IndexedRecord>) -> std::result::Result<(), E>,
    {
        self.scan_columns(preds, |group| on_group(group.indexed_records()))
    }

    /// The scan: reads the file once under the **union** of `preds`,
    /// calling `on_group` once per row group with the rows that match *at
    /// least one* predicate, as columns in original trace order. A chunk
    /// is decoded when any predicate's zone-map test admits it, so N
    /// queries pay one pass. A group's admitted chunk bodies are read into
    /// one buffer and their checksums verified four at a time; chunks then
    /// decode in file order, so the first damaged one names the error.
    /// Within a chunk, each row's keys are tested
    /// before its payload is copied; the `(bus, m_id)` test runs once per
    /// run of equal keys (clustered groups hold long runs), the time test
    /// per row. Groups without survivors are not emitted. `rows_emitted`
    /// counts union rows.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StoreReader::scan`].
    pub fn scan_columns<E, F>(
        &mut self,
        preds: &[CompiledPredicate],
        mut on_group: F,
    ) -> std::result::Result<ScanStats, E>
    where
        E: From<Error>,
        F: FnMut(&GroupColumns) -> std::result::Result<(), E>,
    {
        let mut stats = ScanStats {
            chunks_total: self.footer.chunks.len(),
            ..ScanStats::default()
        };
        // Observability counters are accumulated locally and flushed once
        // per scan, so the per-chunk loop never touches the registry.
        let mut bytes_read: u64 = 0;
        let chunks = &self.footer.chunks;
        let bus_count = self.footer.buses.len();
        // The surviving chunks of the group under assembly: their indices,
        // and their bodies read back to back into `buf`.
        let mut live: Vec<usize> = Vec::new();
        let mut buf: Vec<u8> = Vec::new();
        let mut spans: Vec<(usize, usize)> = Vec::new();
        // Surviving rows of the group under assembly.
        let mut group = GroupColumns::default();
        group.buses = self.footer.buses.clone();
        let mut runs = RunWindows::default();
        let mut buffers = ChunkBuffers::default();
        let mut start = 0;
        while start < chunks.len() {
            let id = chunks[start].group;
            let end = start + chunks[start..].iter().take_while(|m| m.group == id).count();
            live.clear();
            live.extend(
                (start..end).filter(|&i| preds.iter().any(|p| p.chunk_may_match(&chunks[i]))),
            );
            stats.chunks_skipped += end - start - live.len();
            // Trace-order slots the group may take: its rows as the footer
            // declares them, each chunk's capped by its bytes (a row takes
            // at least one), so a forged count cannot size an allocation.
            let slots = (chunks[start..end].iter())
                .map(|m| m.rows.min(m.len) as usize)
                .sum();
            start = end;
            buf.clear();
            spans.clear();
            // A read failure surfaces after the chunks read before it, so
            // the first damaged chunk in file order names the error.
            let mut failure = None;
            for &idx in &live {
                let meta = &chunks[idx];
                stats.chunks_scanned += 1;
                bytes_read += u64::from(meta.len);
                match read_body(&mut self.inner, meta, &mut buf) {
                    Ok(span) => spans.push(span),
                    Err(e) => {
                        failure = Some(e);
                        break;
                    }
                }
            }
            let bodies: Vec<&[u8]> = spans.iter().map(|&(from, to)| &buf[from..to]).collect();
            for ((&idx, body), sum) in live.iter().zip(&bodies).zip(checksums(&bodies)) {
                let chunk = if sum == chunks[idx].checksum {
                    buffers.decode(body, bus_count)
                } else {
                    ivnt_obs::with(|r| r.add("store_scan_checksum_failures_total", 1));
                    Err(Error::ChunkChecksum { chunk: idx })
                };
                let chunk = match chunk {
                    Ok(chunk) => chunk,
                    Err(e) => {
                        flush_scan_obs(&stats, bytes_read);
                        return Err(E::from(e));
                    }
                };
                stats.rows_decoded += chunk.len() as u64;
                stats.peak_rows_buffered = stats.peak_rows_buffered.max(group.len() + chunk.len());
                runs.push_survivors(preds, &chunk, &mut group);
            }
            if let Some(e) = failure {
                flush_scan_obs(&stats, bytes_read);
                return Err(E::from(e));
            }
            emit_group(&mut group, slots, &mut stats, &mut on_group)?;
        }
        flush_scan_obs(&stats, bytes_read);
        Ok(stats)
    }

    /// Reads every record of the file in original trace order.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StoreReader::scan`].
    pub fn read_all(&mut self) -> Result<Vec<Record>> {
        let mut out = Vec::new();
        self.scan::<Error, _>(&Predicate::all(), |mut group| {
            out.append(&mut group);
            Ok(())
        })?;
        Ok(out)
    }
}

/// The windows of the predicates selecting the current `(bus, m_id)` run
/// of rows, decided once per run; a windowless predicate admits all time.
#[derive(Default)]
struct RunWindows {
    key: Option<(u32, u32)>,
    windows: Vec<(u64, u64)>,
}

impl RunWindows {
    /// Copies the rows of `chunk` some predicate admits into `group`, a
    /// run of consecutive survivors at a time.
    fn push_survivors(
        &mut self,
        preds: &[CompiledPredicate],
        chunk: &ChunkColumns<'_>,
        group: &mut GroupColumns,
    ) {
        let mut survivors: Option<usize> = None;
        for i in 0..chunk.len() {
            let key = (chunk.bus[i], chunk.mid[i]);
            if self.key != Some(key) {
                self.key = Some(key);
                self.windows.clear();
                self.windows.extend(
                    (preds.iter())
                        .filter(|p| p.pair_matches(key.0, key.1))
                        .map(|p| p.time_range_us.unwrap_or((0, u64::MAX))),
                );
            }
            let t = chunk.t_us[i];
            let keep = (self.windows.iter()).any(|&(from, to)| (from..=to).contains(&t));
            match (keep, survivors) {
                (true, None) => survivors = Some(i),
                (false, Some(from)) => {
                    group.push_decoded(chunk, from..i);
                    survivors = None;
                }
                _ => {}
            }
        }
        if let Some(from) = survivors {
            group.push_decoded(chunk, from..chunk.len());
        }
    }
}

/// Appends the body of the chunk `meta` describes to `buf` and returns
/// its `[start, end)` there. The footer's extents were checked at open, so
/// `meta.len` is bounded by the file.
fn read_body<R: Read + Seek>(
    inner: &mut R,
    meta: &ChunkMeta,
    buf: &mut Vec<u8>,
) -> Result<(usize, usize)> {
    inner.seek(SeekFrom::Start(meta.offset))?;
    let from = buf.len();
    buf.resize(from + meta.len as usize, 0);
    read_exact_or_truncated(inner, &mut buf[from..], "chunk body")?;
    Ok((from, buf.len()))
}

/// Flushes one scan's accumulated counters to the installed subscriber
/// (if any): one registry interaction per scan, not per chunk.
fn flush_scan_obs(stats: &ScanStats, bytes_read: u64) {
    ivnt_obs::with(|r| {
        r.add("store_scans_total", 1);
        r.add(
            "store_scan_chunks_total{result=\"scanned\"}",
            stats.chunks_scanned as u64,
        );
        r.add(
            "store_scan_chunks_total{result=\"skipped\"}",
            stats.chunks_skipped as u64,
        );
        r.add("store_scan_bytes_total", bytes_read);
        r.add("store_scan_rows_decoded_total", stats.rows_decoded);
        r.add("store_scan_rows_emitted_total", stats.rows_emitted);
        r.gauge_max(
            "store_scan_peak_rows_buffered",
            stats.peak_rows_buffered as f64,
        );
    });
}

/// Restores one group's rows to trace order, hands them to the callback
/// and empties the group for the next one; `slots` bounds the trace
/// positions its order restoration may place by offset. Groups without
/// survivors are not emitted.
fn emit_group<E, F>(
    group: &mut GroupColumns,
    slots: usize,
    stats: &mut ScanStats,
    on_group: &mut F,
) -> std::result::Result<(), E>
where
    F: FnMut(&GroupColumns) -> std::result::Result<(), E>,
{
    if group.is_empty() {
        return Ok(());
    }
    group.restore_order(slots);
    stats.rows_emitted += group.len() as u64;
    let result = on_group(group);
    group.clear();
    result
}

/// The store's one seal check: validates the trailer and footer of the
/// file behind `inner` (its header magic already checked) and returns the
/// decoded footer with the offset it starts at.
///
/// # Errors
///
/// [`Error::Truncated`], [`Error::FooterChecksum`] and [`Error::Format`]
/// as listed on [`StoreReader::from_reader`]; [`Error::Io`] on read
/// failure.
pub(crate) fn read_seal<R: Read + Seek>(inner: &mut R) -> Result<(Footer, u64)> {
    let file_len = inner.seek(SeekFrom::End(0))?;
    if file_len < (MAGIC.len() + TRAILER_LEN) as u64 {
        return Err(Error::Truncated("no room for a trailer".into()));
    }
    inner.seek(SeekFrom::End(-(TRAILER_LEN as i64)))?;
    let mut trailer = [0u8; TRAILER_LEN];
    read_exact_or_truncated(inner, &mut trailer, "trailer")?;
    if &trailer[24..32] != END_MAGIC {
        return Err(Error::Truncated("trailer magic missing".into()));
    }
    let footer_offset = u64::from_le_bytes(trailer[0..8].try_into().expect("8 bytes"));
    let footer_len = u64::from_le_bytes(trailer[8..16].try_into().expect("8 bytes"));
    let footer_checksum = u64::from_le_bytes(trailer[16..24].try_into().expect("8 bytes"));
    let trailer_start = file_len - TRAILER_LEN as u64;
    if footer_offset
        .checked_add(footer_len)
        .is_none_or(|end| end != trailer_start)
        || footer_offset < MAGIC.len() as u64
    {
        return Err(Error::Truncated("trailer points outside the file".into()));
    }
    let footer_len =
        usize::try_from(footer_len).map_err(|_| Error::Format("footer length overflow".into()))?;
    inner.seek(SeekFrom::Start(footer_offset))?;
    let mut footer_bytes = vec![0u8; footer_len];
    read_exact_or_truncated(inner, &mut footer_bytes, "footer")?;
    if checksum(&footer_bytes) != footer_checksum {
        return Err(Error::FooterChecksum);
    }
    let footer = decode_footer(&footer_bytes)?;
    footer.check_extents(footer_offset)?;
    Ok((footer, footer_offset))
}

fn read_exact_or_truncated<R: Read>(r: &mut R, buf: &mut [u8], what: &str) -> Result<()> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            Error::Truncated(what.into())
        } else {
            Error::Io(e)
        }
    })
}
