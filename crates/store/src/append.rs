//! Framed-store readers: crash recovery and live following.
//!
//! Every store is written as checksummed group frames (see
//! [`writer`](crate::writer)), so every store — recorded by a batch job or
//! appended by a live session — is self-describing as it grows. This
//! module reads that framing:
//!
//! * [`recover`] takes a file's seal when it has a valid one (the store's
//!   one seal check, shared with [`StoreReader`]), and only otherwise
//!   walks the group frames, validating header and chunk checksums,
//!   cutting off the torn tail group and rebuilding the footer index — at
//!   most the unflushed tail is lost. A sealed file is never walked.
//! * [`seal_recovered`] turns a recovered file back into a standard sealed
//!   store in place; a sealed file is left byte-identical.
//! * [`StoreFollower`] tails a growing file, emitting each newly completed
//!   group's records in trace order — the reader half of a live session.
//!   A sealed store written before every store was framed holds no frames
//!   to follow; the follower refuses it with [`Error::Unframed`].

use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::Arc;

use crate::columns::GroupColumns;
use crate::error::{Error, Result};
use crate::layout::{checksum, ChunkBuffers, ChunkMeta, Footer, ZoneMap, MAGIC};
use crate::reader::{read_seal, StoreReader};
use crate::record::Record;
use crate::varint;
use crate::writer::{write_seal, GROUP_MAGIC};

/// Upper bound on one frame header (sanity cap while walking; a header
/// indexes at most one group's chunks and bus names).
const MAX_HEADER_LEN: u32 = 16 << 20;

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

/// Recovers the index of `inner`: the footer of a valid seal, else the
/// index rebuilt from its checksummed group frames with any torn tail
/// (logically) cut off.
///
/// # Errors
///
/// Returns [`Error::BadMagic`] when the file is not an `.ivns` store, and
/// [`Error::Io`] on read failure. A torn or corrupt tail is *not* an
/// error — it is cut off and reported via [`Recovered::torn_bytes`].
pub fn recover_reader<R: Read + Seek>(inner: &mut R) -> Result<Recovered> {
    let file_len = check_magic(inner)?;
    match read_seal(inner) {
        Ok((footer, _)) => {
            return Ok(Recovered {
                footer,
                sealed: true,
                valid_len: file_len,
                file_len,
            })
        }
        Err(Error::Io(e)) => return Err(Error::Io(e)),
        Err(_) => {}
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

/// Checks the store header of `inner` and returns the file length.
fn check_magic<R: Read + Seek>(inner: &mut R) -> Result<u64> {
    let file_len = inner.seek(SeekFrom::End(0))?;
    if file_len < MAGIC.len() as u64 {
        return Err(Error::BadMagic);
    }
    inner.seek(SeekFrom::Start(0))?;
    let mut magic = [0u8; 8];
    inner.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(Error::BadMagic);
    }
    Ok(file_len)
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
/// unchanged. A file with a valid seal is left byte-identical.
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

/// Tails a growing store, emitting each completed group once.
///
/// Safe to run concurrently with a [`StoreWriter`](crate::StoreWriter) on
/// the same file:
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
        check_magic(&mut inner)?;
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
    /// Returns [`Error::Io`] on read failure,
    /// [`Error::Format`] / [`Error::ChunkChecksum`]-shaped corruption as
    /// [`Error::Format`] when a *complete* frame fails validation (a
    /// writer never rewrites flushed bytes, so this is real corruption,
    /// not a race), and [`Error::Unframed`] when a valid seal follows bytes
    /// that are no group frame — a store written before every store was
    /// framed.
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
                    match read_seal(&mut self.inner) {
                        // The seal follows the last frame directly.
                        Ok((_, footer_at)) if footer_at == self.pos => {
                            self.sealed = true;
                            out.sealed = true;
                        }
                        Ok(_) => return Err(Error::Unframed),
                        Err(Error::Io(e)) => return Err(Error::Io(e)),
                        // No valid seal yet: a frame still being written.
                        Err(_) => {}
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
        let mut buffers = ChunkBuffers::default();
        for meta in metas {
            let bytes = &self.chunks[at..at + meta.len as usize];
            at += bytes.len();
            match buffers.decode(bytes, self.rows.buses.len()) {
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
