//! The ingest driver: source → bounded hand-off → appendable store.
//!
//! A producer thread fills column batches ([`GroupColumns`]) from a
//! [`FrameSource`] and hands each one over whole through a bounded
//! channel; the caller's thread appends each batch to an
//! [`StoreWriter`], which flushes micro-batched row groups. The bound is
//! in rows: the channel holds as many batches as `queue_capacity` rows
//! allow. When the writer falls behind, the producer blocks on its next
//! hand-off (counted as `stream_backpressure_total`) instead of growing
//! an unbounded queue.
//!
//! ## Shutdown protocol
//!
//! Setting the shared stop flag makes the producer stop pulling at its
//! next fill (sources surface [`SourceEvent::Idle`] on their own
//! timeouts, so a stalled peer cannot wedge shutdown). The consumer then
//! drains whatever is still queued, flushes the partial group and seals
//! the store (unless sealing was disabled) — a graceful drain, not an
//! abort. Crash tolerance for *ungraceful* death is the appendable
//! store's job: everything up to the last flushed group is recoverable.

use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ivnt_store::{GroupColumns, StoreWriter};

use crate::error::{Error, Result};
use crate::source::{FrameSource, SourceEvent};

/// Rows one hand-off carries at most (fewer when `queue_capacity` is
/// smaller): large enough that the hand-off costs nothing per row, small
/// enough that the writer starts on a batch while the next is parsed.
const BATCH_ROWS: usize = 256;

/// Knobs of the ingest driver.
#[derive(Debug, Clone)]
pub struct IngestOptions {
    /// Bound on the rows queued between source and writer. Frames move in
    /// batches of up to 256 rows (this many when it is smaller), and the
    /// queue holds as many batches as fit in the bound; a hand-off to a
    /// full queue waits.
    pub queue_capacity: usize,
    /// How long the consumer waits for a batch before re-checking the
    /// stop flag (and flushing an idle partial group).
    pub poll_timeout: Duration,
    /// Stop after this many frames (`None` = until the source ends); the
    /// batch that reaches it is cut there.
    pub max_frames: Option<u64>,
    /// Seal the store on completion. Leave `false` to keep the file
    /// appendable for a later session (it stays recoverable either way).
    pub seal: bool,
    /// Flush a partial group when the source goes idle, so followers see
    /// fresh data even on a quiet bus.
    pub flush_on_idle: bool,
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions {
            queue_capacity: 1024,
            poll_timeout: Duration::from_millis(100),
            max_frames: None,
            seal: true,
            flush_on_idle: true,
        }
    }
}

/// What one ingest run did.
#[derive(Debug, Clone, Default)]
pub struct IngestStats {
    /// Frames written.
    pub frames: u64,
    /// Row groups flushed.
    pub groups: u32,
    /// Bytes written to the store.
    pub bytes: u64,
    /// Wall-clock seconds of each group flush.
    pub flush_seconds: Vec<f64>,
    /// Hand-offs that blocked on a full queue.
    pub backpressure_waits: u64,
    /// High-water mark of the rows queued between source and writer (it
    /// may read one batch high: a hand-off counts its rows just after the
    /// queue accepted them).
    pub peak_queue_depth: usize,
    /// Frames handed over but not written when the run stopped: still
    /// queued, or past `max_frames` in the batch that reached it.
    pub dropped_frames: u64,
    /// Whether the store was sealed.
    pub sealed: bool,
}

/// Shared handle for asking a running ingest to stop.
#[derive(Debug, Clone, Default)]
pub struct StopFlag(Arc<AtomicBool>);

impl StopFlag {
    /// Creates an unset flag.
    pub fn new() -> StopFlag {
        StopFlag::default()
    }

    /// Requests a graceful drain-and-stop.
    pub fn stop(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether a stop was requested.
    pub fn is_set(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Producer-side state shared with the consumer loop.
struct Shared {
    /// Rows queued. Signed: the producer's increment and the consumer's
    /// decrement race, so the instantaneous value may briefly dip below
    /// zero.
    depth: AtomicIsize,
    peak_depth: AtomicIsize,
    backpressure: AtomicUsize,
    error: Mutex<Option<Error>>,
}

/// Runs the ingest loop: `source` drained batch by batch into `writer`
/// until the source ends, `options.max_frames` is reached or `stop` is
/// set. Returns the writer (sealed or still appendable) with the run's
/// statistics. The file is byte-identical to appending the same frames
/// one [`StoreWriter::append`] at a time.
///
/// # Errors
///
/// Source and store failures; frames written before the failure stay
/// recoverable in the store, including those a failing source accepted
/// before its error.
pub fn ingest<W, S>(
    mut source: S,
    mut writer: StoreWriter<W>,
    options: &IngestOptions,
    stop: &StopFlag,
) -> Result<(Option<W>, IngestStats)>
where
    W: std::io::Write,
    S: FrameSource + 'static,
{
    let capacity = options.queue_capacity.max(1);
    let batch_rows = BATCH_ROWS.min(capacity);
    // At most `capacity` rows queued: that many batches of up to
    // `batch_rows` rows fit.
    let (tx, rx): (SyncSender<GroupColumns>, Receiver<GroupColumns>) =
        std::sync::mpsc::sync_channel(capacity / batch_rows);
    let shared = Arc::new(Shared {
        depth: AtomicIsize::new(0),
        peak_depth: AtomicIsize::new(0),
        backpressure: AtomicUsize::new(0),
        error: Mutex::new(None),
    });

    let producer_shared = shared.clone();
    let producer_stop = stop.clone();
    let producer = std::thread::spawn(move || {
        while !producer_stop.is_set() {
            let mut batch = GroupColumns::default();
            let event = source.fill(&mut batch, batch_rows);
            // Rows appended before an error or the end are handed over too.
            let rows = batch.len() as isize;
            if rows > 0 {
                // Try the fast path; a full channel is backpressure.
                let batch = match tx.try_send(batch) {
                    Ok(()) => None,
                    Err(TrySendError::Full(batch)) => {
                        producer_shared.backpressure.fetch_add(1, Ordering::Relaxed);
                        ivnt_obs::with(|r| r.add("stream_backpressure_total", 1));
                        Some(batch)
                    }
                    Err(TrySendError::Disconnected(_)) => break,
                };
                if batch.is_some_and(|batch| tx.send(batch).is_err()) {
                    break;
                }
                let depth = producer_shared.depth.fetch_add(rows, Ordering::Relaxed) + rows;
                producer_shared
                    .peak_depth
                    .fetch_max(depth, Ordering::Relaxed);
                note_depth(depth);
            }
            match event {
                Ok(SourceEvent::Frames | SourceEvent::Idle) => {}
                Ok(SourceEvent::End) => break,
                Err(e) => {
                    *producer_shared.error.lock().expect("error slot") = Some(e);
                    break;
                }
            }
        }
        // Dropping `tx` disconnects the channel: the consumer drains what
        // remains and finishes.
    });

    let mut stats = IngestStats::default();
    let result = drain(&rx, &mut writer, options, stop, &shared, &mut stats);
    stop.stop();
    // Dropping the receiver unblocks a producer parked on a full channel;
    // batches it already queued are counted as dropped below.
    drop(rx);
    let _ = producer.join();

    stats.backpressure_waits = shared.backpressure.load(Ordering::Relaxed) as u64;
    stats.peak_queue_depth = shared.peak_depth.load(Ordering::Relaxed).max(0) as usize;
    stats.dropped_frames += shared.depth.load(Ordering::Relaxed).max(0) as u64;
    if stats.dropped_frames > 0 {
        ivnt_obs::with(|r| r.add("stream_frames_dropped_total", stats.dropped_frames));
    }
    result?;

    // Flush the partial tail group first so the stats count every data
    // byte; seal() then only adds the footer and trailer. After a source
    // error the rows it handed over before failing are flushed too, and
    // the store is left unsealed.
    if let Some(flush) = writer.flush()? {
        note_flush(&mut stats, flush.seconds);
    }
    stats.groups = writer.groups();
    stats.bytes = writer.bytes_written();
    if let Some(e) = shared.error.lock().expect("error slot").take() {
        return Err(e);
    }
    let out = if options.seal {
        let out = writer.seal()?;
        stats.sealed = true;
        Some(out)
    } else {
        None
    };
    Ok((out, stats))
}

/// The consumer loop: append batches to the writer until the channel
/// disconnects (source done), `max_frames` is reached or the stop flag
/// asks for a drain.
fn drain<W: std::io::Write>(
    rx: &Receiver<GroupColumns>,
    writer: &mut StoreWriter<W>,
    options: &IngestOptions,
    stop: &StopFlag,
    shared: &Shared,
    stats: &mut IngestStats,
) -> Result<()> {
    loop {
        match rx.recv_timeout(options.poll_timeout) {
            Ok(batch) => {
                if write_batch(batch, writer, options, shared, stats)? {
                    stop.stop();
                    return Ok(());
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if stop.is_set() {
                    // Producer saw the flag too; one last non-blocking
                    // sweep picks up anything in flight.
                    while let Ok(batch) = rx.try_recv() {
                        if write_batch(batch, writer, options, shared, stats)? {
                            break;
                        }
                    }
                    return Ok(());
                }
                if options.flush_on_idle && writer.buffered_rows() > 0 {
                    if let Some(flush) = writer.flush()? {
                        note_flush(stats, flush.seconds);
                    }
                }
            }
            Err(RecvTimeoutError::Disconnected) => return Ok(()),
        }
    }
}

/// Appends one taken batch, cut at `max_frames`; `true` once
/// `max_frames` is reached.
fn write_batch<W: std::io::Write>(
    mut batch: GroupColumns,
    writer: &mut StoreWriter<W>,
    options: &IngestOptions,
    shared: &Shared,
    stats: &mut IngestStats,
) -> Result<bool> {
    let rows = batch.len() as isize;
    note_depth(shared.depth.fetch_sub(rows, Ordering::Relaxed) - rows);
    if let Some(max) = options.max_frames {
        let room = usize::try_from(max.saturating_sub(stats.frames)).unwrap_or(usize::MAX);
        if batch.len() > room {
            stats.dropped_frames += (batch.len() - room) as u64;
            batch.truncate(room);
        }
    }
    writer.append_batch(&batch, |flush| note_flush(stats, flush.seconds))?;
    stats.frames += batch.len() as u64;
    Ok(options.max_frames.is_some_and(|max| stats.frames >= max))
}

fn note_depth(rows: isize) {
    ivnt_obs::with(|r| r.set_gauge("stream_queue_depth", rows.max(0) as f64));
}

fn note_flush(stats: &mut IngestStats, seconds: f64) {
    stats.flush_seconds.push(seconds);
    ivnt_obs::with(|r| {
        r.add("stream_groups_flushed_total", 1);
        r.observe("stream_flush_seconds", ivnt_obs::SECONDS_BUCKETS, seconds);
    });
}
