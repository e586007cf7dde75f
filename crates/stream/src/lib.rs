//! Live-session ingest and the incremental bounded-memory pipeline.
//!
//! The batch pipeline (`ivnt-core`) assumes a finished trace; this crate
//! covers the *live* half of the paper's fleet setting — a vehicle still
//! uploading — with three layers:
//!
//! * [`source`] — where frames come from: a simulator replay, a textual
//!   frame-line stream on stdin, or a TCP socket ([`FrameSource`]), each
//!   filling column batches (`ivnt_store::GroupColumns`).
//! * ingest ([`ingest()`]) — a driver handing those batches to the
//!   appendable `.ivns` store (`ivnt_store::StoreWriter`), with a
//!   row-bounded queue, backpressure, graceful drain and crash-recoverable
//!   micro-batched row groups.
//! * [`session`] — [`StreamingSession`], the incremental variant of the
//!   batch `extract_reduced` path: a watermark reorder buffer per signal
//!   whose releases go through `ivnt-core`'s incremental dedup and reduce
//!   operators (`Deduplicator`, `Reducer` — the ones batch runs push a
//!   whole sequence through) and late-row accounting — emitting
//!   per-micro-batch state deltas under a memory bound, bit-identical to
//!   the batch output for closed in-tolerance streams.
//!
//! Everything reports through `ivnt-obs` (`stream_*` counters, queue
//! depth, watermark lag, flush latency), merging with pipeline metrics in
//! the same registry.

#![warn(missing_docs)]

pub mod error;
pub mod ingest;
pub mod session;
pub mod source;

pub use error::{Error, Result};
pub use ingest::{ingest, IngestOptions, IngestStats, StopFlag};
pub use session::{
    flatten_reduced, summarize_batch, DeltaRow, SignalDelta, SignalSummary, StreamClose,
    StreamOptions, StreamingSession,
};
pub use source::{
    format_line, parse_line, FrameSource, LineSource, SimulatorSource, SourceEvent, TcpLineSource,
    MAX_LINE_LEN,
};
