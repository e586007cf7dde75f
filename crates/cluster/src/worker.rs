//! The worker: executes shard tasks against its local store copy.
//!
//! A worker is a TCP server that speaks one coordinator session at a
//! time: handshake, job preamble, then an assign/result loop with a
//! background heartbeat ticker. It rebuilds the pipeline from the
//! [`JobSpec`](crate::job::JobSpec) and opens the `.ivns` store locally —
//! shard results travel over the socket, raw trace rows never do.
//!
//! The worker **streams**, in two stages: the session thread extracts
//! one row group of the assigned shard after another and hands each to
//! an encode+send stage over a bounded channel; that stage compresses
//! the group ([`crate::codec::encode_batch_compressed`]) and ships it as
//! a [`Message::PartialResult`] while the next group is being extracted.
//! Extraction is the only thing on the task's critical path, and at
//! most [`HANDOFF_DEPTH`]` + 1` extracted groups wait behind it. Between
//! groups the worker polls for a [`Message::Truncate`] — the
//! coordinator's straggler protocol — and answers with the group it
//! will actually stop at (never one it has already handed over).
//!
//! Fault injection lives here too, env-gated via [`FAULT_ENV`]: the
//! coordinator's retry, checksum-reject, liveness-timeout and straggler
//! paths are only trustworthy because a worker can be told to die
//! mid-task, corrupt a result frame, go silent, or crawl on demand.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ivnt_core::pipeline::RunOptions;
use ivnt_frame::batch::Batch;

use crate::codec::encode_batch_compressed_with_raw_len;
use crate::error::{Error, Result};
use crate::plan::ShardTask;
use crate::wire::{self, Message, IDLE_TASK, MIN_WIRE_VERSION, WIRE_VERSION};

/// Extracted groups the channel to the encode+send stage may hold. With
/// the one the stage is working on, at most two groups are handed over
/// but not yet shipped — the worker's memory bound beside the group
/// being extracted.
const HANDOFF_DEPTH: usize = 1;

/// Environment variable carrying a comma-separated fault list
/// (`kill-mid-task`, `corrupt-result`, `stall-heartbeat`, `slow-task`).
/// The coordinator-side `coordinator_restart` token may appear in the
/// same variable; workers accept and ignore it.
pub const FAULT_ENV: &str = "IVNT_CLUSTER_FAULT";

/// Line a worker prints to stdout once bound, so a spawning parent can
/// learn the (possibly ephemeral) address: `cluster worker listening on
/// 127.0.0.1:PORT`.
pub const LISTEN_PREFIX: &str = "cluster worker listening on ";

/// Test-only failure modes a worker can be armed with.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerFaults {
    /// Drop the connection without a word upon the first task
    /// assignment — the "node died mid-task" case.
    pub kill_mid_task: bool,
    /// Flip a byte inside the first result frame's payload, so the
    /// coordinator's checksum verification must reject it.
    pub corrupt_result: bool,
    /// Stop heartbeating and sit on the first assigned task until well
    /// past any sane liveness timeout — the "wedged process" case.
    pub stall_heartbeat: bool,
    /// Crawl: sleep a few heartbeats before every row group while still
    /// heartbeating — the straggler the truncate/split path exists for.
    pub slow_task: bool,
}

impl WorkerFaults {
    /// No faults — the production configuration.
    pub fn none() -> WorkerFaults {
        WorkerFaults::default()
    }

    /// Parses a comma-separated fault list.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Job`] for unknown fault names.
    pub fn parse(s: &str) -> Result<WorkerFaults> {
        let mut f = WorkerFaults::none();
        for name in s.split(',').map(str::trim).filter(|n| !n.is_empty()) {
            match name {
                "kill-mid-task" => f.kill_mid_task = true,
                "corrupt-result" => f.corrupt_result = true,
                "stall-heartbeat" => f.stall_heartbeat = true,
                "slow-task" => f.slow_task = true,
                // Coordinator-side fault sharing the variable; not ours.
                "coordinator_restart" => {}
                other => {
                    return Err(Error::Job(format!(
                        "unknown fault {other:?} (use kill-mid-task|corrupt-result|\
                         stall-heartbeat|slow-task|coordinator_restart)"
                    )))
                }
            }
        }
        Ok(f)
    }

    /// Reads the fault list from [`FAULT_ENV`]; unset means no faults.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Job`] for unknown fault names in the variable.
    pub fn from_env() -> Result<WorkerFaults> {
        match std::env::var(FAULT_ENV) {
            Ok(v) => WorkerFaults::parse(&v),
            Err(_) => Ok(WorkerFaults::none()),
        }
    }

    /// Whether any fault that must delay the fault window is armed.
    fn delayed(&self) -> bool {
        self.kill_mid_task || self.corrupt_result || self.stall_heartbeat
    }
}

/// A bound worker server, ready to accept coordinator sessions.
pub struct WorkerServer {
    listener: TcpListener,
    name: String,
    faults: WorkerFaults,
}

impl WorkerServer {
    /// Binds to `addr` (e.g. `127.0.0.1:0` for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the address cannot be bound.
    pub fn bind(addr: &str) -> Result<WorkerServer> {
        let listener = TcpListener::bind(addr)?;
        let name = format!("worker@{}", listener.local_addr()?);
        Ok(WorkerServer {
            listener,
            name,
            faults: WorkerFaults::none(),
        })
    }

    /// The bound address (resolves ephemeral ports).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the socket is gone.
    pub fn local_addr(&self) -> Result<SocketAddr> {
        Ok(self.listener.local_addr()?)
    }

    /// Arms the server with fault injection.
    pub fn with_faults(mut self, faults: WorkerFaults) -> WorkerServer {
        self.faults = faults;
        self
    }

    /// Accepts and serves exactly one coordinator session.
    ///
    /// # Errors
    ///
    /// Propagates session failures, including deliberately injected
    /// ones ([`Error::Job`] with a `fault injection:` message).
    pub fn serve_once(&self) -> Result<()> {
        let (stream, _) = self.listener.accept()?;
        serve_session(stream, &self.name, self.faults)
    }

    /// Serves coordinator sessions forever, like a daemon: a failed
    /// session is reported on stderr and the worker accepts the next
    /// one. Only accept-level I/O errors end the loop.
    ///
    /// # Errors
    ///
    /// Returns accept-level I/O failures.
    pub fn serve(&self) -> Result<()> {
        loop {
            let (stream, _) = self.listener.accept()?;
            if let Err(e) = serve_session(stream, &self.name, self.faults) {
                eprintln!("{}: session failed: {e}", self.name);
            }
        }
    }
}

/// Runs one full coordinator session over an accepted connection.
fn serve_session(mut stream: TcpStream, name: &str, faults: WorkerFaults) -> Result<()> {
    stream.set_nodelay(true).ok();
    match wire::read_frame(&mut stream)? {
        Message::Hello { version, .. } if version < MIN_WIRE_VERSION => {
            return Err(Error::Protocol(format!(
                "coordinator speaks wire v{version}, this worker \
                 v{MIN_WIRE_VERSION}..=v{WIRE_VERSION}"
            )));
        }
        Message::Hello { .. } => {}
        other => return Err(Error::Protocol(format!("expected Hello, got {other:?}"))),
    }
    let writer = Arc::new(Mutex::new(stream.try_clone()?));
    send(
        &writer,
        &Message::Hello {
            version: WIRE_VERSION,
            peer: name.to_string(),
        },
    )?;

    let (job, heartbeat_ms) = match wire::read_frame(&mut stream)? {
        Message::Job { job, heartbeat_ms } => (job, heartbeat_ms),
        other => return Err(Error::Protocol(format!("expected Job, got {other:?}"))),
    };
    let pipeline = job.pipeline()?;
    let mut reader = ivnt_store::StoreReader::open(&job.store_path)?;

    // Session-scoped metrics: a fresh registry per coordinator session,
    // installed process-wide so the store scan and pipeline counters of
    // this session's shards land in it. Snapshotted on demand when the
    // coordinator sends [`Message::MetricsRequest`].
    let registry = Arc::new(ivnt_obs::Registry::new());
    let _obs_guard = ivnt_obs::install(Arc::clone(&registry));

    // Heartbeat ticker: a background thread beating every `heartbeat_ms`
    // until the session drops `stop` (the stall fault silences it). It
    // waits on the channel, not in a sleep, so the session ends at once
    // and not a beat later — the next session's accept is behind it.
    let current_task = Arc::new(AtomicU32::new(IDLE_TASK));
    let (stop, stopped) = std::sync::mpsc::channel::<()>();
    let ticker = {
        let current_task = Arc::clone(&current_task);
        let writer = Arc::clone(&writer);
        let beat = Duration::from_millis(u64::from(heartbeat_ms.max(1)));
        let silent = faults.stall_heartbeat;
        std::thread::spawn(move || {
            let mut seq = 0u64;
            while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(beat) {
                if silent {
                    continue;
                }
                let msg = Message::Heartbeat {
                    task_id: current_task.load(Ordering::SeqCst),
                    seq,
                };
                seq += 1;
                if send(&writer, &msg).is_err() {
                    break;
                }
            }
        })
    };

    // Frame pump: a reader thread feeding a channel, so the assign loop
    // can poll for a mid-task Truncate without blocking the extraction.
    // The pump forwards its terminal error (including clean EOF) as the
    // last channel item and exits.
    let (tx, rx) = std::sync::mpsc::channel::<Result<Message>>();
    let pump = {
        let mut pump_stream = stream.try_clone()?;
        std::thread::spawn(move || loop {
            match wire::read_frame(&mut pump_stream) {
                Ok(msg) => {
                    if tx.send(Ok(msg)).is_err() {
                        return;
                    }
                }
                Err(e) => {
                    tx.send(Err(e)).ok();
                    return;
                }
            }
        })
    };

    let session = Session {
        out: Outbound {
            writer: &writer,
            registry: &registry,
            corrupt_pending: AtomicBool::new(faults.corrupt_result),
        },
        rx: &rx,
        pipeline: &pipeline,
        current_task: &current_task,
        faults,
        heartbeat_ms,
    };
    let result = session.assign_loop(&mut reader);
    drop(stop);
    stream.shutdown(std::net::Shutdown::Both).ok();
    let _ = ticker.join();
    let _ = pump.join();
    result
}

/// What a mid-task channel poll asked the task loop to do.
enum TaskControl {
    /// Keep going (possibly with a shortened end).
    Continue,
    /// The session is over; stop and bubble the result up.
    Stop(Result<()>),
}

/// How a task's extract loop ended.
enum Extracted {
    /// Every group up to `end` was handed over, in `parts` slices.
    All { parts: u32, end: u32 },
    /// Extraction failed; the worker stays alive and reports it.
    Failed(String),
    /// A control frame, a vanished coordinator or a dead encode+send
    /// stage ended the session.
    Stop(Result<()>),
}

/// One extracted row group on its way to the encode+send stage.
struct Handoff {
    seq: u32,
    group: u32,
    batches: Vec<Batch>,
}

/// The session's outbound half — what both stages of a task share.
struct Outbound<'a> {
    writer: &'a Arc<Mutex<TcpStream>>,
    registry: &'a ivnt_obs::Registry,
    /// The corrupt-result fault, until the first result frame spent it.
    corrupt_pending: AtomicBool,
}

struct Session<'a> {
    out: Outbound<'a>,
    rx: &'a Receiver<Result<Message>>,
    pipeline: &'a ivnt_core::Pipeline,
    current_task: &'a Arc<AtomicU32>,
    faults: WorkerFaults,
    heartbeat_ms: u32,
}

impl Outbound<'_> {
    /// Stage two: compresses and ships handed-over groups in order
    /// until the channel closes. The first failed send ends the stage;
    /// dropping `rx` is how the extract loop learns of it.
    fn encode_and_send(&self, task_id: u32, rx: Receiver<Handoff>) -> Result<()> {
        for Handoff {
            seq,
            group,
            batches,
        } in rx
        {
            let t_encode = Instant::now();
            let mut raw_bytes = 0u64;
            let encoded = batches
                .iter()
                .map(|b| {
                    let (bytes, raw) = encode_batch_compressed_with_raw_len(b);
                    raw_bytes += raw;
                    bytes
                })
                .collect();
            drop(batches);
            self.observe("cluster_worker_encode_seconds", t_encode);
            let msg = Message::PartialResult {
                task_id,
                seq,
                group,
                raw_bytes,
                batches: encoded,
            };
            let t_send = Instant::now();
            if self.corrupt_pending.swap(false, Ordering::SeqCst) {
                send_corrupted(self.writer, &msg)?;
            } else {
                send(self.writer, &msg)?;
            }
            self.observe("cluster_worker_send_seconds", t_send);
        }
        Ok(())
    }

    fn observe(&self, name: &str, since: Instant) {
        self.registry.observe(
            name,
            ivnt_obs::SECONDS_BUCKETS,
            since.elapsed().as_secs_f64(),
        );
    }
}

type ShardReader = ivnt_store::StoreReader<std::io::BufReader<std::fs::File>>;

impl Session<'_> {
    /// The assign/result loop — the worker's steady state.
    fn assign_loop(self, reader: &mut ShardReader) -> Result<()> {
        loop {
            // A dropped channel means the pump thread is gone without a
            // terminal error — treat like a vanished coordinator.
            let Ok(incoming) = self.rx.recv() else {
                return Ok(());
            };
            let task = match incoming {
                Ok(Message::Assign { task }) => task,
                Ok(Message::Shutdown) => return Ok(()),
                Ok(Message::MetricsRequest) => match self.send_metrics() {
                    Ok(()) => continue,
                    Err(Error::Io(e)) if is_disconnect(&e) => return Ok(()),
                    Err(e) => return Err(e),
                },
                // A Truncate that raced the task's completion: the result
                // is already on the wire, nothing to stop.
                Ok(Message::Truncate { .. }) => continue,
                // A coordinator that vanishes between frames ends the
                // session without ceremony; that is not a worker failure.
                // The close can surface as a clean EOF or — when the
                // coordinator's socket still held an unread late
                // heartbeat, which makes the kernel answer with RST — as
                // a reset.
                Err(Error::Truncated(_)) => return Ok(()),
                Err(Error::Io(e)) if is_disconnect(&e) => return Ok(()),
                Ok(other) => {
                    return Err(Error::Protocol(format!("expected Assign, got {other:?}")))
                }
                Err(e) => return Err(e),
            };
            self.current_task.store(task.task_id, Ordering::SeqCst);

            if self.faults.delayed() {
                // Give the assignment time to be truly in-flight (at
                // least one heartbeat observed with the task running)
                // before the fault fires — that is the window retry must
                // survive.
                std::thread::sleep(Duration::from_millis(
                    u64::from(self.heartbeat_ms.max(1)) * 2,
                ));
            }
            if self.faults.kill_mid_task {
                return Err(Error::Job("fault injection: killed mid-task".into()));
            }
            if self.faults.stall_heartbeat {
                // Sit silent long enough that any reasonable liveness
                // timeout (a small multiple of the heartbeat) must fire.
                std::thread::sleep(Duration::from_millis(
                    u64::from(self.heartbeat_ms.max(1)) * 20,
                ));
                return Err(Error::Job("fault injection: stalled heartbeat".into()));
            }

            match self.run_task(reader, task) {
                TaskControl::Continue => {}
                TaskControl::Stop(result) => return result,
            }
            self.current_task.store(IDLE_TASK, Ordering::SeqCst);
        }
    }

    /// One shard: the extract loop on this thread, the encode+send
    /// stage beside it, and — once the stage has shipped everything
    /// handed over — the closing [`Message::TaskDone`].
    fn run_task(&self, reader: &mut ShardReader, task: ShardTask) -> TaskControl {
        let t_task = Instant::now();
        let (tx, rx) = std::sync::mpsc::sync_channel::<Handoff>(HANDOFF_DEPTH);
        let out = &self.out;
        let (extracted, shipped) = std::thread::scope(|s| {
            let stage = s.spawn(move || out.encode_and_send(task.task_id, rx));
            let extracted = self.extract_groups(reader, task, tx);
            let shipped = stage
                .join()
                .unwrap_or_else(|_| Err(Error::Job("encode stage panicked".into())));
            (extracted, shipped)
        });
        // A dead connection outranks whatever the extract loop saw.
        match self.map_send(shipped) {
            TaskControl::Continue => {}
            stop => return stop,
        }
        match extracted {
            Extracted::All { parts, end } => {
                self.out
                    .registry
                    .add("cluster_tasks_total{result=\"ok\"}", 1);
                self.out.observe("cluster_task_seconds", t_task);
                self.finish_send(&Message::TaskDone {
                    task_id: task.task_id,
                    parts,
                    group_end: end,
                })
            }
            Extracted::Failed(message) => {
                self.out
                    .registry
                    .add("cluster_tasks_total{result=\"error\"}", 1);
                self.finish_send(&Message::TaskError {
                    task_id: task.task_id,
                    message,
                })
            }
            Extracted::Stop(result) => TaskControl::Stop(result),
        }
    }

    /// Stage one: per-group extraction with a truncate poll between
    /// groups. Dropping `tx` on return is what lets the stage finish.
    fn extract_groups(
        &self,
        reader: &mut ShardReader,
        task: ShardTask,
        tx: SyncSender<Handoff>,
    ) -> Extracted {
        let mut end = task.group_end;
        let mut group = task.group_start;
        let mut seq: u32 = 0;
        while group < end {
            match self.poll_control(task.task_id, group, &mut end) {
                TaskControl::Continue => {}
                TaskControl::Stop(result) => return Extracted::Stop(result),
            }
            if self.faults.slow_task {
                std::thread::sleep(Duration::from_millis(
                    u64::from(self.heartbeat_ms.max(1)) * 3,
                ));
            }
            let t_extract = Instant::now();
            let batches = match self
                .pipeline
                .session(RunOptions::store_shard(reader, group..group + 1))
                .extract()
            {
                Ok(ex) => ex.frame.into_partitions(),
                Err(e) => return Extracted::Failed(e.to_string()),
            };
            self.out
                .observe("cluster_worker_extract_seconds", t_extract);
            let t_wait = Instant::now();
            let handoff = Handoff {
                seq,
                group,
                batches,
            };
            if tx.send(handoff).is_err() {
                // The stage only hangs up on a failed send, and reports
                // that itself; this is the fallback if it ever did not.
                return Extracted::Stop(Err(Error::Job("encode stage hung up".into())));
            }
            self.out
                .observe("cluster_worker_handoff_wait_seconds", t_wait);
            seq += 1;
            group += 1;
        }
        Extracted::All { parts: seq, end }
    }

    /// Drains control frames that arrived mid-task. A Truncate for the
    /// running task shortens `end` — never below `group + 1`, the group
    /// about to be extracted, so every partial already handed to the
    /// encode stage stays covered — and is acknowledged with the actual
    /// stopping point.
    fn poll_control(&self, task_id: u32, group: u32, end: &mut u32) -> TaskControl {
        loop {
            match self.rx.try_recv() {
                Ok(Ok(Message::Truncate {
                    task_id: t,
                    group_end,
                })) if t == task_id => {
                    let actual = group_end.clamp(group + 1, *end);
                    if actual < *end {
                        *end = actual;
                    }
                    let sent = send(
                        self.out.writer,
                        &Message::Truncated {
                            task_id,
                            group_end: *end,
                        },
                    );
                    match self.map_send(sent) {
                        TaskControl::Continue => {}
                        stop => return stop,
                    }
                }
                // A stale Truncate for some earlier task: ignore.
                Ok(Ok(Message::Truncate { .. })) => {}
                Ok(Ok(Message::Shutdown)) => return TaskControl::Stop(Ok(())),
                Ok(Ok(Message::MetricsRequest)) => {
                    let sent = self.send_metrics();
                    match self.map_send(sent) {
                        TaskControl::Continue => {}
                        stop => return stop,
                    }
                }
                Ok(Ok(other)) => {
                    return TaskControl::Stop(Err(Error::Protocol(format!(
                        "unexpected mid-task message {other:?}"
                    ))))
                }
                Ok(Err(Error::Truncated(_))) => return TaskControl::Stop(Ok(())),
                Ok(Err(Error::Io(e))) if is_disconnect(&e) => return TaskControl::Stop(Ok(())),
                Ok(Err(e)) => return TaskControl::Stop(Err(e)),
                Err(TryRecvError::Empty) => return TaskControl::Continue,
                Err(TryRecvError::Disconnected) => return TaskControl::Stop(Ok(())),
            }
        }
    }

    fn send_metrics(&self) -> Result<()> {
        send(
            self.out.writer,
            &Message::Metrics {
                snapshot: self.out.registry.snapshot(),
            },
        )
    }

    /// Folds a send result into task control: a hung-up coordinator may
    /// already have what it needs (a retried task that finished
    /// elsewhere) — that ends the session cleanly, not as a failure.
    fn map_send(&self, sent: Result<()>) -> TaskControl {
        match sent {
            Ok(()) => TaskControl::Continue,
            Err(Error::Io(e)) if is_disconnect(&e) => TaskControl::Stop(Ok(())),
            Err(e) => TaskControl::Stop(Err(e)),
        }
    }

    /// [`Session::map_send`], for a task's closing frame.
    fn finish_send(&self, msg: &Message) -> TaskControl {
        let sent = send(self.out.writer, msg);
        self.map_send(sent)
    }
}

/// Whether an I/O error means the peer hung up (as opposed to a local
/// or transport fault worth reporting).
fn is_disconnect(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::UnexpectedEof
    )
}

fn send(writer: &Arc<Mutex<TcpStream>>, msg: &Message) -> Result<()> {
    let mut w = writer.lock().expect("writer mutex");
    wire::write_frame(&mut *w, msg)
}

/// Ships `msg` with one payload byte flipped; the length prefix stays
/// honest so the coordinator reads a full frame and must fail the
/// checksum.
fn send_corrupted(writer: &Arc<Mutex<TcpStream>>, msg: &Message) -> Result<()> {
    let mut frame = wire::encode_frame(msg);
    frame[4] ^= 0xFF;
    let mut w = writer.lock().expect("writer mutex");
    std::io::Write::write_all(&mut *w, &frame)?;
    std::io::Write::flush(&mut *w)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_batch_compressed, encode_batch};
    use crate::coordinator::PartialAccum;
    use crate::job::JobSpec;
    use ivnt_simulator::scenario::{self, DataSetSpec};

    /// A Truncate that lands while the encode stage still holds
    /// handed-over groups: the stage is wedged on the writer lock, so
    /// group 0 is in the stage, group 1 in the channel and the extract
    /// loop blocked handing over group 2 when the coordinator asks to
    /// stop after group 0. The worker may only stop past what it handed
    /// over, must say so, and the stream must stay gap-free and
    /// bit-identical to a single-process extraction of the same groups.
    #[test]
    fn truncate_while_groups_are_queued_stays_gap_free() {
        let path = std::env::temp_dir().join(format!(
            "ivnt-worker-truncate-{}-{:?}.ivns",
            std::process::id(),
            std::thread::current().id(),
        ));
        let spec = DataSetSpec::syn().with_seed(53).with_duration_s(4.0);
        let data = scenario::generate(&spec).expect("scenario generates");
        let options = ivnt_store::WriterOptions {
            chunk_rows: 128,
            chunks_per_group: 1,
            cluster: true,
        };
        let mut writer = ivnt_store::StoreWriter::create(&path, options).expect("store create");
        for r in data.trace.records() {
            writer.append(r).expect("store append");
        }
        writer.seal().expect("store seal");
        let job = JobSpec::new("syn", path.display().to_string()).with_seed(53);
        let pipeline = job.pipeline().expect("pipeline rebuilds");
        let mut reader = ivnt_store::StoreReader::open(&path).expect("store opens");
        let groups = reader.footer().groups;
        assert!(
            groups >= 8,
            "the shard must outlast the truncation, got {groups}"
        );
        let task = ShardTask {
            task_id: 7,
            group_start: 0,
            group_end: groups,
            rows_estimated: 0,
        };

        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let mut coordinator =
            TcpStream::connect(listener.local_addr().expect("addr")).expect("connects");
        let (worker_side, _) = listener.accept().expect("accepts");
        let writer = Arc::new(Mutex::new(worker_side));
        let registry = ivnt_obs::Registry::new();
        let (control, rx) = std::sync::mpsc::channel::<Result<Message>>();
        let current_task = Arc::new(AtomicU32::new(task.task_id));
        // `move`: the control receiver is `Send` but not `Sync`.
        let (writer_ref, registry_ref, pipeline_ref) = (&writer, &registry, &pipeline);
        let run_task = move |reader: &mut ShardReader| {
            let session = Session {
                out: Outbound {
                    writer: writer_ref,
                    registry: registry_ref,
                    corrupt_pending: AtomicBool::new(false),
                },
                rx: &rx,
                pipeline: pipeline_ref,
                current_task: &current_task,
                faults: WorkerFaults::none(),
                heartbeat_ms: 25,
            };
            session.run_task(reader, task)
        };
        let handed_over = HANDOFF_DEPTH as u64 + 2;
        let extracted = || {
            registry
                .snapshot()
                .histograms
                .get("cluster_worker_extract_seconds")
                .map_or(0, |h| h.count)
        };

        let wedge = writer.lock().expect("writer mutex");
        let shard_reader = &mut reader;
        let control_flow = std::thread::scope(|s| {
            let running = s.spawn(move || run_task(shard_reader));
            // The extract loop stalls exactly here: stage busy, channel
            // full, one more group in hand.
            while extracted() < handed_over {
                std::thread::yield_now();
            }
            control
                .send(Ok(Message::Truncate {
                    task_id: task.task_id,
                    group_end: 1,
                }))
                .expect("session listens");
            drop(wedge);
            running.join().expect("task thread")
        });
        assert!(matches!(control_flow, TaskControl::Continue));
        assert_eq!(extracted(), handed_over + 1, "one group past the handoffs");

        let schema = ivnt_core::interpret::signal_schema();
        let mut accum = PartialAccum::new();
        let mut acked = None;
        let (parts, end) = loop {
            match wire::read_frame(&mut coordinator).expect("frame") {
                Message::PartialResult {
                    task_id,
                    seq,
                    group,
                    batches,
                    ..
                } => {
                    assert_eq!(task_id, task.task_id);
                    let decoded = batches
                        .iter()
                        .map(|b| decode_batch_compressed(b, &schema).expect("decodes"))
                        .collect();
                    accum.insert(seq, group, decoded).expect("fresh seq");
                }
                Message::Truncated { group_end, .. } => acked = Some(group_end),
                Message::TaskDone {
                    parts, group_end, ..
                } => break (parts, group_end),
                other => panic!("unexpected frame {other:?}"),
            }
        };
        // Asked to stop at group 1; three groups were already handed
        // over and the fourth was the one about to be extracted.
        assert_eq!(end, handed_over as u32 + 1);
        assert_eq!(acked, Some(end), "the ack names the actual stop");
        assert_eq!(parts, end - task.group_start);
        let merged = accum.finish(parts).expect("gap-free stream");

        let expected = pipeline
            .session(RunOptions::store_shard(&mut reader, task.group_start..end))
            .extract()
            .expect("single-process extraction")
            .frame
            .into_partitions();
        assert_eq!(
            merged.iter().map(encode_batch).collect::<Vec<_>>(),
            expected.iter().map(encode_batch).collect::<Vec<_>>(),
        );
        std::fs::remove_file(&path).ok();
    }
}
