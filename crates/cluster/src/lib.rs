//! # ivnt-cluster — distributed extraction at laptop scale
//!
//! The paper runs Algorithm 1 on Spark across a 70-server cluster; this
//! crate is that tier's std-only substitute: a coordinator/worker
//! subsystem speaking a length-prefixed binary protocol over TCP, with
//! shard scheduling driven by `.ivns` footer zone maps, periodic
//! heartbeats, liveness timeouts, and bounded fault-tolerant retry that
//! requeues a dead worker's tasks with that worker excluded.
//!
//! Since wire v3 the coordinator is a single non-blocking multiplexed
//! event loop (no thread per worker); workers stream compressed
//! per-group [`wire::Message::PartialResult`] frames — encoded beside
//! the extraction, decoded on arrival — so the codec and the merge
//! overlap compute; scheduling is dynamic (one FIFO task queue plus
//! straggler-triggered shard splitting); and a checkpoint file lets a
//! restarted coordinator resume without re-fetching merged work. v3 is
//! also the floor: older peers are refused at the handshake.
//!
//! The contract that makes it trustworthy: the merged distributed result
//! is **bit-identical** to a single-process store session
//! ([`RunOptions::store`](ivnt_core::pipeline::RunOptions::store))
//! over the same store — for every worker count, and through injected
//! worker kills, corrupted result frames, stalled heartbeats, slow-task
//! stragglers and coordinator restarts (see [`worker::WorkerFaults`]).
//!
//! - [`job::JobSpec`] — the deterministic pipeline recipe shipped to
//!   workers.
//! - [`plan::plan_shards`] — zone-map-aware carving of group ranges;
//!   [`plan::split_range`] re-plans a straggler's unfinished tail.
//! - [`wire`] — the framed message codec (store varints + FNV-1a).
//! - [`codec`] — bit-exact batch serialization: the compressed wire
//!   encoding and the flat one fingerprints are taken in.
//! - [`coordinator::run_job`] — the event loop: scheduling, liveness,
//!   retry, splitting, merge.
//! - [`checkpoint`] — completed-task results on disk for
//!   coordinator-restart recovery.
//! - [`worker::WorkerServer`] — the task executor.
//! - [`local`] — subprocess workers for `--local N` and CI.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod codec;
pub mod coordinator;
pub mod error;
pub mod job;
pub mod local;
pub mod plan;
pub mod wire;
pub mod worker;

pub use checkpoint::{Checkpoint, CheckpointEntry};
pub use coordinator::{run_job, ClusterConfig, ClusterRun, ClusterStats, PartialAccum};
pub use error::{Error, Result};
pub use job::JobSpec;
pub use local::{
    local_faults_from_env, parse_local_faults, spawn_local_workers, LocalSpawnSpec,
    LocalWorkerHandle, FAULT_LOCAL_ENV,
};
pub use plan::{plan_shards, plan_shards_filtered, split_range, ShardPlan, ShardTask};
pub use wire::{Message, MIN_WIRE_VERSION, WIRE_VERSION};
pub use worker::{WorkerFaults, WorkerServer, FAULT_ENV, LISTEN_PREFIX};
