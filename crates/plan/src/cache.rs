//! The plan-keyed result cache.
//!
//! Maps `(query fingerprint, answer kind)` at a store epoch to the query's
//! answer: `K_s` partitions for [`extract`](crate::Planner::extract),
//! per-signal sequences for [`run`](crate::Planner::run) — separate
//! entries, so an `extract` does not warm a `run` nor the reverse. A hit
//! skips the scan *and* the interpret kernel; the back half is
//! deterministic on its input, so a replay is bit-identical to a fresh
//! session. Entries are `Arc`-shared: a miss hands one `Arc` to the cache
//! and the batch, a hit clones it, and a `run` borrows the sequences — no
//! cell is copied (an `extract` copies its partitions into its frame).
//!
//! Entries are invalidated by epoch comparison, not eviction: any append
//! advances the store's [`generation`](ivnt_store::Footer::generation) and
//! strands the old epoch's entries, which age out of the FIFO ring.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use ivnt_core::rules::Rule;
use ivnt_core::split::SignalSequence;
use ivnt_frame::batch::Batch;

/// Default maximum number of cached answers.
pub const DEFAULT_CACHE_CAPACITY: usize = 128;

/// Which answer a query asks the planner for — part of the cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Kind {
    /// `K_s` partitions ([`Answer::Frame`]).
    Frame,
    /// Per-signal sequences ([`Answer::Sequences`]).
    Sequences,
}

/// One query's answer from a shared pass or the cache.
#[derive(Debug, Clone)]
pub(crate) enum Answer {
    /// `K_s` partitions, padded to one empty partition when the scan
    /// emitted none (the store source's semantics).
    Frame(Arc<Vec<Batch>>),
    /// Per-signal sequences in signal-name order.
    Sequences(Arc<Vec<SignalSequence>>),
}

#[derive(Debug)]
struct Entry {
    epoch: u64,
    answer: Answer,
    /// The query's rules. The fingerprint hashes their addresses, so they
    /// stay alive while the entry can hit: a freed address could go to a
    /// rule with other decode parameters and hit this answer falsely.
    _rules: Vec<Arc<Rule>>,
}

/// Bounded FIFO cache of shared answers.
#[derive(Debug, Default)]
pub(crate) struct PlanCache {
    map: HashMap<(u64, Kind), Entry>,
    order: VecDeque<(u64, Kind)>,
    capacity: usize,
}

impl PlanCache {
    pub(crate) fn with_capacity(capacity: usize) -> PlanCache {
        PlanCache {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// Looks up `key`'s answer of `kind` at `epoch`. A stale entry (older
    /// epoch) is dropped on the spot — it can never be valid again.
    pub(crate) fn get(&mut self, key: u64, kind: Kind, epoch: u64) -> Option<Answer> {
        let slot = (key, kind);
        match self.map.get(&slot) {
            Some(e) if e.epoch == epoch => Some(e.answer.clone()),
            Some(_) => {
                self.map.remove(&slot);
                self.order.retain(|k| *k != slot);
                None
            }
            None => None,
        }
    }

    pub(crate) fn insert(
        &mut self,
        key: u64,
        kind: Kind,
        epoch: u64,
        answer: Answer,
        rules: &[Arc<Rule>],
    ) {
        let slot = (key, kind);
        let entry = Entry {
            epoch,
            answer,
            _rules: rules.to_vec(),
        };
        if self.map.insert(slot, entry).is_none() {
            self.order.push_back(slot);
            while self.order.len() > self.capacity {
                if let Some(evict) = self.order.pop_front() {
                    self.map.remove(&evict);
                }
            }
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }
}
