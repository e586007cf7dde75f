//! # ivnt-obs — metrics and span tracing for the preprocessing stack
//!
//! The paper's Spark deployment gets per-stage task metrics and straggler
//! visibility from the Spark UI for free; this crate is that tier's
//! std-only substitute. It provides
//!
//! * a lock-cheap metrics [`Registry`] — monotonic [`Counter`]s (sharded
//!   per worker thread, merged on snapshot), [`Gauge`]s, and fixed-bucket
//!   [`Histogram`]s,
//! * lightweight span tracing with explicit parent/child stage
//!   attribution ([`Stopwatch`], [`Registry::record_span`]),
//! * an immutable [`Snapshot`] with deterministic ordering, delta
//!   ([`Snapshot::since`]) and cross-process merge ([`Snapshot::merge`]),
//!   rendered as Prometheus text or JSON.
//!
//! ## The disabled hot path
//!
//! Instrumentation points throughout `ivnt-frame`, `ivnt-core`,
//! `ivnt-store` and `ivnt-cluster` call [`with`]. When no subscriber is
//! installed this compiles down to **one relaxed atomic load and a
//! branch** — the closure is never built up, no lock is touched, nothing
//! allocates. The `pipeline_e2e` bench reports the end-to-end cost of a
//! live subscriber against this path.
//!
//! ## Subscribing
//!
//! ```
//! use std::sync::Arc;
//!
//! let registry = Arc::new(ivnt_obs::Registry::new());
//! {
//!     let _guard = ivnt_obs::install(registry.clone());
//!     ivnt_obs::with(|r| r.add("demo_events_total", 3));
//! } // guard dropped: previous subscriber (none) restored
//! let snap = registry.snapshot();
//! assert_eq!(snap.counters["demo_events_total"], 3);
//! ```

#![warn(missing_docs)]

pub mod metrics;
pub mod registry;
pub mod snapshot;

pub use metrics::{Counter, Gauge, Histogram};
pub use registry::Registry;
pub use snapshot::{escape_label, HistogramSnapshot, Snapshot, SpanStat};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

/// Canonical latency buckets (seconds) for stage/task histograms: 100 µs
/// to 100 s, decade-spaced. Small enough to scan linearly on observe.
pub const SECONDS_BUCKETS: &[f64] = &[1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0];

/// Whether any subscriber is installed. Kept in its own atomic so the
/// disabled fast path never touches the `RwLock` below.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The installed subscriber. Only read after [`ENABLED`] observes `true`.
static CURRENT: RwLock<Option<Arc<Registry>>> = RwLock::new(None);

/// Whether a subscriber is installed — one relaxed load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` against the installed registry, or does nothing. This is the
/// instrumentation entry point: with no subscriber it is a relaxed load
/// and a branch.
#[inline]
pub fn with<F: FnOnce(&Registry)>(f: F) {
    if !enabled() {
        return;
    }
    with_installed(f);
}

/// Cold half of [`with`], out of line so the fast path stays tiny.
#[cold]
fn with_installed<F: FnOnce(&Registry)>(f: F) {
    let current = CURRENT.read().unwrap_or_else(|e| e.into_inner());
    if let Some(registry) = current.as_ref() {
        f(registry);
    }
}

/// The installed registry, if any (cloned handle).
pub fn current() -> Option<Arc<Registry>> {
    if !enabled() {
        return None;
    }
    CURRENT.read().unwrap_or_else(|e| e.into_inner()).clone()
}

/// A clock for explicitly parented spans that is read only while a
/// subscriber is installed: with none, [`Stopwatch::start`] is one relaxed
/// load and [`Stopwatch::lap`] a branch.
///
/// ```
/// let mut clock = ivnt_obs::Stopwatch::start();
/// // ... the stage ...
/// assert_eq!(clock.lap("interpret", "run"), None); // no subscriber
/// ```
#[derive(Debug)]
pub struct Stopwatch(Option<std::time::Instant>);

impl Stopwatch {
    /// Starts the clock if a subscriber is installed.
    #[inline]
    pub fn start() -> Stopwatch {
        Stopwatch(enabled().then(std::time::Instant::now))
    }

    /// Records the time since the start or the previous lap as span
    /// `name` under `parent` (empty = root), restarts the clock, and
    /// returns the seconds; `None` when the clock was not started.
    /// Explicit parents attribute spans recorded on pool threads.
    pub fn lap(&mut self, name: &str, parent: &str) -> Option<f64> {
        let start = self.0.as_mut()?;
        let now = std::time::Instant::now();
        let seconds = now.duration_since(*start).as_secs_f64();
        *start = now;
        with(|r| r.record_span(name, parent, seconds));
        Some(seconds)
    }
}

/// Installs `registry` as the process-wide subscriber, returning a guard
/// that restores the previous subscriber (usually none) on drop.
/// Installations nest; the innermost wins while its guard lives.
#[must_use = "dropping the guard immediately uninstalls the subscriber"]
pub fn install(registry: Arc<Registry>) -> InstallGuard {
    let mut slot = CURRENT.write().unwrap_or_else(|e| e.into_inner());
    let previous = slot.replace(registry);
    ENABLED.store(true, Ordering::Relaxed);
    InstallGuard { previous }
}

/// Keeps a subscriber installed; restores the previous one when dropped.
pub struct InstallGuard {
    previous: Option<Arc<Registry>>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        let mut slot = CURRENT.write().unwrap_or_else(|e| e.into_inner());
        *slot = self.previous.take();
        ENABLED.store(slot.is_some(), Ordering::Relaxed);
    }
}

impl std::fmt::Debug for InstallGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InstallGuard").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that touch the process-global subscriber slot.
    static INSTALL_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_with_is_a_no_op() {
        let _lock = INSTALL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!enabled());
        let mut ran = false;
        with(|_| ran = true);
        assert!(!ran);
    }

    #[test]
    fn install_enables_and_guard_restores() {
        let _lock = INSTALL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let outer = Arc::new(Registry::new());
        let inner = Arc::new(Registry::new());
        {
            let _g1 = install(outer.clone());
            with(|r| r.add("hits", 1));
            {
                let _g2 = install(inner.clone());
                with(|r| r.add("hits", 10));
            }
            // Inner guard dropped: outer is active again.
            with(|r| r.add("hits", 2));
        }
        assert!(!enabled());
        assert_eq!(outer.snapshot().counters["hits"], 3);
        assert_eq!(inner.snapshot().counters["hits"], 10);
    }

    #[test]
    fn stopwatch_records_laps_only_when_started_subscribed() {
        let _lock = INSTALL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut idle = Stopwatch::start();
        let registry = Arc::new(Registry::new());
        let _guard = install(registry.clone());
        assert_eq!(idle.lap("idle", "run"), None);
        let mut clock = Stopwatch::start();
        let a = clock.lap("a", "run").expect("started subscribed");
        let b = clock.lap("b", "run").expect("started subscribed");
        let spans = registry.snapshot().spans;
        assert!(!spans.contains_key("run/idle"));
        assert_eq!((spans["run/a"].count, spans["run/a"].seconds), (1, a));
        assert_eq!((spans["run/b"].count, spans["run/b"].seconds), (1, b));
    }
}
