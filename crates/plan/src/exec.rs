//! The shared-scan executor: one store pass answers N queries.
//!
//! Two sharing strategies, chosen per batch:
//!
//! - **Shared interpret** — when no query has a time window and the
//!   queries' signal sets are pairwise disjoint, the executor builds one
//!   *union* rule set (each query's `U_comb` rules concatenated, order
//!   preserved) and runs the vectorized interpret kernel **once** per
//!   admitted row group. This is exact: the kernel emits input-row-major,
//!   and within a row each `(bus, mid)` rule group keeps every query's
//!   rules in that query's own relative order, so a signal's rows come
//!   out exactly as the query's solo kernel emits them.
//! - **Per-query interpret** — when signals overlap or windows differ,
//!   rows can't be routed by signal name alone (the same emitted row may
//!   belong to several queries, or to none inside a window). The scan and
//!   chunk decode are still shared; each query then interprets its own
//!   filtered row subset with its own kernel, which is the solo path by
//!   construction.
//!
//! A `run` ([`Kind::Sequences`]) decodes straight into per-signal
//! sequence builders as [`Session::run`](ivnt_core::pipeline::Session::run)
//! does, never building `K_s`: the union kernel feeds *one* builder whose
//! finished sequences (name order, rows in input order) go to their
//! signal's owner; per-query interpret feeds one builder per query. An
//! `extract` builds `K_s` partitions, routed at emission by
//! [`Kernel::extract_routed`]: one per row group in which at least one raw
//! row matched the query's predicate, as its solo scan emits.

use std::collections::HashMap;
use std::io::{Read, Seek};
use std::sync::Arc;

use ivnt_core::interpret::{signal_schema, Kernel};
use ivnt_core::rules::{Rule, RuleSet};
use ivnt_core::split::{SequenceBuilder, SignalSequence};
use ivnt_core::{Error, Pipeline, Result};
use ivnt_frame::batch::Batch;
use ivnt_store::{CompiledPredicate, ScanStats, StoreReader};

/// Which answer the pass builds for every query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// `K_s` partitions ([`Answer::Frame`]).
    Frame,
    /// Per-signal sequences ([`Answer::Sequences`]).
    Sequences,
}

/// One query's answer from a shared pass, owned by that query.
pub(crate) enum Answer {
    /// `K_s` partitions, padded to one empty partition when the scan
    /// emitted none (the store source's semantics).
    Frame(Vec<Batch>),
    /// Per-signal sequences in signal-name order.
    Sequences(Vec<SignalSequence>),
}

/// One query as the executor sees it.
pub(crate) struct QuerySpec<'p> {
    pub pipeline: &'p Pipeline,
    pub window: Option<(u64, u64)>,
}

/// What one shared pass produced, aligned with the input query slice.
pub(crate) struct RouteOutcome {
    /// Per-query answers of the kind asked for.
    pub answers: Vec<Answer>,
    /// Raw store rows routed to each query.
    pub rows_routed: Vec<u64>,
    /// Row groups that contributed at least one raw row to each query.
    pub groups_hit: Vec<u32>,
    /// The shared scan's pushdown statistics (`rows_emitted` counts
    /// union rows).
    pub stats: ScanStats,
    /// Row groups the union scan emitted.
    pub groups_scanned: u32,
    /// Whether the union-kernel fast path applied.
    pub shared_interpret: bool,
}

/// Each signal's owning query, when every query is windowless and no
/// signal name is claimed by two different queries — the precondition of
/// the union-kernel path; `None` otherwise.
fn signal_owners<'s>(specs: &[QuerySpec<'s>]) -> Option<HashMap<&'s str, usize>> {
    if specs.iter().any(|s| s.window.is_some()) {
        return None;
    }
    let mut owner: HashMap<&str, usize> = HashMap::new();
    for (qi, spec) in specs.iter().enumerate() {
        for r in spec.pipeline.u_comb().rules() {
            if *owner.entry(&r.signal).or_insert(qi) != qi {
                return None;
            }
        }
    }
    Some(owner)
}

/// Runs one shared pass over `reader` answering every query in `specs`
/// with an answer of `kind`. A sequence pass records the batch's
/// `interpret` (scan + decode) and `split` (the builders' `finish`) spans.
pub(crate) fn route_shared<R: Read + Seek>(
    specs: &[QuerySpec<'_>],
    reader: &mut StoreReader<R>,
    kind: Kind,
) -> Result<RouteOutcome> {
    let n = specs.len();
    // Each query's preselection (plus window), compiled against the store.
    let preds: Vec<CompiledPredicate> = specs
        .iter()
        .map(|s| {
            let mut pred = s.pipeline.store_predicate();
            if let Some((from, to)) = s.window {
                pred = pred.with_time_range_us(from, to);
            }
            pred.compile(reader.footer())
        })
        .collect();
    let owner = signal_owners(specs);
    let shared_interpret = owner.is_some();
    let owner = owner.unwrap_or_default();

    // Union kernel for the fast path, compiled once for the whole pass.
    let union_kernel = shared_interpret.then(|| {
        let rules: Vec<Arc<Rule>> = specs
            .iter()
            .flat_map(|s| s.pipeline.u_comb().rules().iter().cloned())
            .collect();
        Kernel::compile(&RuleSet::from_rules(rules))
    });
    // Sequence lanes: one builder over the union kernel, or one per
    // query over its own; frame lanes: per-query `K_s` partitions.
    let mut builders: Vec<SequenceBuilder> = match (kind, &union_kernel) {
        (Kind::Frame, _) => Vec::new(),
        (Kind::Sequences, Some(union)) => vec![union.sequence_builder()],
        (Kind::Sequences, None) => specs
            .iter()
            .map(|s| s.pipeline.kernel().sequence_builder())
            .collect(),
    };
    let mut parts: Vec<Vec<Batch>> = vec![Vec::new(); n];

    let raw_schema = ivnt_core::tabular::raw_schema();
    let mut rows_routed = vec![0u64; n];
    let mut groups_hit = vec![0u32; n];
    let mut groups_scanned = 0u32;

    // `(bus, mid)` → per-query pair-match vector, decided once per
    // distinct key instead of hashing every predicate per row. The time
    // component (window queries only) stays a per-row compare.
    let mut pair_memo: HashMap<(u32, u32), usize> = HashMap::new();
    let mut pair_masks: Vec<bool> = Vec::new();
    // Per-query row masks of the group under routing, query-major.
    let mut row_masks: Vec<bool> = Vec::new();

    let mut clock = ivnt_obs::Stopwatch::start();
    let stats = reader.scan_columns::<Error, _>(&preds, |group| {
        groups_scanned += 1;
        let rows = group.len();
        row_masks.clear();
        row_masks.resize(n * rows, false);
        let mut hit = vec![false; n];
        for (i, (bus, mid, t)) in group.keys().enumerate() {
            let mi = *pair_memo.entry((bus, mid)).or_insert_with(|| {
                pair_masks.extend(preds.iter().map(|p| p.matches(bus, mid, t)));
                pair_masks.len() / n - 1
            });
            let mask = &pair_masks[mi * n..(mi + 1) * n];
            for qi in 0..n {
                // Windowless predicates are pure pair tests — the memo
                // answers them. A windowed predicate's match depends on
                // the row's timestamp too, so it is evaluated directly.
                let matches = if specs[qi].window.is_some() {
                    preds[qi].matches(bus, mid, t)
                } else {
                    mask[qi]
                };
                if matches {
                    hit[qi] = true;
                    rows_routed[qi] += 1;
                    row_masks[qi * rows + i] = true;
                }
            }
        }
        for (groups, h) in groups_hit.iter_mut().zip(&hit) {
            *groups += u32::from(*h);
        }

        let raw = group.to_batch(raw_schema.clone()).map_err(Error::from)?;
        match &union_kernel {
            // One union-kernel pass into the one builder; the signals are
            // handed to their owners once the scan is done.
            Some(union) if kind == Kind::Sequences => {
                union.decode_runs(&raw, builders[0].runs_mut())?;
            }
            // One union-kernel pass, emissions routed by signal owner
            // inside the kernel (see `Kernel::extract_routed`).
            Some(union) => {
                // `n` is the discard lane; unreachable for union rules.
                let routed =
                    union.extract_routed(&raw, n, |name| owner.get(name).copied().unwrap_or(n))?;
                for (qi, batch) in routed.into_iter().enumerate() {
                    // A query gets a (possibly empty) partition exactly
                    // when its solo scan would have emitted this group.
                    if hit[qi] {
                        parts[qi].push(batch);
                    }
                }
            }
            // Shared scan + decode only; each query interprets its own
            // row subset — the solo path verbatim.
            None => {
                for qi in (0..n).filter(|&qi| hit[qi]) {
                    let own = raw.filter(&row_masks[qi * rows..(qi + 1) * rows])?;
                    let kernel = specs[qi].pipeline.kernel();
                    match kind {
                        Kind::Frame => parts[qi].push(kernel.extract_batch(&own)?),
                        Kind::Sequences => kernel.decode_runs(&own, builders[qi].runs_mut())?,
                    }
                }
            }
        }
        Ok(())
    })?;

    let sequences = kind == Kind::Sequences;
    if sequences {
        clock.lap("interpret", "run");
    }
    let mut seqs: Vec<Vec<SignalSequence>> = vec![Vec::new(); n];
    for (qi, builder) in builders.into_iter().enumerate() {
        // The union builder's sequences go to their signal's owner; `owner`
        // is empty off the shared path, where builder `qi` is query `qi`'s.
        for seq in builder.finish()? {
            seqs[owner.get(seq.signal.as_str()).copied().unwrap_or(qi)].push(seq);
        }
    }
    if sequences {
        clock.lap("split", "run");
    }
    let answers = match kind {
        Kind::Sequences => seqs.into_iter().map(Answer::Sequences).collect(),
        Kind::Frame => parts
            .into_iter()
            .map(|mut parts| {
                // Store-source semantics: an all-pruned query still gets
                // one empty partition so downstream schemas hold.
                if parts.is_empty() {
                    parts.push(Batch::empty(signal_schema()));
                }
                Answer::Frame(parts)
            })
            .collect(),
    };

    Ok(RouteOutcome {
        answers,
        rows_routed,
        groups_hit,
        stats,
        groups_scanned,
        shared_interpret,
    })
}
