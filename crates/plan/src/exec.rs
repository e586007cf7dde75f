//! The shared-scan executor: one store pass answers N queries.
//!
//! Two sharing strategies, chosen per batch:
//!
//! - **Shared interpret** — when no query has a time window and the
//!   queries' signal sets are pairwise disjoint, the executor builds one
//!   *union* rule set (each query's `U_comb` rules concatenated, order
//!   preserved) and runs the vectorized interpret kernel **once** per
//!   admitted row group, then routes emitted rows back to their query by
//!   signal ownership. This is exact: the kernel emits input-row-major,
//!   and within a row each `(bus, mid)` rule group keeps every query's
//!   rules in that query's own relative order, so the routed subsequence
//!   equals the query's solo emission row for row.
//! - **Per-query interpret** — when signals overlap or windows differ,
//!   rows can't be routed by signal name alone (the same emitted row may
//!   belong to several queries, or to none inside a window). The scan and
//!   chunk decode are still shared; each query then interprets its own
//!   filtered row subset, which is the solo path by construction.
//!
//! Either way a query's `K_s` partition list is identical to what its own
//! [`Session`](ivnt_core::pipeline::Session) extraction would build: one
//! partition per row group in which at least one raw row matched the
//! query's predicate (the solo scan only emits such groups).

use std::collections::HashMap;
use std::io::{Read, Seek};
use std::sync::Arc;

use ivnt_core::interpret::Kernel;
use ivnt_core::rules::{Rule, RuleSet};
use ivnt_core::{Error, Pipeline, Result};
use ivnt_frame::batch::Batch;
use ivnt_frame::frame::DataFrame;
use ivnt_store::{CompiledPredicate, ScanStats, StoreReader};

/// One query as the executor sees it.
pub(crate) struct QuerySpec<'p> {
    pub pipeline: &'p Pipeline,
    pub window: Option<(u64, u64)>,
}

/// What one shared pass produced, aligned with the input query slice.
pub(crate) struct RouteOutcome {
    /// Per-query `K_s` partitions (unpadded; callers add the store
    /// source's empty-batch padding).
    pub parts: Vec<Vec<Batch>>,
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

/// True when every query is windowless and no signal name is claimed by
/// two different queries — the precondition of the union-kernel path.
pub(crate) fn can_share_interpret(specs: &[QuerySpec<'_>]) -> bool {
    if specs.iter().any(|s| s.window.is_some()) {
        return false;
    }
    let mut owner: HashMap<&str, usize> = HashMap::new();
    for (qi, spec) in specs.iter().enumerate() {
        for r in spec.pipeline.u_comb().rules() {
            if *owner.entry(&r.signal).or_insert(qi) != qi {
                return false;
            }
        }
    }
    true
}

/// Compiles each query's preselection (plus window) against the store.
pub(crate) fn compile_predicates<R: Read + Seek>(
    specs: &[QuerySpec<'_>],
    reader: &StoreReader<R>,
) -> Vec<CompiledPredicate> {
    specs
        .iter()
        .map(|s| {
            let mut pred = s.pipeline.store_predicate();
            if let Some((from, to)) = s.window {
                pred = pred.with_time_range_us(from, to);
            }
            pred.compile(reader.footer())
        })
        .collect()
}

/// Runs one shared pass over `reader` answering every query in `specs`.
pub(crate) fn route_shared<R: Read + Seek>(
    specs: &[QuerySpec<'_>],
    reader: &mut StoreReader<R>,
) -> Result<RouteOutcome> {
    let n = specs.len();
    let preds = compile_predicates(specs, reader);
    let shared_interpret = can_share_interpret(specs);

    // Union kernel + signal-ownership routing table for the fast path,
    // compiled once for the whole pass.
    let (union_kernel, owner) = if shared_interpret {
        let mut rules: Vec<Arc<Rule>> = Vec::new();
        let mut owner: HashMap<String, usize> = HashMap::new();
        for (qi, spec) in specs.iter().enumerate() {
            for r in spec.pipeline.u_comb().rules() {
                owner.entry(r.signal.clone()).or_insert(qi);
                rules.push(r.clone());
            }
        }
        (Some(Kernel::compile(&RuleSet::from_rules(rules))), owner)
    } else {
        (None, HashMap::new())
    };

    let raw_schema = ivnt_core::tabular::raw_schema();
    let mut parts: Vec<Vec<Batch>> = vec![Vec::new(); n];
    let mut rows_routed = vec![0u64; n];
    let mut groups_hit = vec![0u32; n];
    let mut groups_scanned = 0u32;

    // `(bus, mid)` → per-query pair-match vector, decided once per
    // distinct key instead of hashing every predicate per row. The time
    // component (window queries only) stays a per-row compare.
    let windows: Vec<Option<(u64, u64)>> = specs.iter().map(|s| s.window).collect();
    let mut pair_memo: HashMap<(u32, u32), usize> = HashMap::new();
    let mut pair_masks: Vec<bool> = Vec::new();
    // Per-query row masks of the group under routing, query-major.
    let mut row_masks: Vec<bool> = Vec::new();

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
                let matches = if windows[qi].is_some() {
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
        for (qi, h) in hit.iter().enumerate() {
            if *h {
                groups_hit[qi] += 1;
            }
        }

        let raw = group.to_batch(raw_schema.clone()).map_err(Error::from)?;
        if let Some(union_kernel) = &union_kernel {
            // One union-kernel pass, emissions routed by signal owner
            // inside the kernel (see `Kernel::extract_routed`).
            let morsel = DataFrame::from_partitions(raw_schema.clone(), vec![raw])?;
            let routed = union_kernel.extract_routed(&morsel, n, |name| match owner.get(name) {
                Some(&qi) => qi,
                None => n, // discard lane; unreachable for union rules
            })?;
            for (qi, batches) in routed.into_iter().enumerate() {
                // A query gets a (possibly empty) partition exactly
                // when its solo scan would have emitted this group.
                if hit[qi] {
                    parts[qi].extend(batches);
                }
            }
        } else {
            // Shared scan + decode only; each query interprets its own
            // row subset — the solo path verbatim.
            for qi in (0..n).filter(|&qi| hit[qi]) {
                let own = raw.filter(&row_masks[qi * rows..(qi + 1) * rows])?;
                parts[qi].push(specs[qi].pipeline.kernel().extract_batch(&own)?);
            }
        }
        Ok(())
    })?;

    Ok(RouteOutcome {
        parts,
        rows_routed,
        groups_hit,
        stats,
        groups_scanned,
        shared_interpret,
    })
}
