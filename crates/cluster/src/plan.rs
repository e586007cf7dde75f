//! The shard planner: footer zone maps in, balanced task ranges out.
//!
//! A shard is a contiguous range of *row groups*. Groups are the store's
//! order-restoration scope — a boundary through the middle of one would
//! split rows that must be re-sorted together — so the planner never cuts
//! below group granularity. Within that constraint it does two things:
//!
//! 1. **Preselection pushdown at plan time.** The job's predicate is
//!    compiled against the footer once and groups whose every chunk is
//!    disproven by its zone map are dropped from the plan entirely — dead
//!    groups never even become tasks, let alone network traffic.
//! 2. **Row-balanced packing.** Surviving groups are packed into at most
//!    `target_tasks` contiguous ranges of roughly equal *surviving* row
//!    count, so one hot group does not serialize the whole cluster behind
//!    a single worker.

use ivnt_store::varint::{self, Cursor};
use ivnt_store::{Footer, Predicate};

use crate::error::{Error, Result};

/// One schedulable unit: a contiguous half-open range of row groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardTask {
    /// Position of the task in the plan — also its merge position: the
    /// coordinator concatenates results in `task_id` order, which equals
    /// group order, which is what makes the merge deterministic.
    pub task_id: u32,
    /// First row group of the shard.
    pub group_start: u32,
    /// One past the last row group of the shard.
    pub group_end: u32,
    /// Rows the planner expects the shard to touch (zone-surviving
    /// chunks only) — a scheduling weight, not a promise.
    pub rows_estimated: u64,
}

impl ShardTask {
    /// The task's group range.
    pub fn groups(&self) -> std::ops::Range<u32> {
        self.group_start..self.group_end
    }

    /// Appends the wire encoding of the task to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        varint::write_u64(out, u64::from(self.task_id));
        varint::write_u64(out, u64::from(self.group_start));
        varint::write_u64(out, u64::from(self.group_end));
        varint::write_u64(out, self.rows_estimated);
    }

    /// Decodes a task written by [`ShardTask::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Truncated`] / [`Error::Protocol`] for malformed
    /// bytes.
    pub fn decode(cur: &mut Cursor<'_>) -> Result<ShardTask> {
        let read_u32 = |cur: &mut Cursor<'_>, what: &str| -> Result<u32> {
            let v = cur.read_u64()?;
            u32::try_from(v).map_err(|_| Error::Protocol(format!("{what} {v} exceeds u32")))
        };
        let task_id = read_u32(cur, "task id")?;
        let group_start = read_u32(cur, "group start")?;
        let group_end = read_u32(cur, "group end")?;
        if group_end < group_start {
            return Err(Error::Protocol(format!(
                "inverted group range {group_start}..{group_end}"
            )));
        }
        Ok(ShardTask {
            task_id,
            group_start,
            group_end,
            rows_estimated: cur.read_u64()?,
        })
    }
}

/// The planner's output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Tasks in group order; `tasks[i].task_id == i`.
    pub tasks: Vec<ShardTask>,
    /// Row groups in the store.
    pub groups_total: u32,
    /// Groups the zone maps disproved at plan time.
    pub groups_pruned: u32,
    /// Surviving rows across all tasks (upper bound from zone maps).
    pub rows_estimated: u64,
}

/// Carves the store into at most `target_tasks` balanced shard tasks.
///
/// Groups fully disproven by `predicate` against the footer's zone maps
/// are excluded; a store where everything is pruned (or an empty store)
/// yields a plan with zero tasks, which the coordinator turns into an
/// empty — but correctly schema'd — result without contacting a worker.
pub fn plan_shards(footer: &Footer, predicate: &Predicate, target_tasks: usize) -> ShardPlan {
    plan_shards_filtered(footer, predicate, target_tasks, |_| true)
}

/// [`plan_shards`] restricted to groups `retain` keeps.
///
/// The restart path re-plans a checkpointed job with the already-merged
/// groups filtered out; the straggler path re-plans the unfinished tail
/// of one shard (see [`split_range`]). Dropped groups are *not* counted
/// as pruned — `groups_pruned` keeps meaning "disproved by zone maps"
/// so stats stay comparable across resumed and fresh runs.
///
/// Every retain gap forces a task boundary: tasks travel the wire as
/// dense group ranges, so one spanning a retained-out group would
/// recompute work the caller explicitly excluded (and double-merge it,
/// on the restart path). A fragmented `retain` can therefore yield more
/// than `target_tasks` tasks.
pub fn plan_shards_filtered(
    footer: &Footer,
    predicate: &Predicate,
    target_tasks: usize,
    retain: impl Fn(u32) -> bool,
) -> ShardPlan {
    let compiled = predicate.compile(footer);
    let spans = footer.group_spans();
    // Surviving rows per group: zone-surviving chunks only.
    let mut surviving: Vec<(u32, u64)> = Vec::new();
    let mut rows_estimated = 0u64;
    let mut groups_pruned = 0u32;
    for span in &spans {
        if !retain(span.group) {
            continue;
        }
        let est: u64 = footer.chunks[span.chunk_start..span.chunk_end]
            .iter()
            .filter(|c| compiled.chunk_may_match(c))
            .map(|c| u64::from(c.rows))
            .sum();
        if est > 0 {
            surviving.push((span.group, est));
            rows_estimated += est;
        } else {
            groups_pruned += 1;
        }
    }
    let groups_total = spans.len() as u32;

    let target = target_tasks.max(1).min(surviving.len().max(1));
    let mut tasks: Vec<ShardTask> = Vec::with_capacity(target);
    if !surviving.is_empty() {
        let per_task = rows_estimated.div_ceil(target as u64).max(1);
        let mut acc = 0u64;
        let mut start: Option<u32> = None;
        let mut end = 0u32;
        for (i, &(group, est)) in surviving.iter().enumerate() {
            // A gap carved out by `retain` must end the current task:
            // tasks travel the wire as dense group ranges, so a task
            // spanning a retained-out group would recompute — and
            // double-merge — work a checkpoint already covers. Gaps
            // that are only zone-pruned are safe to span (workers
            // re-prune them), and `retain` holds on every group in
            // them, so this never cuts there.
            if start.is_some() && (end..group).any(|g| !retain(g)) {
                tasks.push(ShardTask {
                    task_id: tasks.len() as u32,
                    group_start: start.take().expect("start set above"),
                    group_end: end,
                    rows_estimated: acc,
                });
                acc = 0;
            }
            if start.is_none() {
                start = Some(group);
            }
            acc += est;
            end = group + 1;
            let groups_left = surviving.len() - i - 1;
            let tasks_left = target.saturating_sub(tasks.len()).saturating_sub(1);
            // Cut when the bucket is full — or when the remaining groups
            // are only just enough to give every remaining task one.
            if (acc >= per_task || groups_left <= tasks_left) && tasks.len() < target {
                tasks.push(ShardTask {
                    task_id: tasks.len() as u32,
                    group_start: start.take().expect("start set above"),
                    group_end: end,
                    rows_estimated: acc,
                });
                acc = 0;
            }
        }
        if let Some(start) = start {
            // Remainder rides with the last task — unless a retain gap
            // separates them, in which case extending the last task's
            // range would re-span the gap the forced cut just avoided.
            match tasks.last_mut() {
                Some(last) if (last.group_end..start).all(&retain) => {
                    last.group_end = end;
                    last.rows_estimated += acc;
                }
                _ => tasks.push(ShardTask {
                    task_id: tasks.len() as u32,
                    group_start: start,
                    group_end: end,
                    rows_estimated: acc,
                }),
            }
        }
    }
    ShardPlan {
        tasks,
        groups_total,
        groups_pruned,
        rows_estimated,
    }
}

/// Re-plans the group range `groups` into up to `pieces` balanced
/// sub-ranges — the straggler split.
///
/// Returned tasks carry plan-local ids `0..n`; the coordinator renumbers
/// them into its live task table (merge order is by `group_start`, so
/// ids only need to be unique, not ordered). Ranges where every group is
/// zone-pruned yield no tasks.
pub fn split_range(
    footer: &Footer,
    predicate: &Predicate,
    groups: std::ops::Range<u32>,
    pieces: usize,
) -> Vec<ShardTask> {
    plan_shards_filtered(footer, predicate, pieces, |g| groups.contains(&g)).tasks
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivnt_store::{ChunkMeta, ZoneMap};
    use std::sync::Arc;

    fn footer(groups: u32, chunks_per_group: u32, rows_per_chunk: u32) -> Footer {
        let mut chunks = Vec::new();
        for g in 0..groups {
            for c in 0..chunks_per_group {
                let mid = g * chunks_per_group + c;
                chunks.push(ChunkMeta {
                    offset: 8,
                    len: 1,
                    rows: rows_per_chunk,
                    group: g,
                    checksum: 0,
                    zone: ZoneMap {
                        min_t_us: u64::from(mid) * 1_000,
                        max_t_us: u64::from(mid) * 1_000 + 999,
                        min_mid: mid,
                        max_mid: mid,
                        bus_bits: vec![0b1],
                    },
                });
            }
        }
        Footer {
            buses: vec![Arc::from("FC")],
            rows: u64::from(groups * chunks_per_group * rows_per_chunk),
            groups,
            group_rows: chunks_per_group * rows_per_chunk,
            clustered: true,
            generation: u64::from(groups),
            chunks,
        }
    }

    #[test]
    fn plan_covers_every_surviving_group_exactly_once() {
        let f = footer(10, 4, 100);
        let plan = plan_shards(&f, &Predicate::all(), 3);
        assert_eq!(plan.tasks.len(), 3);
        assert_eq!(plan.groups_pruned, 0);
        assert_eq!(plan.rows_estimated, 4_000);
        // Tasks tile 0..10 contiguously in id order.
        let mut next = 0u32;
        for (i, t) in plan.tasks.iter().enumerate() {
            assert_eq!(t.task_id, i as u32);
            assert_eq!(t.group_start, next);
            next = t.group_end;
        }
        assert_eq!(next, 10);
        // Weights are conserved and no task hogs the store.
        assert_eq!(
            plan.tasks.iter().map(|t| t.rows_estimated).sum::<u64>(),
            4_000
        );
        assert!(plan.tasks.iter().all(|t| t.rows_estimated <= 2_000));
    }

    #[test]
    fn pruned_groups_never_become_tasks() {
        let f = footer(8, 2, 50);
        // Message ids 4..6 live in chunks 4 and 5 → groups 2 and 2 only.
        let pred = Predicate::all().with_time_range_us(4_000, 5_999);
        let plan = plan_shards(&f, &pred, 4);
        assert_eq!(plan.groups_pruned, 7);
        assert_eq!(plan.tasks.len(), 1);
        assert_eq!(plan.tasks[0].groups(), 2..3);
        assert_eq!(plan.rows_estimated, 100);
    }

    #[test]
    fn all_pruned_store_yields_empty_plan() {
        let f = footer(4, 2, 50);
        let pred = Predicate::for_messages([("NOPE", 1u32)]);
        let plan = plan_shards(&f, &pred, 4);
        assert!(plan.tasks.is_empty());
        assert_eq!(plan.groups_pruned, 4);
        assert_eq!(plan.rows_estimated, 0);
        // Degenerate: empty store.
        let empty = Footer {
            chunks: Vec::new(),
            rows: 0,
            groups: 0,
            ..f
        };
        assert!(plan_shards(&empty, &Predicate::all(), 4).tasks.is_empty());
    }

    #[test]
    fn more_tasks_than_groups_clamps() {
        let f = footer(2, 1, 10);
        let plan = plan_shards(&f, &Predicate::all(), 16);
        assert_eq!(plan.tasks.len(), 2);
    }

    #[test]
    fn filtered_plan_skips_retained_out_groups() {
        let f = footer(10, 4, 100);
        // Resume path: groups 0..4 already merged from a checkpoint.
        let plan = plan_shards_filtered(&f, &Predicate::all(), 3, |g| g >= 4);
        assert_eq!(plan.groups_pruned, 0);
        assert_eq!(plan.rows_estimated, 2_400);
        let mut next = 4u32;
        for t in &plan.tasks {
            assert_eq!(t.group_start, next);
            next = t.group_end;
        }
        assert_eq!(next, 10);
    }

    #[test]
    fn retain_gap_in_the_middle_never_spanned_by_a_task() {
        let f = footer(20, 2, 50);
        // Resume path: a checkpointed task covered groups 9..18 — the
        // crash happened after a *middle* task completed (task finish
        // order is not plan order with several workers). No planned task
        // may span the gap, or its worker would recompute those groups
        // and the merge would see them twice.
        let dropped = 9u32..18;
        let retain = |g: u32| !dropped.contains(&g);
        for target in 1..=6 {
            let plan = plan_shards_filtered(&f, &Predicate::all(), target, retain);
            let mut covered = Vec::new();
            for t in &plan.tasks {
                assert!(
                    t.group_end <= dropped.start || t.group_start >= dropped.end,
                    "task {}..{} spans the retained-out gap {dropped:?} (target {target})",
                    t.group_start,
                    t.group_end,
                );
                covered.extend(t.groups());
            }
            let mut expected: Vec<u32> = (0..20).filter(|&g| retain(g)).collect();
            covered.sort_unstable();
            expected.sort_unstable();
            assert_eq!(covered, expected, "kept groups tiled exactly once");
        }
        // target 1 cannot honor the gap with a single dense range: the
        // forced cut yields two tasks, one per side.
        let plan = plan_shards_filtered(&f, &Predicate::all(), 1, retain);
        assert_eq!(plan.tasks.len(), 2);
        assert_eq!(plan.tasks[0].groups(), 0..9);
        assert_eq!(plan.tasks[1].groups(), 18..20);
    }

    #[test]
    fn split_range_tiles_the_tail() {
        let f = footer(12, 2, 50);
        let subs = split_range(&f, &Predicate::all(), 5..11, 3);
        assert_eq!(subs.len(), 3);
        let mut next = 5u32;
        for t in &subs {
            assert_eq!(t.group_start, next);
            next = t.group_end;
        }
        assert_eq!(next, 11);
        assert_eq!(subs.iter().map(|t| t.rows_estimated).sum::<u64>(), 600);
        // A fully pruned tail splits into nothing.
        let pred = Predicate::for_messages([("NOPE", 1u32)]);
        assert!(split_range(&f, &pred, 5..11, 3).is_empty());
    }

    #[test]
    fn task_roundtrip_and_inverted_range_rejected() {
        let task = ShardTask {
            task_id: 7,
            group_start: 3,
            group_end: 9,
            rows_estimated: 12345,
        };
        let mut buf = Vec::new();
        task.encode(&mut buf);
        let mut cur = Cursor::new(&buf);
        assert_eq!(ShardTask::decode(&mut cur).unwrap(), task);

        let bad = ShardTask {
            group_start: 9,
            group_end: 3,
            ..task
        };
        let mut buf = Vec::new();
        bad.encode(&mut buf);
        let mut cur = Cursor::new(&buf);
        assert!(matches!(
            ShardTask::decode(&mut cur),
            Err(Error::Protocol(_))
        ));
    }
}
