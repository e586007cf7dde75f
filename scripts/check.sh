#!/usr/bin/env bash
# Local twin of .github/workflows/ci.yml, plus the tier-1 gate from
# ROADMAP.md. Run before pushing.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> store_probe smoke (zone-map pushdown + in-memory/from-store + columnar-scan ratio gates)"
# Small workload; fails if chunk skipping degenerates below the gate, if
# the in-memory extraction costs more than 1.5x the from-store one (a loose
# bound: a fixed per-call cost dominates at this scale), or if the columnar
# store scan is less than 2x faster than the row-materializing scan it
# replaced (median of interleaved pairs; both gates are constants in the
# probe) — both sources must preselect before they materialize.
IVNT_BENCH_SCALE="${IVNT_BENCH_SCALE:-0.25}" \
IVNT_STORE_MIN_SKIP="${IVNT_STORE_MIN_SKIP:-0.5}" \
  cargo run --release -q -p ivnt-bench --bin store_probe

echo "==> cluster_scale smoke (distributed bit-identity + cluster tax + speedup + wire compression gates)"
# 1 vs N subprocess workers; every run is checked bit-identical to the
# single-process extraction, one worker may cost at most 2.5x the single
# process (median of interleaved pairs; the probe's fixed gate, always
# enforced), N workers must not lose to 1 (median of interleaved pairs
# with both pools alive; report-only when cores < workers), compressed v3 result streaming must shrink wire bytes by
# IVNT_CLUSTER_MIN_WIRE_RATIO (always enforced), and a straggler-slowed
# worker plus a coordinator restart from its checkpoint are exercised
# inline, both asserted bit-identical.
IVNT_BENCH_SCALE="${IVNT_BENCH_SCALE:-0.25}" \
IVNT_CLUSTER_MIN_SPEEDUP="${IVNT_CLUSTER_MIN_SPEEDUP:-1.0}" \
IVNT_CLUSTER_MIN_WIRE_RATIO="${IVNT_CLUSTER_MIN_WIRE_RATIO:-3.0}" \
  cargo run --release -q -p ivnt-bench --bin cluster_scale

echo "==> coordinator-restart smoke (checkpointed resume, bit-identity)"
# The restart fault is also covered inside cluster_scale; this runs the
# dedicated integration tests so the smoke stays meaningful even when
# someone trims the bench.
cargo test --release -q -p ivnt-cluster --test cluster_restart

echo "==> speed_probe smoke (vectorized interpret kernel gate)"
# The batch-columnar interpret kernel must beat the retained scalar fused
# path; bit-identity of all three interpretation paths is asserted inline.
# Core-aware: on machines with fewer cores than partitions the gate relaxes
# to parity inside the probe.
IVNT_BENCH_SCALE="${IVNT_BENCH_SCALE:-0.25}" \
IVNT_INTERPRET_MIN_SPEEDUP="${IVNT_INTERPRET_MIN_SPEEDUP:-1.2}" \
  cargo run --release -q -p ivnt-bench --bin speed_probe

echo "==> pipeline_e2e smoke (parallel bit-identity + SWAB kernel gate)"
# Serial vs parallel Algorithm 1; every parallel run is checked
# bit-identical to the serial reference, and the heap SWAB kernel must beat
# the naive O(n²) reference. The parallel speedup and the obs overhead are
# report-only.
IVNT_BENCH_SCALE="${IVNT_BENCH_SCALE:-0.25}" \
IVNT_SWAB_MIN_SPEEDUP="${IVNT_SWAB_MIN_SPEEDUP:-1.0}" \
  cargo run --release -q -p ivnt-bench --bin pipeline_e2e

echo "==> stream_ingest smoke (streaming bit-identity + kill-mid-stream recovery + ingest-overlap gate)"
# Live ingest into the appendable store, the incremental pipeline checked
# bit-identical to the batch path, a kill-mid-stream child asserted
# recoverable, and `ingest_overlap` (the same frame lines parsed and
# appended inline on one thread over the `ingest()` wall time, median of
# interleaved pairs) gated at the probe's constant 0.85: batched it reads
# 0.92-0.95 with one free core and 1.2-1.9 with two, one record per
# channel message read 0.66-0.76.
IVNT_BENCH_SCALE="${IVNT_BENCH_SCALE:-0.25}" \
  cargo run --release -q -p ivnt-bench --bin stream_ingest

echo "==> infer_probe smoke (DBC-less boundary recovery F1 + merged bit-identity gates)"
# Two-pass inference over the store for all three scenarios, scored
# against simulator ground truth; the worst per-scenario F1 must clear
# IVNT_INFER_MIN_F1, and the merged (authored ∪ inferred) catalog run is
# asserted bit-identical to the authored run inline.
IVNT_BENCH_SCALE="${IVNT_BENCH_SCALE:-0.25}" \
IVNT_INFER_MIN_F1="${IVNT_INFER_MIN_F1:-0.85}" \
  cargo run --release -q -p ivnt-bench --bin infer_probe

echo "==> plan_probe smoke (multi-query shared-scan bit-identity + speedup gate)"
# N concurrent domains from one shared store pass; every shared answer is
# checked bit-identical to its solo session inline, and 4 domains' full
# runs from one `QuerySet::run` must beat 4 sequential `Session::run`s by
# IVNT_PLAN_MIN_SPEEDUP on one core (`extract_speedup`, the front half
# alone, is reported beside it). Last, so that every step above runs
# while this gate is out of reach (ROADMAP, the dictionary-column item).
IVNT_BENCH_SCALE="${IVNT_BENCH_SCALE:-0.25}" \
IVNT_PLAN_MIN_SPEEDUP="${IVNT_PLAN_MIN_SPEEDUP:-1.5}" \
  cargo run --release -q -p ivnt-bench --bin plan_probe

echo "all checks passed"
