//! Preselection and interpretation (Algorithm 1, lines 3–6).
//!
//! * **Preselection** (line 3): σ over `K_b` keeping only `(m_id, b_id)`
//!   pairs that carry a selected signal, so the expensive interpretation
//!   never touches irrelevant messages.
//! * **Interpretation** (lines 4–6): join `K_pre ⋈ U_comb` on
//!   `(m_id, b_id)` — every raw message row meets every rule that extracts
//!   a signal from it — then apply `u1` (relevant-byte slice) and `u2`
//!   (value decode) row-wise, yielding the signal table `K_s`.
//!
//! Two implementations of lines 3–6 exist side by side:
//!
//! * [`preselect`] + [`interpret`] — the *reference* relational path,
//!   mirroring the paper's Spark plan operator by operator. The join
//!   materializes `K_pre ⋈ U_comb`, duplicating each payload row once per
//!   matching rule.
//! * [`Kernel`] ([`extract_signals`]) — the production kernel: one pass
//!   per partition that probes the broadcast rule table and decodes in
//!   place, so neither `K_pre` nor the joined intermediate ever hits
//!   memory. Property tests assert it stays bit-identical to the reference
//!   path. It is compiled once per pipeline and emits either `K_s` or, for
//!   sessions, straight into the per-signal sequences of line 8. Its one
//!   decode loop serves every rule id band: a narrow band prefilters rows
//!   through a cache-resident id table, a wide one (ids spread over more
//!   than 65 536 values) sends every row with an id to the exact probe.
//!   The same loop reads either row container ([`RawRows`]): a raw-trace
//!   [`Batch`] (in-memory traces, the public `K_s` API) or the store's
//!   [`GroupColumns`] (scans, stream micro-batches), decoded in place.

use std::collections::HashMap;
use std::ops::RangeInclusive;
use std::sync::Arc;

use ivnt_frame::prelude::*;
use ivnt_protocol::signal::PhysicalValue;
use ivnt_store::{GroupColumns, Record};

use crate::error::Result;
use crate::rules::{load_window, DecodePlan, PlanDecoded, Rule, RuleSet};
use crate::split::{CodedSequence, SequenceBuilder, SignalRuns};
use crate::tabular::columns as c;

/// Internal column: the joined rule index.
const RULE_IDX: &str = "rule_idx";

/// Per-query interning of the (few) bus names occurring in `U_comb`, so
/// per-row lookups compare a handful of short strings instead of hashing
/// `(&str, i64)` tuples.
struct BusInterner {
    /// The `b_id` dictionary of every `K_s` batch the kernel emits.
    buses: Arc<[Arc<str>]>,
}

impl BusInterner {
    fn from_rules(u_comb: &RuleSet) -> BusInterner {
        let mut buses: Vec<Arc<str>> = Vec::new();
        for rule in u_comb.rules() {
            if !buses.iter().any(|b| b.as_ref() == rule.bus.as_str()) {
                buses.push(Arc::from(rule.bus.as_str()));
            }
        }
        BusInterner {
            buses: buses.into(),
        }
    }

    fn id_of(&self, bus: &str) -> Option<u32> {
        self.buses
            .iter()
            .position(|b| b.as_ref() == bus)
            .map(|i| i as u32)
    }
}

/// Sentinel in dense [`MidTable`] slots: "no rules for this message id".
const NO_RULES: u32 = u32::MAX;

/// Per-bus message-id lookup. Rule message ids cluster in a narrow band,
/// while 95+% of probed rows miss (that is the whole point of
/// preselection), so the miss path must be as close to free as possible: a
/// dense offset-indexed slot table when the id range allows, a hash map
/// otherwise.
enum MidTable {
    Dense { min: i64, slots: Vec<u32> },
    Sparse(HashMap<i64, u32>),
}

/// Widest id span (in slots) the dense representation may allocate.
const DENSE_SPAN_LIMIT: usize = 1 << 16;

impl MidTable {
    fn build(entries: impl Iterator<Item = (i64, u32)> + Clone) -> MidTable {
        let (mut min, mut max) = (i64::MAX, i64::MIN);
        for (mid, _) in entries.clone() {
            min = min.min(mid);
            max = max.max(mid);
        }
        let span = max
            .checked_sub(min)
            .and_then(|s| usize::try_from(s).ok())
            .and_then(|s| s.checked_add(1));
        match span {
            Some(span) if span <= DENSE_SPAN_LIMIT => {
                let mut slots = vec![NO_RULES; span];
                for (mid, group) in entries {
                    slots[(mid - min) as usize] = group;
                }
                MidTable::Dense { min, slots }
            }
            _ => MidTable::Sparse(entries.collect()),
        }
    }

    #[inline]
    fn get(&self, mid: i64) -> Option<u32> {
        match self {
            MidTable::Dense { min, slots } => {
                let idx = usize::try_from(mid.wrapping_sub(*min)).ok()?;
                match slots.get(idx) {
                    Some(&group) if group != NO_RULES => Some(group),
                    _ => None,
                }
            }
            MidTable::Sparse(map) => map.get(&mid).copied(),
        }
    }
}

/// Conservative global message-id prefilter: one bit per id in the union
/// band of *all* rule mids, set when any bus has rules for that id. The
/// kernel scan consults it before touching the bus column, so the ~95+% of
/// rows whose id carries no selected signal cost one cache-hot bitset test
/// — no `Arc` compare, no per-bus table walk. A set bit only *admits* a
/// row to the exact `(bus, m_id)` probe; it never decides a match.
enum MidFilter {
    /// One byte per id over `mid - min` (≤64 KiB, cache-resident); ids
    /// outside the band test as absent. A byte table beats a bitset here:
    /// the admit test is a single indexed load with no shift/mask chain,
    /// and the scan is instruction-bound, not footprint-bound.
    Band { min: i64, set: Vec<u8> },
    /// Id band too wide for a cache-resident table: admit every row with
    /// an id and let the exact probe decide.
    Wide,
}

impl MidFilter {
    fn build(mids: impl Iterator<Item = i64>) -> MidFilter {
        let mids: Vec<i64> = mids.collect();
        let (mut min, mut max) = (i64::MAX, i64::MIN);
        for &mid in &mids {
            min = min.min(mid);
            max = max.max(mid);
        }
        let span = max
            .checked_sub(min)
            .and_then(|s| usize::try_from(s).ok())
            .and_then(|s| s.checked_add(1));
        match span {
            // `min > i64::MIN` lets the scan fold null ids into an
            // `i64::MIN` sentinel that provably lands outside every band
            // (the matching index would need a rule mid of `i64::MIN`).
            Some(span) if span <= DENSE_SPAN_LIMIT && min > i64::MIN => {
                let mut set = vec![0u8; span];
                for &mid in &mids {
                    set[(mid - min) as usize] = 1;
                }
                MidFilter::Band { min, set }
            }
            _ => MidFilter::Wide,
        }
    }

    /// `false` proves no rule on any bus reads `mid`.
    #[inline]
    fn admits(&self, mid: i64) -> bool {
        match self {
            MidFilter::Band { min, set } => band_admits(*min, set, mid),
            MidFilter::Wide => true,
        }
    }
}

/// The band test — one branchless table load; ids outside the band (the
/// kernel folds null ids to `i64::MIN`) index past `set` and test absent.
#[inline(always)]
fn band_admits(min: i64, set: &[u8], mid: i64) -> bool {
    set.get(mid.wrapping_sub(min) as usize)
        .copied()
        .unwrap_or(0)
        != 0
}

/// The broadcast rule table of the fused kernel: interned buses, per-bus
/// message-id tables, and rule groups in ascending rule order (matching the
/// reference join's build-insertion order).
struct RuleLut {
    interner: BusInterner,
    by_bus: Vec<MidTable>,
    /// Rule-index groups; `MidTable` values index into this.
    groups: Vec<Vec<u32>>,
    /// Global id prefilter for the batch-columnar scan.
    prefilter: MidFilter,
}

/// Probe state of a record slice (and of the scalar reference kernel),
/// two memos deep: rows there carry bus names, not codes.
///
/// * The last key and its result: cyclic traffic repeats one
///   `(bus, m_id)` key for stretches, so every later row of such a run
///   costs one pointer-and-int compare and no LUT probe.
/// * A learned table of bus `Arc` data pointers. Records share one
///   interned `Arc<str>` per bus, so a slice sees only a handful of
///   distinct pointers — each resolved by string lookup once and by
///   pointer comparison ever after, even when adjacent rows alternate
///   between buses (gateway copies).
///   Unknown buses are learned too, so their rows stay on the pointer
///   path.
struct ProbeState {
    last: (*const u8, usize, i64),
    last_hit: Option<(u32, u32)>,
    seen: Vec<(*const u8, usize, Option<u32>)>,
}

/// Cap on learned bus pointers per slice; beyond it (buses without
/// interned strings) lookups fall back to the interner scan.
const PROBE_PTR_LIMIT: usize = 32;

impl ProbeState {
    fn new() -> ProbeState {
        ProbeState {
            // No `Arc<str>` has a null data pointer, so no row hits this.
            last: (std::ptr::null(), 0, 0),
            last_hit: None,
            seen: Vec::new(),
        }
    }
}

impl RuleLut {
    fn build(u_comb: &RuleSet) -> RuleLut {
        let interner = BusInterner::from_rules(u_comb);
        let mut keyed: HashMap<(u32, i64), u32> = HashMap::new();
        let mut groups: Vec<Vec<u32>> = Vec::new();
        for (i, rule) in u_comb.rules().iter().enumerate() {
            let bid = interner
                .id_of(&rule.bus)
                .expect("interner covers all rule buses");
            let group = *keyed
                .entry((bid, i64::from(rule.message_id)))
                .or_insert_with(|| {
                    groups.push(Vec::new());
                    (groups.len() - 1) as u32
                });
            groups[group as usize].push(i as u32);
        }
        let by_bus = (0..interner.buses.len() as u32)
            .map(|bid| {
                MidTable::build(
                    keyed
                        .iter()
                        .filter(move |((b, _), _)| *b == bid)
                        .map(|((_, mid), group)| (*mid, *group))
                        .collect::<Vec<_>>()
                        .into_iter(),
                )
            })
            .collect();
        let prefilter = MidFilter::build(keyed.keys().map(|&(_, mid)| mid));
        RuleLut {
            interner,
            by_bus,
            groups,
            prefilter,
        }
    }

    /// Rule indices (ascending) for a row's `(bus, m_id)`, or `None`.
    #[inline]
    fn probe(&self, bus: &Arc<str>, mid: i64, state: &mut ProbeState) -> Option<&[u32]> {
        self.probe_group(bus, mid, state)
            .map(|(group, _)| self.groups[group as usize].as_slice())
    }

    /// Like [`RuleLut::probe`] but returns the `(group, bus_id)` pair, so
    /// the kernel can carry the interned bus through to emission. Tries
    /// the last key, then the learned bus pointers, then the interner.
    #[inline]
    fn probe_group(&self, bus: &Arc<str>, mid: i64, state: &mut ProbeState) -> Option<(u32, u32)> {
        let key = (bus.as_ptr(), bus.len(), mid);
        if state.last == key {
            return state.last_hit;
        }
        let learned = state
            .seen
            .iter()
            .find(|&&(p, l, _)| p == bus.as_ptr() && l == bus.len())
            .map(|&(_, _, id)| id);
        let bid = learned.unwrap_or_else(|| {
            let id = self.interner.id_of(bus);
            if state.seen.len() < PROBE_PTR_LIMIT {
                state.seen.push((bus.as_ptr(), bus.len(), id));
            }
            id
        });
        let hit = bid.and_then(|bid| Some((self.by_bus[bid as usize].get(mid)?, bid)));
        state.last = key;
        state.last_hit = hit;
        hit
    }
}

/// The probe of a coded bus column — a raw batch's `b_id`, a store
/// container's bus codes: each dictionary entry's kernel bus id is
/// resolved by name once, behind a last-key memo on `(code, m_id)`, so a
/// run of rows with one key costs one compare and no LUT probe.
struct CodeProbe {
    bus_ids: Vec<Option<u32>>,
    last: (u32, i64),
    last_hit: Option<(u32, u32)>,
}

impl CodeProbe {
    /// The probe of codes into the bus dictionary `buses`.
    fn new(buses: &[Arc<str>], lut: &RuleLut) -> CodeProbe {
        CodeProbe {
            bus_ids: buses.iter().map(|b| lut.interner.id_of(b)).collect(),
            // A null code never hits, so this key's cached miss is right.
            last: (DictColumn::NULL, i64::MIN),
            last_hit: None,
        }
    }

    /// The `(group, bus_id)` of a row's bus `code` and `mid`; a null code
    /// matches no rule (inner-join semantics).
    #[inline]
    fn probe(&mut self, lut: &RuleLut, code: u32, mid: i64) -> Option<(u32, u32)> {
        let key = (code, mid);
        if self.last != key {
            let bid = self.bus_ids.get(code as usize).copied().flatten();
            self.last_hit = bid.and_then(|bid| Some((lut.by_bus[bid as usize].get(mid)?, bid)));
            self.last = key;
        }
        self.last_hit
    }
}

/// Record-level preselection (line 3) for in-memory traces, the twin of
/// the store's scan predicate: keeps exactly the records the fused kernel
/// would admit, within an inclusive µs window, before any becomes cells.
pub(crate) struct RecordSelector<'k> {
    /// `None`: every message (the session does not preselect).
    lut: Option<&'k RuleLut>,
    window_us: RangeInclusive<u64>,
}

impl<'k> RecordSelector<'k> {
    pub(crate) fn new(
        kernel: Option<&'k Kernel>,
        window_us: Option<(u64, u64)>,
    ) -> RecordSelector<'k> {
        let (from, to) = window_us.unwrap_or((0, u64::MAX));
        RecordSelector {
            lut: kernel.map(|k| &k.lut),
            window_us: from..=to,
        }
    }

    /// The records of `records` this selector keeps, in order.
    pub(crate) fn select<'a>(&self, records: &'a [Record]) -> Vec<&'a Record> {
        let mut probe = ProbeState::new();
        let admits = |r: &&Record| {
            let mid = i64::from(r.message_id);
            self.window_us.contains(&r.timestamp_us)
                && self.lut.is_none_or(|lut| {
                    lut.prefilter.admits(mid) && lut.probe_group(&r.bus, mid, &mut probe).is_some()
                })
        };
        records.iter().filter(admits).collect()
    }
}

/// Preselection (line 3): keeps only rows whose `(b_id, m_id)` occurs in
/// `U_comb`.
///
/// Implemented as a vectorized columnar scan (no per-row allocation): this
/// step runs over the *entire* raw trace, so it must be the cheapest
/// operator in the pipeline — that is exactly why the paper performs it
/// before the expensive interpretation. Bus names are interned to small
/// ints once per query, so the per-row membership check hashes a single
/// `i64` under the interned bus id instead of a `(&str, i64)` tuple.
///
/// # Errors
///
/// Propagates tabular-engine failures.
pub fn preselect(raw: &DataFrame, u_comb: &RuleSet) -> Result<DataFrame> {
    let lut = RuleLut::build(u_comb);
    let bus_idx = raw.schema().index_of(c::BUS)?;
    let mid_idx = raw.schema().index_of(c::MESSAGE_ID)?;
    let parts: Vec<Batch> = raw
        .executor()
        .map_ref(raw.partitions(), |batch| {
            let buses = str_column(batch, bus_idx)?;
            let mids = int_column(batch, mid_idx)?;
            let mut probe = CodeProbe::new(buses.values(), &lut);
            let mask: Vec<bool> = buses
                .codes()
                .iter()
                .zip(mids)
                .map(|(&b, m)| m.is_some_and(|m| probe.probe(&lut, b, m).is_some()))
                .collect();
            batch.filter(&mask)
        })
        .into_iter()
        .collect::<std::result::Result<_, _>>()?;
    Ok(DataFrame::from_partitions(raw.schema().clone(), parts)?.with_executor(raw.executor()))
}

pub(crate) fn str_column(batch: &Batch, idx: usize) -> ivnt_frame::Result<&DictColumn> {
    batch
        .column(idx)
        .as_dict()
        .ok_or_else(|| ivnt_frame::Error::TypeMismatch {
            expected: "str".into(),
            actual: batch.column(idx).data_type().to_string(),
        })
}

fn int_column(batch: &Batch, idx: usize) -> ivnt_frame::Result<&[Option<i64>]> {
    batch
        .column(idx)
        .as_int_slice()
        .ok_or_else(|| ivnt_frame::Error::TypeMismatch {
            expected: "int".into(),
            actual: batch.column(idx).data_type().to_string(),
        })
}

pub(crate) fn float_column(batch: &Batch, idx: usize) -> ivnt_frame::Result<&[Option<f64>]> {
    batch
        .column(idx)
        .as_float_slice()
        .ok_or_else(|| ivnt_frame::Error::TypeMismatch {
            expected: "float".into(),
            actual: batch.column(idx).data_type().to_string(),
        })
}

fn bytes_column(batch: &Batch, idx: usize) -> ivnt_frame::Result<&[Option<Arc<[u8]>>]> {
    batch
        .column(idx)
        .as_bytes_slice()
        .ok_or_else(|| ivnt_frame::Error::TypeMismatch {
            expected: "bytes".into(),
            actual: batch.column(idx).data_type().to_string(),
        })
}

/// Best-effort cache-line prefetch. The batch-columnar kernel touches hit
/// rows at strides the hardware prefetcher cannot follow; requesting the
/// lines a few candidates ahead turns four serialized misses per hit into
/// overlapped ones. A miss or junk address only wastes the request, so
/// this is safe for any pointer and compiles to nothing off x86-64.
#[inline(always)]
fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is a pure cache hint; it never faults and
    // performs no memory access observable by the program.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Schema of the interpreted signal table `K_s`.
pub fn signal_schema() -> Arc<Schema> {
    Schema::from_pairs([
        (c::T, DataType::Float),
        (c::SIGNAL, DataType::Str),
        (c::BUS, DataType::Str),
        (c::VALUE_NUM, DataType::Float),
        (c::VALUE_TEXT, DataType::Str),
    ])
    .expect("static schema is valid")
    .into_shared()
}

/// Builds the tabular form of `U_comb` for the interpretation join:
/// one row `(s_id, rule_bus, rule_mid, rule_idx)` per rule.
fn rules_frame(u_comb: &RuleSet) -> Result<DataFrame> {
    let schema = Schema::from_pairs([
        (c::SIGNAL, DataType::Str),
        ("rule_bus", DataType::Str),
        ("rule_mid", DataType::Int),
        (RULE_IDX, DataType::Int),
    ])?
    .into_shared();
    let rows = u_comb.rules().iter().enumerate().map(|(i, r)| {
        vec![
            Value::from(r.signal.as_str()),
            Value::from(r.bus.as_str()),
            Value::Int(i64::from(r.message_id)),
            Value::Int(i64::try_from(i).expect("rule count fits i64")),
        ]
    });
    Ok(DataFrame::from_rows(schema, rows)?)
}

/// `u1 ∘ u2` for one instance, with the error policy shared by both
/// interpretation paths: decode *errors* yield `Some(None)` (a null-valued
/// instance, kept and flagged downstream), *absence* of a
/// presence-conditional field yields `None` (no instance at all), and a
/// null payload yields a null-valued instance.
#[inline]
fn decode_instance(rule: &Rule, payload: Option<&[u8]>) -> Option<Option<PhysicalValue>> {
    match payload {
        Some(payload) => match rule.relevant_bytes(payload) {
            Ok(Some(rel)) => Some(rule.decode_relevant(rel).ok()),
            Ok(None) => None,
            Err(_) => Some(None),
        },
        None => Some(None),
    }
}

/// Interpretation (lines 4–6), reference relational path: join with the
/// rule table and decode.
///
/// Returns `K_s` with one row per signal instance:
/// `(t, s_id, b_id, v_num, v_text)`. Undecodable instances (truncated
/// payloads, unlabeled raw values) decode to null values rather than
/// failing the batch — on real traces single corrupt frames must not abort
/// fleet-scale extraction.
///
/// The `u1`/`u2` mappings run as one fused columnar pass per partition:
/// logically `u1` (relevant-byte slice) feeds `u2` (value decode) per row,
/// but the intermediate `l_rel` never hits a column. The join output
/// itself *is* materialized here, which is what [`extract_signals`]
/// additionally avoids; this path is kept as the executable specification
/// the fused kernel is tested against.
///
/// # Errors
///
/// Propagates tabular-engine failures.
pub fn interpret(pre: &DataFrame, u_comb: &RuleSet) -> Result<DataFrame> {
    let rules = rules_frame(u_comb)?;
    // Line 4: K_join = K_pre ⋈ U_comb on (b_id, m_id).
    let joined = pre.join(
        &rules,
        &[c::BUS, c::MESSAGE_ID],
        &["rule_bus", "rule_mid"],
        JoinType::Inner,
    )?;

    // Lines 5–6: u1 ∘ u2 per row, vectorized per partition.
    let rule_vec: Arc<Vec<Arc<Rule>>> = Arc::new(u_comb.rules().to_vec());
    let schema = joined.schema();
    let idx_t = schema.index_of(c::T)?;
    let idx_sig = schema.index_of(c::SIGNAL)?;
    let idx_bus = schema.index_of(c::BUS)?;
    let idx_payload = schema.index_of(c::PAYLOAD)?;
    let idx_rule = schema.index_of(RULE_IDX)?;
    let out_schema = signal_schema();

    let parts: Vec<Batch> = joined
        .executor()
        .map_ref(joined.partitions(), |batch| {
            let rule_idx = batch.column(idx_rule).as_int_slice().unwrap_or(&[]);
            let payloads = batch.column(idx_payload).as_bytes_slice().unwrap_or(&[]);
            let n = batch.num_rows();
            let mut v_num: Vec<Option<f64>> = Vec::with_capacity(n);
            let mut v_text: Vec<Option<Arc<str>>> = Vec::with_capacity(n);
            // Presence-conditional fields (SOME/IP optional fields) may be
            // absent from an instance; such rows produce no signal instance
            // and are dropped.
            let mut present: Vec<bool> = Vec::with_capacity(n);
            for row in 0..n {
                let rule = rule_idx
                    .get(row)
                    .copied()
                    .flatten()
                    .and_then(|i| usize::try_from(i).ok())
                    .and_then(|i| rule_vec.get(i));
                let decoded = rule.and_then(|rule| {
                    decode_instance(rule, payloads.get(row).and_then(|p| p.as_deref()))
                });
                match decoded {
                    Some(Some(PhysicalValue::Num(v))) => {
                        v_num.push(Some(v));
                        v_text.push(None);
                        present.push(true);
                    }
                    Some(Some(PhysicalValue::Text(s))) => {
                        v_num.push(None);
                        v_text.push(Some(Arc::from(s.as_str())));
                        present.push(true);
                    }
                    Some(None) => {
                        v_num.push(None);
                        v_text.push(None);
                        present.push(true);
                    }
                    None => {
                        v_num.push(None);
                        v_text.push(None);
                        present.push(false);
                    }
                }
            }
            let columns = vec![
                batch.column(idx_t).clone(),
                batch.column(idx_sig).clone(),
                batch.column(idx_bus).clone(),
                Column::Float(v_num),
                Column::Str(DictColumn::from_cells(v_text)),
            ];
            let out = Batch::new(out_schema.clone(), columns)?;
            if present.iter().all(|&p| p) {
                Ok(out)
            } else {
                out.filter(&present)
            }
        })
        .into_iter()
        .collect::<std::result::Result<_, _>>()?;
    Ok(DataFrame::from_partitions(out_schema, parts)?.with_executor(joined.executor()))
}

/// Row-at-a-time fused interpretation: the pre-vectorization kernel,
/// retained as the scalar baseline the batch-columnar [`extract_signals`]
/// is benchmarked (and property-tested) against.
///
/// Same contract as [`extract_signals`]: bit-identical to
/// `interpret(&preselect(raw)?, u_comb)`.
///
/// # Errors
///
/// Propagates tabular-engine failures.
pub fn interpret_fused_scalar(raw: &DataFrame, u_comb: &RuleSet) -> Result<DataFrame> {
    let schema = raw.schema();
    let idx_t = schema.index_of(c::T)?;
    let idx_bus = schema.index_of(c::BUS)?;
    let idx_mid = schema.index_of(c::MESSAGE_ID)?;
    let idx_payload = schema.index_of(c::PAYLOAD)?;
    let out_schema = signal_schema();

    // Broadcast side, built once per query: interned bus ids, per-bus
    // message-id tables with rule indices ascending, and one shared
    // `Arc<str>` per signal name so emission is a refcount bump.
    let lut = RuleLut::build(u_comb);
    let rules: Vec<(Arc<Rule>, Arc<str>)> = u_comb
        .rules()
        .iter()
        .map(|r| (r.clone(), Arc::from(r.signal.as_str())))
        .collect();

    let parts: Vec<Batch> = raw
        .executor()
        .map_ref(raw.partitions(), |batch| {
            let ts = float_column(batch, idx_t)?;
            let buses = str_column(batch, idx_bus)?;
            let mids = int_column(batch, idx_mid)?;
            let payloads = bytes_column(batch, idx_payload)?;
            let mut t_out: Vec<Option<f64>> = Vec::new();
            let mut s_out: Vec<Option<Arc<str>>> = Vec::new();
            let mut b_out: Vec<Option<Arc<str>>> = Vec::new();
            let mut v_num: Vec<Option<f64>> = Vec::new();
            let mut v_text: Vec<Option<Arc<str>>> = Vec::new();
            let mut probe = ProbeState::new();
            for (((t, bus), mid), payload) in ts.iter().zip(buses.iter()).zip(mids).zip(payloads) {
                // Null bus or m_id never matches a rule (inner-join
                // semantics); unknown pairs are preselection drops.
                let (Some(bus), Some(mid)) = (bus, mid) else {
                    continue;
                };
                let Some(rule_hits) = lut.probe(bus, *mid, &mut probe) else {
                    continue;
                };
                for &ri in rule_hits {
                    let (rule, signal) = &rules[ri as usize];
                    let Some(value) = decode_instance(rule, payload.as_deref()) else {
                        continue;
                    };
                    t_out.push(*t);
                    s_out.push(Some(signal.clone()));
                    b_out.push(Some(bus.clone()));
                    match value {
                        Some(PhysicalValue::Num(v)) => {
                            v_num.push(Some(v));
                            v_text.push(None);
                        }
                        Some(PhysicalValue::Text(s)) => {
                            v_num.push(None);
                            v_text.push(Some(Arc::from(s.as_str())));
                        }
                        None => {
                            v_num.push(None);
                            v_text.push(None);
                        }
                    }
                }
            }
            Batch::new(
                out_schema.clone(),
                vec![
                    Column::Float(t_out),
                    Column::Str(DictColumn::from_cells(s_out)),
                    Column::Str(DictColumn::from_cells(b_out)),
                    Column::Float(v_num),
                    Column::Str(DictColumn::from_cells(v_text)),
                ],
            )
        })
        .into_iter()
        .collect::<std::result::Result<_, _>>()?;
    Ok(DataFrame::from_partitions(out_schema, parts)?.with_executor(raw.executor()))
}

/// All signals of one message fused onto a single payload window: one LE
/// load (plus at most one byte-swap) per row feeds every signal's
/// shift/mask program. Built only when every rule in the group compiled to
/// an ungated word plan and the union of their windows fits 8 bytes.
struct FusedGroup {
    first: usize,
    span: usize,
    needs_be: bool,
    /// One op per rule, parallel to the group's rule-index list.
    ops: Vec<crate::rules::WindowOp>,
}

/// The compiled broadcast side of the batch-columnar kernel: the probe LUT
/// plus, per rule, its [`DecodePlan`], signal code and label codes, and
/// per group an optional fused payload window.
///
/// Compiling is the expensive part of a small decode (every rule becomes a
/// plan, every message a fused window), so a [`Pipeline`]
/// (crate::pipeline::Pipeline) compiles its `U_comb` once and every
/// partition, row group, planner pass and stream micro-batch reuses it.
pub struct Kernel {
    lut: RuleLut,
    plans: Vec<DecodePlan>,
    /// Per rule: index into `signal_names`.
    signal_idx: Vec<u32>,
    /// The `s_id` dictionary of every `K_s` batch the kernel emits.
    signal_names: Arc<[Arc<str>]>,
    /// Per rule: the code of its plan's first label.
    label_base: Vec<u32>,
    /// The `v_text` dictionary of every `K_s` batch the kernel emits:
    /// every plan's labels, one after another.
    labels: Arc<[Arc<str>]>,
    /// Per LUT group: the fused window, when expressible.
    fused: Vec<Option<FusedGroup>>,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("rules", &self.plans.len())
            .field("signals", &self.signal_names.len())
            .finish_non_exhaustive()
    }
}

impl Kernel {
    /// Compiles `u_comb`: rules to [`DecodePlan`]s, once.
    pub fn compile(u_comb: &RuleSet) -> Kernel {
        ivnt_obs::with(|r| r.add("interpret_kernel_builds_total", 1));
        let lut = RuleLut::build(u_comb);
        let plans: Vec<DecodePlan> = u_comb.rules().iter().map(DecodePlan::compile).collect();
        // Signal codes in first-appearance order.
        let mut signal_names: Vec<Arc<str>> = Vec::new();
        let mut codes: HashMap<&str, u32> = HashMap::new();
        let signal_idx = u_comb
            .rules()
            .iter()
            .map(|r| {
                *codes.entry(r.signal.as_str()).or_insert_with(|| {
                    signal_names.push(Arc::from(r.signal.as_str()));
                    (signal_names.len() - 1) as u32
                })
            })
            .collect();
        let mut labels: Vec<Arc<str>> = Vec::new();
        let label_base = plans
            .iter()
            .map(|plan| {
                let base = u32::try_from(labels.len()).expect("label codes fit u32");
                labels.extend_from_slice(plan.labels());
                base
            })
            .collect();
        let fused = lut
            .groups
            .iter()
            .map(|g| Kernel::fuse_group(g, &plans))
            .collect();
        Kernel {
            lut,
            plans,
            signal_idx,
            signal_names: signal_names.into(),
            label_base,
            labels: labels.into(),
            fused,
        }
    }

    fn fuse_group(group: &[u32], plans: &[DecodePlan]) -> Option<FusedGroup> {
        let mut first = usize::MAX;
        let mut end = 0usize;
        for &ri in group {
            let (f, e) = plans[ri as usize].word_window()?;
            first = first.min(f);
            end = end.max(e);
        }
        let span = end.checked_sub(first)?;
        if span > 8 {
            return None;
        }
        let mut needs_be = false;
        let mut ops = Vec::with_capacity(group.len());
        for &ri in group {
            let op = plans[ri as usize].rebase_to_window(first, span)?;
            needs_be |= op.big_endian();
            ops.push(op);
        }
        Some(FusedGroup {
            first,
            span,
            needs_be,
            ops,
        })
    }

    /// Dispatches one matched row to the cheapest applicable decode path:
    /// the group's fused single-word program, the per-rule plans, or the
    /// null-payload emission.
    #[inline]
    fn dispatch_row<S: EmitSink>(
        &self,
        group: u32,
        payload: Option<&[u8]>,
        t: Option<f64>,
        bus: u32,
        out: &mut S,
    ) {
        let group_rules = self.lut.groups[group as usize].as_slice();
        let signal = |ri: u32| self.signal_idx[ri as usize];
        // A plan's label index becomes the kernel's label code.
        let value = |ri: u32, decoded: PlanDecoded| match decoded {
            PlanDecoded::Text(i) => PlanDecoded::Text(self.label_base[ri as usize] + i),
            decoded => decoded,
        };
        match (self.fused[group as usize].as_ref(), payload) {
            // The payload covers the fused window: one word load, then a
            // shift/mask program per signal.
            (Some(f), Some(p)) if p.len() >= f.first + f.span => {
                let (le, be) = load_window(p, f.first, f.span, f.needs_be);
                for (op, &ri) in f.ops.iter().zip(group_rules) {
                    out.push(t, signal(ri), bus, value(ri, op.eval(le, be)));
                }
            }
            // Gated signals, scalar fallbacks, payloads shorter than the
            // fused window.
            (_, Some(p)) => {
                for &ri in group_rules {
                    match self.plans[ri as usize].decode_slice(p) {
                        PlanDecoded::Absent => {}
                        decoded => out.push(t, signal(ri), bus, value(ri, decoded)),
                    }
                }
            }
            // Null payload: a null-valued instance per rule of the group.
            (_, None) => {
                for &ri in group_rules {
                    out.push(t, signal(ri), bus, PlanDecoded::Null);
                }
            }
        }
    }
}

/// Emission sink of the batch-columnar kernel. The decode paths are
/// generic over it so the single-table [`Builders`] and the multi-query
/// [`RoutedBuilders`] monomorphize separately — the solo path pays
/// nothing for routing support. Signal, bus and label arrive as codes
/// into the kernel's dictionaries.
trait EmitSink {
    /// Hint: the batch about to be decoded emits at most `upper` rows.
    fn reserve(&mut self, upper: usize);
    fn push(&mut self, t: Option<f64>, s: u32, b: u32, decoded: PlanDecoded);
}

/// Pre-sized dictionary-encoded output builders for the signal table:
/// signal, bus and label are `u32` codes into the kernel's dictionaries,
/// and stay codes in the batch.
#[derive(Default)]
struct Builders {
    t: Vec<Option<f64>>,
    s: Vec<u32>,
    b: Vec<u32>,
    num: Vec<Option<f64>>,
    text: Vec<u32>,
}

impl EmitSink for Builders {
    fn reserve(&mut self, upper: usize) {
        self.t.reserve(upper);
        self.s.reserve(upper);
        self.b.reserve(upper);
        self.num.reserve(upper);
        self.text.reserve(upper);
    }

    #[inline]
    fn push(&mut self, t: Option<f64>, s: u32, b: u32, decoded: PlanDecoded) {
        self.t.push(t);
        self.s.push(s);
        self.b.push(b);
        let (num, text) = match decoded {
            PlanDecoded::Num(v) => (Some(v), DictColumn::NULL),
            PlanDecoded::Text(label) => (None, label),
            PlanDecoded::Null | PlanDecoded::Absent => (None, DictColumn::NULL),
        };
        self.num.push(num);
        self.text.push(text);
    }
}

impl Builders {
    /// Assembles the output batch: `s_id`, `b_id` and `v_text` are codes
    /// over the kernel's dictionaries, so no row clones a string.
    fn into_batch(self, schema: &Arc<Schema>, kernel: &Kernel) -> ivnt_frame::Result<Batch> {
        let s_out = DictColumn::new(self.s, kernel.signal_names.clone())?;
        let b_out = DictColumn::new(self.b, kernel.lut.interner.buses.clone())?;
        let text = DictColumn::new(self.text, kernel.labels.clone())?;
        Batch::new(
            schema.clone(),
            vec![
                Column::Float(self.t),
                Column::Str(s_out),
                Column::Str(b_out),
                Column::Float(self.num),
                Column::Str(text),
            ],
        )
    }
}

/// N per-query [`Builders`] behind one signal-index route table: the
/// multi-query planner's union kernel emits each decoded row straight
/// into its owning query's output, so no post-hoc routing pass (name
/// lookups plus a gather per query) ever touches the emitted rows.
/// Slot `outs.len() - 1` is the discard lane for unrouted signals.
struct RoutedBuilders<'r> {
    route: &'r [u32],
    outs: Vec<Builders>,
}

impl EmitSink for RoutedBuilders<'_> {
    /// The batch's emission bound, split evenly across the query lanes.
    fn reserve(&mut self, upper: usize) {
        let per = upper / (self.outs.len() - 1).max(1) + 1;
        for out in &mut self.outs {
            out.reserve(per);
        }
    }

    #[inline]
    fn push(&mut self, t: Option<f64>, s: u32, b: u32, decoded: PlanDecoded) {
        self.outs[self.route[s as usize] as usize].push(t, s, b, decoded);
    }
}

/// The per-signal sink: rows land in their signal's row stream as they are
/// decoded, one [`CodedRow`](crate::split::CodedRow) each, so line 8's
/// split costs nothing after the kernel. Unsized up front — an even share
/// of `upper` per signal would over-allocate every slow signal, and the
/// streams grow across a whole job, not per batch.
impl EmitSink for SignalRuns {
    fn reserve(&mut self, _upper: usize) {}

    #[inline]
    fn push(&mut self, t: Option<f64>, s: u32, b: u32, decoded: PlanDecoded) {
        let (num, text) = match decoded {
            PlanDecoded::Num(v) => (Some(v), None),
            PlanDecoded::Text(label) => (None, Some(label)),
            PlanDecoded::Null | PlanDecoded::Absent => (None, None),
        };
        self.push_row(s, t, b, num, text);
    }
}

impl Kernel {
    /// `rows` decoded into `out`.
    ///
    /// # Panics
    ///
    /// When a mask's length differs from its container's row count.
    fn decode<S: EmitSink>(&self, rows: RawRows<'_>, out: &mut S) -> ivnt_frame::Result<()> {
        match rows {
            RawRows::Batch(batch) => decode_rows(self, BatchRows::new(batch, &self.lut)?, out),
            RawRows::Columns(rows, mask) => {
                if let Some(mask) = mask {
                    assert_eq!(mask.len(), rows.len(), "one mask flag per row");
                }
                decode_rows(self, ColumnRows::new(rows, mask, &self.lut), out);
            }
        }
        Ok(())
    }

    /// `K_s` of `raw`, one output partition per input partition, mapped
    /// over `raw`'s executor.
    ///
    /// # Errors
    ///
    /// Propagates tabular-engine failures.
    pub fn extract(&self, raw: &DataFrame) -> Result<DataFrame> {
        let parts: Vec<Batch> = raw
            .executor()
            .try_map_ref(raw.partitions(), |batch| self.extract_batch(batch))?;
        Ok(DataFrame::from_partitions(signal_schema(), parts)?.with_executor(raw.executor()))
    }

    /// `K_s` of one raw batch or store row container.
    ///
    /// # Errors
    ///
    /// Propagates tabular-engine failures (a batch of another shape).
    pub fn extract_batch<'a>(&self, raw: impl Into<RawRows<'a>>) -> Result<Batch> {
        let mut out = Builders::default();
        self.decode(raw.into(), &mut out)?;
        Ok(out.into_batch(&signal_schema(), self)?)
    }

    /// Multi-query interpretation: one pass over a union rule set whose
    /// emissions are routed at the emission site into `n_routes` per-query
    /// outputs.
    ///
    /// `route_of` maps a signal name to its owning route; values `>=
    /// n_routes` send that signal's rows to a discard lane. Routing happens
    /// *inside* the kernel's emit step (an index load per emitted row), so
    /// answering N disjoint queries costs one decode plus one table build
    /// per query — no name hashing or gather over the emitted rows.
    ///
    /// Returns one batch per route, in route order: exactly the rows (and
    /// row order) that [`Kernel::extract_batch`] of `raw` with only that
    /// route's rules would produce, provided no signal name is claimed by
    /// two routes.
    ///
    /// # Errors
    ///
    /// Propagates tabular-engine failures.
    pub(crate) fn extract_routed<'a>(
        &self,
        raw: impl Into<RawRows<'a>>,
        n_routes: usize,
        route_of: impl Fn(&str) -> usize,
    ) -> Result<Vec<Batch>> {
        // Signal index → route; out-of-range claims clamp to the discard
        // lane.
        let route: Vec<u32> = self
            .signal_names
            .iter()
            .map(|s| route_of(s).min(n_routes) as u32)
            .collect();
        let mut out = RoutedBuilders {
            route: &route,
            outs: (0..=n_routes).map(|_| Builders::default()).collect(),
        };
        self.decode(raw.into(), &mut out)?;
        out.outs.pop(); // discard lane
        let schema = signal_schema();
        out.outs
            .into_iter()
            .map(|b| Ok(b.into_batch(&schema, self)?))
            .collect()
    }

    /// One raw batch or store row container decoded into `runs`, a sink
    /// of this kernel's [`sequence_builder`](Kernel::sequence_builder).
    pub(crate) fn decode_runs<'a>(
        &self,
        raw: impl Into<RawRows<'a>>,
        runs: &mut SignalRuns,
    ) -> Result<()> {
        Ok(self.decode(raw.into(), runs)?)
    }

    /// A [`SequenceBuilder`] over this kernel's signal, bus and label
    /// codes.
    pub(crate) fn sequence_builder(&self) -> SequenceBuilder {
        SequenceBuilder::with_dictionaries(
            &self.signal_names,
            &self.lut.interner.buses,
            &self.labels,
        )
    }

    /// Lines 3–8 of one raw batch or store row container (a stream
    /// micro-batch): decoded straight into per-signal coded sequences, the
    /// rows of `split_by_signal(&extract_signals(..))` without the table
    /// between.
    ///
    /// # Errors
    ///
    /// Propagates tabular-engine failures.
    pub fn coded_sequences<'a>(&self, raw: impl Into<RawRows<'a>>) -> Result<Vec<CodedSequence>> {
        let mut builder = self.sequence_builder();
        self.decode_runs(raw, builder.runs_mut())?;
        Ok(builder.finish())
    }

    /// Preselection (line 3) on records: the ones whose `(b_id, m_id)`
    /// some rule decodes, in order — the record selector trace runs use,
    /// so a caller builds cells only for rows the kernel would admit.
    pub fn select_records<'a>(&self, records: &'a [Record]) -> Vec<&'a Record> {
        RecordSelector::new(Some(self), None).select(records)
    }
}

/// The row containers the kernel decodes. Both go through one decode
/// loop, compiled once per container.
#[derive(Debug, Clone, Copy)]
pub enum RawRows<'a> {
    /// A raw-trace batch (`raw_trace_schema`).
    Batch(&'a Batch),
    /// A store row container, restricted to the rows a mask (one flag per
    /// row) sets when one is given: rows keep their codes and their
    /// payloads stay slices of its arena.
    Columns(&'a GroupColumns, Option<&'a [bool]>),
}

impl<'a> From<&'a Batch> for RawRows<'a> {
    fn from(batch: &'a Batch) -> RawRows<'a> {
        RawRows::Batch(batch)
    }
}

impl<'a> From<&'a GroupColumns> for RawRows<'a> {
    fn from(rows: &'a GroupColumns) -> RawRows<'a> {
        RawRows::Columns(rows, None)
    }
}

/// One row container as the decode loop reads it, with its probe memo.
trait RowSource {
    /// The admit pass: appends `(row, id)` for every row whose message id
    /// `filter` admits.
    fn admit(&self, filter: &MidFilter, cand: &mut Vec<(u32, i64)>);
    /// The row's `(rule group, kernel bus id)`, or `None` when no rule
    /// reads its `(bus, m_id)`.
    fn probe(&mut self, lut: &RuleLut, row: usize, mid: i64) -> Option<(u32, u32)>;
    /// The row's timestamp (s) and payload.
    fn cells(&self, row: usize) -> (Option<f64>, Option<&[u8]>);
    /// Requests the row's cells ahead of use.
    fn prefetch_cells(&self, row: usize);
    /// Requests the row's payload bytes ahead of use.
    fn prefetch_payload(&self, row: usize);
}

/// The admit pass over a container's message ids (`None`: a null id or a
/// masked-out row). A banded prefilter rejects the ~95+% misses on a
/// single cache-hot table load; a wide one admits every row with an id.
#[inline(always)]
fn admit_ids(
    filter: &MidFilter,
    ids: impl Iterator<Item = Option<i64>>,
    cand: &mut Vec<(u32, i64)>,
) {
    match filter {
        MidFilter::Band { min, set } => {
            for (row, id) in ids.enumerate() {
                // Branchless null fold: the sentinel can never be
                // admitted (see `MidFilter::build`), so admitted `m` is
                // always the row's real id.
                let m = id.unwrap_or(i64::MIN);
                if band_admits(*min, set, m) {
                    cand.push((row as u32, m));
                }
            }
        }
        MidFilter::Wide => {
            for (row, id) in ids.enumerate() {
                if let Some(m) = id {
                    cand.push((row as u32, m));
                }
            }
        }
    }
}

/// A raw batch's columns, probed by bus code.
struct BatchRows<'a> {
    ts: &'a [Option<f64>],
    buses: &'a [u32],
    mids: &'a [Option<i64>],
    payloads: &'a [Option<Arc<[u8]>>],
    probe: CodeProbe,
}

impl<'a> BatchRows<'a> {
    fn new(batch: &'a Batch, lut: &RuleLut) -> ivnt_frame::Result<BatchRows<'a>> {
        let schema = batch.schema();
        let buses = str_column(batch, schema.index_of(c::BUS)?)?;
        Ok(BatchRows {
            ts: float_column(batch, schema.index_of(c::T)?)?,
            buses: buses.codes(),
            mids: int_column(batch, schema.index_of(c::MESSAGE_ID)?)?,
            payloads: bytes_column(batch, schema.index_of(c::PAYLOAD)?)?,
            probe: CodeProbe::new(buses.values(), lut),
        })
    }
}

impl RowSource for BatchRows<'_> {
    fn admit(&self, filter: &MidFilter, cand: &mut Vec<(u32, i64)>) {
        admit_ids(filter, self.mids.iter().copied(), cand);
    }

    #[inline]
    fn probe(&mut self, lut: &RuleLut, row: usize, mid: i64) -> Option<(u32, u32)> {
        self.probe.probe(lut, self.buses[row], mid)
    }

    #[inline]
    fn cells(&self, row: usize) -> (Option<f64>, Option<&[u8]>) {
        (self.ts[row], self.payloads[row].as_deref())
    }

    #[inline]
    fn prefetch_cells(&self, row: usize) {
        prefetch(&raw const self.payloads[row]);
        prefetch(&raw const self.ts[row]);
        prefetch(&raw const self.buses[row]);
    }

    #[inline]
    fn prefetch_payload(&self, row: usize) {
        // The cell is warm by now: chase the `Arc` to its heap block.
        if let Some(p) = self.payloads[row].as_ref() {
            prefetch(p.as_ptr());
        }
    }
}

/// A store container's rows (those of `mask` only, when given), probed
/// by bus code.
struct ColumnRows<'a> {
    rows: &'a GroupColumns,
    mask: Option<&'a [bool]>,
    probe: CodeProbe,
}

impl<'a> ColumnRows<'a> {
    fn new(rows: &'a GroupColumns, mask: Option<&'a [bool]>, lut: &RuleLut) -> ColumnRows<'a> {
        ColumnRows {
            rows,
            mask,
            probe: CodeProbe::new(rows.buses(), lut),
        }
    }
}

impl RowSource for ColumnRows<'_> {
    fn admit(&self, filter: &MidFilter, cand: &mut Vec<(u32, i64)>) {
        let ids = self.rows.message_ids().iter().map(|&m| i64::from(m));
        match self.mask {
            None => admit_ids(filter, ids.map(Some), cand),
            Some(mask) => {
                let kept = ids.zip(mask).map(|(m, &keep)| keep.then_some(m));
                admit_ids(filter, kept, cand);
            }
        }
    }

    #[inline]
    fn probe(&mut self, lut: &RuleLut, row: usize, mid: i64) -> Option<(u32, u32)> {
        self.probe.probe(lut, self.rows.bus_codes()[row], mid)
    }

    #[inline]
    fn cells(&self, row: usize) -> (Option<f64>, Option<&[u8]>) {
        // The seconds `Record::timestamp_s` gives.
        let t = self.rows.t_us()[row] as f64 / 1e6;
        (Some(t), Some(self.rows.payload(row)))
    }

    #[inline]
    fn prefetch_cells(&self, row: usize) {
        prefetch(&raw const self.rows.t_us()[row]);
        prefetch(&raw const self.rows.bus_codes()[row]);
    }

    #[inline]
    fn prefetch_payload(&self, row: usize) {
        prefetch(self.rows.payload(row).as_ptr());
    }
}

/// One row container through the batch-columnar kernel into `out`, told
/// the container's emission bound first. Generic over the sink so the
/// table, routed and per-signal paths share every decode line, and over
/// the container so both decode in place.
///
/// Two passes. The admit pass reads the id column alone, with no bus
/// access and no probe state (`admit_ids`). The decode pass then walks
/// the (short) candidate list with a two-stage software-prefetch
/// pipeline: admitted rows sit ~dozens of rows apart, a stride the
/// hardware prefetcher cannot follow, so a row's cells (and then its
/// payload bytes) are pulled in ahead of use instead of serializing
/// several cache misses per hit. Each candidate is probed through the
/// container's memo, so a run of equal `(bus, m_id)` keys costs one LUT
/// probe.
fn decode_rows<R: RowSource, S: EmitSink>(kernel: &Kernel, mut rows: R, out: &mut S) {
    let mut cand: Vec<(u32, i64)> = Vec::new();
    rows.admit(&kernel.lut.prefilter, &mut cand);
    let widest = kernel.lut.groups.iter().map(Vec::len).max().unwrap_or(0);
    out.reserve(cand.len() * widest);
    // Far stage: request the cells of the row `FAR` candidates ahead;
    // near stage: those are warm by now, so request the payload.
    const FAR: usize = 32;
    const NEAR: usize = 16;
    for (i, &(row, mid)) in cand.iter().enumerate() {
        if let Some(&(ahead, _)) = cand.get(i + FAR) {
            rows.prefetch_cells(ahead as usize);
        }
        if let Some(&(near, _)) = cand.get(i + NEAR) {
            rows.prefetch_payload(near as usize);
        }
        let row = row as usize;
        if let Some((group, bus_id)) = rows.probe(&kernel.lut, row, mid) {
            let (t, payload) = rows.cells(row);
            kernel.dispatch_row(group, payload, t, bus_id, out);
        }
    }
}

/// Fused interpretation (lines 3–6 in one kernel), batch-columnar: rules
/// are compiled to [`DecodePlan`]s once per query, each run of rows with
/// one `(bus, m_id)` key is probed once, and all signals of a message
/// decode from a single loaded payload word where the layout allows.
/// Output columns are built dictionary-encoded: signal, bus and label as
/// `u32` codes into the kernel's dictionaries.
///
/// Feeding it the *raw* trace is the intended use — rows without a
/// matching `(b_id, m_id)` rule are skipped inline, which is exactly
/// preselection — so neither `K_pre` nor the joined intermediate (which
/// duplicates each payload once per matching rule) is ever materialized.
/// Output is bit-identical to `interpret(&preselect(raw)?, u_comb)`:
/// rule hits are emitted in ascending rule order, matching the reference
/// join's build-insertion order.
///
/// Compiles a [`Kernel`] per call; hold one (as [`Pipeline`]
/// (crate::pipeline::Pipeline) does) to decode many frames.
///
/// # Errors
///
/// Propagates tabular-engine failures.
pub fn extract_signals(raw: &DataFrame, u_comb: &RuleSet) -> Result<DataFrame> {
    Kernel::compile(u_comb).extract(raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RuleSet;
    use crate::tabular::trace_to_frame;
    use ivnt_protocol::catalog::Catalog;
    use ivnt_protocol::message::{MessageSpec, Protocol};
    use ivnt_protocol::signal::SignalSpec;
    use ivnt_simulator::network::NetworkModel;
    use ivnt_simulator::trace::{Trace, TraceRecord};

    fn network() -> NetworkModel {
        let mut catalog = Catalog::new();
        catalog
            .add_message(
                MessageSpec::builder(3, "WiperStatus", "FC", Protocol::Can)
                    .dlc(4)
                    .signal(
                        SignalSpec::builder("wpos", 0, 16)
                            .factor(0.5)
                            .build()
                            .unwrap(),
                    )
                    .signal(SignalSpec::builder("wvel", 16, 16).build().unwrap())
                    .build()
                    .unwrap(),
            )
            .unwrap();
        catalog
            .add_message(
                MessageSpec::builder(9, "Noise", "FC", Protocol::Can)
                    .dlc(2)
                    .signal(SignalSpec::builder("noise", 0, 8).build().unwrap())
                    .build()
                    .unwrap(),
            )
            .unwrap();
        NetworkModel::new(catalog)
    }

    fn trace() -> Trace {
        // Fig. 2's example: wpos 45° then 60°, wvel constant 1.
        let rec = |t_us: u64, id: u32, payload: Vec<u8>| TraceRecord {
            timestamp_us: t_us,
            bus: Arc::from("FC"),
            message_id: id,
            payload,
            protocol: Protocol::Can,
        };
        Trace::from_records(vec![
            rec(2_000_000, 3, vec![0x5A, 0x00, 0x01, 0x00]),
            rec(2_200_000, 9, vec![0xFF, 0xFF]),
            rec(2_500_000, 3, vec![0x78, 0x00, 0x01, 0x00]),
        ])
    }

    #[test]
    fn preselect_filters_irrelevant_messages() {
        let u_rel = RuleSet::from_network(&network());
        let u_comb = u_rel.select(&["wpos", "wvel"]).unwrap();
        let raw = trace_to_frame(&trace(), 2).unwrap();
        let pre = preselect(&raw, &u_comb).unwrap();
        assert_eq!(pre.num_rows(), 2); // the Noise message is dropped
    }

    #[test]
    fn interpretation_matches_fig2() {
        let u_rel = RuleSet::from_network(&network());
        let u_comb = u_rel.select(&["wpos", "wvel"]).unwrap();
        let raw = trace_to_frame(&trace(), 2).unwrap();
        let ks = extract_signals(&raw, &u_comb).unwrap();
        // 2 relevant messages x 2 signals = 4 signal instances.
        assert_eq!(ks.num_rows(), 4);
        let rows = ks.sort_by(&[c::T, c::SIGNAL], &[true, true]).unwrap();
        let rows = rows.collect_rows().unwrap();
        // t=2s: wpos=45, wvel=1.
        assert_eq!(rows[0][1], Value::from("wpos"));
        assert_eq!(rows[0][3], Value::Float(45.0));
        assert_eq!(rows[1][1], Value::from("wvel"));
        assert_eq!(rows[1][3], Value::Float(1.0));
        // t=2.5s: wpos=60.
        assert_eq!(rows[2][3], Value::Float(60.0));
        // Numeric signals have null text.
        assert!(rows[0][4].is_null());
    }

    #[test]
    fn selecting_one_signal_extracts_only_it() {
        let u_rel = RuleSet::from_network(&network());
        let u_comb = u_rel.select(&["wpos"]).unwrap();
        let raw = trace_to_frame(&trace(), 1).unwrap();
        let ks = extract_signals(&raw, &u_comb).unwrap();
        assert_eq!(ks.num_rows(), 2);
        assert!(ks
            .column_values(c::SIGNAL)
            .unwrap()
            .iter()
            .all(|v| v == &Value::from("wpos")));
    }

    #[test]
    fn truncated_payload_yields_null_not_error() {
        let u_rel = RuleSet::from_network(&network());
        let u_comb = u_rel.select(&["wvel"]).unwrap();
        let t = Trace::from_records(vec![TraceRecord {
            timestamp_us: 0,
            bus: Arc::from("FC"),
            message_id: 3,
            payload: vec![0x01], // too short for wvel (bytes 2..4)
            protocol: Protocol::Can,
        }]);
        let raw = trace_to_frame(&t, 1).unwrap();
        let ks = extract_signals(&raw, &u_comb).unwrap();
        assert_eq!(ks.num_rows(), 1);
        assert!(ks.column_values(c::VALUE_NUM).unwrap()[0].is_null());
    }

    #[test]
    fn enumerated_signal_fills_text_column() {
        let mut catalog = Catalog::new();
        catalog
            .add_message(
                MessageSpec::builder(5, "Belt", "BC", Protocol::Can)
                    .dlc(1)
                    .signal(
                        SignalSpec::builder("belt", 0, 1)
                            .labels([(0u64, "OFF"), (1, "ON")])
                            .build()
                            .unwrap(),
                    )
                    .build()
                    .unwrap(),
            )
            .unwrap();
        let n = NetworkModel::new(catalog);
        let u_comb = RuleSet::from_network(&n);
        let t = Trace::from_records(vec![TraceRecord {
            timestamp_us: 1_400_000,
            bus: Arc::from("BC"),
            message_id: 5,
            payload: vec![0x01],
            protocol: Protocol::Can,
        }]);
        let raw = trace_to_frame(&t, 1).unwrap();
        let ks = extract_signals(&raw, &u_comb).unwrap();
        let rows = ks.collect_rows().unwrap();
        assert_eq!(rows[0][4], Value::from("ON"));
        assert!(rows[0][3].is_null());
    }

    #[test]
    fn interpretation_deterministic_across_partitions() {
        let u_rel = RuleSet::from_network(&network());
        let u_comb = u_rel.select(&["wpos", "wvel"]).unwrap();
        let a = extract_signals(&trace_to_frame(&trace(), 1).unwrap(), &u_comb)
            .unwrap()
            .sort_by(&[c::T, c::SIGNAL], &[true, true])
            .unwrap()
            .collect_rows()
            .unwrap();
        let b = extract_signals(&trace_to_frame(&trace(), 3).unwrap(), &u_comb)
            .unwrap()
            .sort_by(&[c::T, c::SIGNAL], &[true, true])
            .unwrap()
            .collect_rows()
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fused_matches_reference_path() {
        let u_rel = RuleSet::from_network(&network());
        let u_comb = u_rel.select(&["wpos", "wvel"]).unwrap();
        for parts in [1usize, 2, 3] {
            let raw = trace_to_frame(&trace(), parts).unwrap();
            let fused = extract_signals(&raw, &u_comb).unwrap();
            let scalar = interpret_fused_scalar(&raw, &u_comb).unwrap();
            let reference = interpret(&preselect(&raw, &u_comb).unwrap(), &u_comb).unwrap();
            let reference = reference.collect_rows().unwrap();
            assert_eq!(
                fused.collect_rows().unwrap(),
                reference,
                "fused != reference at {parts} partitions"
            );
            assert_eq!(
                scalar.collect_rows().unwrap(),
                reference,
                "scalar fused != reference at {parts} partitions"
            );
        }
    }

    /// `n_msgs` messages of two 12-bit signals each (the second labeled,
    /// so most of its instances take the unlabeled-raw path), alternating
    /// buses FC and DC; ids past the first sit `offset` higher, so `1 <<
    /// 17` spreads them past the id band table.
    fn banded_rules(n_msgs: u32, offset: u32) -> RuleSet {
        let mut catalog = Catalog::new();
        for m in 0..n_msgs {
            let id = m + 1 + if m > 0 { offset } else { 0 };
            let bus = ["FC", "DC"][m as usize % 2];
            let message = MessageSpec::builder(id, format!("M{id}"), bus, Protocol::Can)
                .dlc(8)
                .signal(
                    SignalSpec::builder(format!("a{m}"), 0, 12)
                        .factor(0.5)
                        .build()
                        .unwrap(),
                )
                .signal(
                    SignalSpec::builder(format!("b{m}"), 16, 12)
                        .labels([(0u64, "A"), (1, "B")])
                        .build()
                        .unwrap(),
                )
                .build()
                .unwrap();
            catalog.add_message(message).unwrap();
        }
        RuleSet::from_catalog(&catalog)
    }

    /// Bus names in the store dictionary's code order, which differs from
    /// the kernel's (FC, DC) and holds buses no rule names.
    const DICTIONARY: [&str; 4] = ["GW", "DC", "XX", "FC"];

    /// Every sink's output of `rows` under `kernel`: `K_s`, the routed
    /// partitions and the per-signal sequences as frames.
    fn sink_outputs(
        kernel: &Kernel,
        rows: RawRows<'_>,
    ) -> (Batch, Vec<Batch>, Vec<Vec<Vec<Value>>>) {
        let ks = kernel.extract_batch(rows).unwrap();
        // Two routes by the signal's message, the rest to the discard lane.
        let routed = kernel
            .extract_routed(rows, 2, |name| usize::from(name.as_bytes()[1] - b'0'))
            .unwrap();
        let seqs = kernel
            .coded_sequences(rows)
            .unwrap()
            .iter()
            .map(|seq| {
                let frame = seq
                    .to_sequence(&crate::split::Selection::All)
                    .unwrap()
                    .frame;
                frame.collect_rows().unwrap()
            })
            .collect();
        (ks, routed, seqs)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The kernel over a store row container equals the kernel over
        /// `records_to_batch` of the same rows through all three sinks,
        /// whole and under a row mask.
        #[test]
        fn columns_decode_like_their_batch(
            n_msgs in 1u32..=3,
            offset in proptest::sample::select(vec![0u32, 1 << 17]),
            rows in proptest::collection::vec(
                (
                    0usize..DICTIONARY.len(),
                    // Slot 0: an id no rule reads; slot k: message k's id.
                    0u32..=4,
                    proptest::collection::vec(proptest::prelude::any::<u8>(), 0..10),
                    0u64..10_000_000,
                    proptest::prelude::any::<bool>(),
                ),
                0..120,
            ),
        ) {
            use ivnt_store::schema::{raw_trace_schema, records_to_batch};
            let kernel = Kernel::compile(&banded_rules(n_msgs, offset));
            let names: Vec<Arc<str>> = DICTIONARY.iter().map(|&b| Arc::from(b)).collect();
            let records: Vec<Record> = rows
                .iter()
                .map(|(bus, slot, payload, t_us, _)| Record {
                    timestamp_us: *t_us,
                    bus: names[*bus].clone(),
                    message_id: if *slot == 0 { 0 } else { slot + if *slot > 1 { offset } else { 0 } },
                    payload: payload.clone(),
                    protocol: Protocol::Can,
                })
                .collect();
            let mut columns = GroupColumns::default();
            for name in DICTIONARY {
                columns.intern_bus(name);
            }
            for r in &records {
                let bus = columns.intern_bus(&r.bus);
                columns.push_row(r.timestamp_us, bus, r.message_id, r.protocol, &r.payload);
            }
            let batch = records_to_batch(raw_trace_schema(), &records).unwrap();
            proptest::prop_assert_eq!(
                sink_outputs(&kernel, RawRows::Columns(&columns, None)),
                sink_outputs(&kernel, RawRows::Batch(&batch))
            );

            let mask: Vec<bool> = rows.iter().map(|row| row.4).collect();
            let kept = records.iter().zip(&mask).filter(|(_, &keep)| keep).map(|(r, _)| r);
            let batch = records_to_batch(raw_trace_schema(), kept).unwrap();
            proptest::prop_assert_eq!(
                sink_outputs(&kernel, RawRows::Columns(&columns, Some(&mask))),
                sink_outputs(&kernel, RawRows::Batch(&batch))
            );
        }
    }

    #[test]
    fn kernel_codes_signals_in_first_appearance_order() {
        let u_rel = RuleSet::from_network(&network());
        let rule = |name: &str| {
            u_rel
                .rules()
                .iter()
                .find(|r| r.signal == name)
                .unwrap()
                .clone()
        };
        let rules = ["wvel", "noise", "wvel", "wpos", "noise", "wpos"].map(rule);
        let kernel = Kernel::compile(&RuleSet::from_rules(rules.to_vec()));
        let names: Vec<&str> = kernel.signal_names.iter().map(|s| s.as_ref()).collect();
        assert_eq!(names, ["wvel", "noise", "wpos"]);
        assert_eq!(kernel.signal_idx, [0, 1, 0, 2, 1, 2]);
    }
}
