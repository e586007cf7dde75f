//! Interpretation rules: the paper's `U_rel` / `U_comb` tables.
//!
//! Each rule is a translation tuple `u_rel = (s_id, b_id, m_id, u_info)`
//! (Sec. 3.1, Table 1): which signal to extract, on which channel/message
//! it occurs, the relevant payload bytes and how to evaluate them to a
//! physical value. A signal forwarded through a gateway occurs on several
//! channels, so it may have several rules differing only in `b_id`.

use std::collections::HashMap;
use std::sync::Arc;

use ivnt_protocol::bits::{self, ByteOrder};
use ivnt_protocol::signal::{PhysicalValue, RawKind, SignalSpec};
use ivnt_simulator::network::NetworkModel;
use ivnt_simulator::scenario::GeneratedDataSet;

use crate::error::{Error, Result};

/// One translation tuple `u_rel = (s_id, b_id, m_id, u_info)`.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Signal identifier (`s_id`).
    pub signal: String,
    /// Channel the signal occurs on (`b_id`).
    pub bus: String,
    /// Message carrying the signal (`m_id`).
    pub message_id: u32,
    /// Extraction/evaluation information (`u_info`).
    pub info: RuleInfo,
}

/// How a rule locates its relevant bytes within the payload.
///
/// [`Packing::OptionalField`] models the SOME/IP peculiarity the paper
/// calls out in Sec. 3.2: "rules where values of preceding bytes define the
/// presence of a signal type in succeeding bytes" — the byte position (and
/// presence) of the field depends on a presence mask earlier in the
/// payload.
#[derive(Debug, Clone)]
pub enum Packing {
    /// Fixed byte range (`rel.B` of Table 1).
    Fixed {
        /// First relevant payload byte.
        first_byte: usize,
        /// Number of relevant payload bytes.
        num_bytes: usize,
    },
    /// A presence-conditional field of a SOME/IP optional-field payload.
    OptionalField {
        /// The payload's optional-field layout (presence mask + widths).
        layout: ivnt_protocol::someip::OptionalFieldLayout,
        /// Index of the field this rule extracts.
        field: usize,
    },
    /// A multiplexed CAN signal (DBC `m<k>` indicator): the fixed byte
    /// range is only valid when the message's multiplexor signal carries
    /// `selector_value`.
    Multiplexed {
        /// Decode spec of the multiplexor signal (payload-relative).
        selector: SignalSpec,
        /// Raw multiplexor value gating this signal's presence.
        selector_value: u64,
        /// First relevant payload byte when present.
        first_byte: usize,
        /// Number of relevant payload bytes.
        num_bytes: usize,
    },
}

/// The `u_info` of a rule: relevant bytes, decode spec and domain hints.
#[derive(Debug, Clone)]
pub struct RuleInfo {
    /// The packing/coding spec of the signal, rebased to the relevant
    /// bytes.
    pub spec: SignalSpec,
    /// How the relevant bytes are located.
    pub packing: Packing,
    /// Whether this channel is the signal's home (non-forwarded) channel.
    pub home_channel: bool,
    /// Domain knowledge: do the signal's values have a comparable valence
    /// (`z_val` of the classification criteria)?
    pub comparable: bool,
    /// Expected cycle time in seconds, when documented.
    pub expected_cycle_s: Option<f64>,
}

impl RuleInfo {
    /// First relevant byte for fixed packings (0 for conditional ones,
    /// whose offset depends on the instance).
    pub fn first_byte(&self) -> usize {
        match &self.packing {
            Packing::Fixed { first_byte, .. } => *first_byte,
            Packing::OptionalField { .. } => 0,
            Packing::Multiplexed { first_byte, .. } => *first_byte,
        }
    }

    /// Relevant byte count for fixed packings, or the field width for
    /// conditional ones.
    pub fn num_bytes(&self) -> usize {
        match &self.packing {
            Packing::Fixed { num_bytes, .. } => *num_bytes,
            Packing::OptionalField {
                layout: _,
                field: _,
            } => self.spec.bit_len().div_ceil(8) as usize,
            Packing::Multiplexed { num_bytes, .. } => *num_bytes,
        }
    }
}

impl Rule {
    /// Absolute payload bit positions covered by a fixed-packing rule, in
    /// decode order (LSB first for Intel, MSB first for Motorola). Bit `i`
    /// is byte `i / 8`, bit `i % 8` (Intel numbering). Returns `None` for
    /// presence-conditional packings, whose position depends on the
    /// instance. [`RuleCatalog::merge`] uses this to drop inferred rules
    /// whose payload region an authored rule already claims.
    pub fn payload_bits(&self) -> Option<Vec<u16>> {
        let first_byte = match &self.info.packing {
            Packing::Fixed { first_byte, .. } => *first_byte as u16,
            _ => return None,
        };
        let spec = &self.info.spec;
        let start = first_byte * 8 + spec.start_bit();
        let len = spec.bit_len();
        Some(match spec.byte_order() {
            ByteOrder::Intel => (start..start + len).collect(),
            ByteOrder::Motorola => {
                let mut bits = Vec::with_capacity(len as usize);
                let mut pos = start;
                for i in 0..len {
                    bits.push(pos);
                    if i + 1 < len {
                        pos = if (pos as usize).is_multiple_of(8) {
                            pos + 15
                        } else {
                            pos - 1
                        };
                    }
                }
                bits
            }
        })
    }

    /// The `u1 : (l, u_info) -> l_rel` mapping: locates the relevant bytes
    /// in the payload. Returns `Ok(None)` when a presence-conditional field
    /// is absent from this instance (no signal instance is produced).
    ///
    /// # Errors
    ///
    /// Returns truncation errors when the payload ends inside the field.
    pub fn relevant_bytes<'l>(&self, payload: &'l [u8]) -> Result<Option<&'l [u8]>> {
        match &self.info.packing {
            Packing::Fixed {
                first_byte,
                num_bytes,
            } => {
                let end = first_byte + num_bytes;
                if payload.len() < end {
                    return Err(Error::Protocol(ivnt_protocol::Error::TruncatedFrame {
                        expected: end,
                        actual: payload.len(),
                    }));
                }
                Ok(Some(&payload[*first_byte..end]))
            }
            Packing::OptionalField { layout, field } => {
                let Some(offset) = layout.field_offset(payload, *field)? else {
                    return Ok(None);
                };
                let size = self.info.spec.bit_len().div_ceil(8) as usize;
                if payload.len() < offset + size {
                    return Err(Error::Protocol(ivnt_protocol::Error::TruncatedFrame {
                        expected: offset + size,
                        actual: payload.len(),
                    }));
                }
                Ok(Some(&payload[offset..offset + size]))
            }
            Packing::Multiplexed {
                selector,
                selector_value,
                first_byte,
                num_bytes,
            } => {
                // The multiplexor gates presence: extract it first.
                let raw = selector.decode_raw(payload)?;
                if raw != *selector_value {
                    return Ok(None);
                }
                let end = first_byte + num_bytes;
                if payload.len() < end {
                    return Err(Error::Protocol(ivnt_protocol::Error::TruncatedFrame {
                        expected: end,
                        actual: payload.len(),
                    }));
                }
                Ok(Some(&payload[*first_byte..end]))
            }
        }
    }

    /// Decodes the physical value from the relevant bytes — the
    /// `u2 : (l_rel, m_info, u_info) -> (t, (v, s_id))` mapping.
    ///
    /// # Errors
    ///
    /// Propagates bit-range and enumeration failures.
    pub fn decode_relevant(&self, relevant: &[u8]) -> Result<PhysicalValue> {
        // The spec was rebased to the relevant-byte slice at rule build time.
        Ok(self.info.spec.decode(relevant)?)
    }

    /// Convenience: `u2 ∘ u1` applied to the full payload. `Ok(None)` means
    /// the (conditional) signal is absent from this instance.
    ///
    /// # Errors
    ///
    /// Propagates [`Rule::relevant_bytes`] / [`Rule::decode_relevant`].
    pub fn decode(&self, payload: &[u8]) -> Result<Option<PhysicalValue>> {
        match self.relevant_bytes(payload)? {
            Some(rel) => Ok(Some(self.decode_relevant(rel)?)),
            None => Ok(None),
        }
    }
}

/// Outcome of a compiled-plan decode, mirroring the interpretation
/// kernels' error policy exactly: decode *errors* (truncated frames,
/// unlabeled enum raws, null payloads) yield [`PlanDecoded::Null`] — a
/// null-valued instance that is kept — while *absence* of a
/// presence-conditional field yields [`PlanDecoded::Absent`] — no
/// instance at all.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanDecoded {
    /// Numeric physical value (`factor * raw + offset`).
    Num(f64),
    /// Enumeration label (interned once at plan-compile time).
    Text(Arc<str>),
    /// Instance kept with a null value.
    Null,
    /// No instance produced.
    Absent,
}

/// One word-load location: `payload[first..first+span]` folded into a
/// `u64`, the value at `(word >> shift) & mask`. For Motorola packings the
/// loaded word is byte-swapped first, turning the sawtooth walk into a
/// contiguous big-endian bit range.
#[derive(Debug, Clone, Copy)]
struct WordLoc {
    first: usize,
    span: usize,
    shift: u32,
    big_endian: bool,
}

impl WordLoc {
    /// Bytes the payload must hold for this load — identical to the
    /// truncation threshold of the scalar path's `relevant_bytes` /
    /// `bits::check`.
    #[inline]
    fn min_len(self) -> usize {
        self.first + self.span
    }
}

/// Folds `payload[first..first+span]` (`span <= 8`) little-endian into a
/// `u64`; bytes beyond `span` read as zero.
#[inline]
pub(crate) fn load_le(payload: &[u8], first: usize, span: usize) -> u64 {
    let mut buf = [0u8; 8];
    buf[..span].copy_from_slice(&payload[first..first + span]);
    u64::from_le_bytes(buf)
}

#[inline]
fn load_word(payload: &[u8], loc: WordLoc) -> u64 {
    let le = load_le(payload, loc.first, loc.span);
    let w = if loc.big_endian {
        le.swap_bytes() >> ((8 - loc.span) * 8)
    } else {
        le
    };
    w >> loc.shift
}

/// Scale/offset or enum-lookup evaluation of a masked raw value.
#[derive(Debug, Clone)]
enum ValueEval {
    /// `factor * raw + offset`, matching [`SignalSpec::decode`] bit for
    /// bit (sign extension applied for signed raws).
    Num {
        signed: bool,
        bit_len: u16,
        factor: f64,
        offset: f64,
    },
    /// Dense raw → label table (small enumerations).
    EnumDense(Vec<Option<Arc<str>>>),
    /// Sorted `(raw, label)` pairs for sparse/large enumerations.
    EnumSorted(Vec<(u64, Arc<str>)>),
}

/// Raw values above this dense-table bound fall back to binary search.
const ENUM_DENSE_LIMIT: u64 = 1024;

impl ValueEval {
    fn from_spec(spec: &SignalSpec) -> ValueEval {
        if spec.is_enumerated() {
            let max = *spec.enumeration().keys().next_back().expect("non-empty");
            if max < ENUM_DENSE_LIMIT {
                let mut table: Vec<Option<Arc<str>>> = vec![None; max as usize + 1];
                for (&raw, label) in spec.enumeration() {
                    table[raw as usize] = Some(Arc::from(label.as_str()));
                }
                ValueEval::EnumDense(table)
            } else {
                ValueEval::EnumSorted(
                    spec.enumeration()
                        .iter()
                        .map(|(&raw, label)| (raw, Arc::from(label.as_str())))
                        .collect(),
                )
            }
        } else {
            ValueEval::Num {
                signed: spec.raw_kind() == RawKind::Signed,
                bit_len: spec.bit_len(),
                factor: spec.factor(),
                offset: spec.offset(),
            }
        }
    }

    #[inline]
    fn eval(&self, raw: u64) -> PlanDecoded {
        match self {
            ValueEval::Num {
                signed,
                bit_len,
                factor,
                offset,
            } => {
                let v = if *signed {
                    factor * (bits::sign_extend(raw, *bit_len) as f64) + offset
                } else {
                    factor * (raw as f64) + offset
                };
                PlanDecoded::Num(v)
            }
            ValueEval::EnumDense(table) => match table.get(raw as usize) {
                Some(Some(label)) => PlanDecoded::Text(label.clone()),
                _ => PlanDecoded::Null,
            },
            ValueEval::EnumSorted(table) => match table.binary_search_by_key(&raw, |&(r, _)| r) {
                Ok(i) => PlanDecoded::Text(table[i].1.clone()),
                Err(_) => PlanDecoded::Null,
            },
        }
    }
}

/// A multiplexor gate compiled to a word load: the body only exists when
/// `(word >> shift) & mask == expect`.
#[derive(Debug, Clone, Copy)]
struct WordGate {
    loc: WordLoc,
    mask: u64,
    expect: u64,
}

#[derive(Debug, Clone)]
enum PlanKind {
    /// Flat word-load + shift/mask + scale/offset (or enum lookup), with
    /// an optional multiplexor gate.
    Word {
        gate: Option<WordGate>,
        loc: WordLoc,
        mask: u64,
        value: ValueEval,
    },
    /// Fallback to the scalar reference path — presence-conditional
    /// SOME/IP fields (dynamic offsets) and bit ranges a single `u64`
    /// cannot hold (unaligned 64-bit fields spanning 9 bytes).
    Scalar(Arc<Rule>),
}

/// A rule compiled into a flat decode plan: one branch-light word-load +
/// shift/mask + scale/offset program replacing per-row `relevant_bytes`
/// slicing, `Result` plumbing and per-bit extraction loops in the hot
/// interpretation kernel. [`Rule::decode`] stays as the scalar reference;
/// property tests hold the plan bit-identical to it.
#[derive(Debug, Clone)]
pub struct DecodePlan {
    kind: PlanKind,
}

/// Word location for a field at `start`/`len` (window-relative bit
/// positions) inside the window `payload[first..first+span]`. `None` when
/// the field cannot be decoded from a single `u64` load (the caller falls
/// back to the scalar path).
fn word_loc(
    start: usize,
    len: usize,
    order: ByteOrder,
    first: usize,
    span: usize,
) -> Option<WordLoc> {
    if span > 8 || len == 0 || len > 64 {
        return None;
    }
    match order {
        ByteOrder::Intel => {
            if start + len > span * 8 {
                return None; // scalar path turns this into a decode error
            }
            Some(WordLoc {
                first,
                span,
                shift: start as u32,
                big_endian: false,
            })
        }
        ByteOrder::Motorola => {
            // Verify the sawtooth stays inside the window (the scalar
            // path's bits::check), then place the MSB in the byte-swapped
            // word: payload bit (b, k) sits at big-endian bit
            // (span-1-b)*8 + k.
            let mut pos = start;
            if pos >= span * 8 {
                return None;
            }
            for _ in 1..len {
                pos = if pos.is_multiple_of(8) {
                    pos + 15
                } else {
                    pos - 1
                };
                if pos >= span * 8 {
                    return None;
                }
            }
            let msb = (span - 1 - start / 8) * 8 + start % 8;
            let shift = (msb + 1).checked_sub(len)?;
            Some(WordLoc {
                first,
                span,
                shift: shift as u32,
                big_endian: true,
            })
        }
    }
}

fn mask_for(bit_len: u16) -> u64 {
    if bit_len >= 64 {
        u64::MAX
    } else {
        (1u64 << bit_len) - 1
    }
}

impl DecodePlan {
    /// Compiles a rule into its decode plan. Always succeeds: shapes the
    /// word program cannot express keep the rule itself and delegate to
    /// the scalar path, so `plan.decode` is total and bit-identical to
    /// [`Rule::decode`]'s error policy for every rule.
    pub fn compile(rule: &Arc<Rule>) -> DecodePlan {
        let scalar = || DecodePlan {
            kind: PlanKind::Scalar(rule.clone()),
        };
        let spec = &rule.info.spec;
        let body = |first_byte: usize, num_bytes: usize| {
            word_loc(
                spec.start_bit() as usize,
                spec.bit_len() as usize,
                spec.byte_order(),
                first_byte,
                num_bytes,
            )
            .map(|loc| (loc, mask_for(spec.bit_len())))
        };
        let kind = match &rule.info.packing {
            Packing::Fixed {
                first_byte,
                num_bytes,
            } => match body(*first_byte, *num_bytes) {
                Some((loc, mask)) => PlanKind::Word {
                    gate: None,
                    loc,
                    mask,
                    value: ValueEval::from_spec(&rule.info.spec),
                },
                None => return scalar(),
            },
            Packing::Multiplexed {
                selector,
                selector_value,
                first_byte,
                num_bytes,
            } => {
                // The selector spec is payload-relative; its window is its
                // own relevant byte range, so rebase its start bit into it.
                let (sel_first, sel_span) = relevant_byte_range(selector);
                let gate = word_loc(
                    selector.start_bit() as usize - sel_first * 8,
                    selector.bit_len() as usize,
                    selector.byte_order(),
                    sel_first,
                    sel_span,
                )
                .map(|loc| WordGate {
                    loc,
                    mask: mask_for(selector.bit_len()),
                    expect: *selector_value,
                });
                match (gate, body(*first_byte, *num_bytes)) {
                    (Some(gate), Some((loc, mask))) => PlanKind::Word {
                        gate: Some(gate),
                        loc,
                        mask,
                        value: ValueEval::from_spec(&rule.info.spec),
                    },
                    _ => return scalar(),
                }
            }
            Packing::OptionalField { .. } => return scalar(),
        };
        DecodePlan { kind }
    }

    /// Decodes one payload. `None` payloads produce [`PlanDecoded::Null`]
    /// (a kept, null-valued instance), like both interpretation kernels.
    #[inline]
    pub fn decode(&self, payload: Option<&[u8]>) -> PlanDecoded {
        match payload {
            Some(p) => self.decode_slice(p),
            None => PlanDecoded::Null,
        }
    }

    /// Decodes one non-null payload.
    #[inline]
    pub fn decode_slice(&self, payload: &[u8]) -> PlanDecoded {
        match &self.kind {
            PlanKind::Word {
                gate,
                loc,
                mask,
                value,
            } => {
                if let Some(g) = gate {
                    // Selector order matches `relevant_bytes`: extraction
                    // error (truncated selector) -> null instance, value
                    // mismatch -> absent, body truncation -> null.
                    if payload.len() < g.loc.min_len() {
                        return PlanDecoded::Null;
                    }
                    if load_word(payload, g.loc) & g.mask != g.expect {
                        return PlanDecoded::Absent;
                    }
                }
                if payload.len() < loc.min_len() {
                    return PlanDecoded::Null;
                }
                value.eval(load_word(payload, *loc) & mask)
            }
            PlanKind::Scalar(rule) => match rule.relevant_bytes(payload) {
                Ok(Some(rel)) => match rule.decode_relevant(rel) {
                    Ok(PhysicalValue::Num(v)) => PlanDecoded::Num(v),
                    Ok(PhysicalValue::Text(s)) => PlanDecoded::Text(Arc::from(s.as_str())),
                    Err(_) => PlanDecoded::Null,
                },
                Ok(None) => PlanDecoded::Absent,
                Err(_) => PlanDecoded::Null,
            },
        }
    }

    /// The `[first, end)` payload byte window of an ungated word plan —
    /// the unit the kernel fuses across all signals of one message.
    /// `None` for gated (multiplexed) and scalar plans.
    pub fn word_window(&self) -> Option<(usize, usize)> {
        match &self.kind {
            PlanKind::Word {
                gate: None, loc, ..
            } => Some((loc.first, loc.first + loc.span)),
            _ => None,
        }
    }

    /// Rebases an ungated word plan onto the shared group window
    /// `payload[first..first+span]`, so one LE load (plus one byte-swap
    /// when any Motorola signal is present) serves every signal of the
    /// message. The caller guarantees `span <= 8` and that the window
    /// covers [`DecodePlan::word_window`].
    pub fn rebase_to_window(&self, first: usize, span: usize) -> Option<WindowOp> {
        let PlanKind::Word {
            gate: None,
            loc,
            mask,
            value,
        } = &self.kind
        else {
            return None;
        };
        if span > 8 || first > loc.first || first + span < loc.first + loc.span {
            return None;
        }
        let shift = if loc.big_endian {
            // Big-endian bit indices grow with the window's right edge.
            loc.shift + 8 * ((first + span) - (loc.first + loc.span)) as u32
        } else {
            loc.shift + 8 * (loc.first - first) as u32
        };
        Some(WindowOp {
            big_endian: loc.big_endian,
            shift,
            mask: *mask,
            value: value.clone(),
        })
    }
}

/// One signal's shift/mask program over a shared group payload window:
/// `eval` picks the little- or (pre-computed) big-endian view, shifts,
/// masks and applies the value evaluation — no per-signal load.
#[derive(Debug, Clone)]
pub struct WindowOp {
    big_endian: bool,
    shift: u32,
    mask: u64,
    value: ValueEval,
}

impl WindowOp {
    /// `true` if this op reads the byte-swapped (Motorola) view.
    pub fn big_endian(&self) -> bool {
        self.big_endian
    }

    /// Evaluates against the window's little-endian word and (if any op in
    /// the group is big-endian) its byte-swapped counterpart.
    #[inline]
    pub fn eval(&self, le: u64, be: u64) -> PlanDecoded {
        let w = if self.big_endian { be } else { le };
        self.value.eval((w >> self.shift) & self.mask)
    }
}

/// Loads the group window `payload[first..first+span]` and returns the
/// `(le, be)` word pair [`WindowOp::eval`] consumes. `needs_be` skips the
/// byte swap for all-Intel groups.
#[inline]
pub fn load_window(payload: &[u8], first: usize, span: usize, needs_be: bool) -> (u64, u64) {
    let le = load_le(payload, first, span);
    let be = if needs_be {
        le.swap_bytes() >> ((8 - span) * 8)
    } else {
        0
    };
    (le, be)
}

/// A set of interpretation rules (the table `U_rel`, or a domain's
/// preselected `U_comb` subset).
///
/// # Examples
///
/// ```
/// use ivnt_core::rules::RuleSet;
/// use ivnt_simulator::prelude::*;
/// use ivnt_protocol::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut catalog = Catalog::new();
/// catalog.add_message(
///     MessageSpec::builder(3, "WiperStatus", "FC", Protocol::Can)
///         .dlc(4)
///         .signal(SignalSpec::builder("wpos", 0, 16).factor(0.5).build()?)
///         .signal(SignalSpec::builder("wvel", 16, 16).build()?)
///         .build()?,
/// )?;
/// let network = NetworkModel::new(catalog);
/// let u_rel = RuleSet::from_network(&network);
/// assert_eq!(u_rel.len(), 2);
/// let u_comb = u_rel.select(&["wpos"])?; // a domain picks its signals
/// assert_eq!(u_comb.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct RuleSet {
    rules: Vec<Arc<Rule>>,
}

impl RuleSet {
    /// Creates an empty rule set.
    pub fn new() -> RuleSet {
        RuleSet::default()
    }

    /// Builds a rule set from existing shared rules, **in the given
    /// order**. The multi-query planner concatenates the rule lists of
    /// signal-disjoint queries with this: keeping each query's relative
    /// rule order is what makes the shared kernel's per-query output
    /// bit-identical to that query's solo run.
    pub fn from_rules(rules: Vec<Arc<Rule>>) -> RuleSet {
        RuleSet { rules }
    }

    /// Derives the full `U_rel` from a network model: one rule per signal
    /// per observable channel (home channel plus gateway copies).
    ///
    /// Comparability defaults to `true` for numeric signals and `false`
    /// for enumerated ones; override with
    /// [`RuleSet::set_comparable`] where domain knowledge says otherwise
    /// (e.g. ordinal label sets).
    pub fn from_network(network: &NetworkModel) -> RuleSet {
        let mut rules = Vec::new();
        for m in network.catalog().messages() {
            let channels = network.channels_of(m);
            for s in m.signals() {
                for (ci, bus) in channels.iter().enumerate() {
                    rules.push(Arc::new(build_rule(
                        s,
                        bus,
                        m.id(),
                        ci == 0,
                        !s.is_enumerated(),
                        m.cycle_time_ms().map(|ms| ms as f64 / 1e3),
                    )));
                }
            }
        }
        RuleSet { rules }
    }

    /// Derives `U_rel` from a bare catalog (e.g. a parsed DBC): one fixed
    /// rule per signal on its home channel. Use
    /// [`RuleSet::from_network`] when gateway topology is known.
    pub fn from_catalog(catalog: &ivnt_protocol::Catalog) -> RuleSet {
        let mut rules = Vec::new();
        for m in catalog.messages() {
            for s in m.signals() {
                rules.push(Arc::new(build_rule(
                    s,
                    m.bus(),
                    m.id(),
                    true,
                    !s.is_enumerated(),
                    m.cycle_time_ms().map(|ms| ms as f64 / 1e3),
                )));
            }
        }
        RuleSet { rules }
    }

    /// Derives `U_rel` from DBC text describing channel `bus`: the
    /// catalog's fixed rules plus one presence-conditional rule per
    /// multiplexed signal, which inherits its message's cycle time.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] when the DBC does not parse.
    pub fn from_dbc(text: &str, bus: &str) -> Result<RuleSet> {
        let (catalog, mux) = ivnt_protocol::dbc::parse_dbc(text, bus)?;
        let mut rules = RuleSet::from_catalog(&catalog);
        for entry in &mux {
            let cycle_ms = catalog.message(bus, entry.message_id)?.cycle_time_ms();
            rules.push_dbc_mux(bus, entry, cycle_ms.map(|ms| ms as f64 / 1e3));
        }
        Ok(rules)
    }

    /// Adds the presence-conditional rule for one multiplexed DBC signal;
    /// the payload-relative spec is rebased onto its relevant bytes.
    fn push_dbc_mux(
        &mut self,
        bus: &str,
        entry: &ivnt_protocol::dbc::MuxEntry,
        expected_cycle_s: Option<f64>,
    ) {
        let fixed = build_rule(
            &entry.signal,
            "", // bus unused; we only need the rebased spec + byte range
            entry.message_id,
            true,
            !entry.signal.is_enumerated(),
            expected_cycle_s,
        );
        let (first_byte, num_bytes) = match fixed.info.packing {
            Packing::Fixed {
                first_byte,
                num_bytes,
            } => (first_byte, num_bytes),
            _ => unreachable!("build_rule produces fixed packings"),
        };
        self.push_multiplexed(
            bus,
            entry.message_id,
            entry.selector.clone(),
            entry.selector_value,
            first_byte,
            num_bytes,
            fixed.info.spec,
            expected_cycle_s,
        );
    }

    /// Adds a rule.
    pub fn push(&mut self, rule: Rule) {
        self.rules.push(Arc::new(rule));
    }

    /// Adds a fixed-packing rule for a payload-absolute `spec` (start bit
    /// relative to the whole payload, as in a catalog or DBC): the spec is
    /// rebased onto its relevant bytes exactly like
    /// [`RuleSet::from_catalog`] does. This is the entry point synthesized
    /// (inferred) tables use to emit rules the vectorized interpret kernel
    /// consumes unchanged.
    pub fn push_spec(
        &mut self,
        bus: &str,
        message_id: u32,
        spec: &SignalSpec,
        home_channel: bool,
        comparable: bool,
        expected_cycle_s: Option<f64>,
    ) {
        self.push(build_rule(
            spec,
            bus,
            message_id,
            home_channel,
            comparable,
            expected_cycle_s,
        ));
    }

    /// Adds a presence-conditional rule for one optional field of a
    /// SOME/IP service (the Sec. 3.2 case: preceding bytes gate the
    /// field's presence and position). `spec` must be field-relative
    /// (bit positions within the field's own bytes).
    pub fn push_optional_field(
        &mut self,
        bus: impl Into<String>,
        message_id: u32,
        layout: ivnt_protocol::someip::OptionalFieldLayout,
        field: usize,
        spec: SignalSpec,
        expected_cycle_s: Option<f64>,
    ) {
        let comparable = !spec.is_enumerated();
        self.push(Rule {
            signal: spec.name().to_string(),
            bus: bus.into(),
            message_id,
            info: RuleInfo {
                spec,
                packing: Packing::OptionalField { layout, field },
                home_channel: true,
                comparable,
                expected_cycle_s,
            },
        });
    }

    /// Adds a multiplexed-signal rule (DBC `m<k>`): the signal's fixed
    /// payload-relative packing `spec` is valid only in instances whose
    /// multiplexor (`selector`, payload-relative) carries `selector_value`.
    /// `rel_spec` must be rebased to the relevant bytes like fixed rules.
    #[allow(clippy::too_many_arguments)]
    pub fn push_multiplexed(
        &mut self,
        bus: impl Into<String>,
        message_id: u32,
        selector: SignalSpec,
        selector_value: u64,
        first_byte: usize,
        num_bytes: usize,
        rel_spec: SignalSpec,
        expected_cycle_s: Option<f64>,
    ) {
        let comparable = !rel_spec.is_enumerated();
        self.push(Rule {
            signal: rel_spec.name().to_string(),
            bus: bus.into(),
            message_id,
            info: RuleInfo {
                spec: rel_spec,
                packing: Packing::Multiplexed {
                    selector,
                    selector_value,
                    first_byte,
                    num_bytes,
                },
                home_channel: true,
                comparable,
                expected_cycle_s,
            },
        });
    }

    /// The rules.
    pub fn rules(&self) -> &[Arc<Rule>] {
        &self.rules
    }

    /// Number of rules (channel copies count separately).
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// `true` if no rules are present.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Distinct signal identifiers, sorted.
    pub fn signal_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .rules
            .iter()
            .map(|r| r.signal.clone())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        names.sort();
        names
    }

    /// Selects the subset `U_comb` for the given signals (all their
    /// channel copies).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownSignal`] if a name has no rule.
    pub fn select(&self, signals: &[&str]) -> Result<RuleSet> {
        let mut out = Vec::new();
        for &name in signals {
            let matched: Vec<Arc<Rule>> = self
                .rules
                .iter()
                .filter(|r| r.signal == name)
                .cloned()
                .collect();
            if matched.is_empty() {
                return Err(Error::UnknownSignal(name.to_string()));
            }
            out.extend(matched);
        }
        Ok(RuleSet { rules: out })
    }

    /// Overrides the comparability hint (`z_val`) for a signal on all its
    /// channels.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownSignal`] if the signal has no rule.
    pub fn set_comparable(&mut self, signal: &str, comparable: bool) -> Result<()> {
        let mut found = false;
        for r in &mut self.rules {
            if r.signal == signal {
                Arc::make_mut(r).info.comparable = comparable;
                found = true;
            }
        }
        if found {
            Ok(())
        } else {
            Err(Error::UnknownSignal(signal.to_string()))
        }
    }
}

/// Tuning knobs of DBC-less signal-boundary inference (the `ivnt-infer`
/// crate). Defined in core so [`RuleSource`] can carry the parameters a
/// table was synthesized with without depending on the inference crate.
#[derive(Debug, Clone, PartialEq)]
pub struct InferParams {
    /// Minimum observed rows per `(bus, message id)` before boundaries are
    /// emitted for it.
    pub min_samples: u64,
    /// Relative per-bit flip-rate rise that opens a new field during
    /// boundary segmentation (`r[i] > r[i-1] * rise_ratio`).
    pub rise_ratio: f64,
    /// Fraction of unit/wrap value steps required to classify a recovered
    /// field as a counter.
    pub counter_fraction: f64,
    /// Fraction of agreeing carry events (high field changes exactly when
    /// the low field wraps) required to merge two byte-aligned adjacent
    /// fields into one big-endian field.
    pub carry_fraction: f64,
}

impl Default for InferParams {
    fn default() -> InferParams {
        InferParams {
            min_samples: 32,
            rise_ratio: 1.25,
            counter_fraction: 0.9,
            carry_fraction: 0.9,
        }
    }
}

/// Where a pipeline's interpretation tables come from — the provenance
/// half of the catalog API. Every tier (sessions, multi-query planning,
/// streaming, cluster job specs) threads a `RuleSource` so workloads can
/// run DBC-less: `Authored` uses known tables, `Inferred` synthesizes
/// them from raw payloads, `Merged` fills authored gaps with inference.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum RuleSource {
    /// Authored tables: a network model, a parsed DBC, or hand-written
    /// rules.
    #[default]
    Authored,
    /// Tables synthesized from raw payloads by `ivnt-infer` — no
    /// interpretation knowledge assumed.
    Inferred {
        /// Parameters the tables were (or are to be) synthesized with.
        params: InferParams,
    },
    /// Authored tables extended with inferred rules for payload regions no
    /// authored rule claims.
    Merged {
        /// Parameters of the inferred half.
        params: InferParams,
    },
}

impl RuleSource {
    /// Short provenance label (`authored` / `inferred` / `merged`).
    pub fn label(&self) -> &'static str {
        match self {
            RuleSource::Authored => "authored",
            RuleSource::Inferred { .. } => "inferred",
            RuleSource::Merged { .. } => "merged",
        }
    }
}

/// A rule table together with its provenance — the one API through which
/// authored, scenario-derived and inferred tables reach the pipeline.
///
/// # Examples
///
/// ```
/// use ivnt_core::rules::{RuleCatalog, RuleSet};
/// use ivnt_simulator::scenario::{self, DataSetSpec};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let data = scenario::generate(&DataSetSpec::syn().with_duration_s(0.5))?;
/// let catalog = RuleCatalog::from_dataset(&data);
/// assert_eq!(catalog.source().label(), "authored");
/// assert!(!catalog.rules().is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RuleCatalog {
    rules: RuleSet,
    source: RuleSource,
}

impl RuleCatalog {
    /// Wraps authored tables (network model, DBC, hand-written rules).
    pub fn from_authored(rules: RuleSet) -> RuleCatalog {
        RuleCatalog {
            rules,
            source: RuleSource::Authored,
        }
    }

    /// Authored tables of a generated scenario: the full `U_rel` of its
    /// network plus the generator's comparability hints. This replaces the
    /// load logic previously duplicated across the CLI commands and the
    /// cluster `JobSpec`.
    pub fn from_dataset(data: &GeneratedDataSet) -> RuleCatalog {
        let mut rules = RuleSet::from_network(&data.network);
        for (signal, (_, comparable)) in &data.signal_classes {
            // Signals without rules (never placed) are skipped silently;
            // the hint map can be a superset of the catalog.
            let _ = rules.set_comparable(signal, *comparable);
        }
        RuleCatalog::from_authored(rules)
    }

    /// Wraps tables synthesized by `ivnt-infer` with the parameters they
    /// were recovered under.
    pub fn from_inferred(rules: RuleSet, params: InferParams) -> RuleCatalog {
        RuleCatalog {
            rules,
            source: RuleSource::Inferred { params },
        }
    }

    /// Merges two catalogs, `left` taking precedence: every rule of `left`
    /// is kept (in order), and a rule of `right` is appended only when its
    /// payload bit region on its `(bus, message id)` overlaps no rule of
    /// `left`. When inference recovers exactly the authored layout, the
    /// merged catalog therefore equals the authored one — the bit-identity
    /// property the acceptance tests pin.
    ///
    /// # Errors
    ///
    /// Returns [`Error::RuleConflict`] when both catalogs claim the same
    /// signal name — two sources disagreeing about one signal is domain
    /// ambiguity the caller must resolve, not a precedence question.
    pub fn merge(left: &RuleCatalog, right: &RuleCatalog) -> Result<RuleCatalog> {
        let left_names: std::collections::HashSet<&str> = left
            .rules
            .rules()
            .iter()
            .map(|r| r.signal.as_str())
            .collect();
        if let Some(dup) = right
            .rules
            .rules()
            .iter()
            .find(|r| left_names.contains(r.signal.as_str()))
        {
            return Err(Error::RuleConflict {
                signal: dup.signal.clone(),
                left: left.source.label(),
                right: right.source.label(),
            });
        }

        // Claimed payload bits per (bus, mid) on the left side. Rules with
        // instance-dependent packing (optional fields, multiplexing) claim
        // their whole message conservatively.
        let mut claimed: HashMap<(&str, u32), std::collections::HashSet<u16>> = HashMap::new();
        let mut claimed_all: std::collections::HashSet<(&str, u32)> =
            std::collections::HashSet::new();
        for r in left.rules.rules() {
            match r.payload_bits() {
                Some(bits) => claimed
                    .entry((r.bus.as_str(), r.message_id))
                    .or_default()
                    .extend(bits),
                None => {
                    claimed_all.insert((r.bus.as_str(), r.message_id));
                }
            }
        }

        let mut merged = left.rules.clone();
        for r in right.rules.rules() {
            let key = (r.bus.as_str(), r.message_id);
            if claimed_all.contains(&key) {
                continue;
            }
            let overlaps = match (r.payload_bits(), claimed.get(&key)) {
                (Some(bits), Some(taken)) => bits.iter().any(|b| taken.contains(b)),
                (None, _) => true, // conditional packing: never graft blindly
                (_, None) => false,
            };
            if !overlaps {
                merged.rules.push(r.clone());
            }
        }

        let params = match (&left.source, &right.source) {
            (_, RuleSource::Inferred { params }) | (_, RuleSource::Merged { params }) => {
                params.clone()
            }
            (RuleSource::Inferred { params }, _) | (RuleSource::Merged { params }, _) => {
                params.clone()
            }
            _ => InferParams::default(),
        };
        Ok(RuleCatalog {
            rules: merged,
            source: RuleSource::Merged { params },
        })
    }

    /// The rule table.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// The table's provenance.
    pub fn source(&self) -> &RuleSource {
        &self.source
    }
}

/// Builds a rule for one signal occurrence, rebasing the packing spec onto
/// the relevant-byte slice so `u2` can decode `l_rel` directly.
fn build_rule(
    spec: &SignalSpec,
    bus: &str,
    message_id: u32,
    home_channel: bool,
    comparable: bool,
    expected_cycle_s: Option<f64>,
) -> Rule {
    let (first_byte, num_bytes) = relevant_byte_range(spec);
    let rebased_start = spec.start_bit() - (first_byte as u16) * 8;
    let mut builder = SignalSpec::builder(spec.name(), rebased_start, spec.bit_len())
        .byte_order(spec.byte_order())
        .raw_kind(spec.raw_kind())
        .factor(spec.factor())
        .offset(spec.offset());
    if let Some(unit) = spec.unit() {
        builder = builder.unit(unit);
    }
    for (&raw, label) in spec.enumeration() {
        builder = builder.label(raw, label.clone());
    }
    let rebased = builder
        .build()
        .expect("rebasing a valid spec preserves validity");
    Rule {
        signal: spec.name().to_string(),
        bus: bus.to_string(),
        message_id,
        info: RuleInfo {
            spec: rebased,
            packing: Packing::Fixed {
                first_byte,
                num_bytes,
            },
            home_channel,
            comparable,
            expected_cycle_s,
        },
    }
}

/// Computes the payload byte range containing the signal's bit field
/// (`rel.B` of Table 1).
fn relevant_byte_range(spec: &SignalSpec) -> (usize, usize) {
    let start = spec.start_bit() as usize;
    let len = spec.bit_len() as usize;
    match spec.byte_order() {
        ByteOrder::Intel => {
            let first = start / 8;
            let last = (start + len - 1) / 8;
            (first, last - first + 1)
        }
        ByteOrder::Motorola => {
            // Walk the sawtooth to find the final bit's byte.
            let mut pos = start;
            for _ in 1..len {
                pos = if pos.is_multiple_of(8) {
                    pos + 15
                } else {
                    pos - 1
                };
            }
            let first = start / 8;
            let last = pos / 8;
            (first, last - first + 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivnt_protocol::catalog::Catalog;
    use ivnt_protocol::message::{MessageSpec, Protocol};
    use ivnt_simulator::network::GatewayRoute;

    fn network() -> NetworkModel {
        let mut catalog = Catalog::new();
        catalog
            .add_message(
                MessageSpec::builder(3, "WiperStatus", "FC", Protocol::Can)
                    .dlc(4)
                    .cycle_time_ms(100)
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
                MessageSpec::builder(11, "WiperType", "K-LIN", Protocol::Lin)
                    .dlc(1)
                    .signal(
                        SignalSpec::builder("wtype", 0, 4)
                            .labels([(0u64, "front"), (1, "rear")])
                            .build()
                            .unwrap(),
                    )
                    .build()
                    .unwrap(),
            )
            .unwrap();
        let mut n = NetworkModel::new(catalog);
        n.add_gateway(GatewayRoute {
            from_bus: "FC".into(),
            to_bus: "DC".into(),
            message_ids: vec![3],
            delay_us: 100,
        });
        n
    }

    #[test]
    fn from_network_expands_gateway_channels() {
        let rs = RuleSet::from_network(&network());
        // wpos and wvel on FC and DC, wtype on K-LIN only.
        assert_eq!(rs.len(), 5);
        assert_eq!(rs.signal_names(), vec!["wpos", "wtype", "wvel"]);
        let keys: std::collections::BTreeSet<_> = rs
            .rules()
            .iter()
            .map(|r| (r.bus.clone(), r.message_id))
            .collect();
        assert_eq!(
            keys.into_iter().collect::<Vec<_>>(),
            vec![
                ("DC".to_string(), 3),
                ("FC".to_string(), 3),
                ("K-LIN".to_string(), 11)
            ]
        );
    }

    #[test]
    fn home_channel_marked() {
        let rs = RuleSet::from_network(&network());
        let homes: Vec<(&str, bool)> = rs
            .rules()
            .iter()
            .filter(|r| r.signal == "wpos")
            .map(|r| (r.bus.as_str(), r.info.home_channel))
            .collect();
        assert!(homes.contains(&("FC", true)));
        assert!(homes.contains(&("DC", false)));
    }

    #[test]
    fn select_builds_u_comb() {
        let rs = RuleSet::from_network(&network());
        let sel = rs.select(&["wpos"]).unwrap();
        assert_eq!(sel.len(), 2); // both channels
        assert!(rs.select(&["nope"]).is_err());
    }

    #[test]
    fn decode_via_relevant_bytes() {
        let rs = RuleSet::from_network(&network());
        let rule = rs
            .rules()
            .iter()
            .find(|r| r.signal == "wvel" && r.bus == "FC")
            .unwrap();
        // wvel occupies bytes 2..4.
        assert_eq!(rule.info.first_byte(), 2);
        assert_eq!(rule.info.num_bytes(), 2);
        let payload = [0x5A, 0x00, 0x07, 0x00];
        let rel = rule.relevant_bytes(&payload).unwrap();
        assert_eq!(rel, Some(&[0x07, 0x00][..]));
        assert_eq!(rule.decode(&payload).unwrap().unwrap().as_num(), Some(7.0));
    }

    #[test]
    fn truncated_payload_rejected() {
        let rs = RuleSet::from_network(&network());
        let rule = rs.rules().iter().find(|r| r.signal == "wvel").unwrap();
        assert!(rule.relevant_bytes(&[0x00]).is_err());
    }

    #[test]
    fn comparable_hint_defaults_and_overrides() {
        let mut rs = RuleSet::from_network(&network());
        let wtype = rs.rules().iter().find(|r| r.signal == "wtype").unwrap();
        assert!(!wtype.info.comparable); // enumerated -> not comparable
        let wpos = rs.rules().iter().find(|r| r.signal == "wpos").unwrap();
        assert!(wpos.info.comparable);
        rs.set_comparable("wtype", true).unwrap();
        assert!(
            rs.rules()
                .iter()
                .find(|r| r.signal == "wtype")
                .unwrap()
                .info
                .comparable
        );
        assert!(rs.set_comparable("zz", true).is_err());
    }

    #[test]
    fn motorola_byte_range() {
        let spec = SignalSpec::builder("m", 7, 16)
            .byte_order(ByteOrder::Motorola)
            .build()
            .unwrap();
        assert_eq!(relevant_byte_range(&spec), (0, 2));
        let spec = SignalSpec::builder("m", 19, 12)
            .byte_order(ByteOrder::Motorola)
            .build()
            .unwrap();
        // start bit 19 = byte 2 bit 3; 12 bits walk into byte 3.
        assert_eq!(relevant_byte_range(&spec), (2, 2));
    }

    #[test]
    fn expected_cycle_propagated() {
        let rs = RuleSet::from_network(&network());
        let wpos = rs.rules().iter().find(|r| r.signal == "wpos").unwrap();
        assert_eq!(wpos.info.expected_cycle_s, Some(0.1));
        let wtype = rs.rules().iter().find(|r| r.signal == "wtype").unwrap();
        assert_eq!(wtype.info.expected_cycle_s, None);
    }
}
