//! DBC import/export — the industry-standard communication-matrix format.
//!
//! The paper's interpretation rules are "generated from documentation";
//! in practice that documentation is a Vector DBC file. This module parses
//! the widely used subset into a [`Catalog`] and serializes a catalog back
//! out, so real communication matrices can parameterize the pipeline.
//!
//! Supported statements:
//!
//! * `VERSION "..."`, `BU_:` (node list, kept as metadata)
//! * `BO_ <id> <name>: <dlc> <sender>` — message definition
//! * `SG_ <name> : <start>|<len>@<order><sign> (<factor>,<offset>)
//!   [<min>|<max>] "<unit>" <receivers>` — signal definition
//!   (`@1` = Intel/little endian, `@0` = Motorola/big endian;
//!   `+` unsigned, `-` signed)
//! * `VAL_ <msg id> <signal> <raw> "<label>" ... ;` — enumerations
//! * `BA_ "GenMsgCycleTime" BO_ <id> <ms>;` — cycle times
//! * `CM_ ...;` comments are skipped
//!
//! Multiplexed signals (`M` selector, `m<k>` pages) are returned beside the
//! catalog as [`MuxEntry`]s: their bytes are only valid on their page, so
//! each becomes a presence-conditional rule instead of a catalog signal.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::bits::ByteOrder;
use crate::catalog::Catalog;
use crate::error::{Error, Result};
use crate::message::{MessageSpec, Protocol};
use crate::signal::{RawKind, SignalSpec};

/// A parse failure with its 1-based line number.
fn parse_err(line_no: usize, msg: impl std::fmt::Display) -> Error {
    Error::InvalidSpec(format!("dbc line {line_no}: {msg}"))
}

/// Multiplexing role parsed from the DBC `m<k>`/`M` indicator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MuxRole {
    /// Plain signal, always present.
    None,
    /// The multiplexor (selector) signal.
    Multiplexor,
    /// Present only when the multiplexor carries this raw value.
    Multiplexed(u64),
}

/// One multiplexed signal extracted by [`parse_dbc`]: it is *not*
/// part of the catalog message (its bytes are only valid on its page) and
/// must be extracted with a presence-conditional rule.
#[derive(Debug, Clone)]
pub struct MuxEntry {
    /// Message the signal occurs in.
    pub message_id: u32,
    /// Decode spec of the multiplexor signal (payload-relative).
    pub selector: SignalSpec,
    /// Raw multiplexor value gating this signal.
    pub selector_value: u64,
    /// The multiplexed signal's spec (payload-relative).
    pub signal: SignalSpec,
}

#[derive(Debug, Clone)]
struct PendingSignal {
    mux: MuxRole,
    name: String,
    start_bit: u16,
    bit_len: u16,
    byte_order: ByteOrder,
    raw_kind: RawKind,
    factor: f64,
    offset: f64,
    min: f64,
    max: f64,
    unit: Option<String>,
}

#[derive(Debug, Clone)]
struct PendingMessage {
    id: u32,
    name: String,
    dlc: usize,
    signals: Vec<PendingSignal>,
}

/// Parses DBC text into a [`Catalog`], assigning every message to channel
/// `bus` (DBC files describe one bus each).
///
/// The catalog holds each message's always-present signals (including the
/// multiplexor); every `m<k>`-multiplexed signal is returned as a
/// [`MuxEntry`] for presence-conditional extraction.
///
/// # Errors
///
/// Returns [`Error::InvalidSpec`] with the offending line number for
/// malformed statements, a multiplexed signal in a message without a
/// multiplexor, or inconsistent specs (duplicate ids, out-of-payload
/// signals, ...).
///
/// # Examples
///
/// ```
/// use ivnt_protocol::dbc;
///
/// # fn main() -> ivnt_protocol::Result<()> {
/// let text = r#"
/// BO_ 3 WiperStatus: 4 WiperEcu
///  SG_ wpos : 0|16@1+ (0.5,0) [0|180] "deg" Receiver
///  SG_ wvel : 16|16@1+ (1,0) [0|10] "rad/min" Receiver
/// "#;
/// let (catalog, mux) = dbc::parse_dbc(text, "FC")?;
/// assert_eq!(catalog.message("FC", 3)?.signals().len(), 2);
/// assert!(mux.is_empty());
/// # Ok(())
/// # }
/// ```
pub fn parse_dbc(text: &str, bus: &str) -> Result<(Catalog, Vec<MuxEntry>)> {
    let mut messages: Vec<PendingMessage> = Vec::new();
    let mut enums: HashMap<(u32, String), Vec<(u64, String)>> = HashMap::new();
    let mut cycle_times: HashMap<u32, u32> = HashMap::new();

    for (i, raw_line) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw_line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("BO_ ") {
            messages.push(parse_bo(rest, line_no)?);
        } else if let Some(rest) = line.strip_prefix("SG_ ") {
            let msg = messages
                .last_mut()
                .ok_or_else(|| parse_err(line_no, "SG_ before any BO_"))?;
            msg.signals.push(parse_sg(rest, line_no)?);
        } else if let Some(rest) = line.strip_prefix("VAL_ ") {
            let (key, labels) = parse_val(rest, line_no)?;
            enums.insert(key, labels);
        } else if let Some(rest) = line.strip_prefix("BA_ ") {
            if let Some((id, ms)) = parse_cycle_time(rest) {
                cycle_times.insert(id, ms);
            }
        }
        // VERSION, BU_, CM_, BA_DEF_, NS_ etc. carry no catalog content.
    }

    let mut catalog = Catalog::new();
    let mut mux_entries: Vec<MuxEntry> = Vec::new();
    for pending in messages {
        let mut builder =
            MessageSpec::builder(pending.id, &pending.name, bus, Protocol::Can).dlc(pending.dlc);
        if let Some(&ms) = cycle_times.get(&pending.id) {
            builder = builder.cycle_time_ms(ms);
        }
        let build_spec = |s: &PendingSignal| -> Result<SignalSpec> {
            let mut sig = SignalSpec::builder(&s.name, s.start_bit, s.bit_len)
                .byte_order(s.byte_order)
                .raw_kind(s.raw_kind)
                .factor(s.factor)
                .offset(s.offset);
            if s.min != 0.0 || s.max != 0.0 {
                sig = sig.min(s.min).max(s.max);
            }
            if let Some(unit) = &s.unit {
                if !unit.is_empty() {
                    sig = sig.unit(unit.clone());
                }
            }
            if let Some(labels) = enums.get(&(pending.id, s.name.clone())) {
                for (raw, label) in labels {
                    sig = sig.label(*raw, label.clone());
                }
            }
            sig.build()
        };
        let selector = pending
            .signals
            .iter()
            .find(|s| s.mux == MuxRole::Multiplexor)
            .map(build_spec)
            .transpose()?;
        for s in &pending.signals {
            match s.mux {
                MuxRole::None | MuxRole::Multiplexor => {
                    builder = builder.signal(build_spec(s)?);
                }
                MuxRole::Multiplexed(value) => {
                    let selector = selector.clone().ok_or_else(|| {
                        Error::InvalidSpec(format!(
                            "message {} has multiplexed signal {} but no multiplexor",
                            pending.id, s.name
                        ))
                    })?;
                    mux_entries.push(MuxEntry {
                        message_id: pending.id,
                        selector,
                        selector_value: value,
                        signal: build_spec(s)?,
                    });
                }
            }
        }
        catalog.add_message(builder.build()?)?;
    }
    Ok((catalog, mux_entries))
}

fn parse_bo(rest: &str, line_no: usize) -> Result<PendingMessage> {
    // "<id> <name>: <dlc> <sender>"
    let mut parts = rest.split_whitespace();
    let id: u32 = parts
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| parse_err(line_no, "BO_ needs a numeric id"))?;
    let name = parts
        .next()
        .and_then(|t| t.strip_suffix(':'))
        .map(str::to_string)
        .ok_or_else(|| parse_err(line_no, "BO_ needs '<name>:'"))?;
    let dlc: usize = parts
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| parse_err(line_no, "BO_ needs a numeric dlc"))?;
    Ok(PendingMessage {
        id,
        name,
        dlc,
        signals: Vec::new(),
    })
}

fn parse_sg(rest: &str, line_no: usize) -> Result<PendingSignal> {
    // "<name> : <start>|<len>@<order><sign> (<f>,<o>) [<min>|<max>] "unit" recv"
    let (name_part, spec_part) = rest
        .split_once(':')
        .ok_or_else(|| parse_err(line_no, "SG_ needs ':'"))?;
    let mut name_tokens = name_part.split_whitespace();
    let name = name_tokens
        .next()
        .ok_or_else(|| parse_err(line_no, "SG_ needs a name"))?
        .to_string();
    let mux = match name_tokens.next() {
        None => MuxRole::None,
        Some("M") => MuxRole::Multiplexor,
        Some(tok) => {
            let value: u64 = tok
                .strip_prefix('m')
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| parse_err(line_no, format!("bad multiplex indicator '{tok}'")))?;
            MuxRole::Multiplexed(value)
        }
    };

    let spec = spec_part.trim();
    // <start>|<len>@<order><sign>
    let (packing, rest2) = spec
        .split_once(' ')
        .ok_or_else(|| parse_err(line_no, "SG_ needs packing and coding"))?;
    let (start_str, rest3) = packing
        .split_once('|')
        .ok_or_else(|| parse_err(line_no, "packing needs '<start>|<len>'"))?;
    let (len_str, order_sign) = rest3
        .split_once('@')
        .ok_or_else(|| parse_err(line_no, "packing needs '@<order><sign>'"))?;
    let start_bit: u16 = start_str
        .parse()
        .map_err(|_| parse_err(line_no, "bad start bit"))?;
    let bit_len: u16 = len_str
        .parse()
        .map_err(|_| parse_err(line_no, "bad bit length"))?;
    let mut chars = order_sign.chars();
    let byte_order = match chars.next() {
        Some('1') => ByteOrder::Intel,
        Some('0') => ByteOrder::Motorola,
        other => return Err(parse_err(line_no, format!("bad byte order {other:?}"))),
    };
    let raw_kind = match chars.next() {
        Some('+') => RawKind::Unsigned,
        Some('-') => RawKind::Signed,
        other => return Err(parse_err(line_no, format!("bad sign {other:?}"))),
    };

    // (<factor>,<offset>)
    let rest2 = rest2.trim();
    let (coding, rest4) = rest2
        .split_once(')')
        .ok_or_else(|| parse_err(line_no, "SG_ needs '(factor,offset)'"))?;
    let coding = coding
        .strip_prefix('(')
        .ok_or_else(|| parse_err(line_no, "coding must start with '('"))?;
    let (f_str, o_str) = coding
        .split_once(',')
        .ok_or_else(|| parse_err(line_no, "coding needs ','"))?;
    let factor: f64 = f_str
        .trim()
        .parse()
        .map_err(|_| parse_err(line_no, "bad factor"))?;
    let offset: f64 = o_str
        .trim()
        .parse()
        .map_err(|_| parse_err(line_no, "bad offset"))?;

    // [<min>|<max>]
    let rest4 = rest4.trim();
    let (range, rest5) = rest4
        .split_once(']')
        .ok_or_else(|| parse_err(line_no, "SG_ needs '[min|max]'"))?;
    let range = range
        .strip_prefix('[')
        .ok_or_else(|| parse_err(line_no, "range must start with '['"))?;
    let (min_str, max_str) = range
        .split_once('|')
        .ok_or_else(|| parse_err(line_no, "range needs '|'"))?;
    let min: f64 = min_str
        .trim()
        .parse()
        .map_err(|_| parse_err(line_no, "bad min"))?;
    let max: f64 = max_str
        .trim()
        .parse()
        .map_err(|_| parse_err(line_no, "bad max"))?;

    // "<unit>"
    let rest5 = rest5.trim();
    let unit = rest5
        .strip_prefix('"')
        .and_then(|s| s.split_once('"'))
        .map(|(u, _)| u.to_string());

    Ok(PendingSignal {
        mux,
        name,
        start_bit,
        bit_len,
        byte_order,
        raw_kind,
        factor,
        offset,
        min,
        max,
        unit,
    })
}

/// Enumeration labels for one `(message id, signal)` pair.
type ValEntry = ((u32, String), Vec<(u64, String)>);

fn parse_val(rest: &str, line_no: usize) -> Result<ValEntry> {
    // "<msg id> <signal> <raw> \"label\" <raw> \"label\" ... ;"
    let rest = rest.trim_end_matches(';').trim();
    let mut tokens = rest.splitn(3, ' ');
    let id: u32 = tokens
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| parse_err(line_no, "VAL_ needs a message id"))?;
    let signal = tokens
        .next()
        .ok_or_else(|| parse_err(line_no, "VAL_ needs a signal name"))?
        .to_string();
    let mut labels = Vec::new();
    let mut remainder = tokens.next().unwrap_or("").trim();
    while !remainder.is_empty() {
        let (raw_str, after) = remainder
            .split_once(' ')
            .ok_or_else(|| parse_err(line_no, "VAL_ entries are '<raw> \"label\"' pairs"))?;
        let raw: u64 = raw_str
            .parse()
            .map_err(|_| parse_err(line_no, "bad VAL_ raw value"))?;
        let after = after.trim_start();
        let after = after
            .strip_prefix('"')
            .ok_or_else(|| parse_err(line_no, "VAL_ label must be quoted"))?;
        let (label, rest2) = after
            .split_once('"')
            .ok_or_else(|| parse_err(line_no, "VAL_ label missing closing quote"))?;
        labels.push((raw, label.to_string()));
        remainder = rest2.trim();
    }
    if labels.is_empty() {
        return Err(parse_err(line_no, "VAL_ without any labels"));
    }
    Ok(((id, signal), labels))
}

fn parse_cycle_time(rest: &str) -> Option<(u32, u32)> {
    // "\"GenMsgCycleTime\" BO_ <id> <ms>;"
    let rest = rest.trim();
    let rest = rest.strip_prefix("\"GenMsgCycleTime\"")?.trim();
    let rest = rest.strip_prefix("BO_")?.trim();
    let rest = rest.trim_end_matches(';');
    let mut parts = rest.split_whitespace();
    let id: u32 = parts.next()?.parse().ok()?;
    let ms: u32 = parts.next()?.parse().ok()?;
    Some((id, ms))
}

/// Serializes the catalog's messages on channel `bus` as DBC text.
///
/// Round-trips with [`parse_dbc`] for the supported subset. Messages on
/// other channels are skipped (a DBC file describes one bus).
pub fn to_dbc(catalog: &Catalog, bus: &str) -> String {
    let mut out = String::from("VERSION \"ivnt export\"\n\nBU_: IVNT\n\n");
    for m in catalog.messages().iter().filter(|m| m.bus() == bus) {
        let _ = writeln!(out, "BO_ {} {}: {} IVNT", m.id(), m.name(), m.dlc());
        for s in m.signals() {
            let order = match s.byte_order() {
                ByteOrder::Intel => '1',
                ByteOrder::Motorola => '0',
            };
            let sign = match s.raw_kind() {
                RawKind::Unsigned => '+',
                RawKind::Signed => '-',
            };
            let _ = writeln!(
                out,
                " SG_ {} : {}|{}@{}{} ({},{}) [0|0] \"{}\" IVNT",
                s.name(),
                s.start_bit(),
                s.bit_len(),
                order,
                sign,
                s.factor(),
                s.offset(),
                s.unit().unwrap_or(""),
            );
        }
        out.push('\n');
    }
    for m in catalog.messages().iter().filter(|m| m.bus() == bus) {
        if let Some(ms) = m.cycle_time_ms() {
            let _ = writeln!(out, "BA_ \"GenMsgCycleTime\" BO_ {} {};", m.id(), ms);
        }
        for s in m.signals() {
            if s.is_enumerated() {
                let mut line = format!("VAL_ {} {}", m.id(), s.name());
                for (raw, label) in s.enumeration() {
                    let _ = write!(line, " {raw} \"{label}\"");
                }
                line.push_str(" ;");
                let _ = writeln!(out, "{line}");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
VERSION "test matrix"

BU_: WiperEcu BodyEcu

BO_ 3 WiperStatus: 4 WiperEcu
 SG_ wpos : 0|16@1+ (0.5,0) [0|180] "deg" BodyEcu
 SG_ wvel : 16|16@1+ (1,0) [0|10] "rad/min" BodyEcu

BO_ 120 CarState: 2 BodyEcu
 SG_ state : 0|2@1+ (1,0) [0|2] "" WiperEcu
 SG_ temp : 15|8@0- (0.5,-40) [-40|87.5] "C" WiperEcu

CM_ SG_ 3 wpos "wiper position";
BA_ "GenMsgCycleTime" BO_ 3 100;
VAL_ 120 state 0 "parking" 1 "standby" 2 "driving" ;
"#;

    #[test]
    fn parses_messages_and_signals() {
        let (catalog, _) = parse_dbc(SAMPLE, "FC").unwrap();
        assert_eq!(catalog.num_messages(), 2);
        let wiper = catalog.message("FC", 3).unwrap();
        assert_eq!(wiper.name(), "WiperStatus");
        assert_eq!(wiper.dlc(), 4);
        assert_eq!(wiper.cycle_time_ms(), Some(100));
        let wpos = wiper.signal("wpos").unwrap();
        assert_eq!(wpos.factor(), 0.5);
        assert_eq!(wpos.unit(), Some("deg"));
        assert_eq!(wpos.bit_len(), 16);
    }

    #[test]
    fn parses_motorola_signed() {
        let (catalog, _) = parse_dbc(SAMPLE, "FC").unwrap();
        let temp = catalog.message("FC", 120).unwrap().signal("temp").unwrap();
        assert_eq!(temp.byte_order(), ByteOrder::Motorola);
        assert_eq!(temp.raw_kind(), RawKind::Signed);
        assert_eq!(temp.offset(), -40.0);
    }

    #[test]
    fn parses_enumerations() {
        let (catalog, _) = parse_dbc(SAMPLE, "FC").unwrap();
        let state = catalog.message("FC", 120).unwrap().signal("state").unwrap();
        assert!(state.is_enumerated());
        assert_eq!(state.enumeration().get(&2), Some(&"driving".to_string()));
    }

    #[test]
    fn decoded_values_match_spec() {
        let (catalog, _) = parse_dbc(SAMPLE, "FC").unwrap();
        let wpos = catalog.message("FC", 3).unwrap().signal("wpos").unwrap();
        assert_eq!(
            wpos.decode(&[0x5A, 0x00, 0x00, 0x00]).unwrap().as_num(),
            Some(45.0)
        );
    }

    #[test]
    fn parse_returns_mux_entries() {
        let text = "BO_ 1 Msg: 8 E\n SG_ page M : 0|8@1+ (1,0) [0|255] \"\" R\n SG_ oil m0 : 8|16@1+ (0.1,-40) [0|100] \"C\" R\n SG_ cool m1 : 8|16@1+ (0.1,-40) [0|100] \"C\" R\n";
        let (catalog, mux) = parse_dbc(text, "B").unwrap();
        // The catalog holds the multiplexor only.
        assert_eq!(catalog.message("B", 1).unwrap().signals().len(), 1);
        assert_eq!(mux.len(), 2);
        assert_eq!(mux[0].selector.name(), "page");
        assert_eq!(mux[0].selector_value, 0);
        assert_eq!(mux[0].signal.name(), "oil");
        assert_eq!(mux[1].selector_value, 1);
        assert_eq!(mux[1].signal.factor(), 0.1);
    }

    #[test]
    fn multiplexed_without_multiplexor_rejected() {
        let text = "BO_ 1 Msg: 8 E\n SG_ sig m0 : 8|8@1+ (1,0) [0|255] \"\" R\n";
        let err = parse_dbc(text, "B").unwrap_err();
        assert!(err.to_string().contains("no multiplexor"), "{err}");
    }

    #[test]
    fn bad_mux_indicator_reports_line() {
        let text = "BO_ 1 Msg: 8 E\n SG_ sig xyz : 8|8@1+ (1,0) [0|255] \"\" R\n";
        let err = parse_dbc(text, "B").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn malformed_lines_report_position() {
        for (text, needle) in [
            ("BO_ x Name: 8 E", "numeric id"),
            ("BO_ 1 Name 8 E", "'<name>:'"),
            (
                "BO_ 1 N: 8 E\n SG_ s : 0|8@2+ (1,0) [0|1] \"\" R",
                "byte order",
            ),
            (" SG_ s : 0|8@1+ (1,0) [0|1] \"\" R", "SG_ before any BO_"),
            ("VAL_ 1 s ;", "without any labels"),
        ] {
            let err = parse_dbc(text, "B").unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "expected {needle:?} in {err}"
            );
        }
    }

    #[test]
    fn export_roundtrips() {
        let (catalog, _) = parse_dbc(SAMPLE, "FC").unwrap();
        let text = to_dbc(&catalog, "FC");
        let (reparsed, _) = parse_dbc(&text, "FC").unwrap();
        assert_eq!(reparsed.num_messages(), catalog.num_messages());
        for m in catalog.messages() {
            let rm = reparsed.message("FC", m.id()).unwrap();
            assert_eq!(rm.dlc(), m.dlc());
            assert_eq!(rm.cycle_time_ms(), m.cycle_time_ms());
            assert_eq!(rm.signals().len(), m.signals().len());
            for (a, b) in m.signals().iter().zip(rm.signals()) {
                assert_eq!(a.name(), b.name());
                assert_eq!(a.start_bit(), b.start_bit());
                assert_eq!(a.bit_len(), b.bit_len());
                assert_eq!(a.byte_order(), b.byte_order());
                assert_eq!(a.factor(), b.factor());
                assert_eq!(a.enumeration(), b.enumeration());
            }
        }
    }

    #[test]
    fn other_buses_excluded_from_export() {
        let (mut catalog, _) = parse_dbc(SAMPLE, "FC").unwrap();
        catalog
            .add_message(
                MessageSpec::builder(9, "Other", "LIN", Protocol::Lin)
                    .dlc(1)
                    .signal(SignalSpec::builder("x", 0, 8).build().unwrap())
                    .build()
                    .unwrap(),
            )
            .unwrap();
        let text = to_dbc(&catalog, "FC");
        assert!(!text.contains("Other"));
    }

    #[test]
    fn signal_out_of_payload_rejected() {
        let text = "BO_ 1 N: 1 E\n SG_ s : 0|16@1+ (1,0) [0|1] \"\" R";
        assert!(parse_dbc(text, "B").is_err());
    }
}
