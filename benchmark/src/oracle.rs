//! The correctness oracle: FNV-1a fingerprints of job results.
//!
//! A fingerprint covers `encode_batch` of every output partition plus the
//! per-signal metadata, so two results fingerprint equal only when they are
//! byte-equal partition by partition. Prepare computes the references with
//! serial sessions; every timed job is fingerprinted (outside the clock)
//! and compared.

use ivnt_cluster::codec::encode_batch;
use ivnt_core::classify::Classification;
use ivnt_frame::DataFrame;
use ivnt_stream::{DeltaRow, SignalSummary};

use crate::json::Json;

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Length-prefixed, so `("ab","c")` and `("a","bc")` differ.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Hash and size of one result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub fnv: u64,
    /// Bytes of `encode_batch` output hashed — the encoded result's size.
    pub bytes: u64,
}

impl Fingerprint {
    /// Hex on the wire: a `u64` does not survive a trip through `f64`.
    pub fn to_json(self) -> Json {
        Json::obj([
            ("fnv", Json::str(format!("{:016x}", self.fnv))),
            ("bytes", Json::count(self.bytes)),
        ])
    }

    pub fn from_json(v: &Json) -> Option<Fingerprint> {
        Some(Fingerprint {
            fnv: u64::from_str_radix(v.get("fnv")?.as_str()?, 16).ok()?,
            bytes: v.get("bytes")?.as_u64()?,
        })
    }
}

/// Accumulates one result's fingerprint.
pub struct Hasher {
    fnv: Fnv,
    bytes: u64,
}

impl Hasher {
    pub fn new() -> Hasher {
        Hasher {
            fnv: Fnv::new(),
            bytes: 0,
        }
    }

    /// Every partition of `frame`, in order, with the partition count.
    pub fn frame(&mut self, frame: &DataFrame) {
        self.fnv.write_u64(frame.num_partitions() as u64);
        for batch in frame.partitions() {
            let encoded = encode_batch(batch);
            self.bytes += encoded.len() as u64;
            self.fnv.write_u64(encoded.len() as u64);
            self.fnv.write(&encoded);
        }
    }

    pub fn text(&mut self, s: &str) {
        self.fnv.write_str(s);
    }

    pub fn texts(&mut self, items: &[String]) {
        self.fnv.write_u64(items.len() as u64);
        for s in items {
            self.fnv.write_str(s);
        }
    }

    pub fn count(&mut self, n: usize) {
        self.word(n as u64);
    }

    pub fn word(&mut self, v: u64) {
        self.fnv.write_u64(v);
    }

    pub fn finish(self) -> Fingerprint {
        Fingerprint {
            fnv: self.fnv.finish(),
            bytes: self.bytes,
        }
    }
}

/// One signal's result as both `Session::run` and the staged replay
/// produce it.
pub struct SignalView<'a> {
    pub signal: &'a str,
    pub classification: &'a Classification,
    pub representative_channel: &'a str,
    pub corresponding: &'a [String],
    pub mismatched: &'a [String],
    pub rows_interpreted: usize,
    pub rows_reduced: usize,
    pub frame: &'a DataFrame,
}

/// Fingerprint of a full Algorithm 1 result: per-signal metadata and
/// `K_res` frames, then `W`, `K_rep` and the state table.
pub fn run_fingerprint<'a>(
    signals: impl IntoIterator<Item = SignalView<'a>>,
    extensions: &DataFrame,
    merged: &DataFrame,
    state: &DataFrame,
) -> Fingerprint {
    let mut h = Hasher::new();
    for s in signals {
        h.text(s.signal);
        h.text(&format!("{:?}", s.classification));
        h.text(s.representative_channel);
        h.texts(s.corresponding);
        h.texts(s.mismatched);
        h.count(s.rows_interpreted);
        h.count(s.rows_reduced);
        h.frame(s.frame);
    }
    h.frame(extensions);
    h.frame(merged);
    h.frame(state);
    h.finish()
}

/// Fingerprint of an extraction (`K_s`) — the `cluster.w1` result.
pub fn frame_fingerprint(frame: &DataFrame) -> Fingerprint {
    let mut h = Hasher::new();
    h.frame(frame);
    h.finish()
}

/// Fingerprint of a reduced stream: per signal (sorted by name) its
/// summary and every emitted row, bit-exact. The rows are hashed field by
/// field, never encoded, so `bytes` stays 0.
pub fn stream_fingerprint<'a>(
    signals: impl IntoIterator<Item = (&'a SignalSummary, &'a [DeltaRow])>,
) -> Fingerprint {
    let mut h = Hasher::new();
    for (summary, rows) in signals {
        h.text(&summary.signal);
        h.text(&summary.representative_channel);
        h.texts(&summary.corresponding);
        h.texts(&summary.mismatched);
        h.count(summary.rows_interpreted);
        h.count(summary.rows_emitted);
        h.count(rows.len());
        for row in rows {
            h.word(row.t.to_bits());
            h.text(row.bus.as_deref().unwrap_or("\0"));
            h.word(row.num.map_or(u64::MAX, f64::to_bits));
            h.text(row.text.as_deref().unwrap_or("\0"));
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_published_vectors() {
        let mut h = Fnv::new();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fingerprint_survives_json() {
        let fp = Fingerprint {
            fnv: 0xffff_ffff_ffff_fff1,
            bytes: 123_456_789,
        };
        assert_eq!(Fingerprint::from_json(&fp.to_json()), Some(fp));
        let text = fp.to_json().to_string();
        assert_eq!(
            Fingerprint::from_json(&Json::parse(&text).unwrap()),
            Some(fp)
        );
    }

    #[test]
    fn string_boundaries_are_hashed() {
        let mut a = Fnv::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }
}
