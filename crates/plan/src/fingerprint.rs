//! Plan and store fingerprints — the two halves of a cache key.
//!
//! A cached extraction may be reused only when *both* the question and the
//! data are unchanged. The question is fingerprinted from the query's
//! normalized predicate (sorted, deduplicated `(bus, mid)` pairs plus the
//! time window) and its rule identity (the `U_comb` rule list *in order* —
//! emission order depends on it); the data from the store's footer
//! ([`generation`](ivnt_store::Footer::generation) plus row/chunk/group
//! geometry, so both appends and compaction rewrites advance the epoch).

use std::sync::Arc;

use ivnt_core::Pipeline;
use ivnt_store::Footer;

/// FNV-1a 64, streamed. Same constants as the store's chunk checksum.
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// Fingerprints one query: normalized predicate + ordered rule identity.
///
/// Rule identity includes each rule's `(signal, bus, message id)` *and*
/// its [`Arc`] pointer, so two pipelines only share cache entries when
/// they were built from the same rule table in the same process — a
/// conservative choice that can miss spuriously but never hit falsely
/// (two same-named signals with different decode parameters never
/// collide). Each cache entry holds its rules, so no address it was keyed
/// by is reused while it can hit.
pub(crate) fn query_fingerprint(pipeline: &Pipeline, window: Option<(u64, u64)>) -> u64 {
    let mut h = Fnv::new();

    // Normalized predicate: sorted, deduplicated (bus, mid) pairs.
    let mut pairs: Vec<(&str, u32)> = pipeline
        .u_comb()
        .rules()
        .iter()
        .map(|r| (r.bus.as_str(), r.message_id))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    h.write_u64(pairs.len() as u64);
    for (bus, mid) in pairs {
        h.write_u64(bus.len() as u64);
        h.write(bus.as_bytes());
        h.write_u64(u64::from(mid));
    }

    match window {
        None => h.write_u64(0),
        Some((from, to)) => {
            h.write_u64(1);
            h.write_u64(from);
            h.write_u64(to);
        }
    }

    // Ordered rule identity: emission order follows the rule list.
    let rules = pipeline.u_comb().rules();
    h.write_u64(rules.len() as u64);
    for r in rules {
        h.write_u64(r.signal.len() as u64);
        h.write(r.signal.as_bytes());
        h.write_u64(r.bus.len() as u64);
        h.write(r.bus.as_bytes());
        h.write_u64(u64::from(r.message_id));
        h.write_u64(Arc::as_ptr(r) as usize as u64);
    }
    h.finish()
}

/// Fingerprints the store's current contents — the cache epoch.
pub(crate) fn store_epoch(footer: &Footer) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(footer.generation);
    h.write_u64(footer.rows);
    h.write_u64(u64::from(footer.groups));
    h.write_u64(u64::from(footer.group_rows));
    h.write_u64(footer.chunks.len() as u64);
    h.finish()
}
