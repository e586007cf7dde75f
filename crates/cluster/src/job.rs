//! The job description shipped to every worker.
//!
//! The coordinator does not serialize the pipeline itself — rules, codecs
//! and profiles are closures-and-catalogs deep. It ships the *recipe*
//! instead: scenario name, seed, and signal selection. Both sides rebuild
//! the identical [`Pipeline`] from it (the same way the CLI's
//! `extract` does), which is what makes the merged distributed
//! output bit-identical to a single-process run: every worker interprets
//! its shards with byte-for-byte the same `U_comb`.

use ivnt_core::prelude::*;
use ivnt_simulator::scenario::{self, DataSetSpec};
use ivnt_store::varint::{self, Cursor};
use ivnt_store::Footer;

use crate::error::{Error, Result};

/// Everything needed to deterministically rebuild the extraction
/// pipeline on a remote worker.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Scenario name: `syn`, `lig` or `sta`.
    pub scenario: String,
    /// Scenario seed override (must match the recording).
    pub seed: Option<u64>,
    /// Scenario target-example override (must match the recording).
    pub examples: Option<u64>,
    /// Signals to extract; empty selects the full `U_rel`.
    pub signals: Vec<String>,
    /// Path of the `.ivns` store file, as visible to the *worker*.
    pub store_path: String,
    /// Where the interpretation tables come from. `Authored` rebuilds them
    /// from the scenario's network model; `Inferred`/`Merged` make every
    /// worker run `ivnt-infer` boundary recovery over its local store
    /// before extracting, so the cluster can interpret recordings with no
    /// DBC at all.
    pub rule_source: RuleSource,
}

impl JobSpec {
    /// A job over `store_path` with scenario defaults.
    pub fn new(scenario: impl Into<String>, store_path: impl Into<String>) -> JobSpec {
        JobSpec {
            scenario: scenario.into(),
            seed: None,
            examples: None,
            signals: Vec::new(),
            store_path: store_path.into(),
            rule_source: RuleSource::Authored,
        }
    }

    /// Returns a copy with the scenario seed pinned.
    pub fn with_seed(mut self, seed: u64) -> JobSpec {
        self.seed = Some(seed);
        self
    }

    /// Returns a copy with the scenario example-count pinned.
    pub fn with_examples(mut self, examples: u64) -> JobSpec {
        self.examples = Some(examples);
        self
    }

    /// Returns a copy drawing interpretation tables from `rule_source`.
    pub fn with_rule_source(mut self, rule_source: RuleSource) -> JobSpec {
        self.rule_source = rule_source;
        self
    }

    /// Returns a copy extracting only `signals`.
    pub fn with_signals<I, S>(mut self, signals: I) -> JobSpec
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.signals = signals.into_iter().map(Into::into).collect();
        self
    }

    /// Resolves the scenario spec (without the duration shortening used
    /// for catalog regeneration).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] for an unknown scenario name.
    pub fn spec(&self) -> Result<DataSetSpec> {
        let mut spec = match self.scenario.as_str() {
            "syn" => DataSetSpec::syn(),
            "lig" => DataSetSpec::lig(),
            "sta" => DataSetSpec::sta(),
            other => {
                return Err(Error::Protocol(format!(
                    "unknown scenario {other:?} (use syn|lig|sta)"
                )))
            }
        };
        if let Some(seed) = self.seed {
            spec = spec.with_seed(seed);
        }
        if let Some(examples) = self.examples {
            spec = spec.with_target_examples(examples as usize);
        }
        Ok(spec)
    }

    /// Rebuilds the extraction pipeline this job describes.
    ///
    /// Regenerates a short slice of the scenario purely to obtain the
    /// network model (the catalog/documentation role — same trick as the
    /// CLI), derives `U_rel` with the scenario's comparability hints, and
    /// restricts to the requested signals.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Simulation`] when the scenario cannot be
    /// regenerated and [`Error::Pipeline`] for an unsatisfiable signal
    /// selection.
    pub fn pipeline(&self) -> Result<Pipeline> {
        let data = scenario::generate(&self.spec()?.with_duration_s(0.5))?;
        let mut u_rel = RuleSet::from_network(&data.network);
        for (signal, (_, comparable)) in &data.signal_classes {
            let _ = u_rel.set_comparable(signal, *comparable);
        }
        let mut profile = DomainProfile::new("cluster");
        if !self.signals.is_empty() {
            profile = profile.with_signals(self.signals.clone());
        }
        match &self.rule_source {
            RuleSource::Authored => Ok(Pipeline::new(u_rel, profile)?),
            RuleSource::Inferred { params } => {
                let catalog = self.inferred_tables(params)?.to_catalog()?;
                Ok(Pipeline::from_catalog(&catalog, profile)?)
            }
            RuleSource::Merged { params } => {
                let authored = RuleCatalog::from_authored(u_rel);
                let catalog = self.inferred_tables(params)?.merged_with(&authored)?;
                Ok(Pipeline::from_catalog(&catalog, profile)?)
            }
        }
    }

    /// Runs boundary inference over the job's store.
    ///
    /// Each worker profiles its *local* copy of the store, so the recipe
    /// stays closures-free on the wire: only [`InferParams`] travel, and
    /// determinism of the two scan passes makes every worker synthesize
    /// byte-for-byte the same tables.
    fn inferred_tables(&self, params: &InferParams) -> Result<ivnt_infer::InferredTables> {
        let mut reader = ivnt_store::StoreReader::open(&self.store_path)?;
        Ok(ivnt_infer::infer_store(&mut reader, params)?)
    }

    /// A stable fingerprint binding this job to one store state.
    ///
    /// Checkpoint files carry it so a restarted coordinator refuses to
    /// resume a different job, or the same job against a store that has
    /// grown or been compacted since the checkpoint was cut (either
    /// would shift group boundaries and corrupt the merge).
    pub fn fingerprint(&self, footer: &Footer) -> u64 {
        let mut bytes = Vec::new();
        self.encode(&mut bytes);
        varint::write_u64(&mut bytes, footer.generation);
        varint::write_u64(&mut bytes, footer.rows);
        varint::write_u64(&mut bytes, u64::from(footer.groups));
        ivnt_store::layout::checksum(&bytes)
    }

    /// Appends the wire encoding of the spec to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        crate::wire::write_str(out, &self.scenario);
        encode_opt_u64(out, self.seed);
        encode_opt_u64(out, self.examples);
        varint::write_u64(out, self.signals.len() as u64);
        for s in &self.signals {
            crate::wire::write_str(out, s);
        }
        crate::wire::write_str(out, &self.store_path);
        match &self.rule_source {
            RuleSource::Authored => out.push(0),
            RuleSource::Inferred { params } => {
                out.push(1);
                encode_infer_params(out, params);
            }
            RuleSource::Merged { params } => {
                out.push(2);
                encode_infer_params(out, params);
            }
        }
    }

    /// Decodes a spec written by [`JobSpec::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Truncated`] / [`Error::Protocol`] for malformed
    /// bytes.
    pub fn decode(cur: &mut Cursor<'_>) -> Result<JobSpec> {
        let scenario = crate::wire::read_str(cur)?;
        let seed = decode_opt_u64(cur)?;
        let examples = decode_opt_u64(cur)?;
        let n = cur.read_u64()?;
        if n > crate::wire::MAX_FRAME_LEN {
            return Err(Error::Protocol(format!("{n} signal names")));
        }
        let mut signals = Vec::with_capacity(n.min(1024) as usize);
        for _ in 0..n {
            signals.push(crate::wire::read_str(cur)?);
        }
        let store_path = crate::wire::read_str(cur)?;
        let rule_source = match cur.read_u8()? {
            0 => RuleSource::Authored,
            1 => RuleSource::Inferred {
                params: decode_infer_params(cur)?,
            },
            2 => RuleSource::Merged {
                params: decode_infer_params(cur)?,
            },
            other => return Err(Error::Protocol(format!("bad rule-source tag {other}"))),
        };
        Ok(JobSpec {
            scenario,
            seed,
            examples,
            signals,
            store_path,
            rule_source,
        })
    }
}

/// Inference parameters travel as a varint plus three raw IEEE-754 bit
/// patterns — bit-exact, so the fingerprint and the worker-side tables
/// cannot drift from float formatting.
fn encode_infer_params(out: &mut Vec<u8>, params: &InferParams) {
    varint::write_u64(out, params.min_samples);
    varint::write_u64(out, params.rise_ratio.to_bits());
    varint::write_u64(out, params.counter_fraction.to_bits());
    varint::write_u64(out, params.carry_fraction.to_bits());
}

fn decode_infer_params(cur: &mut Cursor<'_>) -> Result<InferParams> {
    Ok(InferParams {
        min_samples: cur.read_u64()?,
        rise_ratio: f64::from_bits(cur.read_u64()?),
        counter_fraction: f64::from_bits(cur.read_u64()?),
        carry_fraction: f64::from_bits(cur.read_u64()?),
    })
}

fn encode_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => {
            out.push(1);
            varint::write_u64(out, v);
        }
        None => out.push(0),
    }
}

fn decode_opt_u64(cur: &mut Cursor<'_>) -> Result<Option<u64>> {
    match cur.read_u8()? {
        0 => Ok(None),
        1 => Ok(Some(cur.read_u64()?)),
        other => Err(Error::Protocol(format!("bad option flag {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(spec: &JobSpec) -> JobSpec {
        let mut bytes = Vec::new();
        spec.encode(&mut bytes);
        JobSpec::decode(&mut Cursor::new(&bytes)).expect("decode")
    }

    #[test]
    fn rule_source_survives_the_wire() {
        let base = JobSpec::new("syn", "/tmp/a.ivns").with_seed(7);
        assert_eq!(roundtrip(&base), base);
        let inferred = base.clone().with_rule_source(RuleSource::Inferred {
            params: InferParams::default(),
        });
        assert_eq!(roundtrip(&inferred), inferred);
        let merged = base.clone().with_rule_source(RuleSource::Merged {
            params: InferParams {
                min_samples: 64,
                ..InferParams::default()
            },
        });
        assert_eq!(roundtrip(&merged), merged);
    }

    #[test]
    fn fingerprint_binds_the_rule_source() {
        let footer = Footer {
            buses: Vec::new(),
            rows: 0,
            groups: 0,
            group_rows: 0,
            clustered: false,
            generation: 0,
            chunks: Vec::new(),
        };
        let authored = JobSpec::new("syn", "/tmp/a.ivns");
        let inferred = authored.clone().with_rule_source(RuleSource::Inferred {
            params: InferParams::default(),
        });
        assert_ne!(
            authored.fingerprint(&footer),
            inferred.fingerprint(&footer),
            "a checkpoint cut under one rule source must not resume under another"
        );
    }
}
