//! # ivnt-core — automated interpretation and reduction of in-vehicle traces
//!
//! The primary contribution of the DAC'18 paper *"Automated Interpretation
//! and Reduction of In-Vehicle Network Traces at a Large Scale"* (Mrowca et
//! al.): a distributable, parameterizable end-to-end preprocessing pipeline
//! turning raw byte traces `K_b` into a domain-specific, homogeneous *state
//! representation* ready for data mining.
//!
//! The pipeline is the paper's Algorithm 1:
//!
//! | Lines | Step | Module |
//! |---|---|---|
//! | 2–3 | structuring & preselection (σ on `(m_id, b_id)`) | [`rules`], [`interpret`] |
//! | 4–6 | interpretation: `K_pre ⋈ U_comb`, `u1`, `u2` → `K_s` | [`interpret`] |
//! | 8 | signal splitting | [`split`] |
//! | 9 | gateway equality check `e` → representative sequence | [`dedup`] |
//! | 10–11 | constraint reduction `C`, Eq. (1) | [`reduce`] |
//! | 12 | extension rules `E` → meta-data `W` | [`extend`] |
//! | 13 | classification `Z` + Table 3 | [`classify`] |
//! | 14–28 | branches α (SWAB+SAX), β (rank+gradient), γ (passthrough) | [`branch`] |
//! | 29 + Sec. 4.3 | merge and state representation (Table 4) | [`represent`] |
//!
//! [`pipeline::Pipeline`] drives the whole algorithm from a
//! [`pipeline::DomainProfile`] — the paper's one-time per-domain
//! parameterization. All tabular steps execute partition-parallel on the
//! embedded engine ([`ivnt_frame`]) with deterministic output.
//!
//! # Examples
//!
//! ```
//! use ivnt_core::prelude::*;
//! use ivnt_simulator::prelude::*;
//! use ivnt_simulator::functions;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A vehicle with a wiper function, recorded for 5 seconds.
//! let mut network = NetworkModel::new(ivnt_protocol::Catalog::new());
//! network.add_function(functions::wiper()?)?;
//! network.auto_senders();
//! let trace = network.simulate(5.0, 42, &FaultPlan::new())?;
//!
//! // One-time parameterization: the wiper domain inspects wpos and wvel.
//! let u_rel = RuleSet::from_network(&network);
//! let profile = DomainProfile::new("wiper-domain").with_signals(["wpos", "wvel"]);
//! let pipeline = Pipeline::new(u_rel, profile)?;
//! let output = pipeline.session(RunOptions::trace(&trace)).run()?;
//!
//! // A homogeneous state representation results (paper Table 4).
//! assert!(output.state.schema().contains("wpos"));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod branch;
pub mod classify;
#[cfg(test)]
mod coded_oracle;
pub mod dedup;
pub mod error;
pub mod extend;
pub mod interpret;
pub mod pipeline;
pub mod query;
pub mod reduce;
pub mod represent;
pub mod rules;
pub mod split;
pub mod tabular;

pub use branch::{BranchConfig, OutlierMethod};
pub use classify::{Branch, Classification, ClassifyConfig, Criteria, DataClass};
pub use error::{Error, Result};
pub use extend::ExtensionRule;
pub use pipeline::{DomainProfile, Pipeline, PipelineOutput, RunOptions, Session, SignalOutput};
pub use query::Query;
pub use reduce::{ConditionFn, Constraint, Reduction};
pub use rules::{InferParams, Rule, RuleCatalog, RuleInfo, RuleSet, RuleSource};
pub use split::SignalSequence;

/// Convenient glob import of the pipeline's common types.
pub mod prelude {
    pub use crate::branch::{BranchConfig, OutlierMethod};
    pub use crate::classify::{Branch, Classification, ClassifyConfig, DataClass};
    pub use crate::extend::ExtensionRule;
    pub use crate::pipeline::{DomainProfile, Pipeline, PipelineOutput, RunOptions, SignalOutput};
    pub use crate::reduce::{ConditionFn, Constraint, Reduction};
    pub use crate::rules::{InferParams, RuleCatalog, RuleSet, RuleSource};
    pub use crate::split::SignalSequence;
}
