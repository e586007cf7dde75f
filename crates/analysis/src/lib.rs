//! # ivnt-analysis — downstream analyses on the state representation
//!
//! The applications of Sec. 4.4 of the DAC'18 paper, operating directly on
//! the homogeneous state representation produced by
//! [`ivnt_core`](https://docs.rs/ivnt-core)'s pipeline:
//!
//! * [`apriori`] — association rule mining (IF-THEN error causes),
//! * [`transition`] — transition graphs and their rare transitions,
//! * [`anomaly`] — frequency-based hot-spot detection with severity
//!   ranking, plus outlier-cell discovery,
//! * [`diagnosis`] — the state of the car at an outlier and the chain of
//!   states before it.
//!
//! # Examples
//!
//! ```
//! use ivnt_analysis::transition::TransitionGraph;
//! use ivnt_frame::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let schema = Schema::from_pairs([("t", DataType::Float), ("wiper", DataType::Str)])?
//!     .into_shared();
//! let state = DataFrame::from_rows(
//!     schema,
//!     [("idle"), ("wiping"), ("idle"), ("blocked")]
//!         .iter()
//!         .enumerate()
//!         .map(|(i, s)| vec![Value::Float(i as f64), Value::from(*s)]),
//! )?;
//! let graph = TransitionGraph::from_column(&state, "wiper")?;
//! let rare = graph.rare_transitions();
//! assert_eq!(rare[0].to, "blocked"); // the rare transition is the suspicious one
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod anomaly;
pub mod apriori;
pub mod diagnosis;
pub mod error;
pub mod feedback;
pub mod motif;
pub mod report;
pub mod transition;

pub use anomaly::{rare_states, rare_values, Anomaly, AnomalyConfig};
pub use apriori::{mine_rules, AprioriConfig, AssociationRule};
pub use diagnosis::{diagnose_outliers, EventContext};
pub use error::{Error, Result};
pub use feedback::{anomalies_to_extensions, anomaly_to_extension};
pub use motif::{count_motifs, rare_motifs, Motif};
pub use report::{render_report, ReportConfig};
pub use transition::TransitionGraph;
