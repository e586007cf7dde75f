//! # ivnt — automated interpretation and reduction of in-vehicle network traces
//!
//! Umbrella crate of the DAC'18 reproduction *"Automated Interpretation and
//! Reduction of In-Vehicle Network Traces at a Large Scale"* (Mrowca,
//! Pramsohler, Steinhorst, Baumgarten). It re-exports the workspace crates
//! under one roof:
//!
//! * [`frame`] — the embedded partition-parallel DataFrame engine (the
//!   Spark substitute),
//! * [`protocol`] — CAN / LIN / SOME-IP payload signal codecs, the signal
//!   catalog and DBC import,
//! * [`series`] — SWAB segmentation, SAX symbolization, smoothing,
//!   outlier detection,
//! * [`simulator`] — the in-vehicle network and trace generator (the data
//!   substitute), including the paper's SYN/LIG/STA scenario shapes,
//! * [`store`] — the chunked columnar on-disk trace store with zone-map
//!   pushdown (the HDFS/Parquet substitute),
//! * [`core`] — Algorithm 1: the parameterizable end-to-end preprocessing
//!   pipeline,
//! * [`infer`] — DBC-less signal-boundary inference: recovers packing
//!   tables from raw payloads (READ/ByCAN/CAN-D substitute) and emits
//!   them as `RuleSource::Inferred` catalogs,
//! * [`cluster`] — coordinator/worker distributed extraction over TCP
//!   (the Spark-cluster substitute): shard scheduling, heartbeats,
//!   fault-tolerant retry,
//! * [`obs`] — std-only metrics registry and span tracing threaded through
//!   every layer (the Spark-UI / task-metrics substitute),
//! * [`analysis`] — Sec. 4.4 applications: rule mining, transition graphs,
//!   anomaly detection, diagnosis,
//! * [`baseline`] — the sequential in-house-tool comparator of Table 6.
//!
//! # Quickstart
//!
//! ```
//! use ivnt::core::prelude::*;
//! use ivnt::simulator::prelude::*;
//! use ivnt::simulator::functions;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Record a 5-second trace from a simulated vehicle.
//! let mut network = NetworkModel::new(ivnt::protocol::Catalog::new());
//! network.add_function(functions::wiper()?)?;
//! network.auto_senders();
//! let trace = network.simulate(5.0, 42, &FaultPlan::new())?;
//!
//! // Parameterize once per domain, then preprocess automatically.
//! let u_rel = RuleSet::from_network(&network);
//! let profile = DomainProfile::new("wiper-domain").with_signals(["wpos", "wvel"]);
//! let pipeline = Pipeline::new(u_rel, profile)?;
//! let output = pipeline.session(RunOptions::trace(&trace)).run()?;
//! println!("{} signals, {} state rows", output.signals.len(), output.state.num_rows());
//! # Ok(())
//! # }
//! ```

pub use ivnt_analysis as analysis;
pub use ivnt_baseline as baseline;
pub use ivnt_cluster as cluster;
pub use ivnt_core as core;
pub use ivnt_frame as frame;
pub use ivnt_infer as infer;
pub use ivnt_obs as obs;
pub use ivnt_plan as plan;
pub use ivnt_protocol as protocol;
pub use ivnt_series as series;
pub use ivnt_simulator as simulator;
pub use ivnt_store as store;
