//! # ivnt-baseline — the sequential in-house-tool comparator
//!
//! The DAC'18 paper compares its distributed pipeline against an OEM
//! in-house analyzer (CARMEN, "comparable to Wireshark"): a monitoring tool
//! that **ingests a trace sequentially on one thread, interpreting every
//! signal of every message on ingest**, then looks up the requested signals
//! from the ingested store. Consequently its extraction time is linear in
//! trace rows and *flat* in the number of requested signals — the behaviour
//! Table 6 documents ("this extraction time does not change with the number
//! of extracted signals as extraction is done within one loop").
//!
//! This crate reimplements that comparator on the pipeline's own compiled
//! decode plans ([`Kernel`]), so Table 6 measures the paper's mechanism —
//! preselect and decode only the requested bytes, against decode
//! everything and look up afterwards — rather than two decoders.
//!
//! # Examples
//!
//! ```
//! use ivnt_baseline::SequentialAnalyzer;
//! use ivnt_simulator::prelude::*;
//! use ivnt_simulator::functions;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut network = NetworkModel::new(ivnt_protocol::Catalog::new());
//! network.add_function(functions::wiper()?)?;
//! network.auto_senders();
//! let trace = network.simulate(2.0, 1, &FaultPlan::new())?;
//!
//! let tool = SequentialAnalyzer::new(&network);
//! let ingested = tool.ingest(&trace)?;
//! let wpos = ingested.extract(&["wpos"]);
//! assert!(!wpos[0].is_empty());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::Arc;

use ivnt_core::interpret::Kernel;
use ivnt_core::split::CodedSequence;
use ivnt_core::tabular::trace_to_frame;
use ivnt_core::{Result, RuleSet};
use ivnt_simulator::network::NetworkModel;
use ivnt_simulator::trace::Trace;

/// The in-memory store the tool builds during ingest: every signal of every
/// message, whether anyone asked for it or not.
#[derive(Debug, Clone, Default)]
pub struct IngestedTrace {
    per_signal: HashMap<Arc<str>, CodedSequence>,
}

impl IngestedTrace {
    /// Distinct signals the ingest decoded.
    pub fn num_signals(&self) -> usize {
        self.per_signal.len()
    }

    /// Looks the requested signals up in the store — the cheap second
    /// phase of the in-house workflow. Returns their sequences in request
    /// order, skipping signals the trace never carried.
    pub fn extract(&self, signals: &[&str]) -> Vec<&CodedSequence> {
        signals
            .iter()
            .filter_map(|&s| self.per_signal.get(s))
            .collect()
    }
}

/// The sequential analyzer itself: the decode plans of every signal of
/// every message on every channel, gateway copies included.
#[derive(Debug)]
pub struct SequentialAnalyzer {
    kernel: Kernel,
}

impl SequentialAnalyzer {
    /// Compiles the analyzer over a network model (catalog plus gateway
    /// routing, which the tool needs to resolve forwarded message copies).
    pub fn new(network: &NetworkModel) -> SequentialAnalyzer {
        SequentialAnalyzer {
            kernel: Kernel::compile(&RuleSet::from_network(network)),
        }
    }

    /// Ingests a trace: one sequential pass over **all** records, decoding
    /// **all** signals of each message. There is no preselection: the rule
    /// set admits every documented `(bus, message id)`. This is the
    /// expensive step whose duration Table 6 reports as the in-house
    /// extraction time.
    ///
    /// # Errors
    ///
    /// Propagates tabular-engine failures.
    pub fn ingest(&self, trace: &Trace) -> Result<IngestedTrace> {
        let frame = trace_to_frame(trace, 1)?;
        let per_signal = self
            .kernel
            .coded_sequences(&frame.partitions()[0])?
            .into_iter()
            .map(|seq| (seq.signal.clone(), seq))
            .collect();
        Ok(IngestedTrace { per_signal })
    }

    /// The full in-house extraction workflow: ingest (always everything),
    /// then look up the requested signals. Returns the extracted instance
    /// count — the quantity Table 6's "Extracted rows" column reports.
    ///
    /// # Panics
    ///
    /// When the tabular engine rejects the trace, which a recorded trace
    /// never makes it do.
    pub fn extract_signals(&self, trace: &Trace, signals: &[&str]) -> usize {
        let ingested = self.ingest(trace).expect("a recorded trace ingests");
        ingested.extract(signals).iter().map(|s| s.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivnt_protocol::catalog::Catalog;
    use ivnt_protocol::signal::PhysicalValue;
    use ivnt_simulator::faults::FaultPlan;
    use ivnt_simulator::functions;
    use ivnt_simulator::network::GatewayRoute;

    fn network() -> NetworkModel {
        let mut n = NetworkModel::new(Catalog::new());
        n.add_function(functions::wiper().unwrap()).unwrap();
        n.add_function(functions::drivetrain().unwrap()).unwrap();
        n.add_gateway(GatewayRoute {
            from_bus: "FC".into(),
            to_bus: "DC".into(),
            message_ids: vec![3],
            delay_us: 100,
        });
        n.auto_senders();
        n
    }

    #[test]
    fn ingest_decodes_everything() {
        let n = network();
        let trace = n.simulate(2.0, 5, &FaultPlan::new()).unwrap();
        let ingested = SequentialAnalyzer::new(&n).ingest(&trace).unwrap();
        // All 8 signals (wiper 4 + drivetrain 4) decoded even though none
        // were "requested".
        assert_eq!(ingested.num_signals(), 8);
        let instances: usize = ingested.per_signal.values().map(CodedSequence::len).sum();
        assert!(instances > trace.len());
    }

    #[test]
    fn gateway_copies_are_resolved() {
        let n = network();
        let trace = n.simulate(1.0, 5, &FaultPlan::new()).unwrap();
        let ingested = SequentialAnalyzer::new(&n).ingest(&trace).unwrap();
        // wpos arrives on FC and the DC gateway copy.
        let wpos = ingested.extract(&["wpos"])[0].view();
        let on = |bus: &str| {
            wpos.rows
                .iter()
                .any(|r| wpos.channel(r).unwrap().as_ref() == bus)
        };
        assert!(on("FC") && on("DC"));
    }

    #[test]
    fn extract_returns_requested_subset() {
        let n = network();
        let trace = n.simulate(1.0, 5, &FaultPlan::new()).unwrap();
        let tool = SequentialAnalyzer::new(&n);
        let ingested = tool.ingest(&trace).unwrap();
        let got = ingested.extract(&["speed", "wpos", "missing"]);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].signal.as_ref(), "speed");
        assert_eq!(tool.extract_signals(&trace, &["speed"]), got[0].len());
    }

    #[test]
    fn values_match_catalog_decoding() {
        let n = network();
        let trace = n.simulate(1.0, 5, &FaultPlan::new()).unwrap();
        let ingested = SequentialAnalyzer::new(&n).ingest(&trace).unwrap();
        let first_rec = trace
            .iter()
            .find(|r| r.bus.as_ref() == "FC" && r.message_id == 3)
            .unwrap();
        let spec = n.catalog().message("FC", 3).unwrap();
        let expected = spec.signal("wpos").unwrap().decode(&first_rec.payload);
        let wpos = ingested.extract(&["wpos"])[0].view();
        let got = wpos
            .rows
            .iter()
            .find(|r| wpos.channel(r).unwrap().as_ref() == "FC")
            .unwrap();
        assert_eq!(got.t(), Some(first_rec.timestamp_s()));
        match expected.unwrap() {
            PhysicalValue::Num(v) => assert_eq!(got.num(), Some(v)),
            PhysicalValue::Text(s) => assert_eq!(wpos.text(got).map(|t| t.as_ref()), Some(&*s)),
        }
    }
}
