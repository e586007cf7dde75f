//! Scenario generators reproducing the paper's data sets.
//!
//! Table 5 of the paper describes three data sets recorded from one premium
//! vehicle during 20 h of driving: **SYN** (13 signal types), **LIG** (180,
//! all light functions) and **STA** (78, car state). The table reports how
//! many signal types fall into each processing branch (α/β/γ) and the mean
//! number of signal types per message. These generators synthesize
//! networks with exactly those *shape* statistics at configurable scale.

use std::collections::HashMap;

use ivnt_protocol::catalog::Catalog;
use ivnt_protocol::message::{MessageSpecBuilder, Protocol};
use ivnt_protocol::signal::SignalSpec;

use crate::behavior::Behavior;
use crate::error::Result;
use crate::faults::FaultPlan;
use crate::network::{GatewayRoute, NetworkModel};
use crate::trace::Trace;

/// Which of the paper's processing branches a generated signal is designed
/// to classify into (the ground truth for classifier tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchHint {
    /// Fast-changing numeric (Table 3 row 1).
    Alpha,
    /// Ordinal: slow numeric or comparable string (rows 2–3).
    Beta,
    /// Nominal or binary (rows 4–6).
    Gamma,
}

/// Shape parameters of a generated data set.
#[derive(Debug, Clone, PartialEq)]
pub struct DataSetSpec {
    /// Data-set name (`SYN`, `LIG`, `STA`, ...).
    pub name: String,
    /// Number of fast numeric signal types (branch α).
    pub n_alpha: usize,
    /// Number of ordinal signal types (branch β).
    pub n_beta: usize,
    /// Number of nominal/binary signal types (branch γ).
    pub n_gamma: usize,
    /// Mean signal types per message (Table 5 row "∅ signal types per message").
    pub signals_per_message: f64,
    /// Recording length in seconds.
    pub duration_s: f64,
    /// Master seed.
    pub seed: u64,
    /// Whether a gateway mirrors one bus onto another (creates the
    /// duplicated channels exploited by dedup).
    pub with_gateway: bool,
}

impl DataSetSpec {
    /// The paper's SYN set: 13 signal types (6 α, 4 β, 3 γ), 1.47
    /// signals/message.
    pub fn syn() -> DataSetSpec {
        DataSetSpec {
            name: "SYN".into(),
            n_alpha: 6,
            n_beta: 4,
            n_gamma: 3,
            signals_per_message: 1.47,
            duration_s: 60.0,
            seed: 0x5e7_a11,
            with_gateway: true,
        }
    }

    /// The paper's LIG set: 180 signal types (27 α, 71 β, 82 γ), 5.11
    /// signals/message.
    pub fn lig() -> DataSetSpec {
        DataSetSpec {
            name: "LIG".into(),
            n_alpha: 27,
            n_beta: 71,
            n_gamma: 82,
            signals_per_message: 5.11,
            duration_s: 60.0,
            seed: 0x11_614,
            with_gateway: true,
        }
    }

    /// The paper's STA set: 78 signal types (6 α, 1 β, 71 γ), 3.66
    /// signals/message.
    pub fn sta() -> DataSetSpec {
        DataSetSpec {
            name: "STA".into(),
            n_alpha: 6,
            n_beta: 1,
            n_gamma: 71,
            signals_per_message: 3.66,
            duration_s: 60.0,
            seed: 0x57A,
            with_gateway: true,
        }
    }

    /// Total signal types.
    pub fn total_signals(&self) -> usize {
        self.n_alpha + self.n_beta + self.n_gamma
    }

    /// Returns a copy with a different duration.
    pub fn with_duration_s(mut self, duration_s: f64) -> DataSetSpec {
        self.duration_s = duration_s;
        self
    }

    /// Returns a copy with a different seed (used per journey).
    pub fn with_seed(mut self, seed: u64) -> DataSetSpec {
        self.seed = seed;
        self
    }

    /// Returns a copy whose duration is scaled so that simulation produces
    /// roughly `examples` trace records.
    pub fn with_target_examples(self, examples: usize) -> DataSetSpec {
        let per_second = self.estimated_records_per_second();
        let duration = (examples as f64 / per_second).max(1.0);
        self.with_duration_s(duration)
    }

    /// Estimated trace records per simulated second (before gateway copies).
    pub fn estimated_records_per_second(&self) -> f64 {
        // Mirrors the cycle times assigned in `generate`: α messages at
        // 20 ms, β at 200 ms, γ at 500 ms, multiplied by gateway fan-out.
        let spm = self.signals_per_message.max(1.0);
        let n_alpha_msgs = (self.n_alpha as f64 / spm).ceil();
        let n_beta_msgs = (self.n_beta as f64 / spm).ceil();
        let n_gamma_msgs = (self.n_gamma as f64 / spm).ceil();
        let base = n_alpha_msgs * 50.0 + n_beta_msgs * 5.0 + n_gamma_msgs * 2.0;
        if self.with_gateway {
            base * 2.0
        } else {
            base
        }
    }
}

/// Ground-truth packing of one generated signal occurrence — the reference
/// DBC-less boundary inference is scored against (its precision/recall
/// denominators).
#[derive(Debug, Clone, PartialEq)]
pub struct TruthSignal {
    /// Channel the occurrence is observable on.
    pub bus: String,
    /// Message carrying the signal.
    pub message_id: u32,
    /// Signal name.
    pub signal: String,
    /// Payload-absolute start bit (convention per `byte_order`).
    pub start_bit: u16,
    /// Packed width in bits.
    pub bit_len: u16,
    /// Packing convention.
    pub byte_order: ivnt_protocol::bits::ByteOrder,
}

/// A generated data set: the network model, the recorded trace and the
/// designed branch per signal.
#[derive(Debug, Clone)]
pub struct GeneratedDataSet {
    /// Shape parameters used.
    pub spec: DataSetSpec,
    /// The network (catalog + behaviours + gateways).
    pub network: NetworkModel,
    /// The recorded trace `K_b`.
    pub trace: Trace,
    /// Ground-truth branch and comparability per signal name.
    pub signal_classes: HashMap<String, (BranchHint, bool)>,
}

impl GeneratedDataSet {
    /// Signal names, sorted (deterministic iteration order for tests).
    pub fn signal_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.signal_classes.keys().cloned().collect();
        names.sort();
        names
    }

    /// The ground-truth signal packings of this data set, one entry per
    /// signal per observable channel (home channel plus gateway copies),
    /// sorted by `(bus, message id, start bit)`. Boundary inference is
    /// evaluated against exactly this table.
    pub fn ground_truth(&self) -> Vec<TruthSignal> {
        let mut out = Vec::new();
        for m in self.network.catalog().messages() {
            for bus in self.network.channels_of(m) {
                for s in m.signals() {
                    out.push(TruthSignal {
                        bus: bus.clone(),
                        message_id: m.id(),
                        signal: s.name().to_string(),
                        start_bit: s.start_bit(),
                        bit_len: s.bit_len(),
                        byte_order: s.byte_order(),
                    });
                }
            }
        }
        out.sort_by(|a, b| {
            (&a.bus, a.message_id, a.start_bit).cmp(&(&b.bus, b.message_id, b.start_bit))
        });
        out
    }
}

/// Generates the network and trace for a [`DataSetSpec`].
///
/// Signals are grouped into messages class-by-class with the spec's
/// signals-per-message density; α messages cycle at 20 ms, β at 200 ms and
/// γ at 500 ms, and (when enabled) a gateway mirrors the main bus so every
/// record appears on two channels.
///
/// # Errors
///
/// Propagates spec-building and simulation failures.
pub fn generate(spec: &DataSetSpec) -> Result<GeneratedDataSet> {
    let prefix = spec.name.to_lowercase();
    let mut network = NetworkModel::new(Catalog::new());
    let mut signal_classes = HashMap::new();

    let spm = spec.signals_per_message.max(1.0);
    let mut message_id = 100u32;
    let bus = format!("{}-CAN", spec.name);

    let mut plan: Vec<(BranchHint, usize)> = vec![
        (BranchHint::Alpha, spec.n_alpha),
        (BranchHint::Beta, spec.n_beta),
        (BranchHint::Gamma, spec.n_gamma),
    ];
    // Keep deterministic message grouping: consume each class in order.
    let mut signal_counter = 0usize;
    for (branch, count) in plan.drain(..) {
        let mut remaining = count;
        while remaining > 0 {
            // Alternate message sizes around the target density.
            let take = if signal_counter.is_multiple_of(2) {
                spm.floor() as usize
            } else {
                spm.ceil() as usize
            }
            .clamp(1, remaining.max(1))
            .min(remaining);
            let cycle_ms = match branch {
                BranchHint::Alpha => 20,
                BranchHint::Beta => 200,
                BranchHint::Gamma => 500,
            };
            let mut builder: MessageSpecBuilder = ivnt_protocol::message::MessageSpec::builder(
                message_id,
                format!("{}Msg{}", spec.name, message_id),
                &bus,
                Protocol::Can,
            )
            .dlc(8)
            .cycle_time_ms(cycle_ms);
            let mut behaviors = Vec::new();
            for slot in 0..take {
                let name = format!("{prefix}_s{signal_counter:04}");
                let start_bit = (slot * (64 / take.max(1))) as u16;
                let width = ((64 / take.max(1)) as u16).clamp(2, 16);
                let (sig, behavior, comparable) =
                    build_signal(&name, start_bit, width, branch, signal_counter)?;
                builder = builder.signal(sig);
                behaviors.push((name.clone(), behavior));
                signal_classes.insert(name, (branch, comparable));
                signal_counter += 1;
            }
            network.catalog_mut().add_message(builder.build()?)?;
            for (name, behavior) in behaviors {
                network.set_behavior(name, behavior);
            }
            message_id += 1;
            remaining -= take;
        }
    }

    if spec.with_gateway {
        let all_ids: Vec<u32> = network
            .catalog()
            .messages()
            .iter()
            .map(|m| m.id())
            .collect();
        network.add_gateway(GatewayRoute {
            from_bus: bus.clone(),
            to_bus: format!("{}-GW", spec.name),
            message_ids: all_ids,
            delay_us: 150,
        });
    }
    network.auto_senders();
    let trace = network.simulate(spec.duration_s, spec.seed, &FaultPlan::new())?;
    Ok(GeneratedDataSet {
        spec: spec.clone(),
        network,
        trace,
        signal_classes,
    })
}

fn build_signal(
    name: &str,
    start_bit: u16,
    width: u16,
    branch: BranchHint,
    index: usize,
) -> Result<(SignalSpec, Behavior, bool)> {
    Ok(match branch {
        BranchHint::Alpha => {
            // Fast numeric: sine or random walk, full width.
            let sig = SignalSpec::builder(name, start_bit, width)
                .factor(0.1)
                .build()?;
            let max_phys = 0.1 * ((1u64 << width) - 1) as f64;
            let behavior = if index.is_multiple_of(2) {
                Behavior::Sine {
                    amplitude: max_phys * 0.4,
                    period_s: 3.0 + (index % 7) as f64,
                    offset: max_phys * 0.5,
                }
            } else {
                Behavior::RandomWalk {
                    start: max_phys * 0.5,
                    step: max_phys * 0.01,
                    min: 0.0,
                    max: max_phys,
                }
            };
            (sig, behavior, true)
        }
        BranchHint::Beta => {
            if index.is_multiple_of(3) {
                // String ordinal: ranked labels, declared comparable.
                let sig = SignalSpec::builder(name, start_bit, width.clamp(2, 3))
                    .labels([(0u64, "low"), (1, "medium"), (2, "high"), (3, "max")])
                    .build()?;
                let behavior = Behavior::StateMachine {
                    labels: vec!["low".into(), "medium".into(), "high".into(), "max".into()],
                    mean_dwell_s: 8.0,
                };
                (sig, behavior, true)
            } else {
                // Slow numeric with a handful of levels.
                let sig = SignalSpec::builder(name, start_bit, width.clamp(3, 4)).build()?;
                let levels: Vec<f64> = (0..6).map(f64::from).collect();
                let behavior = Behavior::SteppedLevel {
                    levels,
                    mean_dwell_s: 10.0,
                };
                (sig, behavior, true)
            }
        }
        BranchHint::Gamma => match index % 3 {
            0 => {
                // String binary.
                let sig = SignalSpec::builder(name, start_bit, width.clamp(1, 2))
                    .labels([(0u64, "OFF"), (1, "ON")])
                    .build()?;
                let behavior = Behavior::StateMachine {
                    labels: vec!["OFF".into(), "ON".into()],
                    mean_dwell_s: 12.0,
                };
                (sig, behavior, true)
            }
            1 => {
                // String nominal: unordered labels, not comparable.
                let sig = SignalSpec::builder(name, start_bit, width.clamp(2, 3))
                    .labels([
                        (0u64, "parking"),
                        (1, "driving"),
                        (2, "standby"),
                        (3, "towing"),
                    ])
                    .build()?;
                let behavior = Behavior::StateMachine {
                    labels: vec![
                        "parking".into(),
                        "driving".into(),
                        "standby".into(),
                        "towing".into(),
                    ],
                    mean_dwell_s: 15.0,
                };
                (sig, behavior, false)
            }
            _ => {
                // Numeric binary.
                let sig = SignalSpec::builder(name, start_bit, width.clamp(1, 2)).build()?;
                let behavior = Behavior::SteppedLevel {
                    levels: vec![0.0, 1.0],
                    mean_dwell_s: 12.0,
                };
                (sig, behavior, true)
            }
        },
    })
}

/// Generates `n` journeys of the same data set with distinct seeds — the
/// multi-journey workloads of Table 6.
///
/// # Errors
///
/// Propagates generation failures.
pub fn journeys(spec: &DataSetSpec, n: usize) -> Result<Vec<GeneratedDataSet>> {
    (0..n)
        .map(|i| generate(&spec.clone().with_seed(spec.seed.wrapping_add(i as u64 + 1))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(spec: DataSetSpec) -> GeneratedDataSet {
        generate(&spec.with_duration_s(5.0)).unwrap()
    }

    /// Signals designed for `branch` (Table 5's per-branch counts).
    fn branch_count(d: &GeneratedDataSet, branch: BranchHint) -> usize {
        d.signal_classes
            .values()
            .filter(|(b, _)| *b == branch)
            .count()
    }

    #[test]
    fn syn_shape_matches_table5() {
        let d = small(DataSetSpec::syn());
        assert_eq!(branch_count(&d, BranchHint::Alpha), 6);
        assert_eq!(branch_count(&d, BranchHint::Beta), 4);
        assert_eq!(branch_count(&d, BranchHint::Gamma), 3);
        assert_eq!(d.signal_classes.len(), 13);
        assert!(!d.trace.is_empty());
    }

    #[test]
    fn lig_and_sta_shapes() {
        let d = small(DataSetSpec::lig());
        assert_eq!(d.signal_classes.len(), 180);
        assert_eq!(branch_count(&d, BranchHint::Beta), 71);
        let d = small(DataSetSpec::sta());
        assert_eq!(d.signal_classes.len(), 78);
        assert_eq!(branch_count(&d, BranchHint::Gamma), 71);
    }

    #[test]
    fn density_close_to_target() {
        let d = small(DataSetSpec::lig());
        let n_signals: usize = d
            .network
            .catalog()
            .messages()
            .iter()
            .map(|m| m.signals().len())
            .sum();
        let density = n_signals as f64 / d.network.catalog().num_messages() as f64;
        assert!(
            (density - 5.11).abs() < 1.0,
            "density {density} too far from 5.11"
        );
    }

    #[test]
    fn gateway_doubles_channels() {
        let d = small(DataSetSpec::syn());
        let buses: std::collections::HashSet<&str> =
            d.trace.iter().map(|r| r.bus.as_ref()).collect();
        assert_eq!(buses.len(), 2);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small(DataSetSpec::syn());
        let b = small(DataSetSpec::syn());
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn every_record_decodes() {
        let d = small(DataSetSpec::syn());
        for r in d.trace.iter() {
            let spec = d.network.resolve(&r.bus, r.message_id).unwrap();
            spec.decode_all(&r.payload).unwrap();
        }
    }

    #[test]
    fn target_examples_scales_duration() {
        let spec = DataSetSpec::syn().with_target_examples(20_000);
        let d = generate(&spec).unwrap();
        let got = d.trace.len() as f64;
        assert!(got > 10_000.0 && got < 40_000.0, "target 20k, got {got}");
    }

    #[test]
    fn journeys_differ_by_seed() {
        let js = journeys(&DataSetSpec::syn().with_duration_s(2.0), 3).unwrap();
        assert_eq!(js.len(), 3);
        assert_ne!(js[0].trace, js[1].trace);
        assert_ne!(js[1].trace, js[2].trace);
    }

    #[test]
    fn signal_names_sorted() {
        let d = small(DataSetSpec::syn());
        let names = d.signal_names();
        assert_eq!(names.len(), 13);
        assert!(names.windows(2).all(|w| w[0] < w[1]));
    }
}
