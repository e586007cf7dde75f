//! The message/signal database (DBC-like catalog).

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};
use crate::message::MessageSpec;
use crate::signal::SignalSpec;

/// A database of every message (and therefore signal) type on every channel,
/// keyed by `(b_id, m_id)`.
///
/// This is the "documentation" knowledge the paper's interpretation rules
/// are generated from: each domain derives its `U_rel` subset by picking
/// signals out of the catalog.
///
/// # Examples
///
/// ```
/// use ivnt_protocol::catalog::Catalog;
/// use ivnt_protocol::message::{MessageSpec, Protocol};
/// use ivnt_protocol::signal::SignalSpec;
///
/// # fn main() -> ivnt_protocol::Result<()> {
/// let mut catalog = Catalog::new();
/// catalog.add_message(
///     MessageSpec::builder(3, "WiperStatus", "FC", Protocol::Can)
///         .dlc(4)
///         .signal(SignalSpec::builder("wpos", 0, 16).factor(0.5).build()?)
///         .build()?,
/// )?;
/// let m = catalog.message("FC", 3)?;
/// assert_eq!(m.name(), "WiperStatus");
/// assert_eq!(catalog.num_signals(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Catalog {
    messages: Vec<MessageSpec>,
    #[serde(skip)]
    index: HashMap<(String, u32), usize>,
    #[serde(skip)]
    signal_index: HashMap<String, (usize, usize)>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Adds a message definition.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidSpec`] when `(bus, id)` is already defined or
    /// a signal name is already used by another message (the paper treats
    /// `s_id` as globally unique).
    pub fn add_message(&mut self, message: MessageSpec) -> Result<()> {
        let key = (message.bus().to_string(), message.id());
        if self.index.contains_key(&key) {
            return Err(Error::InvalidSpec(format!(
                "message {} already defined on channel {}",
                message.id(),
                message.bus()
            )));
        }
        for s in message.signals() {
            if self.signal_index.contains_key(s.name()) {
                return Err(Error::InvalidSpec(format!(
                    "signal {} already defined elsewhere in the catalog",
                    s.name()
                )));
            }
        }
        let mi = self.messages.len();
        for (si, s) in message.signals().iter().enumerate() {
            self.signal_index.insert(s.name().to_string(), (mi, si));
        }
        self.index.insert(key, mi);
        self.messages.push(message);
        Ok(())
    }

    /// All message definitions.
    pub fn messages(&self) -> &[MessageSpec] {
        &self.messages
    }

    /// Number of messages.
    pub fn num_messages(&self) -> usize {
        self.messages.len()
    }

    /// Total number of signal types (the alphabet Σ).
    pub fn num_signals(&self) -> usize {
        self.signal_index.len()
    }

    /// Looks up a message by channel and id.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownMessage`] when absent.
    pub fn message(&self, bus: &str, id: u32) -> Result<&MessageSpec> {
        self.index
            .get(&(bus.to_string(), id))
            .map(|&i| &self.messages[i])
            .ok_or_else(|| Error::UnknownMessage {
                bus: bus.to_string(),
                message_id: id,
            })
    }

    /// Looks up a signal and its carrying message by signal name.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownSignal`] when absent.
    pub fn signal(&self, name: &str) -> Result<(&MessageSpec, &SignalSpec)> {
        self.signal_index
            .get(name)
            .map(|&(mi, si)| (&self.messages[mi], &self.messages[mi].signals()[si]))
            .ok_or_else(|| Error::UnknownSignal(name.to_string()))
    }

    /// All distinct channel identifiers.
    pub fn buses(&self) -> Vec<&str> {
        let mut buses: Vec<&str> = self.messages.iter().map(MessageSpec::bus).collect();
        buses.sort_unstable();
        buses.dedup();
        buses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Protocol;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_message(
            MessageSpec::builder(3, "WiperStatus", "FC", Protocol::Can)
                .dlc(4)
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
        c.add_message(
            MessageSpec::builder(11, "WiperType", "K-LIN", Protocol::Lin)
                .dlc(1)
                .signal(
                    SignalSpec::builder("wtype", 0, 8)
                        .offset(2.0)
                        .build()
                        .unwrap(),
                )
                .build()
                .unwrap(),
        )
        .unwrap();
        c
    }

    #[test]
    fn lookup_by_bus_and_id() {
        let c = catalog();
        assert_eq!(c.message("FC", 3).unwrap().name(), "WiperStatus");
        assert!(matches!(
            c.message("FC", 99),
            Err(Error::UnknownMessage { .. })
        ));
        assert!(matches!(
            c.message("XX", 3),
            Err(Error::UnknownMessage { .. })
        ));
    }

    #[test]
    fn signal_lookup_spans_messages() {
        let c = catalog();
        let (m, s) = c.signal("wtype").unwrap();
        assert_eq!(m.bus(), "K-LIN");
        assert_eq!(s.offset(), 2.0);
        assert!(c.signal("nope").is_err());
        assert_eq!(c.num_signals(), 3);
    }

    #[test]
    fn duplicate_message_and_signal_rejected() {
        let mut c = catalog();
        let dup = MessageSpec::builder(3, "Other", "FC", Protocol::Can)
            .build()
            .unwrap();
        assert!(c.add_message(dup).is_err());
        let dup_sig = MessageSpec::builder(50, "Other", "FC", Protocol::Can)
            .signal(SignalSpec::builder("wpos", 0, 8).build().unwrap())
            .build()
            .unwrap();
        assert!(c.add_message(dup_sig).is_err());
    }

    #[test]
    fn buses_sorted_unique() {
        let c = catalog();
        assert_eq!(c.buses(), vec!["FC", "K-LIN"]);
    }
}
