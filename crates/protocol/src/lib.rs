//! # ivnt-protocol — in-vehicle network protocol model
//!
//! Bit-level signal codecs for the payloads of the three protocol families
//! the DAC'18 paper extracts signals from: **CAN**, **LIN** and
//! **SOME/IP**. Traces arrive as logged records `(t, b_id, m_id, payload)`,
//! so no link-layer frame is built or parsed here. A [`Catalog`] plays the
//! role of the vehicle's communication documentation (a DBC database): it
//! defines every message type `m = (S, m_id, b_id)` and every signal type
//! `s_id` with its packing geometry and physical coding.
//!
//! * [`bits`] — raw bit-field extraction/insertion (Intel and Motorola
//!   start-bit conventions),
//! * [`signal`] — [`SignalSpec`]: packing + linear
//!   coding + enumerations, decoding to
//!   [`PhysicalValue`],
//! * [`message`] — [`MessageSpec`]: the signal set
//!   carried by a message type,
//! * [`someip`] — SOME/IP presence-conditional optional fields,
//! * [`dbc`] — DBC import (multiplexed signals included) and export,
//! * [`catalog`] — the per-vehicle message/signal database.
//!
//! # Examples
//!
//! ```
//! use ivnt_protocol::prelude::*;
//!
//! # fn main() -> ivnt_protocol::Result<()> {
//! // The paper's running example: wiper position packed with v = 0.5 * l'.
//! let wpos = SignalSpec::builder("wpos", 0, 16).factor(0.5).unit("deg").build()?;
//! let mut payload = [0u8; 4];
//! wpos.encode(&mut payload, &PhysicalValue::Num(45.0))?;
//! assert_eq!(payload[0], 0x5A);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod bits;
pub mod catalog;
pub mod dbc;
pub mod error;
pub mod message;
pub mod signal;
pub mod someip;

pub use bits::ByteOrder;
pub use catalog::Catalog;
pub use error::{Error, Result};
pub use message::{MessageSpec, Protocol};
pub use signal::{PhysicalValue, RawKind, SignalSpec};
pub use someip::OptionalFieldLayout;

/// Convenient glob import of the protocol model's common types.
pub mod prelude {
    pub use crate::bits::ByteOrder;
    pub use crate::catalog::Catalog;
    pub use crate::message::{MessageSpec, Protocol};
    pub use crate::signal::{PhysicalValue, RawKind, SignalSpec};
    pub use crate::someip::OptionalFieldLayout;
}
