//! Power substrate of the edge colocation: the server power models and the
//! operator's thermal-emergency power-capping protocol.
//!
//! The central observation of the paper is that the operator meters what
//! flows out of the PDU, but a server with a built-in battery can consume
//! *more* than its metered draw. Metering and subscription enforcement live
//! in one place, the simulator's slot (`hbm_core::Simulation`): the benign
//! tenants' draw is capped at their subscription (or the emergency cap), and
//! the attacker's power is split into a metered part, held to its
//! subscription, and an actual, heat-producing part; the gap is the
//! "behind the meter" cooling load.
//!
//! # Examples
//!
//! ```
//! use hbm_power::{EmergencyProtocol, ProtocolState};
//! use hbm_units::{Duration, Temperature};
//!
//! let mut protocol = EmergencyProtocol::paper_default();
//! let minute = Duration::from_minutes(1.0);
//! // Three minutes above the 32 °C threshold → emergency (2-minute dwell).
//! protocol.step(Temperature::from_celsius(33.0), minute);
//! protocol.step(Temperature::from_celsius(33.0), minute);
//! let state = protocol.step(Temperature::from_celsius(33.0), minute);
//! assert!(matches!(state, ProtocolState::Emergency { .. }));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod capping;
mod server;

pub use capping::{EmergencyProtocol, ProtocolState};
pub use server::ServerSpec;
