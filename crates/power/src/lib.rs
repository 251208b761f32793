//! Power-delivery substrate of the edge colocation.
//!
//! Models the PDU level of the paper's tree hierarchy (utility → UPS → PDU
//! → servers), the
//! per-tenant power metering the operator uses both for capacity enforcement
//! and — crucially for the attack — as a *proxy for cooling load*, plus the
//! server power models and the thermal-emergency power-capping protocol.
//!
//! The central observation of the paper lives here: the operator meters what
//! flows out of the PDU, but a server with a built-in battery can consume
//! *more* than its metered draw. [`Pdu::meter`] therefore reports metered
//! power, while the simulator separately tracks actual (heat-producing)
//! power; the gap is the "behind the meter" cooling load.
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
mod pdu;
mod server;
mod tenant;

pub use capping::{EmergencyProtocol, ProtocolState};
pub use pdu::{MeterReading, Pdu};
pub use server::ServerSpec;
pub use tenant::{Tenant, TenantId};
