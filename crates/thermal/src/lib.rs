//! Thermal substrate of the edge colocation: cooling plant, fast zone model,
//! CFD-lite container simulator, and the heat-distribution matrix.
//!
//! The paper's methodology (Section V-A) is two-level:
//!
//! 1. **CFD analysis** gives detailed transient thermal dynamics, but is far
//!    too slow for year-long experiments. Here that role is played by
//!    [`CfdModel`], a coarse finite-volume model of the Vertiv SmartMod-class
//!    container (two racks × 20 servers, hot/cold-aisle containment with a
//!    small leakage bypass, an AC with capacity saturation).
//! 2. A **heat-distribution matrix** ([`HeatMatrix`]) is extracted from the
//!    CFD model by injecting a 10-minute heat spike at every server and
//!    recording the per-server inlet-temperature response — exactly the
//!    paper's extraction procedure — and then drives long simulations via
//!    linear superposition.
//!
//! For the year-long attack studies the workspace additionally provides
//! [`ZoneModel`], a calibrated lumped-capacitance model of the aggregate
//! inlet temperature with the same anchor dynamics (1 kW of cooling overload
//! crosses the 32 °C emergency threshold in under four minutes, Fig. 11a),
//! plus the capacity derating above the design point that produces the
//! thermal runaway of one-shot attacks (Fig. 8).
//!
//! # Examples
//!
//! ```
//! use hbm_thermal::{CoolingSystem, ZoneModel};
//! use hbm_units::{Duration, Power, Temperature};
//!
//! let mut zone = ZoneModel::paper_default();
//! // 1 kW overload: 9 kW of heat against an 8 kW cooling plant.
//! let overload = Power::from_kilowatts(9.0);
//! let mut minutes = 0.0;
//! while zone.inlet() < Temperature::from_celsius(32.0) {
//!     zone.step(overload, Duration::from_seconds(10.0));
//!     minutes += 10.0 / 60.0;
//! }
//! assert!(minutes < 4.0, "crossed in {minutes} min");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cfd;
mod cooling;
mod matrix;
mod zone;

pub use cfd::{CfdConfig, CfdModel};
pub use cooling::CoolingSystem;
pub use matrix::{extract_heat_matrix, HeatMatrix, HeatMatrixModel};
pub use zone::{ZoneLanes, ZoneModel};
