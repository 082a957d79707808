//! Edge-colocation thermal-attack simulator — the paper's primary
//! contribution, assembled from the workspace substrates.
//!
//! This crate wires together the physical models (power delivery, cooling,
//! batteries, the voltage side channel, tenant workloads) into a slotted
//! simulator of the paper's 8 kW edge colocation, implements all four attack
//! strategies — [`RandomPolicy`], [`MyopicPolicy`], the reinforcement-
//! learning [`ForesightedPolicy`], and [`OneShotPolicy`] — and collects the
//! metrics the paper evaluates: thermal-emergency time, average inlet-
//! temperature increase, attack time, latency degradation, and costs.
//!
//! # The simulated minute
//!
//! Each 1-minute slot proceeds as the paper describes:
//!
//! 1. benign tenants draw power per their trace (capped during a thermal
//!    emergency);
//! 2. the attacker estimates the aggregate load through the voltage side
//!    channel, then charges, attacks (runs its servers past subscription by
//!    discharging built-in batteries), or stands by;
//! 3. the PDU meters *metered* draws — battery discharge is invisible —
//!    while the zone thermal model integrates *actual* heat;
//! 4. the operator's [`hbm_power::EmergencyProtocol`] watches the inlet
//!    temperature and declares emergencies (power capping) or an outage.
//!
//! # Examples
//!
//! ```
//! use hbm_core::{ColoConfig, MyopicPolicy, Simulation};
//! use hbm_units::Power;
//!
//! let config = ColoConfig::paper_default();
//! let policy = MyopicPolicy::new(Power::from_kilowatts(7.4));
//! let mut sim = Simulation::new(config, policy, 42);
//! let report = sim.run(2 * 24 * 60); // two simulated days
//! assert!(report.metrics.attack_slots > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attacker;
mod batch;
mod config;
mod cost;
mod metrics;
pub mod scenario;
mod sim;
mod state;
mod traces;
mod tree;

pub use attacker::{
    AttackAction, ForesightedPolicy, Learner, MyopicPolicy, Observation, OneShotPolicy, Policy,
    RandomPolicy, Transition,
};
pub use batch::{
    run_sharded, run_sharded_recorded, run_sims_batch, warmup_sims_batch, BatchRun, BatchSim,
};
pub use config::ColoConfig;
pub use cost::{CostModel, CostReport};
pub use metrics::Metrics;
pub use scenario::{Perturbation, Scenario};
pub use sim::{SimReport, Simulation, SlotRecord};
pub use state::{Snapshot, SNAPSHOT_SCHEMA};
pub use traces::TraceStore;
pub use tree::{BranchOutcome, StateTree};

/// The crate version, for run manifests.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
