//! Observability layer of the *Heat Behind the Meter* workspace: per-step
//! channel recorders, run manifests, and kernel timing spans.
//!
//! The paper's evaluation lives on traceable per-step signals — tenant
//! power, inlet temperature, battery state of charge, side-channel
//! estimates, defense residuals. This crate gives every producer a uniform
//! way to surface them without perturbing the simulation:
//!
//! * **[`Recorder`]** — a sink for per-step [`Sample`]s. Producers (most
//!   importantly `hbm_core::Simulation`) hold an `Option<Box<dyn
//!   Recorder>>`; detached, the hook is one `None` check. [`JsonlRecorder`]
//!   streams one flat JSON object per step, [`MemoryRecorder`] keeps them
//!   for programmatic inspection.
//! * **[`RunManifest`]** — seed, configuration hash, parameters, crate
//!   versions, git revision, and wall clock of a run, written as
//!   `manifest.json` beside the CSVs it describes. Deterministic fields
//!   are byte-stable across reruns; see
//!   [`RunManifest::VOLATILE_FIELDS`].
//! * **[`timing`]** — process-wide spans around hot kernels (the CFD
//!   substep loop, the heat-matrix convolution, Q-learning updates).
//!   Disabled they cost one relaxed atomic load; enabled they aggregate
//!   into [`timing::timing_report`].
//!
//! JSON encoding/decoding is self-contained ([`json`]): the offline build
//! has no `serde_json`, and telemetry needs only flat objects with
//! shortest-round-trip floats.
//!
//! # Examples
//!
//! ```
//! use hbm_telemetry::{ChannelValue, MemoryRecorder, Recorder, Sample};
//!
//! let mut recorder = MemoryRecorder::new();
//! for step in 0..3u64 {
//!     let channels = [
//!         ("inlet_c", ChannelValue::F64(27.0 + step as f64 * 0.5)),
//!         ("capping", ChannelValue::Bool(false)),
//!     ];
//!     recorder.record(&Sample { step, channels: &channels });
//! }
//! assert_eq!(recorder.samples().len(), 3);
//! assert_eq!(
//!     recorder.samples()[2].channel("inlet_c"),
//!     Some(&ChannelValue::F64(28.0))
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
mod manifest;
mod record;
pub mod timing;

pub use json::JsonValue;
pub use manifest::{
    deterministic_manifest_fields, fnv1a64, git_describe, RunManifest, MANIFEST_SCHEMA,
};
pub use record::{
    parse_jsonl_line, sample_to_jsonl, ChannelValue, JsonlRecorder, MemoryRecorder, OwnedSample,
    Recorder, Sample,
};

/// The crate version, for run manifests.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
