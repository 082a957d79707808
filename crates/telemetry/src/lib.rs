//! Observability layer of the *Heat Behind the Meter* workspace: per-step
//! channel traces, run manifests, and kernel timing spans.
//!
//! The paper's evaluation lives on traceable per-step signals — tenant
//! power, inlet temperature, battery state of charge, side-channel
//! estimates, defense residuals. This crate gives every producer a uniform
//! way to surface them without perturbing the simulation:
//!
//! * **[`Sample`]** — one step's named channels. A run returns its
//!   per-step values (`hbm_core::SlotRecord`s, most importantly), and the
//!   caller renders each as a sample into a [`JsonlRecorder`], which
//!   writes one flat JSON object per step.
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
//! use hbm_telemetry::{parse_jsonl_line, ChannelValue, JsonlRecorder, Sample};
//!
//! let path = std::env::temp_dir().join("hbm_telemetry_doc_example.jsonl");
//! let mut recorder = JsonlRecorder::create(&path)?;
//! for step in 0..3u64 {
//!     let channels = [
//!         ("inlet_c", ChannelValue::F64(27.0 + step as f64 * 0.5)),
//!         ("capping", ChannelValue::Bool(false)),
//!     ];
//!     recorder.record(&Sample { step, channels: &channels });
//! }
//! recorder.flush()?;
//! let text = std::fs::read_to_string(&path)?;
//! let lines: Vec<&str> = text.lines().collect();
//! assert_eq!(lines.len(), 3);
//! assert_eq!(lines[2], r#"{"step":2,"inlet_c":28.0,"capping":false}"#);
//! let (step, channels) = parse_jsonl_line(lines[2]).unwrap();
//! assert_eq!((step, channels[0].1.as_f64()), (2, Some(28.0)));
//! # Ok::<(), std::io::Error>(())
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
pub use record::{parse_jsonl_line, sample_to_jsonl, ChannelValue, JsonlRecorder, Sample};

/// The crate version, for run manifests.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
