//! Simulation-as-a-service for the *Heat Behind the Meter* workspace.
//!
//! The `experiments` CLI regenerates figures one process at a time; this
//! crate turns the same scenario code path ([`hbm_core::scenario`]) into a
//! long-running daemon, so dashboards, sweeps, and other consumers can
//! request attack-scenario evaluations over HTTP without recompiling.
//! Everything is first-party `std`: a hand-rolled HTTP/1.1 subset
//! ([`http`]), the workspace's flat-JSON dialect (`hbm-telemetry`), and a
//! worker pool accounted against `hbm-par`'s process-wide thread budget.
//!
//! # Endpoints
//!
//! Routing is table-driven ([`routes::ROUTES`] is the single source of
//! truth; a wrong method answers `405` with an `Allow` header). One-shot
//! evaluation:
//!
//! * `POST /v1/simulate` — a flat-JSON [`hbm_core::Scenario`] body;
//!   responds with the same metrics JSON line the CLI's `simulate`
//!   subcommand prints (byte-identical for the same canonical config).
//! * `POST /v1/batch-simulate` — a scenario template plus `count`,
//!   site-for-site cache-compatible with single simulates: both routes
//!   are one job, and `/v1/simulate` is its batch of one.
//! * `GET /v1/health`, `GET /v1/metrics` — liveness and flat-JSON
//!   counters.
//!
//! Sessionful experiments (the [`experiment::Supervisor`]):
//!
//! * `POST /v1/experiments` creates a long-lived experiment (warming up
//!   learning policies once), then `POST /v1/experiments/{id}/step`
//!   advances it, `POST …/perturb` applies mid-run workload/attack/defense
//!   overrides, `GET …/state` and `GET …/metrics` inspect it, and
//!   `DELETE /v1/experiments/{id}` retires it.
//!
//! With a `--state-dir`, every mutating operation checkpoints the
//! experiment (manifest + `hbm-checkpoint-v1` line, [`store`]) and a
//! restarted daemon restores all of them bit-exactly — a stepped-after-
//! restore experiment is byte-identical to one that never crashed.
//!
//! # Backpressure
//!
//! Accepted-but-unstarted requests live in a [`queue::BoundedQueue`]; when
//! it is full the server answers `503` with `Retry-After` immediately
//! instead of buffering — memory stays bounded no matter the offered load.
//! Results are memoized in a bounded [`cache::ScenarioCache`] keyed by the
//! canonical config string, and every computed run can write a
//! `RunManifest`, so served runs stay as traceable as CLI runs.
//! Experiment mutations share the same queue and worker pool; experiment
//! reads answer inline from published snapshots and never wait on a
//! running step.
//!
//! See `docs/SERVICE.md` for the full endpoint reference,
//! `docs/OPERATIONS.md` for deployment and crash recovery, and
//! `hbm-serve-bench` for the bundled load generator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod experiment;
pub mod http;
pub mod metrics;
pub mod queue;
pub mod routes;
mod server;
pub mod store;
pub mod writer;

pub use server::{declare_spans, ServeConfig, Server, ServerHandle};

/// The crate version, for run manifests and `/v1/health`.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
