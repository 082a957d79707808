//! The daemon: accept loop, routing, worker pool, and shutdown.
//!
//! Requests route through the declarative table in [`crate::routes`].
//! Fast endpoints (health, metrics, experiment reads) answer inline on
//! the accept thread; everything that runs or mutates a simulation —
//! one-shot scenarios, batches, and the experiment lifecycle — is
//! validated up front and parked in the bounded queue for the worker
//! pool, so the accept loop never blocks on simulation work.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hbm_core::scenario::{metrics_json, run_scenarios_batch, BatchScenario};
use hbm_core::{installed_thermal_tier, Perturbation, Scenario};
use hbm_telemetry::json::JsonObject;
use hbm_telemetry::{timing, RunManifest};

use crate::cache::ScenarioCache;
use crate::experiment::{Supervisor, SupervisorConfig};
use crate::http::{self, HttpError, Request};
use crate::metrics::{BusyGuard, ServeMetrics};
use crate::queue::BoundedQueue;
use crate::routes::{self, RouteMatch};
use crate::store::ExperimentStore;

/// Tuning knobs of one [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads running scenarios (≥ 1). The pool reserves this
    /// many threads from `hbm-par`'s process-wide budget for its whole
    /// lifetime, so parallel kernels inside scenario runs degrade to
    /// sequential instead of oversubscribing the machine. Experiment
    /// operations run on the same pool, so the experiment supervisor is
    /// accounted against the same budget.
    pub workers: usize,
    /// Maximum queued (accepted but not yet running) simulation requests;
    /// beyond this the server sheds load with `503` + `Retry-After`.
    pub queue_capacity: usize,
    /// Maximum distinct scenario results kept in the memoization cache.
    pub cache_capacity: usize,
    /// Maximum sites one `/v1/batch-simulate` request may ask for; larger
    /// requests are rejected with `413` before touching the queue.
    pub max_batch: usize,
    /// `Retry-After` value advertised on `503` responses, seconds.
    pub retry_after_secs: u64,
    /// Per-connection socket read/write timeout, so one stalled client
    /// cannot pin the accept loop or a worker forever.
    pub io_timeout: Duration,
    /// When set, every *computed* (cache-miss) scenario writes a
    /// `RunManifest` to `<dir>/<config_hash>/manifest.json`, making served
    /// runs as auditable as CLI runs.
    pub manifest_dir: Option<PathBuf>,
    /// When set, experiments checkpoint under `<dir>/experiments/<id>/`
    /// after every mutating operation and are restored at boot, so they
    /// survive daemon restarts. `None`: experiments are memory-only.
    pub state_dir: Option<PathBuf>,
    /// Maximum live experiments; creates beyond this answer `429`.
    pub max_experiments: usize,
    /// Evict experiments idle longer than this (`None`: never). Eviction
    /// is lazy: swept when experiment requests arrive.
    pub experiment_ttl: Option<Duration>,
    /// Largest `slots` one step request may ask for, and largest warm-up
    /// plus measured horizon one simulate, batch site or experiment create
    /// may ask for; larger requests are rejected with `413` so a single op
    /// cannot pin a worker for long.
    pub max_step_slots: u64,
    /// Maximum what-if branches per experiment; forks beyond this answer
    /// `429`.
    pub max_branches: usize,
    /// Largest cumulative slot horizon the branches of one experiment may
    /// advance; branch steps beyond it answer `413`.
    pub max_branch_slots: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: 32,
            cache_capacity: 256,
            max_batch: 64,
            retry_after_secs: 1,
            io_timeout: Duration::from_secs(10),
            manifest_dir: None,
            state_dir: None,
            max_experiments: 64,
            experiment_ttl: None,
            max_step_slots: 1_000_000,
            max_branches: 16,
            max_branch_slots: 100_000,
        }
    }
}

/// What a queued job asks a worker to do. Every variant was fully
/// validated on the accept thread; workers only see well-formed work.
enum JobKind {
    /// Run (or serve from cache) one scenario.
    Simulate {
        scenario: Scenario,
        canonical: String,
    },
    /// Run a seed-staggered batch (`scenario` is the site-0 template).
    Batch { scenario: Scenario, count: u64 },
    /// Create an experiment (runs warm-up, writes the first checkpoint).
    ExperimentCreate { scenario: Scenario },
    /// Step an experiment by `slots`.
    ExperimentStep { id: String, slots: u64 },
    /// Apply a mid-run perturbation to an experiment.
    ExperimentPerturb {
        id: String,
        perturbation: Perturbation,
    },
    /// Add a branch to an experiment's what-if tree (rooting the tree at
    /// the current state on the first fork).
    ExperimentFork {
        id: String,
        label: Option<String>,
        perturbation: Perturbation,
    },
    /// Advance every branch of an experiment's tree in lockstep.
    ExperimentBranchStep { id: String, slots: u64 },
    /// Drop an experiment's branch tree.
    ExperimentBranchDelete { id: String },
    /// Delete an experiment and its on-disk state.
    ExperimentDelete { id: String },
}

/// One accepted request, parked in the queue until a worker picks it up
/// and writes the response.
struct Job {
    kind: JobKind,
    stream: TcpStream,
}

struct Shared {
    config: ServeConfig,
    queue: BoundedQueue<Job>,
    cache: ScenarioCache,
    metrics: ServeMetrics,
    supervisor: Supervisor,
    stopping: AtomicBool,
}

/// A bound (but not yet running) simulation server.
///
/// # Examples
///
/// ```no_run
/// let server = hbm_serve::Server::bind("127.0.0.1:7070", Default::default()).unwrap();
/// println!("listening on {}", server.local_addr());
/// server.run().unwrap();
/// ```
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// A cloneable handle that can stop a running [`Server`] from another
/// thread (used by tests and the bundled load generator).
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Asks the server to stop: the accept loop exits, queued requests
    /// drain, workers join. Idempotent.
    pub fn stop(&self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }
}

/// Pre-registers the server's timing spans so `--timings` reports name
/// them even before the first request.
pub fn declare_spans() {
    timing::declare_span("serve.request");
    timing::declare_span("serve.simulate");
    timing::declare_span("serve.batch-simulate");
    timing::declare_span("serve.experiment");
    timing::declare_span("surrogate.fit");
    timing::declare_span("surrogate.predict");
}

/// Which tier would answer `scenario`'s thermal query, as a response
/// header value — `None` when no surrogate tier is installed (the
/// default), so responses are byte-identical to a tier-less build.
///
/// Consulting the tier is the hot-path integration point: it bumps the
/// hit/miss/fallback counters `/v1/metrics` reports and warms the
/// extraction cache for fallback queries.
fn thermal_tier_label(scenario: &Scenario) -> Option<&'static str> {
    installed_thermal_tier()?;
    match scenario.thermal_model() {
        Ok(answer) => answer.map(|(_, kind)| kind.as_str()),
        // An unextractable query (invalid mapped config) never blocks the
        // response; the header is simply omitted.
        Err(_) => None,
    }
}

impl Server {
    /// Binds the listener (use port 0 for an ephemeral port) and opens
    /// the experiment store when a state dir is configured.
    ///
    /// # Errors
    ///
    /// Returns the underlying bind or state-dir creation error.
    pub fn bind(addr: impl ToSocketAddrs, config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let store = match &config.state_dir {
            Some(dir) => Some(ExperimentStore::open(dir)?),
            None => None,
        };
        let supervisor = Supervisor::new(
            SupervisorConfig {
                max_experiments: config.max_experiments,
                ttl: config.experiment_ttl,
                max_branches: config.max_branches,
                max_branch_slots: config.max_branch_slots,
            },
            store,
        );
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_capacity),
            cache: ScenarioCache::new(config.cache_capacity),
            metrics: ServeMetrics::default(),
            supervisor,
            stopping: AtomicBool::new(false),
            config,
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (the actual port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("listener has an address")
    }

    /// A handle that can stop this server once it runs.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.local_addr(),
            shared: Arc::clone(&self.shared),
        }
    }

    /// Runs the accept loop until [`ServerHandle::stop`] is called:
    /// recovers persisted experiments first, then spawns the worker pool,
    /// and joins it before returning.
    ///
    /// # Errors
    ///
    /// Returns a fatal listener error (per-connection errors are absorbed).
    pub fn run(self) -> std::io::Result<()> {
        let restored = self.shared.supervisor.recover();
        for _ in 0..restored {
            ServeMetrics::bump(&self.shared.metrics.experiments_restored);
        }
        let workers = self.shared.config.workers.max(1);
        // Account the pool against the process-wide thread budget for the
        // server's whole lifetime (see ServeConfig::workers).
        let _lease = hbm_par::reserve_threads(workers);
        let pool: Vec<_> = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&self.shared);
                std::thread::Builder::new()
                    .name(format!("hbm-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();

        for stream in self.listener.incoming() {
            if self.shared.stopping.load(Ordering::SeqCst) {
                break;
            }
            match stream {
                Ok(stream) => handle_connection(&self.shared, stream, workers),
                Err(_) => continue,
            }
        }
        self.shared.queue.close();
        for worker in pool {
            let _ = worker.join();
        }
        // Drain the write-behind checkpoint queue before reporting an
        // orderly shutdown: everything stepped is on disk when run()
        // returns.
        self.shared.supervisor.flush();
        Ok(())
    }
}

/// Parses one request off `stream` and routes it through the route table.
/// Fast endpoints answer inline on the accept thread; simulation and
/// experiment mutations are validated here and then queued (or shed) —
/// the worker writes those responses.
fn handle_connection(shared: &Shared, stream: TcpStream, workers: usize) {
    let span = timing::start();
    let _ = stream.set_read_timeout(Some(shared.config.io_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.io_timeout));
    let mut reader = BufReader::new(stream);
    let request = match http::read_request(&mut reader) {
        Ok(Some(request)) => request,
        // Connection opened and closed without a request (e.g. the
        // stop() wake-up): nothing to answer.
        Ok(None) => return,
        Err(HttpError { status, message }) => {
            ServeMetrics::bump(&shared.metrics.bad_requests);
            let mut stream = reader.into_inner();
            let _ = http::write_response(&mut stream, status, &[], &http::error_body(&message));
            timing::record_span("serve.request", span);
            return;
        }
    };
    ServeMetrics::bump(&shared.metrics.requests_total);
    let mut stream = reader.into_inner();

    match routes::route(&request.method, &request.target) {
        RouteMatch::NotFound => {
            ServeMetrics::bump(&shared.metrics.bad_requests);
            let body = http::error_body(&format!("no such endpoint {:?}", request.target));
            let _ = http::write_response(&mut stream, 404, &[], &body);
        }
        RouteMatch::MethodNotAllowed { allow } => {
            ServeMetrics::bump(&shared.metrics.bad_requests);
            let body = http::error_body(&format!(
                "{} is not allowed on {} (allowed: {allow})",
                request.method, request.target
            ));
            let _ = http::write_response(&mut stream, 405, &[("Allow", allow)], &body);
        }
        RouteMatch::Ok { pattern, id } => {
            let id = id.map(str::to_string);
            dispatch(shared, pattern, id, request, stream, workers);
        }
    }
    timing::record_span("serve.request", span);
}

/// Serves one route-matched request (see [`handle_connection`]).
fn dispatch(
    shared: &Shared,
    pattern: &'static str,
    id: Option<String>,
    request: Request,
    mut stream: TcpStream,
    workers: usize,
) {
    let respond = |stream: &mut TcpStream, status: u16, body: &[u8]| {
        let _ = http::write_response(stream, status, &[], body);
    };
    match (request.method.as_str(), pattern) {
        ("GET", "/v1/health") => respond(&mut stream, 200, &health_body(shared, workers)),
        ("GET", "/v1/metrics") => respond(&mut stream, 200, &metrics_body(shared, workers)),
        ("POST", "/v1/simulate") => simulate(shared, request, stream),
        ("POST", "/v1/batch-simulate") => batch_simulate(shared, request, stream),
        ("GET", "/v1/experiments") => {
            sweep_experiments(shared);
            respond(&mut stream, 200, &experiment_list_body(shared));
        }
        ("POST", "/v1/experiments") => experiment_create(shared, request, stream),
        ("DELETE", "/v1/experiments/{id}") => enqueue(
            shared,
            JobKind::ExperimentDelete {
                id: id.expect("route binds id"),
            },
            stream,
        ),
        ("POST", "/v1/experiments/{id}/step") => {
            experiment_step(shared, id.expect("route binds id"), request, stream)
        }
        ("POST", "/v1/experiments/{id}/perturb") => {
            experiment_perturb(shared, id.expect("route binds id"), request, stream)
        }
        ("POST", "/v1/experiments/{id}/fork") => {
            experiment_fork(shared, id.expect("route binds id"), request, stream)
        }
        ("POST", "/v1/experiments/{id}/branches/step") => {
            experiment_branch_step(shared, id.expect("route binds id"), request, stream)
        }
        ("GET", "/v1/experiments/{id}/branches") => {
            sweep_experiments(shared);
            match shared.supervisor.branches_of(&id.expect("route binds id")) {
                Ok(report) => respond(&mut stream, 200, format!("{report}\n").as_bytes()),
                Err(e) => respond_api_error(shared, &mut stream, e),
            }
        }
        ("DELETE", "/v1/experiments/{id}/branches") => enqueue(
            shared,
            JobKind::ExperimentBranchDelete {
                id: id.expect("route binds id"),
            },
            stream,
        ),
        ("GET", "/v1/experiments/{id}/state") => {
            sweep_experiments(shared);
            match shared.supervisor.state_of(&id.expect("route binds id")) {
                Ok(snapshot) => respond(&mut stream, 200, format!("{snapshot}\n").as_bytes()),
                Err(e) => respond_api_error(shared, &mut stream, e),
            }
        }
        ("GET", "/v1/experiments/{id}/metrics") => {
            sweep_experiments(shared);
            match shared.supervisor.metrics_of(&id.expect("route binds id")) {
                Ok((metrics, hash)) => {
                    let extra = [("X-Config-Hash", hash)];
                    let _ = http::write_response(
                        &mut stream,
                        200,
                        &extra,
                        format!("{metrics}\n").as_bytes(),
                    );
                }
                Err(e) => respond_api_error(shared, &mut stream, e),
            }
        }
        // The route table only yields (method, pattern) pairs listed in
        // ROUTES; anything else here is a routing bug.
        (method, pattern) => unreachable!("unrouted {method} {pattern}"),
    }
}

/// Writes a supervisor error, counting 4xx as bad requests.
fn respond_api_error(shared: &Shared, stream: &mut TcpStream, (status, message): (u16, String)) {
    if (400..500).contains(&status) {
        ServeMetrics::bump(&shared.metrics.bad_requests);
    }
    let _ = http::write_response(stream, status, &[], &http::error_body(&message));
}

/// Evicts idle experiments per the TTL, counting them.
fn sweep_experiments(shared: &Shared) {
    for _ in 0..shared.supervisor.sweep() {
        ServeMetrics::bump(&shared.metrics.experiments_evicted);
    }
}

/// Queues a validated job, shedding with `503` when the queue is full.
fn enqueue(shared: &Shared, kind: JobKind, stream: TcpStream) {
    let job = Job { kind, stream };
    match shared.queue.try_push(job) {
        Ok(()) => ServeMetrics::bump(&shared.metrics.simulate_accepted),
        Err(mut job) => {
            ServeMetrics::bump(&shared.metrics.shed_total);
            let _ = http::write_response(
                &mut job.stream,
                503,
                &[("Retry-After", shared.config.retry_after_secs.to_string())],
                &http::error_body("queue full, retry later"),
            );
        }
    }
}

/// Parses a scenario body and validates it end to end (config build plus
/// policy name), so workers only ever see runnable scenarios.
fn parse_scenario(body: &[u8]) -> Result<Scenario, String> {
    std::str::from_utf8(body)
        .map_err(|_| "body is not valid UTF-8".to_string())
        .and_then(|body| Scenario::from_flat_json(body.trim()))
        .and_then(|scenario| scenario.build_config().map(|_| scenario))
        .and_then(|scenario| {
            if hbm_core::scenario::POLICY_NAMES.contains(&scenario.policy.as_str()) {
                Ok(scenario)
            } else {
                Err(format!(
                    "unknown policy {:?} (expected one of {})",
                    scenario.policy,
                    hbm_core::scenario::POLICY_NAMES.join(", ")
                ))
            }
        })
}

/// Answers `413` (counted as a bad request) when a scenario's warm-up
/// plus measured slots exceed [`ServeConfig::max_step_slots`], so one
/// request cannot pin a worker for hours; otherwise hands the stream back.
fn within_horizon_limit(
    shared: &Shared,
    scenario: &Scenario,
    mut stream: TcpStream,
) -> Option<TcpStream> {
    // Parsed scenarios never overflow; saturate rather than trust that.
    let slots = scenario.total_slots().unwrap_or(u64::MAX);
    if slots <= shared.config.max_step_slots {
        return Some(stream);
    }
    let message = format!(
        "horizon of {slots} warm-up plus measured slots exceeds the step limit {}",
        shared.config.max_step_slots
    );
    respond_api_error(shared, &mut stream, (413, message));
    None
}

/// Validates a `/v1/simulate` body and enqueues the job.
fn simulate(shared: &Shared, request: Request, mut stream: TcpStream) {
    match parse_scenario(&request.body) {
        Ok(scenario) => {
            if let Some(stream) = within_horizon_limit(shared, &scenario, stream) {
                enqueue(
                    shared,
                    JobKind::Simulate {
                        canonical: scenario.config_canonical(),
                        scenario,
                    },
                    stream,
                );
            }
        }
        Err(message) => {
            ServeMetrics::bump(&shared.metrics.bad_requests);
            let _ = http::write_response(&mut stream, 400, &[], &http::error_body(&message));
        }
    }
}

/// Validates a `/v1/batch-simulate` body and enqueues the job: one
/// scenario template plus a site count, rejected with `413` when the count
/// exceeds [`ServeConfig::max_batch`] or a site's horizon exceeds
/// [`ServeConfig::max_step_slots`]. The worker runs the sites through the
/// batch engine.
fn batch_simulate(shared: &Shared, request: Request, mut stream: TcpStream) {
    let parsed = std::str::from_utf8(&request.body)
        .map_err(|_| "body is not valid UTF-8".to_string())
        .and_then(|body| BatchScenario::from_flat_json(body.trim()))
        .and_then(|batch| batch.scenario.build_config().map(|_| batch))
        .and_then(|batch| {
            if hbm_core::scenario::POLICY_NAMES.contains(&batch.scenario.policy.as_str()) {
                Ok(batch)
            } else {
                Err(format!(
                    "unknown policy {:?} (expected one of {})",
                    batch.scenario.policy,
                    hbm_core::scenario::POLICY_NAMES.join(", ")
                ))
            }
        });
    let batch = match parsed {
        Ok(batch) => batch,
        Err(message) => {
            ServeMetrics::bump(&shared.metrics.bad_requests);
            let _ = http::write_response(&mut stream, 400, &[], &http::error_body(&message));
            return;
        }
    };
    if batch.count > shared.config.max_batch as u64 {
        ServeMetrics::bump(&shared.metrics.bad_requests);
        let _ = http::write_response(
            &mut stream,
            413,
            &[],
            &http::error_body(&format!(
                "count {} exceeds the batch limit {}",
                batch.count, shared.config.max_batch
            )),
        );
        return;
    }
    if let Some(stream) = within_horizon_limit(shared, &batch.scenario, stream) {
        enqueue(
            shared,
            JobKind::Batch {
                scenario: batch.scenario,
                count: batch.count,
            },
            stream,
        );
    }
}

/// Validates a `POST /v1/experiments` body and enqueues the create (the
/// worker runs the warm-up, which can be long).
fn experiment_create(shared: &Shared, request: Request, mut stream: TcpStream) {
    sweep_experiments(shared);
    match parse_scenario(&request.body) {
        Ok(scenario) => {
            if let Some(stream) = within_horizon_limit(shared, &scenario, stream) {
                enqueue(shared, JobKind::ExperimentCreate { scenario }, stream);
            }
        }
        Err(message) => {
            ServeMetrics::bump(&shared.metrics.bad_requests);
            let _ = http::write_response(&mut stream, 400, &[], &http::error_body(&message));
        }
    }
}

/// Parses a `{"slots": N}` body, `N ≥ 1` and integral.
fn parse_slots_body(body: &[u8]) -> Result<u64, String> {
    std::str::from_utf8(body)
        .map_err(|_| "body is not valid UTF-8".to_string())
        .and_then(|body| hbm_telemetry::json::parse_flat_object(body.trim()))
        .and_then(|fields| {
            let mut slots = None;
            for (key, value) in fields {
                match key.as_str() {
                    "slots" => match value.as_f64() {
                        Some(v) if v >= 1.0 && v.fract() == 0.0 && v <= 9e15 => {
                            slots = Some(v as u64)
                        }
                        _ => return Err("slots must be a positive integer".into()),
                    },
                    other => return Err(format!("unknown field {other:?}")),
                }
            }
            slots.ok_or_else(|| "missing required field \"slots\"".to_string())
        })
}

/// Validates a slots body against `max_step_slots`, answering `400`/`413`
/// itself; `Some(slots, stream)` when the job should be enqueued.
fn validated_slots(
    shared: &Shared,
    request: &Request,
    mut stream: TcpStream,
) -> Option<(u64, TcpStream)> {
    let slots = match parse_slots_body(&request.body) {
        Ok(slots) => slots,
        Err(message) => {
            ServeMetrics::bump(&shared.metrics.bad_requests);
            let _ = http::write_response(&mut stream, 400, &[], &http::error_body(&message));
            return None;
        }
    };
    if slots > shared.config.max_step_slots {
        ServeMetrics::bump(&shared.metrics.bad_requests);
        let _ = http::write_response(
            &mut stream,
            413,
            &[],
            &http::error_body(&format!(
                "slots {slots} exceeds the step limit {}",
                shared.config.max_step_slots
            )),
        );
        return None;
    }
    Some((slots, stream))
}

/// Validates a step body (`{"slots": N}`, `1 ..= max_step_slots`) and
/// enqueues the step.
fn experiment_step(shared: &Shared, id: String, request: Request, stream: TcpStream) {
    if let Some((slots, stream)) = validated_slots(shared, &request, stream) {
        enqueue(shared, JobKind::ExperimentStep { id, slots }, stream);
    }
}

/// Validates a branch-step body (same shape and limit as a step) and
/// enqueues the lockstep branch step.
fn experiment_branch_step(shared: &Shared, id: String, request: Request, stream: TcpStream) {
    if let Some((slots, stream)) = validated_slots(shared, &request, stream) {
        enqueue(shared, JobKind::ExperimentBranchStep { id, slots }, stream);
    }
}

/// Validates a fork body — an optional `label` plus [`Perturbation`]
/// fields, all optional (an empty body forks the control branch) — and
/// enqueues the fork.
fn experiment_fork(shared: &Shared, id: String, request: Request, mut stream: TcpStream) {
    let parsed = std::str::from_utf8(&request.body)
        .map_err(|_| "body is not valid UTF-8".to_string())
        .and_then(|body| {
            let body = body.trim();
            if body.is_empty() {
                return Ok((None, Perturbation::default()));
            }
            let fields = hbm_telemetry::json::parse_flat_object(body)?;
            let mut label = None;
            let mut p = Perturbation::default();
            for (key, value) in fields {
                let number = |value: &hbm_telemetry::json::JsonValue, key: &str| {
                    value
                        .as_f64()
                        .ok_or_else(|| format!("{key} must be a number"))
                };
                match key.as_str() {
                    "label" => {
                        let v = value
                            .as_str()
                            .ok_or_else(|| "label must be a string".to_string())?;
                        let ok = !v.is_empty()
                            && v.len() <= 64
                            && v.chars()
                                .all(|c| c.is_ascii_alphanumeric() || "-_.".contains(c));
                        if !ok {
                            return Err(
                                "label must be 1-64 characters of [A-Za-z0-9._-]".to_string()
                            );
                        }
                        label = Some(v.to_string());
                    }
                    "utilization" => p.utilization = Some(number(&value, "utilization")?),
                    "attack_load_kw" => p.attack_load_kw = Some(number(&value, "attack_load_kw")?),
                    "battery_kwh" => p.battery_kwh = Some(number(&value, "battery_kwh")?),
                    "threshold_c" => p.threshold_c = Some(number(&value, "threshold_c")?),
                    "cap_w" => p.cap_w = Some(number(&value, "cap_w")?),
                    other => return Err(format!("unknown field {other:?}")),
                }
            }
            Ok((label, p))
        });
    match parsed {
        Ok((label, perturbation)) => enqueue(
            shared,
            JobKind::ExperimentFork {
                id,
                label,
                perturbation,
            },
            stream,
        ),
        Err(message) => {
            ServeMetrics::bump(&shared.metrics.bad_requests);
            let _ = http::write_response(&mut stream, 400, &[], &http::error_body(&message));
        }
    }
}

/// Validates a perturb body ([`Perturbation`] flat JSON, at least one
/// field) and enqueues the perturb.
fn experiment_perturb(shared: &Shared, id: String, request: Request, mut stream: TcpStream) {
    let parsed = std::str::from_utf8(&request.body)
        .map_err(|_| "body is not valid UTF-8".to_string())
        .and_then(|body| Perturbation::from_flat_json(body.trim()))
        .and_then(|p| {
            if p.is_empty() {
                Err("perturbation must set at least one field".into())
            } else {
                Ok(p)
            }
        });
    match parsed {
        Ok(perturbation) => enqueue(
            shared,
            JobKind::ExperimentPerturb { id, perturbation },
            stream,
        ),
        Err(message) => {
            ServeMetrics::bump(&shared.metrics.bad_requests);
            let _ = http::write_response(&mut stream, 400, &[], &http::error_body(&message));
        }
    }
}

/// Runs one batch job: cached sites are answered from the scenario cache
/// (the per-site canonical strings are exactly the single-simulate keys),
/// the rest run together through the batch engine, and freshly computed
/// sites are inserted back so later single or batch requests hit.
///
/// Returns the assembled response body and whether every site was a hit.
fn run_batch_job(
    shared: &Shared,
    scenario: &Scenario,
    count: u64,
) -> Result<(String, bool), String> {
    ServeMetrics::bump(&shared.metrics.batch_requests);
    let sites: Vec<Scenario> = (0..count).map(|i| scenario.site(i)).collect();
    let canonicals: Vec<String> = sites.iter().map(Scenario::config_canonical).collect();
    let mut bodies: Vec<Option<std::sync::Arc<String>>> = vec![None; sites.len()];
    let mut missing: Vec<usize> = Vec::new();
    for (i, canonical) in canonicals.iter().enumerate() {
        match shared.cache.lookup(canonical) {
            Some(Ok(body)) => bodies[i] = Some(body),
            _ => missing.push(i),
        }
    }
    let all_hit = missing.is_empty();
    if !all_hit {
        ServeMetrics::add(&shared.metrics.batch_lanes_simulated, missing.len() as u64);
        let span = timing::start();
        let miss_sites: Vec<Scenario> = missing.iter().map(|&i| sites[i].clone()).collect();
        let reports = run_scenarios_batch(&miss_sites)?;
        timing::record_span("serve.batch-simulate", span);
        for (&i, report) in missing.iter().zip(&reports) {
            let body = metrics_json(&canonicals[i], &report.metrics) + "\n";
            let (result, _) = shared.cache.get_or_compute(&canonicals[i], || Ok(body));
            bodies[i] = Some(result?);
        }
    }
    let mut out = format!("{{\"count\":{count},\"sites\":[");
    for (i, body) in bodies.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(body.as_ref().expect("every site filled").trim_end());
    }
    out.push_str("]}\n");
    Ok((out, all_hit))
}

/// One worker: pop jobs until the queue closes; serve each from the cache
/// or by running the scenario / experiment operation.
fn worker_loop(shared: &Shared) {
    while let Some(mut job) = shared.queue.pop() {
        let _busy = BusyGuard::new(&shared.metrics.workers_busy);
        match job.kind {
            JobKind::Simulate {
                scenario,
                canonical,
            } => run_simulate_job(shared, &scenario, &canonical, &mut job.stream),
            JobKind::Batch { scenario, count } => match run_batch_job(shared, &scenario, count) {
                Ok((body, all_hit)) => {
                    ServeMetrics::bump(&shared.metrics.simulate_ok);
                    let extra = [
                        ("X-Cache", if all_hit { "hit" } else { "miss" }.to_string()),
                        ("X-Config-Hash", scenario.config_hash()),
                    ];
                    let _ = http::write_response(&mut job.stream, 200, &extra, body.as_bytes());
                }
                Err(message) => {
                    let _ = http::write_response(
                        &mut job.stream,
                        500,
                        &[],
                        &http::error_body(&message),
                    );
                }
            },
            kind => run_experiment_job(shared, kind, &mut job.stream),
        }
    }
}

/// Runs one `/v1/simulate` job through the cache.
fn run_simulate_job(shared: &Shared, scenario: &Scenario, canonical: &str, stream: &mut TcpStream) {
    let (result, hit) = shared.cache.get_or_compute(canonical, || {
        let span = timing::start();
        let started = Instant::now();
        let report = scenario.run()?;
        timing::record_span("serve.simulate", span);
        if let Some(dir) = &shared.config.manifest_dir {
            write_job_manifest(
                dir,
                scenario,
                canonical,
                shared.config.workers,
                started.elapsed().as_millis() as u64,
            );
        }
        Ok(metrics_json(canonical, &report.metrics) + "\n")
    });
    match result {
        Ok(body) => {
            ServeMetrics::bump(&shared.metrics.simulate_ok);
            let mut extra = vec![
                ("X-Cache", if hit { "hit" } else { "miss" }.to_string()),
                ("X-Config-Hash", scenario.config_hash()),
            ];
            if let Some(tier) = thermal_tier_label(scenario) {
                extra.push(("X-Thermal-Tier", tier.to_string()));
            }
            let _ = http::write_response(stream, 200, &extra, body.as_bytes());
        }
        Err(message) => {
            let _ = http::write_response(stream, 500, &[], &http::error_body(&message));
        }
    }
}

/// Runs one experiment lifecycle job against the supervisor.
fn run_experiment_job(shared: &Shared, kind: JobKind, stream: &mut TcpStream) {
    let span = timing::start();
    match kind {
        JobKind::ExperimentCreate { scenario } => {
            match shared.supervisor.create(scenario.clone()) {
                Ok(outcome) => {
                    ServeMetrics::bump(&shared.metrics.experiments_created);
                    let mut o = JsonObject::new();
                    o.str("id", &outcome.id)
                        .str("policy", &scenario.policy)
                        .u64("warmup_slots", outcome.warmup_slots)
                        .u64("slots", 0);
                    let extra = [("Location", format!("/v1/experiments/{}", outcome.id))];
                    let body = o.finish() + "\n";
                    let _ = http::write_response(stream, 201, &extra, body.as_bytes());
                }
                Err(e) => respond_api_error(shared, stream, e),
            }
        }
        JobKind::ExperimentStep { id, slots } => match shared.supervisor.step(&id, slots) {
            Ok(outcome) => {
                ServeMetrics::bump(&shared.metrics.experiment_steps);
                shared
                    .metrics
                    .experiment_slots
                    .fetch_add(outcome.stepped, std::sync::atomic::Ordering::Relaxed);
                let mut o = JsonObject::new();
                o.str("id", &outcome.id)
                    .u64("stepped", outcome.stepped)
                    .u64("slots", outcome.slots);
                let body = o.finish() + "\n";
                let _ = http::write_response(stream, 200, &[], body.as_bytes());
            }
            Err(e) => respond_api_error(shared, stream, e),
        },
        JobKind::ExperimentPerturb { id, perturbation } => {
            match shared.supervisor.perturb(&id, &perturbation) {
                Ok(scenario_json) => {
                    ServeMetrics::bump(&shared.metrics.experiment_perturbs);
                    let body = scenario_json + "\n";
                    let _ = http::write_response(stream, 200, &[], body.as_bytes());
                }
                Err(e) => respond_api_error(shared, stream, e),
            }
        }
        JobKind::ExperimentFork {
            id,
            label,
            perturbation,
        } => match shared.supervisor.fork(&id, label, &perturbation) {
            Ok(outcome) => {
                ServeMetrics::bump(&shared.metrics.experiment_forks);
                let mut o = JsonObject::new();
                o.str("id", &outcome.id)
                    .u64("branch", outcome.branch)
                    .str("label", &outcome.label)
                    .u64("fork_slot", outcome.fork_slot)
                    .u64("branches", outcome.branches);
                let body = o.finish() + "\n";
                let mut extra = Vec::new();
                if let Some(tier) = thermal_tier_label(&outcome.scenario) {
                    extra.push(("X-Thermal-Tier", tier.to_string()));
                }
                let _ = http::write_response(stream, 200, &extra, body.as_bytes());
            }
            Err(e) => respond_api_error(shared, stream, e),
        },
        JobKind::ExperimentBranchStep { id, slots } => {
            match shared.supervisor.branch_step(&id, slots) {
                Ok(outcome) => {
                    ServeMetrics::bump(&shared.metrics.experiment_branch_steps);
                    let mut o = JsonObject::new();
                    o.str("id", &outcome.id)
                        .u64("stepped", outcome.stepped)
                        .u64("branches", outcome.branches);
                    if let Some(slot) = outcome.first_divergence {
                        o.u64("first_divergence", slot);
                    }
                    let body = o.finish() + "\n";
                    let _ = http::write_response(stream, 200, &[], body.as_bytes());
                }
                Err(e) => respond_api_error(shared, stream, e),
            }
        }
        JobKind::ExperimentBranchDelete { id } => match shared.supervisor.branch_delete(&id) {
            Ok(branches) => {
                let mut o = JsonObject::new();
                o.str("id", &id).u64("deleted_branches", branches);
                let body = o.finish() + "\n";
                let _ = http::write_response(stream, 200, &[], body.as_bytes());
            }
            Err(e) => respond_api_error(shared, stream, e),
        },
        JobKind::ExperimentDelete { id } => match shared.supervisor.delete(&id) {
            Ok(()) => {
                ServeMetrics::bump(&shared.metrics.experiments_deleted);
                let mut o = JsonObject::new();
                o.str("deleted", &id);
                let body = o.finish() + "\n";
                let _ = http::write_response(stream, 200, &[], body.as_bytes());
            }
            Err(e) => respond_api_error(shared, stream, e),
        },
        JobKind::Simulate { .. } | JobKind::Batch { .. } => {
            unreachable!("simulation jobs are handled in worker_loop")
        }
    }
    timing::record_span("serve.experiment", span);
}

/// Writes the per-run manifest for a freshly computed scenario; failures
/// are reported on stderr but never fail the request.
fn write_job_manifest(
    dir: &std::path::Path,
    scenario: &Scenario,
    canonical: &str,
    workers: usize,
    wall_clock_ms: u64,
) {
    let mut manifest = RunManifest::new("hbm-serve", scenario.seed);
    manifest.hash_config(canonical);
    manifest
        .param("policy", &scenario.policy)
        .param("days", scenario.days.to_string())
        .param("warmup_days", scenario.warmup_days.to_string());
    for (key, value) in [
        ("utilization", scenario.utilization),
        ("attack_load_kw", scenario.attack_load_kw),
        ("battery_kwh", scenario.battery_kwh),
        ("threshold_c", scenario.threshold_c),
        ("cap_w", scenario.cap_w),
    ] {
        if let Some(v) = value {
            manifest.param(key, v.to_string());
        }
    }
    for (name, version) in [
        ("hbm-serve", crate::VERSION),
        ("hbm-core", hbm_core::VERSION),
        ("hbm-telemetry", hbm_telemetry::VERSION),
    ] {
        manifest.crate_version(name, version);
    }
    manifest.jobs = workers as u64;
    manifest.wall_clock_ms = wall_clock_ms;
    let run_dir = dir.join(scenario.config_hash());
    if let Err(e) = manifest.write_to_dir(&run_dir) {
        eprintln!(
            "warning: cannot write manifest to {}: {e}",
            run_dir.display()
        );
    }
}

fn health_body(shared: &Shared, workers: usize) -> Vec<u8> {
    let mut o = JsonObject::new();
    o.str("status", "ok")
        .str("version", crate::VERSION)
        .u64("workers", workers as u64)
        .u64("queue_capacity", shared.queue.capacity() as u64)
        .u64("cache_capacity", shared.config.cache_capacity as u64)
        .u64("max_experiments", shared.config.max_experiments as u64)
        .bool("experiments_durable", shared.config.state_dir.is_some());
    let mut body = o.finish().into_bytes();
    body.push(b'\n');
    body
}

/// `GET /v1/experiments`: parallel `ids`/`slots` arrays, flat-JSON
/// parseable (ids are server-generated and need no escaping).
fn experiment_list_body(shared: &Shared) -> Vec<u8> {
    let rows = shared.supervisor.list();
    let mut out = format!("{{\"count\":{},\"ids\":[", rows.len());
    for (i, (id, _)) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(id);
        out.push('"');
    }
    out.push_str("],\"slots\":[");
    for (i, (_, slots)) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&slots.to_string());
    }
    out.push_str("]}\n");
    out.into_bytes()
}

fn metrics_body(shared: &Shared, workers: usize) -> Vec<u8> {
    let cache = shared.cache.stats();
    let busy = ServeMetrics::get(&shared.metrics.workers_busy);
    let mut o = JsonObject::new();
    o.u64(
        "requests_total",
        ServeMetrics::get(&shared.metrics.requests_total),
    )
    .u64(
        "simulate_accepted",
        ServeMetrics::get(&shared.metrics.simulate_accepted),
    )
    .u64(
        "simulate_ok",
        ServeMetrics::get(&shared.metrics.simulate_ok),
    )
    .u64(
        "batch_requests",
        ServeMetrics::get(&shared.metrics.batch_requests),
    )
    .u64(
        "batch_lanes_simulated",
        ServeMetrics::get(&shared.metrics.batch_lanes_simulated),
    )
    .u64("shed_total", ServeMetrics::get(&shared.metrics.shed_total))
    .u64(
        "bad_requests",
        ServeMetrics::get(&shared.metrics.bad_requests),
    )
    .u64("cache_hits", cache.hits)
    .u64("cache_misses", cache.misses)
    .u64("cache_len", cache.len)
    .u64("queue_depth", shared.queue.depth() as u64)
    .u64("queue_capacity", shared.queue.capacity() as u64)
    .u64("workers", workers as u64)
    .u64("workers_busy", busy)
    .f64("worker_utilization", busy as f64 / workers.max(1) as f64)
    .u64("experiments_active", shared.supervisor.active() as u64)
    .u64(
        "experiments_created",
        ServeMetrics::get(&shared.metrics.experiments_created),
    )
    .u64(
        "experiments_restored",
        ServeMetrics::get(&shared.metrics.experiments_restored),
    )
    .u64(
        "experiments_deleted",
        ServeMetrics::get(&shared.metrics.experiments_deleted),
    )
    .u64(
        "experiments_evicted",
        ServeMetrics::get(&shared.metrics.experiments_evicted),
    )
    .u64(
        "experiment_steps",
        ServeMetrics::get(&shared.metrics.experiment_steps),
    )
    .u64(
        "experiment_slots",
        ServeMetrics::get(&shared.metrics.experiment_slots),
    )
    .u64(
        "experiment_perturbs",
        ServeMetrics::get(&shared.metrics.experiment_perturbs),
    )
    .u64(
        "experiment_forks",
        ServeMetrics::get(&shared.metrics.experiment_forks),
    )
    .u64(
        "experiment_branch_steps",
        ServeMetrics::get(&shared.metrics.experiment_branch_steps),
    )
    .u64(
        "checkpoint_failures",
        shared.supervisor.checkpoint_failures(),
    );
    // Process-wide heat-matrix extraction cache (the serve scenario cache
    // above is request-level; this one counts CFD extractions saved).
    let matrix_cache = hbm_thermal::heat_matrix_cache_stats();
    o.u64("heat_matrix_cache_hits", matrix_cache.hits)
        .u64("heat_matrix_cache_misses", matrix_cache.misses);
    // Surrogate tier decisions; all-zero when no tier is installed.
    let tier_stats = installed_thermal_tier().map(|t| t.stats());
    o.u64("surrogate_hits", tier_stats.map_or(0, |s| s.hits))
        .u64("surrogate_misses", tier_stats.map_or(0, |s| s.misses))
        .u64("surrogate_fallbacks", tier_stats.map_or(0, |s| s.fallbacks))
        .f64("surrogate_bound_c", tier_stats.map_or(0.0, |s| s.bound_c));
    let mut body = o.finish().into_bytes();
    body.push(b'\n');
    body
}
