//! The daemon: accept loop, routing, worker pool, and shutdown.
//!
//! Every request takes one path: the route table in [`crate::routes`]
//! names its [`Endpoint`], [`parse`] turns endpoint, id and body into an
//! [`Op`] (answering `400`/`413` itself), and [`answer`] writes the
//! response. Fast operations (health, metrics, experiment reads) answer
//! inline on the accept thread; everything that runs or mutates a
//! simulation — one-shot scenarios, batches, and the experiment lifecycle
//! — is parked in the bounded queue for the worker pool, so the accept
//! loop never blocks on simulation work.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hbm_core::scenario::{metrics_json, run_scenarios_batch, BatchScenario};
use hbm_core::{Perturbation, Scenario};
use hbm_telemetry::json::{push_json_str, Fields, JsonObject};
use hbm_telemetry::{timing, RunManifest};

use crate::cache::ScenarioCache;
use crate::experiment::{json_array, ApiError, Supervisor, SupervisorConfig};
use crate::http::{self, HttpError};
use crate::metrics::{BusyGuard, ServeMetrics};
use crate::queue::BoundedQueue;
use crate::routes::{self, Endpoint, RouteMatch};
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

/// One parsed request, built only by [`parse`]: every operation arrives
/// validated, so workers only see well-formed work.
enum Op {
    Health,
    Metrics,
    /// Run (or serve from cache) the seed-staggered sites of `scenario`,
    /// the site-0 template: one site for `/v1/simulate` (`count: None`),
    /// `count` sites for `/v1/batch-simulate`.
    Simulate {
        scenario: Scenario,
        count: Option<u64>,
    },
    List,
    /// Create an experiment (runs warm-up, writes the first checkpoint).
    Create(Scenario),
    /// Delete an experiment and its on-disk state.
    Delete(String),
    Step {
        id: String,
        slots: u64,
    },
    /// Apply a mid-run perturbation to an experiment.
    Perturb {
        id: String,
        perturbation: Perturbation,
    },
    /// Add a branch to an experiment's what-if tree (rooting the tree at
    /// the current state on the first fork).
    Fork {
        id: String,
        label: Option<String>,
        perturbation: Perturbation,
    },
    Branches(String),
    /// Advance every branch of an experiment's tree in lockstep.
    BranchStep {
        id: String,
        slots: u64,
    },
    /// Drop an experiment's branch tree.
    BranchDelete(String),
    State(String),
    ExperimentMetrics(String),
}

impl Op {
    /// Whether a worker runs this operation: simulations and experiment
    /// mutations queue, reads answer inline from published state.
    fn queued(&self) -> bool {
        !matches!(
            self,
            Op::Health
                | Op::Metrics
                | Op::List
                | Op::Branches(_)
                | Op::State(_)
                | Op::ExperimentMetrics(_)
        )
    }
}

/// One accepted request, parked in the queue until a worker picks it up
/// and writes the response.
struct Job {
    op: Op,
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
                Ok(stream) => handle_connection(&self.shared, stream),
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

/// Parses one request off `stream` and routes it through the route table
/// to [`dispatch`]; routing failures answer `404`/`405` here.
fn handle_connection(shared: &Shared, stream: TcpStream) {
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
        RouteMatch::Ok { endpoint, id, .. } => {
            // Only `{id}` routes read the id, and those always bind one.
            dispatch(
                shared,
                endpoint,
                id.unwrap_or_default(),
                &request.body,
                stream,
            );
        }
    }
    timing::record_span("serve.request", span);
}

/// Serves one routed request: parses it into its [`Op`], then queues it
/// for a worker or answers it inline.
fn dispatch(shared: &Shared, endpoint: Endpoint, id: &str, body: &[u8], mut stream: TcpStream) {
    // Creates and reads first evict idle experiments (see
    // ServeConfig::experiment_ttl).
    if matches!(
        endpoint,
        Endpoint::Create
            | Endpoint::List
            | Endpoint::Branches
            | Endpoint::State
            | Endpoint::ExperimentMetrics
    ) {
        sweep_experiments(shared);
    }
    match parse(&shared.config, endpoint, id, body) {
        Ok(op) if op.queued() => enqueue(shared, op, stream),
        Ok(op) => answer(shared, op, &mut stream),
        Err(e) => respond_api_error(shared, &mut stream, e),
    }
}

/// Writes a supervisor error, counting 4xx as bad requests.
fn respond_api_error(shared: &Shared, stream: &mut TcpStream, (status, message): ApiError) {
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

/// Queues a validated operation, shedding with `503` when the queue is
/// full.
fn enqueue(shared: &Shared, op: Op, stream: TcpStream) {
    match shared.queue.try_push(Job { op, stream }) {
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

/// Parses a routed request into its operation — the one place request
/// bodies are read and checked against the server's limits: `400` for a
/// malformed body, `413` past a limit. `id` is the bound `{id}` segment
/// (empty on routes without one).
fn parse(config: &ServeConfig, endpoint: Endpoint, id: &str, body: &[u8]) -> Result<Op, ApiError> {
    let bad = |message: String| (400, message);
    let id = id.to_string();
    Ok(match endpoint {
        Endpoint::Health => Op::Health,
        Endpoint::Metrics => Op::Metrics,
        Endpoint::Simulate => Op::Simulate {
            scenario: within_horizon(config, parse_scenario(body).map_err(bad)?)?,
            count: None,
        },
        Endpoint::BatchSimulate => {
            let batch = body_text(body)
                .and_then(BatchScenario::from_flat_json)
                .map_err(bad)?;
            runnable(&batch.scenario).map_err(bad)?;
            if batch.count > config.max_batch as u64 {
                let message = format!(
                    "count {} exceeds the batch limit {}",
                    batch.count, config.max_batch
                );
                return Err((413, message));
            }
            Op::Simulate {
                scenario: within_horizon(config, batch.scenario)?,
                count: Some(batch.count),
            }
        }
        Endpoint::List => Op::List,
        Endpoint::Create => Op::Create(within_horizon(config, parse_scenario(body).map_err(bad)?)?),
        Endpoint::Delete => Op::Delete(id),
        Endpoint::Step => Op::Step {
            slots: parse_slots_body(body, config.max_step_slots)?,
            id,
        },
        Endpoint::Perturb => Op::Perturb {
            perturbation: parse_perturb_body(body).map_err(bad)?,
            id,
        },
        Endpoint::Fork => {
            let (label, perturbation) = parse_fork_body(body).map_err(bad)?;
            Op::Fork {
                id,
                label,
                perturbation,
            }
        }
        Endpoint::Branches => Op::Branches(id),
        Endpoint::BranchStep => Op::BranchStep {
            slots: parse_slots_body(body, config.max_step_slots)?,
            id,
        },
        Endpoint::BranchDelete => Op::BranchDelete(id),
        Endpoint::State => Op::State(id),
        Endpoint::ExperimentMetrics => Op::ExperimentMetrics(id),
    })
}

/// A request body as trimmed UTF-8 text.
fn body_text(body: &[u8]) -> Result<&str, String> {
    std::str::from_utf8(body)
        .map(str::trim)
        .map_err(|_| "body is not valid UTF-8".to_string())
}

/// Checks a parsed scenario end to end (config build plus policy name),
/// so workers only ever see runnable scenarios. Every scenario-carrying
/// body — simulate, batch-simulate and experiment create — passes here.
fn runnable(scenario: &Scenario) -> Result<(), String> {
    scenario.build_config()?;
    if hbm_core::scenario::POLICY_NAMES.contains(&scenario.policy.as_str()) {
        Ok(())
    } else {
        Err(format!(
            "unknown policy {:?} (expected one of {})",
            scenario.policy,
            hbm_core::scenario::POLICY_NAMES.join(", ")
        ))
    }
}

/// Parses a scenario body and checks it is [`runnable`].
fn parse_scenario(body: &[u8]) -> Result<Scenario, String> {
    let scenario = Scenario::from_flat_json(body_text(body)?)?;
    runnable(&scenario)?;
    Ok(scenario)
}

/// `413` when a scenario's warm-up plus measured slots exceed
/// [`ServeConfig::max_step_slots`], so one request cannot pin a worker
/// for hours.
fn within_horizon(config: &ServeConfig, scenario: Scenario) -> Result<Scenario, ApiError> {
    // Parsed scenarios never overflow; saturate rather than trust that.
    let slots = scenario.total_slots().unwrap_or(u64::MAX);
    if slots <= config.max_step_slots {
        return Ok(scenario);
    }
    let message = format!(
        "horizon of {slots} warm-up plus measured slots exceeds the step limit {}",
        config.max_step_slots
    );
    Err((413, message))
}

/// Parses a `{"slots": N}` body: `400` unless `N ≥ 1` and integral, `413`
/// past `limit`.
fn parse_slots_body(body: &[u8], limit: u64) -> Result<u64, ApiError> {
    let read = || -> Result<u64, String> {
        let mut f = Fields::parse(body_text(body)?)?;
        let slots = f.u64("slots")?;
        f.finish()?;
        Ok(slots)
    };
    match read() {
        Ok(0) => Err((400, "slots must be a positive integer".into())),
        Ok(slots) if slots > limit => {
            Err((413, format!("slots {slots} exceeds the step limit {limit}")))
        }
        Ok(slots) => Ok(slots),
        Err(message) => Err((400, message)),
    }
}

/// Parses a fork body: an optional `label`, then [`Perturbation`] fields,
/// all optional (an empty body forks the control branch).
fn parse_fork_body(body: &[u8]) -> Result<(Option<String>, Perturbation), String> {
    let body = body_text(body)?;
    if body.is_empty() {
        return Ok((None, Perturbation::default()));
    }
    let mut f = Fields::parse(body)?;
    let label = f.opt_str("label")?;
    if let Some(label) = &label {
        let ok = !label.is_empty()
            && label.len() <= 64
            && label
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "-_.".contains(c));
        if !ok {
            return Err("label must be 1-64 characters of [A-Za-z0-9._-]".to_string());
        }
    }
    let perturbation = Perturbation::read(&mut f)?;
    f.finish()?;
    Ok((label, perturbation))
}

/// Parses a perturb body: [`Perturbation`] flat JSON, at least one field.
fn parse_perturb_body(body: &[u8]) -> Result<Perturbation, String> {
    let perturbation = Perturbation::from_flat_json(body_text(body)?)?;
    if perturbation.is_empty() {
        return Err("perturbation must set at least one field".into());
    }
    Ok(perturbation)
}

/// One worker: pop operations until the queue closes and answer each.
fn worker_loop(shared: &Shared) {
    while let Some(mut job) = shared.queue.pop() {
        let _busy = BusyGuard::new(&shared.metrics.workers_busy);
        let span = timing::start();
        let experiment = !matches!(job.op, Op::Simulate { .. });
        answer(shared, job.op, &mut job.stream);
        if experiment {
            timing::record_span("serve.experiment", span);
        }
    }
}

/// Answers one operation — the one place each operation calls the
/// supervisor, picks its status and headers, and bumps its counter.
/// Simulations write their own responses ([`run_simulate_job`]).
fn answer(shared: &Shared, op: Op, stream: &mut TcpStream) {
    let sup = &shared.supervisor;
    let m = &shared.metrics;
    let ok = |body: String| (200, Vec::new(), body);
    let reply = match op {
        Op::Health => Ok(ok(health_body(shared))),
        Op::Metrics => Ok(ok(metrics_body(shared))),
        Op::Simulate { scenario, count } => {
            return run_simulate_job(shared, &scenario, count, stream)
        }
        Op::List => Ok(ok(experiment_list_body(sup))),
        Op::Create(scenario) => sup.create(scenario).map(|(id, body)| {
            ServeMetrics::bump(&m.experiments_created);
            let location = ("Location", format!("/v1/experiments/{id}"));
            (201, vec![location], body)
        }),
        Op::Delete(id) => sup.delete(&id).map(|body| {
            ServeMetrics::bump(&m.experiments_deleted);
            ok(body)
        }),
        Op::Step { id, slots } => sup.step(&id, slots).map(|body| {
            ServeMetrics::bump(&m.experiment_steps);
            ServeMetrics::add(&m.experiment_slots, slots);
            ok(body)
        }),
        Op::Perturb { id, perturbation } => sup.perturb(&id, &perturbation).map(|body| {
            ServeMetrics::bump(&m.experiment_perturbs);
            ok(body)
        }),
        Op::Fork {
            id,
            label,
            perturbation,
        } => sup.fork(&id, label, &perturbation).map(|body| {
            ServeMetrics::bump(&m.experiment_forks);
            ok(body)
        }),
        Op::Branches(id) => sup.branches_of(&id).map(|report| ok(report.to_string())),
        Op::BranchStep { id, slots } => sup.branch_step(&id, slots).map(|body| {
            ServeMetrics::bump(&m.experiment_branch_steps);
            ok(body)
        }),
        Op::BranchDelete(id) => sup.branch_delete(&id).map(ok),
        Op::State(id) => sup.state_of(&id).map(ok),
        Op::ExperimentMetrics(id) => sup
            .metrics_of(&id)
            .map(|(body, hash)| (200, vec![("X-Config-Hash", hash)], body)),
    };
    match reply {
        Ok((status, headers, body)) => {
            let _ = http::write_response(stream, status, &headers, (body + "\n").as_bytes());
        }
        Err(e) => respond_api_error(shared, stream, e),
    }
}

/// Runs one simulate job and writes its response: the bare site body for
/// `/v1/simulate` (`count: None`), the `{"count":n,"sites":[…]}` wrapper
/// for `/v1/batch-simulate`. `X-Cache` is `hit` only when every site was.
fn run_simulate_job(
    shared: &Shared,
    scenario: &Scenario,
    count: Option<u64>,
    stream: &mut TcpStream,
) {
    if count.is_some() {
        ServeMetrics::bump(&shared.metrics.batch_requests);
    }
    let (bodies, all_hit) = match claim_sites(shared, scenario, count) {
        Ok(claimed) => claimed,
        Err(message) => {
            let _ = http::write_response(stream, 500, &[], &http::error_body(&message));
            return;
        }
    };
    ServeMetrics::bump(&shared.metrics.simulate_ok);
    let wrapped;
    let body = match count {
        None => bodies[0].as_str(),
        Some(count) => {
            let sites: Vec<&str> = bodies.iter().map(|body| body.trim_end()).collect();
            wrapped = format!("{{\"count\":{count},\"sites\":[{}]}}\n", sites.join(","));
            &wrapped
        }
    };
    let extra = [
        ("X-Cache", if all_hit { "hit" } else { "miss" }.to_string()),
        ("X-Config-Hash", scenario.config_hash()),
    ];
    let _ = http::write_response(stream, 200, &extra, body.as_bytes());
}

/// Claims every site of a simulate job through the scenario cache, in site
/// order, returning the site bodies and whether every site was a hit.
///
/// The first site that misses simulates itself together with every later
/// site not yet in the cache ([`run_scenarios_batch`]), and keeps their
/// bodies for their own claims, so each site is computed once and
/// concurrent requests for a site wait for one computation. Every
/// computed site writes its manifest.
fn claim_sites(
    shared: &Shared,
    scenario: &Scenario,
    count: Option<u64>,
) -> Result<(Vec<Arc<String>>, bool), String> {
    let sites: Vec<Scenario> = (0..count.unwrap_or(1)).map(|i| scenario.site(i)).collect();
    let canonicals: Vec<String> = sites.iter().map(Scenario::config_canonical).collect();
    let mut computed: Vec<Option<String>> = vec![None; sites.len()];
    let mut bodies = Vec::with_capacity(sites.len());
    let mut all_hit = true;
    for i in 0..sites.len() {
        let (body, hit) = shared.cache.get_or_compute(&canonicals[i], || {
            if computed[i].is_none() {
                let todo: Vec<usize> = std::iter::once(i)
                    .chain((i + 1..sites.len()).filter(|&j| !shared.cache.contains(&canonicals[j])))
                    .collect();
                let fresh = simulate_sites(shared, &sites, &canonicals, &todo, count.is_some())?;
                for (j, body) in todo.into_iter().zip(fresh) {
                    computed[j] = Some(body);
                }
            }
            Ok(computed[i].take().expect("site was just simulated"))
        });
        bodies.push(body?);
        all_hit &= hit;
    }
    Ok((bodies, all_hit))
}

/// Simulates the sites at indices `todo` together, writes each one's
/// manifest, and returns their response bodies in `todo` order. `batch`
/// selects the route's span and lane counter.
fn simulate_sites(
    shared: &Shared,
    sites: &[Scenario],
    canonicals: &[String],
    todo: &[usize],
    batch: bool,
) -> Result<Vec<String>, String> {
    let todo_sites: Vec<Scenario> = todo.iter().map(|&j| sites[j].clone()).collect();
    if batch {
        ServeMetrics::add(&shared.metrics.batch_lanes_simulated, todo.len() as u64);
    }
    let span = timing::start();
    let started = Instant::now();
    let reports = run_scenarios_batch(&todo_sites)?;
    let span_name = if batch {
        "serve.batch-simulate"
    } else {
        "serve.simulate"
    };
    timing::record_span(span_name, span);
    let wall_clock_ms = started.elapsed().as_millis() as u64;
    Ok(todo
        .iter()
        .zip(&reports)
        .map(|(&j, report)| {
            if let Some(dir) = &shared.config.manifest_dir {
                write_job_manifest(
                    dir,
                    &sites[j],
                    &canonicals[j],
                    shared.config.workers,
                    wall_clock_ms,
                );
            }
            metrics_json(&canonicals[j], &report.metrics) + "\n"
        })
        .collect())
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

fn health_body(shared: &Shared) -> String {
    let workers = shared.config.workers.max(1);
    let mut o = JsonObject::new();
    o.str("status", "ok")
        .str("version", crate::VERSION)
        .u64("workers", workers as u64)
        .u64("queue_capacity", shared.queue.capacity() as u64)
        .u64("cache_capacity", shared.config.cache_capacity as u64)
        .u64("max_experiments", shared.config.max_experiments as u64)
        .bool("experiments_durable", shared.config.state_dir.is_some());
    o.finish()
}

/// `GET /v1/experiments`: parallel `ids`/`slots` arrays.
fn experiment_list_body(supervisor: &Supervisor) -> String {
    let rows = supervisor.list();
    let mut o = JsonObject::new();
    o.u64("count", rows.len() as u64)
        .raw(
            "ids",
            &json_array(&rows, |out, (id, _)| push_json_str(out, id)),
        )
        .raw(
            "slots",
            &json_array(&rows, |out, (_, slots)| out.push_str(&slots.to_string())),
        );
    o.finish()
}

fn metrics_body(shared: &Shared) -> String {
    let workers = shared.config.workers.max(1);
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
    .f64("worker_utilization", busy as f64 / workers as f64)
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
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const FORK: &str = r#"{"label":"hot-1","attack_load_kw":3.0,"cap_w":95.5}"#;
    const SLOTS: &str = r#"{"slots":300}"#;

    #[test]
    fn body_readers_read_valid_bodies() {
        let (label, p) = parse_fork_body(FORK.as_bytes()).unwrap();
        assert_eq!(label.as_deref(), Some("hot-1"));
        assert_eq!((p.attack_load_kw, p.cap_w), (Some(3.0), Some(95.5)));
        assert_eq!(parse_slots_body(SLOTS.as_bytes(), 300), Ok(300));
        assert_eq!(parse_slots_body(SLOTS.as_bytes(), 299).unwrap_err().0, 413);
    }

    #[test]
    fn body_readers_answer_every_single_byte_mutation() {
        for valid in [FORK, SLOTS] {
            for i in 0..valid.len() {
                for byte in 0..=u8::MAX {
                    let mut body = valid.as_bytes().to_vec();
                    body[i] = byte;
                    let _ = parse_fork_body(&body);
                    let _ = parse_slots_body(&body, u64::MAX);
                }
            }
        }
    }

    #[test]
    fn body_readers_refuse_every_duplicated_key() {
        for field in [
            r#""label":"hot-1""#,
            r#""attack_load_kw":3.0"#,
            r#""cap_w":95.5"#,
        ] {
            let dup = format!("{{{field},{}", &FORK[1..]);
            let err = parse_fork_body(dup.as_bytes()).unwrap_err();
            assert!(err.contains("duplicate field"), "{dup}: {err}");
        }
        let (status, err) = parse_slots_body(br#"{"slots":300,"slots":3}"#, u64::MAX).unwrap_err();
        assert!(status == 400 && err.contains("duplicate field"), "{err}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn body_readers_answer_random_bytes(raw in prop::collection::vec(0u8..255, 0..64)) {
            let _ = parse_fork_body(&raw);
            let _ = parse_slots_body(&raw, u64::MAX);
            let mut braced = b"{".to_vec();
            braced.extend(&raw);
            let _ = parse_fork_body(&braced);
            let _ = parse_slots_body(&braced, u64::MAX);
        }
    }
}
