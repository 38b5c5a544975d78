//! The daemon: the shard's request handler on the transport core.
//!
//! Architecture (one paragraph): the transport core
//! ([`crate::transport`]) owns the listener, the `poll(2)` event loops
//! and a fixed pool of *compute workers*. Each loop multiplexes its
//! connections with non-blocking I/O: per-connection
//! [`crate::frame::FrameDecoder`] state machines accumulate partial
//! frames across wakeups, cheap control requests (`ping`, `stats`,
//! `shutdown`) are answered inline, and compute requests (`compile`,
//! `compile_suite`) are queued to the workers, which run this module's
//! handler — cache, canonical replay, compile — and hand the response
//! back to the owning loop for buffered, backpressured writes. Batch
//! (`compile_suite`) jobs still fan out across
//! `qcs_bench::parallel::run_claimed`, the same claim-by-atomic engine
//! the offline suite harness uses.
//!
//! The payoff over the previous thread-per-connection design: a worker
//! is occupied only while *computing*, never while a connection sits
//! idle or dribbles bytes — so slow peers cost a few hundred bytes of
//! buffer instead of a captive thread, and the daemon sustains hundreds
//! of concurrent connections with a handful of threads.
//!
//! Robustness properties, each covered by a test:
//!
//! * **Read deadline** — a frame that stalls mid-transfer earns an
//!   `error` response and a closed connection rather than a stuck loop.
//! * **Request deadline** — `deadline_ms` turns an over-budget job into
//!   an `error` response (the compile result, if any, is still cached).
//! * **Connection limit** — sockets beyond `max_connections` receive an
//!   immediate `error` frame with a `retry_after_ms` hint instead of
//!   unbounded queueing (load shedding; counted in `stats`).
//! * **Panic isolation** — a compile that panics (a compiler bug, or an
//!   injected `qcs-faults` failpoint) turns into an `error` response on
//!   that one connection; the worker, its queue and the shared cache all
//!   survive, and the panic is counted in `stats`.
//! * **Clean shutdown** — a `shutdown` request (or
//!   [`ServerHandle::shutdown`]) stops the accept loop, drains workers
//!   and event loops, and joins every thread; no thread outlives the
//!   handle. Threads that died panicking are recorded in
//!   [`ShutdownStats`] rather than re-panicking the caller.

use std::io;
use std::net::SocketAddr;
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use qcs_json::Json;
use qcs_workloads::suite::{generate_suite, SuiteConfig};

use qcs_faults::Hit;

use qcs_circuit::canon::CanonConfig;
use qcs_circuit::hash::circuit_digest;
use qcs_circuit::qasm;
use qcs_core::ladder::panic_message;
use qcs_core::verify::VerifyConfig;
use qcs_rng::SeedableRng;

use crate::cache::{CanonicalHit, CanonicalInfo, ResultCache};
use crate::compile::{run_job, CanonicalJob, Job};
use crate::fifo::FifoMap;
use crate::histogram::LatencyHistogram;
use crate::persist::Store;
use crate::protocol::{error_response, CompileRequest, Request, SuiteRequest};
use crate::transport::{lock_recovering, Core, CoreConfig, Handler, Transport, FRAME_DEADLINE};

pub use crate::transport::ShutdownStats;

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Compute worker count (threads that run compilations).
    pub workers: usize,
    /// Event-loop thread count (threads that own connections and their
    /// non-blocking I/O). Two loops are plenty up to thousands of mostly
    /// idle connections; raise it only when frame decoding itself is the
    /// bottleneck.
    pub event_loops: usize,
    /// Maximum simultaneously admitted connections.
    pub max_connections: usize,
    /// Result-cache byte budget.
    pub cache_bytes: usize,
    /// Mid-frame read deadline: a started frame must finish arriving
    /// within this budget.
    pub frame_deadline: Duration,
    /// Directory for the crash-safe persistent cache (WAL + snapshot,
    /// see [`crate::persist`]). `None` keeps the cache memory-only; with
    /// a directory, the daemon replays it at startup and comes back warm
    /// after any restart — including `kill -9`.
    pub persist_dir: Option<String>,
    /// Semantic caching: on an exact-key miss, reduce the circuit to
    /// canonical form ([`qcs_circuit::canon`]) and serve a structurally
    /// equivalent cached result — relabeled, re-verified — when one
    /// exists. Off turns the cache back into a pure exact-key store.
    pub semantic_cache: bool,
    /// Snap rotation angles to a fixed grid before canonicalizing, so
    /// near-identical parameterized circuits share a canonical identity.
    /// **Approximate serving, off by default**: bucketed hits skip the
    /// statevector equivalence re-check (deliberately — they are not
    /// exactly equivalent) and rely on the structural key guard only.
    pub bucket_angles: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: qcs_bench::default_workers().clamp(2, 16),
            event_loops: 2,
            max_connections: 64,
            cache_bytes: 64 << 20,
            frame_deadline: FRAME_DEADLINE,
            persist_dir: None,
            semantic_cache: true,
            bucket_angles: false,
        }
    }
}

/// Per-stage cold-compile histograms for one `placer/router` pipeline.
/// Separating strategies keeps the predictive deadline rejection honest:
/// a trivial/trivial compile must not be refused against a p95 that sabre
/// traffic inflated, and a sabre request must not sneak past a p95 that
/// trivial traffic diluted.
#[derive(Default)]
struct StageStats {
    decompose: LatencyHistogram,
    place: LatencyHistogram,
    route: LatencyHistogram,
    schedule: LatencyHistogram,
}

impl StageStats {
    fn record(&mut self, timing: &qcs_core::mapper::StageTiming) {
        self.decompose.record(timing.decompose_micros as u64);
        self.place.record(timing.place_micros as u64);
        self.route.record(timing.route_micros as u64);
        self.schedule.record(timing.schedule_micros as u64);
    }

    fn to_json(&self) -> Json {
        Json::object([
            ("decompose", self.decompose.to_json()),
            ("place", self.place.to_json()),
            ("route", self.route.to_json()),
            ("schedule", self.schedule.to_json()),
        ])
    }
}

/// Counters for the mapper portfolio (auto-strategy and raced jobs).
#[derive(Default)]
struct PortfolioCounters {
    /// Jobs that ran through the portfolio (cache misses only; hits
    /// never re-run the selector).
    jobs: u64,
    /// Serving mode tallies, matching `PortfolioMode::as_str`.
    selected: u64,
    raced: u64,
    cheapest: u64,
    ladder: u64,
    /// Runs where the selector panicked or was error-injected.
    selector_failed: u64,
    /// Lanes launched into races / lanes discarded across all runs.
    lanes_raced: u64,
    lanes_discarded: u64,
    /// Runs whose path was altered by the deadline budget (served but
    /// not cached).
    budget_limited: u64,
    /// Serving-lane tally by lane name (`ladder` for the last resort).
    wins: std::collections::BTreeMap<String, u64>,
}

impl PortfolioCounters {
    fn record(&mut self, report: &qcs_core::portfolio::PortfolioReport) {
        use qcs_core::portfolio::PortfolioMode;
        self.jobs += 1;
        match report.mode {
            PortfolioMode::Selected => self.selected += 1,
            PortfolioMode::Raced => self.raced += 1,
            PortfolioMode::Cheapest => self.cheapest += 1,
            PortfolioMode::Ladder => self.ladder += 1,
        }
        self.selector_failed += u64::from(report.selector_failed);
        self.lanes_raced += report.raced as u64;
        self.lanes_discarded += report.discarded as u64;
        self.budget_limited += u64::from(report.budget_limited);
        *self.wins.entry(report.lane.clone()).or_insert(0) += 1;
    }

    fn to_json(&self) -> Json {
        let wins = self
            .wins
            .iter()
            .map(|(lane, count)| (lane.clone(), Json::from(*count)))
            .collect();
        Json::object([
            ("jobs", Json::from(self.jobs)),
            ("selected", Json::from(self.selected)),
            ("raced", Json::from(self.raced)),
            ("cheapest", Json::from(self.cheapest)),
            ("ladder", Json::from(self.ladder)),
            ("selector_failed", Json::from(self.selector_failed)),
            ("lanes_raced", Json::from(self.lanes_raced)),
            ("lanes_discarded", Json::from(self.lanes_discarded)),
            ("budget_limited", Json::from(self.budget_limited)),
            ("wins", Json::Object(wins)),
        ])
    }
}

struct ServeStats {
    total: LatencyHistogram,
    /// Aggregate per-stage histograms across every strategy (the
    /// long-standing `latency_micros` members).
    stages: StageStats,
    /// The same stages keyed by the `placer/router` pipeline that
    /// actually served, for strategy-aware deadline prediction.
    by_strategy: std::collections::BTreeMap<String, StageStats>,
    portfolio: PortfolioCounters,
    /// Cost of the canonicalization stages themselves (qubit relabeling
    /// and commutation normal-ordering), recorded on every exact-key
    /// miss while semantic caching is on — the price paid for the shot
    /// at a canonical hit.
    relabel: LatencyHistogram,
    normalize: LatencyHistogram,
}

impl ServeStats {
    fn new() -> Self {
        ServeStats {
            total: LatencyHistogram::default(),
            stages: StageStats::default(),
            by_strategy: std::collections::BTreeMap::new(),
            portfolio: PortfolioCounters::default(),
            relabel: LatencyHistogram::default(),
            normalize: LatencyHistogram::default(),
        }
    }
}

/// Bound on remembered request ids: enough to catch any realistic retry
/// window, small enough to never matter for memory.
const SEEN_IDS_CAP: usize = 4096;

/// The shard's request handler: the cache, its persist store, and the
/// serving counters and histograms.
struct Shared {
    config: ServerConfig,
    jobs_served: AtomicU64,
    requests_retried: AtomicU64,
    /// Requests rejected because their end-to-end deadline budget ran
    /// out (or provably would) — total, and the subset refused *before*
    /// any compilation work was spent on them.
    deadline_rejected: AtomicU64,
    deadline_rejected_precompile: AtomicU64,
    persist_errors: AtomicU64,
    /// Requests served from a structurally equivalent cache entry (a
    /// canonical hit that passed replay + re-verification).
    canonical_hits: AtomicU64,
    /// Canonical hits that *failed* replay or re-verification and fell
    /// back to a cold compile. Nonzero means the canonical index aimed
    /// at an entry the verifier refused — always safe (the client gets
    /// a fresh compile), but worth watching.
    canonical_rejected: AtomicU64,
    /// Client request ids seen recently, for telling retries apart from
    /// new requests.
    seen_ids: Mutex<FifoMap<String>>,
    cache: Mutex<ResultCache>,
    persist: Option<Mutex<Store>>,
    stats: Mutex<ServeStats>,
}

impl Handler for Shared {
    fn stats(&self, core: &Core) -> Json {
        stats_json(self, core)
    }

    fn respond(&self, core: &Core, request: &Request, _frame: &[u8]) -> Vec<u8> {
        match request {
            Request::Compile(request) => respond_compile(self, core, request),
            Request::CompileSuite(request) => respond_suite(self, core, request),
            // Control requests are answered inline by the event loops
            // and never reach the job queue.
            Request::Stats | Request::Ping | Request::Shutdown => {
                error_response("internal error: control request routed to a compute worker")
                    .to_compact_string()
                    .into_bytes()
            }
        }
    }
}

/// The running daemon: address + thread handles.
///
/// Dropping the handle without calling [`shutdown`](ServerHandle::shutdown)
/// or [`wait`](ServerHandle::wait) detaches the threads (the daemon keeps
/// running until a protocol `shutdown` arrives).
pub struct ServerHandle {
    transport: Transport,
}

impl ServerHandle {
    /// The daemon's bound address (useful with ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.transport.local_addr()
    }

    /// Requests shutdown and joins every daemon thread.
    pub fn shutdown(self) -> ShutdownStats {
        self.transport.core().initiate_shutdown();
        self.transport.join()
    }

    /// Blocks until the daemon shuts down (via a protocol `shutdown`
    /// request) and joins every daemon thread.
    pub fn wait(self) -> ShutdownStats {
        self.transport.join()
    }
}

/// Namespace for [`Server::start`].
pub struct Server;

impl Server {
    /// Replays the persist directory (when configured), then starts the
    /// transport core — listener, event loops, compute workers, accept
    /// thread — with the shard handler, and returns a handle.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (bind failure, unparsable address) and
    /// persist-directory errors.
    pub fn start(config: ServerConfig) -> io::Result<ServerHandle> {
        // Warm restart: replay the persist directory into the in-memory
        // cache before the first connection is accepted. Recovery order
        // is LRU-faithful, so the warmed cache evicts the same way the
        // pre-crash one would have.
        let mut cache = ResultCache::new(config.cache_bytes);
        let persist = match &config.persist_dir {
            Some(dir) => {
                let (store, recovered) = Store::open(Path::new(dir))?;
                for record in recovered {
                    // v2 records re-warm the canonical index too, so a
                    // restarted daemon serves canonical hits immediately.
                    cache.insert_with_canonical(
                        record.digest,
                        record.key,
                        record.payload,
                        record.canonical,
                    );
                }
                Some(Mutex::new(store))
            }
            None => None,
        };

        let core_config = CoreConfig {
            name: "qcs-serve",
            addr: config.addr.clone(),
            event_loops: config.event_loops,
            max_connections: config.max_connections,
            frame_deadline: config.frame_deadline,
            eager_workers: config.workers,
            max_workers: config.workers,
        };
        let shared = Arc::new(Shared {
            config,
            jobs_served: AtomicU64::new(0),
            requests_retried: AtomicU64::new(0),
            deadline_rejected: AtomicU64::new(0),
            deadline_rejected_precompile: AtomicU64::new(0),
            persist_errors: AtomicU64::new(0),
            canonical_hits: AtomicU64::new(0),
            canonical_rejected: AtomicU64::new(0),
            seen_ids: Mutex::new(FifoMap::new(SEEN_IDS_CAP)),
            cache: Mutex::new(cache),
            persist,
            stats: Mutex::new(ServeStats::new()),
        });
        Ok(ServerHandle {
            transport: Transport::start(core_config, shared)?,
        })
    }
}

/// A client-presentable serving error, optionally carrying a
/// machine-readable code (today only
/// [`crate::protocol::CODE_DEADLINE_EXCEEDED`]).
struct ServeError {
    code: Option<&'static str>,
    message: String,
}

impl ServeError {
    fn plain(message: impl Into<String>) -> ServeError {
        ServeError {
            code: None,
            message: message.into(),
        }
    }

    fn deadline(message: impl Into<String>) -> ServeError {
        ServeError {
            code: Some(crate::protocol::CODE_DEADLINE_EXCEEDED),
            message: message.into(),
        }
    }

    fn response(&self) -> Json {
        match self.code {
            Some(code) => crate::protocol::coded_error_response(code, self.message.clone()),
            None => error_response(self.message.clone()),
        }
    }
}

/// Minimum cold compiles a histogram needs before its p95 is trusted
/// for predictive rejection.
const MIN_PREDICTION_OBSERVATIONS: u64 = 8;

/// Sum of the per-stage p95 upper bounds of `stages`, or 0 until enough
/// cold compiles have been observed to trust it. Stage histograms record
/// *misses only* (hits skip them entirely), so this never inflates from
/// cache traffic.
fn stage_p95_sum(stages: &StageStats) -> u64 {
    if stages.decompose.count() < MIN_PREDICTION_OBSERVATIONS {
        return 0;
    }
    stages.decompose.quantile_upper_micros(0.95)
        + stages.place.quantile_upper_micros(0.95)
        + stages.route.quantile_upper_micros(0.95)
        + stages.schedule.quantile_upper_micros(0.95)
}

/// The cold-compile cost a fresh miss should be budgeted for,
/// strategy-aware: the requested pipeline's own per-stage p95s when that
/// strategy has been observed enough, otherwise the cross-strategy
/// aggregate (which a trained strategy histogram always refines — a
/// sabre request is judged against sabre history, not against a p95
/// diluted by trivial traffic).
fn predicted_cold_micros(stats: &ServeStats, strategy: &str) -> u64 {
    match stats.by_strategy.get(strategy) {
        Some(stages) => {
            let own = stage_p95_sum(stages);
            if own > 0 {
                own
            } else {
                stage_p95_sum(&stats.stages)
            }
        }
        None => stage_p95_sum(&stats.stages),
    }
}

/// Compiles one job through the cache; returns the canonical payload or
/// a client-presentable error. Records histograms and counters.
///
/// Deadline discipline: `deadline_ms` is the request's *remaining*
/// end-to-end budget (the router already subtracted its own elapsed
/// time). A cache miss whose remaining budget cannot cover the requested
/// strategy's observed per-stage p95 cold cost is refused up front — a
/// structured `deadline_exceeded` beats burning a worker on a doomed
/// job. Portfolio (`auto`/`race`) jobs are never deadline-rejected:
/// their remaining budget flows into the racing engine, which degrades
/// *inside* it and always returns a verified result.
fn compile_via_cache(
    shared: &Shared,
    request: &CompileRequest,
) -> Result<Arc<Vec<u8>>, ServeError> {
    let started = Instant::now();
    let deadline = request.deadline_ms.map(Duration::from_millis);
    let over_deadline = |when: &str| {
        deadline
            .filter(|&d| started.elapsed() > d)
            .map(|d| format!("deadline of {} ms exceeded {when}", d.as_millis()))
    };

    let mut job = Job::resolve(request).map_err(|e| ServeError::plain(e.to_string()))?;
    // Chaos-test failpoint, deliberately *before* the cache lookup so
    // every request — cache hit or miss — can be made to fail. Panics
    // unwind into `respond_compile`'s isolation; triggers mutate the job
    // (e.g. a `degrade:...` calibration outage).
    match qcs_faults::hit("serve.worker.job") {
        Hit::Pass => {}
        Hit::Error(message) => return Err(ServeError::plain(format!("injected fault: {message}"))),
        Hit::Triggered(tag) => job
            .apply_trigger(&tag)
            .map_err(|e| ServeError::plain(e.to_string()))?,
    }
    let digest = job.digest();
    let full_key = job.full_key();

    let cached = lock_recovering(&shared.cache).get(digest, &full_key);
    // On an exact miss, try the semantic layer: a canonical-form hit is
    // replayed (relabeled + re-verified) and served; otherwise the
    // canonical identity is kept so the cold compile below can register
    // it for future twins.
    let (cached, canonical_job) = match cached {
        Some(payload) => (Some(payload), None),
        None => try_canonical(shared, &job, digest, &full_key),
    };
    let payload = match cached {
        Some(payload) => payload,
        None => {
            // Predictive rejection applies to fixed-pipeline jobs only:
            // a portfolio job spends whatever budget is left degrading
            // gracefully instead of being refused.
            if !job.portfolio() {
                if let Some(message) = over_deadline("before compilation started") {
                    shared.deadline_rejected.fetch_add(1, Ordering::SeqCst);
                    shared
                        .deadline_rejected_precompile
                        .fetch_add(1, Ordering::SeqCst);
                    return Err(ServeError::deadline(message));
                }
                if let Some(d) = deadline {
                    let remaining = d.saturating_sub(started.elapsed());
                    let strategy = format!("{}/{}", job.config.placer, job.config.router);
                    let predicted =
                        predicted_cold_micros(&lock_recovering(&shared.stats), &strategy);
                    if predicted > 0 && Duration::from_micros(predicted) > remaining {
                        shared.deadline_rejected.fetch_add(1, Ordering::SeqCst);
                        shared
                            .deadline_rejected_precompile
                            .fetch_add(1, Ordering::SeqCst);
                        return Err(ServeError::deadline(format!(
                            "remaining budget of {} ms cannot cover {strategy}'s observed \
                             cold-compile p95 of {} us; rejected before compilation",
                            remaining.as_millis(),
                            predicted
                        )));
                    }
                }
            }
            let remaining = deadline.map(|d| d.saturating_sub(started.elapsed()));
            let output = crate::compile::run_job_with_deadline(&job, remaining)
                .map_err(|e| ServeError::plain(e.to_string()))?;
            let payload = Arc::new(output.payload);
            if output.cacheable {
                // The fresh entry registers its canonical identity (when
                // semantic caching computed one) so structurally
                // equivalent future requests can hit it.
                let info = canonical_job.map(|cjob| CanonicalInfo {
                    digest: cjob.digest,
                    key: Arc::new(cjob.key),
                    relabel: Arc::new(cjob.form.relabel),
                    initial_layout: Arc::new(output.initial_layout.clone()),
                    final_layout: Arc::new(output.final_layout.clone()),
                });
                lock_recovering(&shared.cache).insert_with_canonical(
                    digest,
                    full_key.clone(),
                    payload.as_ref().clone(),
                    info.clone(),
                );
                persist_entry(shared, digest, &full_key, &payload, info.as_ref());
            }
            let timing = output.timing;
            let mut stats = lock_recovering(&shared.stats);
            stats.stages.record(&timing);
            stats
                .by_strategy
                .entry(output.strategy.clone())
                .or_default()
                .record(&timing);
            if let Some(report) = &output.portfolio {
                stats.portfolio.record(report);
            }
            payload
        }
    };

    shared.jobs_served.fetch_add(1, Ordering::SeqCst);
    lock_recovering(&shared.stats)
        .total
        .record(started.elapsed().as_micros() as u64);

    // A portfolio job that got this far produced a verified result
    // inside its budget by construction; only fixed-pipeline jobs can
    // finish over-deadline and be turned into a structured rejection.
    if !job.portfolio() {
        if let Some(message) = over_deadline("by the finished job") {
            shared.deadline_rejected.fetch_add(1, Ordering::SeqCst);
            return Err(ServeError::deadline(message));
        }
    }
    Ok(payload)
}

/// Semantic-cache lookup after an exact-key miss. Canonicalizes the
/// job (recording the stage costs), probes the canonical index, and on
/// a hit replays the cached twin's result for this circuit. Returns the
/// served payload, or — on a semantic miss — the canonical identity for
/// the cold compile to register with its fresh entry.
fn try_canonical(
    shared: &Shared,
    job: &Job,
    exact_digest: u64,
    exact_key: &[u8],
) -> (Option<Arc<Vec<u8>>>, Option<CanonicalJob>) {
    if !shared.config.semantic_cache {
        return (None, None);
    }
    let canon_config = CanonConfig {
        bucket_angles: shared.config.bucket_angles,
        ..CanonConfig::default()
    };
    let cjob = job.canonicalize(&canon_config);
    {
        let mut stats = lock_recovering(&shared.stats);
        stats.relabel.record(cjob.form.relabel_micros);
        stats.normalize.record(cjob.form.normalize_micros);
    }
    let hit = lock_recovering(&shared.cache).get_canonical(cjob.digest, &cjob.key);
    let Some(hit) = hit else {
        return (None, Some(cjob));
    };
    match replay_canonical(job, &cjob, &hit, shared.config.bucket_angles) {
        Ok(replay) => {
            shared.canonical_hits.fetch_add(1, Ordering::SeqCst);
            let payload = Arc::new(replay.payload);
            // Promote: the twin's result now also lives under *this*
            // job's exact identity, carrying its own relabeling and
            // layouts — the next rename of the same structure can chain
            // through it.
            let info = CanonicalInfo {
                digest: cjob.digest,
                key: Arc::new(cjob.key),
                relabel: Arc::new(cjob.form.relabel),
                initial_layout: Arc::new(replay.initial_layout),
                final_layout: Arc::new(replay.final_layout),
            };
            lock_recovering(&shared.cache).insert_with_canonical(
                exact_digest,
                exact_key.to_vec(),
                payload.as_ref().clone(),
                Some(info.clone()),
            );
            persist_entry(shared, exact_digest, exact_key, &payload, Some(&info));
            (Some(payload), None)
        }
        Err(_reason) => {
            // The replay refused (stale entry shape, failed equivalence,
            // panicking simulator). Fall back to a cold compile — the
            // client always gets a verified fresh result — and surface
            // the event in stats.
            shared.canonical_rejected.fetch_add(1, Ordering::SeqCst);
            (None, Some(cjob))
        }
    }
}

/// A successfully replayed canonical hit: the rewritten payload plus
/// the incoming twin's own layouts.
struct CanonicalReplay {
    payload: Vec<u8>,
    initial_layout: Vec<usize>,
    final_layout: Vec<usize>,
}

/// Replays a canonical hit for an incoming twin: composes the cached
/// mapping through both relabelings, re-verifies the mapped circuit
/// against *this* job's circuit, and rewrites the payload's identity
/// fields (digest, circuit name). Returns the payload bytes plus the
/// twin's own initial/final layouts.
///
/// # Errors
///
/// A one-line reason whenever anything about the cached entry cannot be
/// proven right for this circuit; the caller falls back to compiling.
fn replay_canonical(
    job: &Job,
    cjob: &CanonicalJob,
    hit: &CanonicalHit,
    bucket_angles: bool,
) -> Result<CanonicalReplay, String> {
    let width = job.circuit.qubit_count();
    let r_b = &cjob.form.relabel;
    if r_b.len() != width
        || hit.relabel.len() != width
        || hit.initial_layout.len() != width
        || hit.final_layout.len() != width
    {
        return Err("cached canonical entry width mismatch".to_string());
    }
    // Invert the cached twin's relabeling (original A → canonical).
    let mut inv_a = vec![usize::MAX; width];
    for (old, &new) in hit.relabel.iter().enumerate() {
        if new >= width || inv_a[new] != usize::MAX {
            return Err("cached relabeling is not a permutation".to_string());
        }
        inv_a[new] = old;
    }
    // This circuit's qubit v names the same wire as canonical qubit
    // r_b[v], which is the twin's qubit inv_a[r_b[v]] — so v inherits
    // that qubit's physical assignment.
    let mut initial = vec![0usize; width];
    let mut final_layout = vec![0usize; width];
    for v in 0..width {
        let c = r_b[v];
        if c >= width {
            return Err("relabeling out of range".to_string());
        }
        let a = inv_a[c];
        initial[v] = hit.initial_layout[a];
        final_layout[v] = hit.final_layout[a];
    }

    let text = std::str::from_utf8(&hit.payload).map_err(|e| format!("payload not UTF-8: {e}"))?;
    let mut value = qcs_json::parse(text).map_err(|e| format!("payload not JSON: {e}"))?;
    let qasm_text = value
        .get("qasm")
        .and_then(Json::as_str)
        .ok_or_else(|| "payload carries no qasm".to_string())?;

    // Statevector re-verification on small devices, with the cold-path
    // verifier's own limits: the cached *mapped* circuit, under the
    // composed layouts, must implement this request's circuit. Wider
    // devices rely on the structural guarantee alone (byte-identical
    // canonical key, bijective relabeling), and bucketed angles are
    // deliberately not exactly equivalent, so that opt-in mode does too.
    let limits = VerifyConfig::default();
    let device_qubits = job.backend.qubit_count();
    if !bucket_angles && device_qubits <= limits.equiv_max_qubits {
        let native = qasm::parse(qasm_text).map_err(|e| format!("cached qasm rejected: {e}"))?;
        let seed = circuit_digest(&job.circuit) ^ 0x5345_4D43; // "SEMC"
        let verdict = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut rng = qcs_rng::ChaCha8Rng::seed_from_u64(seed);
            qcs_sim::equiv::mapped_equivalent(
                &job.circuit,
                &native,
                device_qubits,
                &initial,
                &final_layout,
                limits.equiv_trials,
                &mut rng,
            )
        }));
        match verdict {
            Ok(Ok(())) => {}
            Ok(Err(e)) => return Err(format!("replayed mapping failed re-verification: {e}")),
            Err(_) => return Err("re-verification panicked".to_string()),
        }
    }

    // The payload's identity fields describe the twin; rewrite them for
    // this request so clients see their own digest and circuit name.
    value.set("digest", format!("{:016x}", job.digest()));
    if let Some(report) = value.get("report") {
        let mut report = report.clone();
        report.set("circuit_name", job.circuit.name().to_string());
        value.set("report", report);
    }
    Ok(CanonicalReplay {
        payload: value.to_compact_string().into_bytes(),
        initial_layout: initial,
        final_layout,
    })
}

/// Durably logs a fresh cache entry into the persist store (when one is
/// configured), folding the WAL into a snapshot once it outgrows the
/// threshold. Persistence failures are counted in `persist_errors` but
/// never fail the request: the daemon keeps serving from memory.
fn persist_entry(
    shared: &Shared,
    digest: u64,
    key: &[u8],
    payload: &[u8],
    canonical: Option<&CanonicalInfo>,
) {
    let Some(persist) = &shared.persist else {
        return;
    };
    let mut store = lock_recovering(persist);
    if store.append(digest, key, payload, canonical).is_err() {
        shared.persist_errors.fetch_add(1, Ordering::SeqCst);
    }
    if store.should_compact() {
        let entries = lock_recovering(&shared.cache).entries_by_recency();
        if store.compact(&entries).is_err() {
            shared.persist_errors.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// The canonical payload with the client's request id spliced in as the
/// first member. The cached bytes stay id-free (they are shared across
/// clients); only this one response copy carries the echo.
fn payload_with_request_id(payload: &[u8], id: &str) -> Vec<u8> {
    let id_json = Json::from(id.to_string()).to_compact_string();
    let mut out = Vec::with_capacity(payload.len() + id_json.len() + 16);
    out.extend_from_slice(b"{\"request_id\":");
    out.extend_from_slice(id_json.as_bytes());
    out.push(b',');
    out.extend_from_slice(&payload[1..]);
    out
}

/// Prepends a `request_id` member to an error-shaped response when the
/// request carried one.
fn tag_request_id(value: Json, id: &Option<String>) -> Json {
    match (value, id) {
        (Json::Object(mut members), Some(id)) => {
            members.insert(0, ("request_id".to_string(), Json::from(id.clone())));
            Json::Object(members)
        }
        (value, _) => value,
    }
}

/// Serves one `compile` request, returning the response payload bytes
/// (unframed — the owning event loop adds the length prefix).
fn respond_compile(shared: &Shared, core: &Core, request: &CompileRequest) -> Vec<u8> {
    // A request id seen before marks a client retry — worth counting
    // separately from organic traffic when reading stats after an
    // incident.
    if let Some(id) = &request.request_id {
        let mut seen = lock_recovering(&shared.seen_ids);
        if seen.contains(id.as_str()) {
            shared.requests_retried.fetch_add(1, Ordering::SeqCst);
        } else {
            seen.insert(id.clone(), ());
        }
    }
    // Panic isolation: a compile that panics — a pipeline bug or an
    // injected failpoint — becomes a structured error frame on this one
    // connection. The worker, the job queue and the cache all survive,
    // and the shared locks recover from any poisoning the unwind caused.
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| compile_via_cache(shared, request)));
    match outcome {
        Ok(Ok(payload)) => match &request.request_id {
            Some(id) => payload_with_request_id(&payload, id),
            None => payload.as_ref().clone(),
        },
        Ok(Err(err)) => tag_request_id(err.response(), &request.request_id)
            .to_compact_string()
            .into_bytes(),
        Err(panic) => {
            core.jobs_panicked.fetch_add(1, Ordering::SeqCst);
            let message = format!("compilation panicked: {}", panic_message(panic.as_ref()));
            tag_request_id(error_response(message), &request.request_id)
                .to_compact_string()
                .into_bytes()
        }
    }
}

/// Serves one `compile_suite` request, returning the response payload
/// bytes (unframed).
fn respond_suite(shared: &Shared, core: &Core, request: &SuiteRequest) -> Vec<u8> {
    if request.count == 0 || request.count > 10_000 {
        return error_response("suite count must be in 1..=10000")
            .to_compact_string()
            .into_bytes();
    }
    let backend = match crate::catalog::resolve_backend(&request.device) {
        Ok(backend) => backend,
        Err(e) => {
            return error_response(e.to_string())
                .to_compact_string()
                .into_bytes()
        }
    };
    let benchmarks = generate_suite(&SuiteConfig {
        count: request.count,
        max_qubits: request.max_qubits,
        max_gates: request.max_gates,
        seed: request.seed,
    });

    // Fan the batch across the claim-by-atomic pool; each item goes
    // through the same cache path as a single request, and the slot
    // discipline keeps results in deterministic input order.
    let results = qcs_bench::run_claimed(&benchmarks, shared.config.workers, |_, benchmark| {
        let job = Job {
            circuit: benchmark.circuit.clone(),
            backend: backend.clone(),
            config: request.config.clone(),
            race: false,
        };
        let digest = job.digest();
        let full_key = job.full_key();
        let cached = lock_recovering(&shared.cache).get(digest, &full_key);
        let outcome: Result<Arc<Vec<u8>>, String> = match cached {
            Some(payload) => Ok(payload),
            None => {
                // Same panic isolation as the single-compile path: one
                // panicking benchmark yields one error row, not a dead
                // batch engine.
                match std::panic::catch_unwind(AssertUnwindSafe(|| run_job(&job))) {
                    Ok(Ok(output)) => {
                        let payload = Arc::new(output.payload);
                        // Suite jobs run unbounded, so portfolio results
                        // here are always complete — but honor the flag
                        // anyway so the invariant lives in one place.
                        if output.cacheable {
                            lock_recovering(&shared.cache).insert(
                                digest,
                                full_key.clone(),
                                payload.as_ref().clone(),
                            );
                            persist_entry(shared, digest, &full_key, &payload, None);
                        }
                        if let Some(report) = &output.portfolio {
                            lock_recovering(&shared.stats).portfolio.record(report);
                        }
                        Ok(payload)
                    }
                    Ok(Err(e)) => Err(e.to_string()),
                    Err(panic) => {
                        core.jobs_panicked.fetch_add(1, Ordering::SeqCst);
                        Err(format!(
                            "compilation panicked: {}",
                            panic_message(panic.as_ref())
                        ))
                    }
                }
            }
        };
        match outcome {
            Ok(payload) => {
                shared.jobs_served.fetch_add(1, Ordering::SeqCst);
                let text = std::str::from_utf8(&payload).expect("payloads are UTF-8");
                let value = qcs_json::parse(text).expect("payloads are valid JSON");
                Json::object([
                    ("name", Json::from(benchmark.name.clone())),
                    ("result", value),
                ])
            }
            Err(message) => Json::object([
                ("name", Json::from(benchmark.name.clone())),
                ("result", error_response(message)),
            ]),
        }
    });

    let response = Json::object([
        ("type", Json::from("suite_result")),
        ("results", Json::Array(results)),
    ]);
    response.to_compact_string().into_bytes()
}

fn stats_json(shared: &Shared, core: &Core) -> Json {
    let cache = lock_recovering(&shared.cache).stats();
    let stats = lock_recovering(&shared.stats);
    let mut value = Json::object([
        ("type", Json::from("stats")),
        (
            "jobs",
            Json::from(shared.jobs_served.load(Ordering::SeqCst)),
        ),
        (
            "active_connections",
            Json::from(core.active.load(Ordering::SeqCst)),
        ),
        (
            "requests_retried",
            Json::from(shared.requests_retried.load(Ordering::SeqCst)),
        ),
        (
            "deadline",
            Json::object([
                (
                    "rejected",
                    Json::from(shared.deadline_rejected.load(Ordering::SeqCst)),
                ),
                (
                    "rejected_precompile",
                    Json::from(shared.deadline_rejected_precompile.load(Ordering::SeqCst)),
                ),
                (
                    "predicted_cold_micros",
                    Json::from(stage_p95_sum(&stats.stages)),
                ),
                (
                    "predicted_cold_micros_by_strategy",
                    Json::Object(
                        stats
                            .by_strategy
                            .iter()
                            .map(|(strategy, stages)| {
                                (strategy.clone(), Json::from(stage_p95_sum(stages)))
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
        ("portfolio", stats.portfolio.to_json()),
        ("transport", core.transport_json()),
        (
            "faults",
            Json::object([
                (
                    "jobs_panicked",
                    Json::from(core.jobs_panicked.load(Ordering::SeqCst)),
                ),
                (
                    "connections_panicked",
                    Json::from(core.connections_panicked.load(Ordering::SeqCst)),
                ),
                (
                    "connections_shed",
                    Json::from(core.connections_shed.load(Ordering::SeqCst)),
                ),
                (
                    "transport_faults",
                    Json::from(core.transport_faults.load(Ordering::SeqCst)),
                ),
            ]),
        ),
        (
            "cache",
            Json::object([
                ("hits", Json::from(cache.hits)),
                ("misses", Json::from(cache.misses)),
                ("evictions", Json::from(cache.evictions)),
                ("hash_conflicts", Json::from(cache.hash_conflicts)),
                ("entries", Json::from(cache.entries)),
                ("bytes", Json::from(cache.bytes)),
                ("hit_rate", Json::from(cache.hit_rate())),
            ]),
        ),
        (
            "semantic",
            Json::object([
                ("enabled", Json::from(shared.config.semantic_cache)),
                ("bucket_angles", Json::from(shared.config.bucket_angles)),
                (
                    "canonical_hits",
                    Json::from(shared.canonical_hits.load(Ordering::SeqCst)),
                ),
                ("exact_hits", Json::from(cache.hits)),
                // Requests that missed both layers (the cache counts a
                // canonically-served request as an exact miss first).
                (
                    "misses",
                    Json::from(
                        cache
                            .misses
                            .saturating_sub(shared.canonical_hits.load(Ordering::SeqCst)),
                    ),
                ),
                (
                    "canonical_rejected",
                    Json::from(shared.canonical_rejected.load(Ordering::SeqCst)),
                ),
                ("canonical_conflicts", Json::from(cache.canonical_conflicts)),
                ("canonical_entries", Json::from(cache.canonical_entries)),
                ("relabel_micros", stats.relabel.to_json()),
                ("normalize_micros", stats.normalize.to_json()),
            ]),
        ),
        (
            "latency_micros",
            Json::object([
                ("total", stats.total.to_json()),
                ("decompose", stats.stages.decompose.to_json()),
                ("place", stats.stages.place.to_json()),
                ("route", stats.stages.route.to_json()),
                ("schedule", stats.stages.schedule.to_json()),
                (
                    "by_strategy",
                    Json::Object(
                        stats
                            .by_strategy
                            .iter()
                            .map(|(strategy, stages)| (strategy.clone(), stages.to_json()))
                            .collect(),
                    ),
                ),
            ]),
        ),
    ]);
    if let Some(persist) = &shared.persist {
        let p = lock_recovering(persist).stats();
        if let Json::Object(members) = &mut value {
            members.push((
                "persist".to_string(),
                Json::object([
                    ("records_recovered", Json::from(p.records_recovered)),
                    (
                        "legacy_records_recovered",
                        Json::from(p.legacy_records_recovered),
                    ),
                    (
                        "corrupt_records_skipped",
                        Json::from(p.corrupt_records_skipped),
                    ),
                    ("torn_tails_truncated", Json::from(p.torn_tails_truncated)),
                    ("appends", Json::from(p.appends)),
                    (
                        "append_errors",
                        Json::from(shared.persist_errors.load(Ordering::SeqCst)),
                    ),
                    ("compactions", Json::from(p.compactions)),
                    ("wal_bytes", Json::from(p.wal_bytes)),
                    ("snapshot_bytes", Json::from(p.snapshot_bytes)),
                ]),
            ));
        }
    }
    value
}
