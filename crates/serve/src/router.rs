//! The sharding front-end: consistent-hash request routing across a
//! fleet of `qcs-serve` daemon shards.
//!
//! One compilation cache per daemon stops scaling the moment one host's
//! worker pool saturates. The router splits the keyspace instead of the
//! cache: every `compile` / `compile_suite` request is hashed by its
//! *job identity* (source + device + mapper config — the same fields
//! that feed the shard's own cache key) and forwarded to the shard that
//! owns that point on a consistent-hash ring. Identical requests always
//! land on the same shard, so each shard's LRU cache stays hot for its
//! slice of the keyspace and the fleet-wide hit rate matches a single
//! giant cache without any cross-shard coordination.
//!
//! **Transport.** The router runs on the same transport core as a shard
//! ([`crate::transport`]): its client sockets live in the `event.rs`
//! `poll(2)` loop, which decodes frames, answers `ping`/`stats`/
//! `shutdown` inline, enforces the mid-frame read deadline, and queues
//! each `compile`/`compile_suite` — parsed request plus raw frame bytes
//! — to a worker. The worker computes the routing key and runs the
//! blocking forward below. The transport is fixed in code: one event
//! loop, the shard's default 5 s frame deadline, no connection cap. The
//! worker pool starts empty and spawns a thread only when a forward is
//! queued and no worker is idle, up to [`RouterConfig::max_in_flight`] ×
//! shard count — the most forwards the admission windows can hold — so
//! the router's threads track concurrent forwards, not connections.
//! Upstream sockets sit in one idle list per shard: a forward checks one
//! out and back in after a clean exchange, so connections to a shard are
//! bounded by the forwards in flight to it.
//!
//! **The ring.** Each shard contributes [`RouterConfig::replicas`]
//! virtual nodes — FNV-1a points on a sorted `u64` circle. A request key
//! binary-searches to its successor point and walks clockwise; the walk
//! order enumerates every shard exactly once (first visit wins), so the
//! first *healthy* shard on the walk is the owner and the rest form the
//! deterministic fallback order. Virtual nodes keep the load split even
//! (±a few percent at 64 replicas) and minimize keyspace movement when
//! a shard dies: only the dead shard's slice reroutes.
//!
//! **Failure handling.** Forwarding is retried down the walk order: a
//! shard that refuses connections or breaks mid-exchange is marked
//! unhealthy, its idle connections dropped, and the request replayed to
//! the next candidate. Replaying is safe because shard requests are
//! idempotent — compilation is a pure function plus a cache. A
//! background probe thread pings every shard around each
//! [`RouterConfig::health_interval`] (with jitter, and exponential
//! backoff while a shard stays down, so a fleet of routers never
//! thundering-herds a recovering shard) and readmits an unhealthy shard
//! only after **two consecutive** probe successes. `kill -9` on a shard
//! under load therefore costs zero accepted requests —
//! `ci_shard_smoke.sh` enforces exactly that.
//!
//! **Circuit breakers.** Health probes are a 250ms-granularity liveness
//! signal; request outcomes are faster and richer. Each shard also has a
//! closed→open→half-open breaker driven by consecutive forward failures:
//! an open breaker takes the shard out of the primary rotation until its
//! cooldown expires, then admits exactly one half-open probe request
//! whose outcome closes or re-opens it (with doubled cooldown). The
//! fallback pass ignores breakers — in a total outage the router still
//! tries everything rather than failing fast on principle.
//!
//! **Hedged retries.** A request whose key has been served before is
//! *cache-hit class*: the owning shard will answer from its LRU in
//! microseconds unless something is wrong with it. For those requests
//! the router arms a hedge: if the owner has not answered within a
//! p99-derived delay, the same request is fired at the next healthy
//! shard and the first response wins (the loser's connection is dropped
//! — a response may not be reused out of order). Hedging is restricted
//! to hit-class requests because duplicating a *cold* compile would
//! double real work for latency that is dominated by the compile itself.
//!
//! **Admission control.** Each shard has a bounded in-flight window at
//! the router ([`RouterConfig::max_in_flight`]): a shard that stops
//! answering cannot accumulate an unbounded pile of router-side
//! connections, it simply drops out of the rotation until responses (or
//! timeouts) drain its window. When *every* shard's window is full the
//! client gets a `retry_after_ms` shed response.
//!
//! **Deadline propagation.** A `deadline_ms` on a compile request is the
//! request's *total* end-to-end budget. The router subtracts its own
//! elapsed time and rewrites the member to the remaining budget before
//! each forward attempt, so the shard sees only what is actually left;
//! a budget that is already exhausted is refused up front with a
//! structured `deadline_exceeded` error instead of burning a forward on
//! it. Whether a live budget will suffice is predicted at one hop only:
//! the shard, which holds the per-stage cost evidence.
//!
//! **What the router answers itself.** `ping` (liveness), `stats` (its
//! own counters plus per-shard health — shard cache stats come from the
//! shards directly), and `shutdown` (stops the router; shards are
//! independent processes with their own lifecycle).

use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qcs_circuit::hash::Fnv64;
use qcs_json::Json;
use qcs_rng::{RngCore, SplitMix64};
use qcs_sys::{poll_fds, PollFd, POLLIN};

use crate::fifo::FifoMap;
use crate::histogram::LatencyHistogram;
use crate::protocol::{
    deadline_response, error_response, read_frame, rewrite_deadline_ms, shed_response, write_frame,
    write_json, Request, Source,
};
use crate::transport::{
    lock_recovering, Core, CoreConfig, Handler, Transport, FRAME_DEADLINE, POLL_INTERVAL,
};

/// Tuning knobs for [`Router::start`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Shard daemon addresses (`host:port`), in declaration order. Ring
    /// positions depend only on the index, so a config listing the same
    /// shards in the same order always produces the same routing.
    pub shards: Vec<String>,
    /// Virtual nodes per shard on the consistent-hash ring.
    pub replicas: usize,
    /// Baseline probe cadence; actual probes add deterministic jitter
    /// and back off exponentially while a shard stays down.
    pub health_interval: Duration,
    /// Cap on the unhealthy-probe backoff.
    pub probe_backoff_max: Duration,
    /// Budget for opening a connection to a shard.
    pub connect_timeout: Duration,
    /// Budget for one forwarded request's response (compiles included).
    pub io_timeout: Duration,
    /// Consecutive forward failures that trip a shard's breaker open.
    pub breaker_threshold: u32,
    /// First open-state cooldown; doubles on each failed half-open
    /// probe, up to [`RouterConfig::breaker_cooldown_max`].
    pub breaker_cooldown: Duration,
    /// Cap on the breaker cooldown growth.
    pub breaker_cooldown_max: Duration,
    /// Fixed hedge delay for cache-hit-class requests. `None` derives it
    /// from the observed hit-class forward p99 (clamped to
    /// [1ms, 100ms]); `Some(d)` pins it (benches pin it high so hedges
    /// never fire nondeterministically).
    pub hedge_after: Option<Duration>,
    /// Hit-class latency observations required before a derived hedge
    /// delay is trusted.
    pub hedge_min_observations: u64,
    /// Per-shard bound on requests the router allows in flight.
    pub max_in_flight: usize,
    /// Seed for deterministic probe jitter.
    pub jitter_seed: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: Vec::new(),
            replicas: 64,
            health_interval: Duration::from_millis(250),
            probe_backoff_max: Duration::from_secs(2),
            connect_timeout: Duration::from_secs(1),
            io_timeout: Duration::from_secs(120),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(250),
            breaker_cooldown_max: Duration::from_secs(5),
            hedge_after: None,
            hedge_min_observations: 32,
            max_in_flight: 32,
            jitter_seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

/// A consistent-hash ring over shard indices.
///
/// Pure data: health filtering happens at walk time, so the ring itself
/// never changes after construction (no rehashing, no locks).
struct HashRing {
    /// `(point, shard_idx)` sorted by point.
    points: Vec<(u64, usize)>,
    shard_count: usize,
}

impl HashRing {
    fn new(shard_count: usize, replicas: usize) -> HashRing {
        let mut points: Vec<(u64, usize)> = (0..shard_count)
            .flat_map(|shard| {
                (0..replicas.max(1)).map(move |replica| {
                    let mut h = Fnv64::new();
                    h.write_str("qcs-router-ring")
                        .write_usize(shard)
                        .write_usize(replica);
                    (h.finish(), shard)
                })
            })
            .collect();
        points.sort_unstable();
        HashRing {
            points,
            shard_count,
        }
    }

    /// Shard indices in ring-walk order from `key`'s successor point:
    /// each shard appears exactly once, the owner first.
    fn walk(&self, key: u64) -> Vec<usize> {
        let start = self
            .points
            .partition_point(|&(point, _)| point < key)
            .checked_rem(self.points.len())
            .unwrap_or(0);
        let mut seen = vec![false; self.shard_count];
        let mut order = Vec::with_capacity(self.shard_count);
        for offset in 0..self.points.len() {
            let (_, shard) = self.points[(start + offset) % self.points.len()];
            if !seen[shard] {
                seen[shard] = true;
                order.push(shard);
                if order.len() == self.shard_count {
                    break;
                }
            }
        }
        order
    }
}

/// Bound on the canonical-route-key memo: enough to cover any realistic
/// working set of distinct request texts, small enough to never matter
/// for memory (two u64 per entry).
pub(crate) const CANON_KEY_MEMO_CAP: usize = 16_384;

/// The *semantic* routing key for single compiles: the job's canonical
/// digest (see [`crate::compile::Job::canonicalize`]), so structurally
/// equivalent requests — renamed, relabeled, reordered — land on the
/// same shard and hit that shard's semantic cache instead of warming a
/// cold twin elsewhere. Falls back to the plain text-hash key when the
/// request does not resolve (the shard will reject it with a proper
/// error anyway). Other request kinds keep the text-hash key.
fn semantic_route_key(request: &Request, shared: &RouterShared) -> u64 {
    let text_key = route_key(request);
    let Request::Compile(_) = request else {
        return text_key;
    };
    if let Some(&known) = lock_recovering(&shared.canon_keys).get(&text_key) {
        return known;
    }
    let canon_key = canonical_route_key(request).unwrap_or(text_key);
    lock_recovering(&shared.canon_keys).insert(text_key, canon_key);
    canon_key
}

/// The canonical routing key of a single compile, or `None` when the
/// request does not resolve to a job.
fn canonical_route_key(request: &Request) -> Option<u64> {
    let Request::Compile(c) = request else {
        return None;
    };
    let job = crate::compile::Job::resolve(c).ok()?;
    Some(
        job.canonicalize(&qcs_circuit::canon::CanonConfig::default())
            .digest,
    )
}

/// The routing key: a stable hash of the fields that determine which
/// shard's cache a request belongs to. Mirrors the shard-side cache key
/// inputs (source, device, mapper config) without resolving the circuit,
/// so the router never parses QASM or generates workloads.
fn route_key(request: &Request) -> u64 {
    let mut h = Fnv64::new();
    match request {
        Request::Compile(c) => {
            h.write_str("compile");
            match &c.source {
                Source::Qasm(text) => h.write_str("qasm").write_str(text),
                Source::Workload(spec) => h.write_str("workload").write_str(spec),
            };
            h.write_str(&c.device)
                .write_str(&c.config.placer)
                .write_str(&c.config.router);
            if c.race {
                // Forced races are a distinct cache identity shard-side
                // (see `Job::digest`), so they route as one too.
                h.write_str("race");
            }
        }
        Request::CompileSuite(s) => {
            h.write_str("suite")
                .write_usize(s.count)
                .write_usize(s.max_qubits)
                .write_usize(s.max_gates)
                .write_u64(s.seed)
                .write_str(&s.device)
                .write_str(&s.config.placer)
                .write_str(&s.config.router);
        }
        Request::Stats | Request::Ping | Request::Shutdown => {}
    }
    h.finish()
}

/// Per-shard circuit-breaker phases. `Closed` counts consecutive
/// failures; `Open` refuses primary-pass traffic until its cooldown
/// expires; `HalfOpen` admits exactly one probe request whose outcome
/// decides between closing and re-opening with a doubled cooldown.
enum BreakerPhase {
    Closed { failures: u32 },
    Open { until: Instant, streak: u32 },
    HalfOpen { streak: u32, probing: bool },
}

/// What a breaker says about admitting one request right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerAdmit {
    /// Closed: forward normally.
    Yes,
    /// Half-open: forward, and this request *is* the probe.
    Probe,
    /// Open (or a half-open probe is already out): skip this shard on
    /// the primary pass.
    No,
}

struct Breaker {
    phase: Mutex<BreakerPhase>,
    opens: AtomicU64,
}

impl Breaker {
    fn new() -> Breaker {
        Breaker {
            phase: Mutex::new(BreakerPhase::Closed { failures: 0 }),
            opens: AtomicU64::new(0),
        }
    }

    fn admit(&self, now: Instant) -> BreakerAdmit {
        let mut phase = lock_recovering(&self.phase);
        match &mut *phase {
            BreakerPhase::Closed { .. } => BreakerAdmit::Yes,
            BreakerPhase::Open { until, streak } => {
                if now >= *until {
                    let streak = *streak;
                    *phase = BreakerPhase::HalfOpen {
                        streak,
                        probing: true,
                    };
                    BreakerAdmit::Probe
                } else {
                    BreakerAdmit::No
                }
            }
            BreakerPhase::HalfOpen { probing, .. } => {
                if *probing {
                    BreakerAdmit::No
                } else {
                    *probing = true;
                    BreakerAdmit::Probe
                }
            }
        }
    }

    /// A forward to this shard completed. Success from any phase closes
    /// the breaker — even `Open`, which a fallback-pass attempt can
    /// reach: the shard evidently works, so waiting out the cooldown
    /// would only prolong the brown-out.
    fn on_success(&self) {
        *lock_recovering(&self.phase) = BreakerPhase::Closed { failures: 0 };
    }

    fn on_failure(&self, config: &RouterConfig, now: Instant) {
        let mut phase = lock_recovering(&self.phase);
        let reopen = |streak: u32| {
            let exp = streak.min(5);
            let cooldown = config
                .breaker_cooldown
                .saturating_mul(1u32 << exp)
                .min(config.breaker_cooldown_max);
            BreakerPhase::Open {
                until: now + cooldown,
                streak: streak.saturating_add(1),
            }
        };
        match &mut *phase {
            BreakerPhase::Closed { failures } => {
                *failures += 1;
                if *failures >= config.breaker_threshold.max(1) {
                    *phase = reopen(0);
                    self.opens.fetch_add(1, Ordering::SeqCst);
                }
            }
            BreakerPhase::HalfOpen { streak, .. } => {
                let streak = *streak;
                *phase = reopen(streak);
                self.opens.fetch_add(1, Ordering::SeqCst);
            }
            // Already open: fallback-pass failures carry no new signal.
            BreakerPhase::Open { .. } => {}
        }
    }

    fn phase_name(&self) -> &'static str {
        match &*lock_recovering(&self.phase) {
            BreakerPhase::Closed { .. } => "closed",
            BreakerPhase::Open { .. } => "open",
            BreakerPhase::HalfOpen { .. } => "half-open",
        }
    }
}

struct ShardState {
    addr: String,
    resolved: Mutex<Option<SocketAddr>>,
    healthy: AtomicBool,
    forwarded: AtomicU64,
    breaker: Breaker,
    /// Requests currently forwarded to this shard, across all workers;
    /// bounded by [`RouterConfig::max_in_flight`].
    in_flight: AtomicUsize,
    /// Connections to this shard not in use by a forward right now.
    idle: Mutex<Vec<TcpStream>>,
}

/// RAII guard for one unit of a shard's in-flight window.
struct InFlightSlot<'a> {
    counter: &'a AtomicUsize,
}

impl Drop for InFlightSlot<'_> {
    fn drop(&mut self) {
        self.counter.fetch_sub(1, Ordering::SeqCst);
    }
}

fn try_acquire_slot(counter: &AtomicUsize, cap: usize) -> Option<InFlightSlot<'_>> {
    counter
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |current| {
            (current < cap).then_some(current + 1)
        })
        .ok()
        .map(|_| InFlightSlot { counter })
}

/// Bound on remembered routing keys for hit-class detection: covers any
/// realistic working set of distinct circuits while staying ~1 MiB.
pub(crate) const SEEN_KEYS_CAP: usize = 65_536;

struct RouterShared {
    config: RouterConfig,
    ring: HashRing,
    shards: Vec<ShardState>,
    reroutes: AtomicU64,
    forward_errors: AtomicU64,
    /// Requests refused because their end-to-end budget ran out before
    /// forwarding.
    deadline_rejected: AtomicU64,
    /// Requests shed because every shard's in-flight window was full.
    admission_shed: AtomicU64,
    hedges_fired: AtomicU64,
    hedges_won: AtomicU64,
    /// Routing keys that have been served successfully — the definition
    /// of "cache-hit class" for hedging.
    seen_keys: Mutex<FifoMap<u64>>,
    /// Forward latency of cache-hit-class requests — the distribution
    /// the hedge delay is derived from.
    hit_latency: Mutex<LatencyHistogram>,
    /// Text-hash → canonical routing key memo. Canonicalizing a circuit
    /// costs real CPU (parse + relabel + normal-order); memoizing on the
    /// cheap text hash means each distinct request body pays it once per
    /// router.
    canon_keys: Mutex<FifoMap<u64, u64>>,
}

impl RouterShared {
    /// Resolves (and caches) a shard's socket address.
    fn shard_addr(&self, idx: usize) -> io::Result<SocketAddr> {
        let shard = &self.shards[idx];
        let mut cached = lock_recovering(&shard.resolved);
        if let Some(addr) = *cached {
            return Ok(addr);
        }
        let addr = shard.addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, "shard address resolved to nothing")
        })?;
        *cached = Some(addr);
        Ok(addr)
    }
}

/// The router's side of the transport core: `stats` from its own
/// counters, and every compute request forwarded to a shard.
impl Handler for RouterShared {
    fn stats(&self, core: &Core) -> Json {
        router_stats_json(self, core)
    }

    fn respond(&self, _core: &Core, request: &Request, frame: &[u8]) -> Vec<u8> {
        // The deadline is the request's *total* remaining budget;
        // `arrival` anchors the router's share of it.
        let arrival = Instant::now();
        let deadline = match request {
            Request::Compile(c) => c.deadline_ms.map(Duration::from_millis),
            _ => None,
        };
        let ctx = ForwardCtx {
            key: semantic_route_key(request, self),
            arrival,
            deadline,
            // Only single compiles hedge: a duplicated suite is never
            // hit-class work, it is a whole benchmark run.
            hedgeable: matches!(request, Request::Compile(_)),
        };
        forward(self, frame, &ctx)
    }
}

/// The running router: address + thread handles.
pub struct RouterHandle {
    transport: Transport,
    health_thread: JoinHandle<()>,
}

impl RouterHandle {
    /// The router's bound address (useful with ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.transport.local_addr()
    }

    /// Requests shutdown and joins every router thread.
    pub fn shutdown(self) -> usize {
        self.transport.core().initiate_shutdown();
        self.wait()
    }

    /// Blocks until the router shuts down (via a protocol `shutdown`
    /// request) and joins every router thread.
    pub fn wait(self) -> usize {
        let joined = self.transport.join().threads_joined;
        joined + usize::from(self.health_thread.join().is_ok())
    }
}

/// Namespace for [`Router::start`].
pub struct Router;

impl Router {
    /// Probes the shards once (so the ring starts with real health),
    /// starts the transport core with the forwarding handler (see the
    /// module doc's **Transport**), and spawns the health thread.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; rejects an empty shard list.
    pub fn start(config: RouterConfig) -> io::Result<RouterHandle> {
        if config.shards.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "router needs at least one --shard",
            ));
        }
        let ring = HashRing::new(config.shards.len(), config.replicas);
        let shards = config
            .shards
            .iter()
            .map(|addr| ShardState {
                addr: addr.clone(),
                resolved: Mutex::new(None),
                // Optimistic until the first probe: a booting fleet
                // should route, not reject.
                healthy: AtomicBool::new(true),
                forwarded: AtomicU64::new(0),
                breaker: Breaker::new(),
                in_flight: AtomicUsize::new(0),
                idle: Mutex::new(Vec::new()),
            })
            .collect();
        let core_config = CoreConfig {
            name: "qcs-router",
            addr: config.addr.clone(),
            event_loops: 1,
            max_connections: usize::MAX,
            frame_deadline: FRAME_DEADLINE,
            eager_workers: 0,
            max_workers: config.max_in_flight.max(1) * config.shards.len(),
        };
        let shared = Arc::new(RouterShared {
            config,
            ring,
            shards,
            reroutes: AtomicU64::new(0),
            forward_errors: AtomicU64::new(0),
            deadline_rejected: AtomicU64::new(0),
            admission_shed: AtomicU64::new(0),
            hedges_fired: AtomicU64::new(0),
            hedges_won: AtomicU64::new(0),
            seen_keys: Mutex::new(FifoMap::new(SEEN_KEYS_CAP)),
            hit_latency: Mutex::new(LatencyHistogram::default()),
            canon_keys: Mutex::new(FifoMap::new(CANON_KEY_MEMO_CAP)),
        });

        probe_all(&shared);
        let transport = Transport::start(core_config, Arc::clone(&shared) as Arc<dyn Handler>)?;

        let core = Arc::clone(transport.core());
        let health_thread = std::thread::Builder::new()
            .name("qcs-router-health".to_string())
            .spawn(move || health_loop(&shared, &core.shutdown))
            .expect("spawning the health thread");

        Ok(RouterHandle {
            transport,
            health_thread,
        })
    }
}

/// Per-shard prober bookkeeping, local to the health thread.
struct ProbeState {
    consecutive_successes: u32,
    consecutive_failures: u32,
    next_due: Instant,
    /// What the health flag said the last time we looked — detects
    /// forward()-driven demotions between probes.
    was_healthy: bool,
}

/// Deterministic probe jitter in `[0, interval/4]`: spreads a fleet of
/// routers' probes so a recovering shard never sees them in lockstep.
fn probe_jitter(rng: &mut SplitMix64, interval: Duration) -> Duration {
    let span = ((interval / 4).as_millis() as u64).max(1);
    Duration::from_millis(rng.next_u64() % span)
}

/// The backoff before the next probe of a shard that has failed
/// `consecutive_failures` (>= 1) probes in a row: the base interval
/// doubled per failure, capped at `probe_backoff_max`.
fn probe_backoff(config: &RouterConfig, consecutive_failures: u32) -> Duration {
    let interval = config.health_interval.max(Duration::from_millis(1));
    let exp = consecutive_failures.saturating_sub(1).min(5);
    interval
        .saturating_mul(1u32 << exp)
        .min(config.probe_backoff_max.max(interval))
}

fn health_loop(shared: &RouterShared, shutdown: &AtomicBool) {
    let mut rng = SplitMix64::new(shared.config.jitter_seed);
    let start = Instant::now();
    let mut states: Vec<ProbeState> = shared
        .shards
        .iter()
        .map(|s| {
            let healthy = s.healthy.load(Ordering::SeqCst);
            ProbeState {
                // A shard the startup probe found healthy is fully
                // admitted; anything else earns its way in with two
                // consecutive successes.
                consecutive_successes: if healthy { 2 } else { 0 },
                consecutive_failures: 0,
                next_due: start,
                was_healthy: healthy,
            }
        })
        .collect();
    while !shutdown.load(Ordering::SeqCst) {
        let now = Instant::now();
        for (idx, state) in states.iter_mut().enumerate() {
            let shard = &shared.shards[idx];
            let flagged = shard.healthy.load(Ordering::SeqCst);
            if state.was_healthy && !flagged {
                // A forward failure demoted this shard since our last
                // probe: readmission needs two *fresh* successes, even
                // if our own probes never saw it down.
                state.consecutive_successes = 0;
                state.was_healthy = false;
            }
            if now < state.next_due {
                continue;
            }
            let interval = shared.config.health_interval.max(Duration::from_millis(1));
            if probe_shard(shared, idx) {
                state.consecutive_failures = 0;
                state.consecutive_successes = state.consecutive_successes.saturating_add(1);
                if state.consecutive_successes >= 2 {
                    shard.healthy.store(true, Ordering::SeqCst);
                    state.was_healthy = true;
                }
                state.next_due = now + interval + probe_jitter(&mut rng, interval);
            } else {
                state.consecutive_successes = 0;
                state.consecutive_failures = state.consecutive_failures.saturating_add(1);
                shard.healthy.store(false, Ordering::SeqCst);
                state.was_healthy = false;
                state.next_due = now
                    + probe_backoff(&shared.config, state.consecutive_failures)
                    + probe_jitter(&mut rng, interval);
            }
        }
        // Tick in poll-sized slices so shutdown stays responsive.
        let interval = shared.config.health_interval.max(Duration::from_millis(1));
        std::thread::sleep(POLL_INTERVAL.min(interval));
    }
}

/// Pings every shard once, updating health flags in both directions.
fn probe_all(shared: &RouterShared) {
    for idx in 0..shared.shards.len() {
        let healthy = probe_shard(shared, idx);
        shared.shards[idx].healthy.store(healthy, Ordering::SeqCst);
    }
}

fn probe_shard(shared: &RouterShared, idx: usize) -> bool {
    let Ok(addr) = shared.shard_addr(idx) else {
        return false;
    };
    let Ok(mut stream) = TcpStream::connect_timeout(&addr, shared.config.connect_timeout) else {
        return false;
    };
    if stream
        .set_read_timeout(Some(shared.config.connect_timeout))
        .is_err()
        || stream
            .set_write_timeout(Some(shared.config.connect_timeout))
            .is_err()
    {
        return false;
    }
    if write_json(&mut stream, &Json::object([("type", "ping")])).is_err() {
        return false;
    }
    match read_frame(&mut stream) {
        Ok(Some(payload)) => {
            std::str::from_utf8(&payload)
                .ok()
                .and_then(|text| qcs_json::parse(text).ok())
                .and_then(|v| v.get("type").and_then(Json::as_str).map(str::to_string))
                .as_deref()
                == Some("pong")
        }
        _ => false,
    }
}

/// Per-request routing context threaded through [`forward`].
struct ForwardCtx {
    key: u64,
    /// When the request frame was read off the client socket.
    arrival: Instant,
    /// The request's *total* end-to-end budget, if it declared one.
    deadline: Option<Duration>,
    /// Whether this request class may hedge (single compiles only).
    hedgeable: bool,
}

impl ForwardCtx {
    /// Remaining end-to-end budget; `None` when no deadline was given.
    fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|budget| budget.saturating_sub(self.arrival.elapsed()))
    }
}

/// The hedge delay: the configured pin, or the observed hit-class
/// forward p99 clamped to [1ms, 100ms] once enough observations exist.
fn hedge_delay(shared: &RouterShared) -> Option<Duration> {
    if let Some(pinned) = shared.config.hedge_after {
        return Some(pinned);
    }
    let hist = lock_recovering(&shared.hit_latency);
    if hist.count() < shared.config.hedge_min_observations.max(1) {
        return None;
    }
    let p99 = Duration::from_micros(hist.quantile_upper_micros(0.99));
    Some(p99.clamp(Duration::from_millis(1), Duration::from_millis(100)))
}

fn json_bytes(value: Json) -> Vec<u8> {
    value.to_compact_string().into_bytes()
}

/// What one (possibly hedged) forward attempt produced.
struct AttemptOutcome {
    response: Vec<u8>,
    /// Which shard's response this is.
    winner: usize,
    /// True when the primary leg hard-failed during a hedge (so the
    /// caller charges its breaker) even though the backup delivered.
    primary_failed: bool,
}

/// Forwards a request payload to the shard owning `ctx.key`, replaying
/// down the ring-walk order on failure. Applies deadline checks,
/// per-shard admission windows and circuit breakers, and hedges
/// cache-hit-class requests. Returns the winning shard's response
/// payload, or a structured error when no shard could serve.
fn forward(shared: &RouterShared, payload: &[u8], ctx: &ForwardCtx) -> Vec<u8> {
    let hit_class = lock_recovering(&shared.seen_keys).contains(&ctx.key);

    // Deadline gate: refuse work whose remaining budget is already gone —
    // better a fast structured refusal than a doomed forward. Predicting
    // whether a live budget suffices is the shard's job: it holds the
    // per-stage cost evidence.
    if ctx.remaining().is_some_and(|remaining| remaining.is_zero()) {
        shared.deadline_rejected.fetch_add(1, Ordering::SeqCst);
        return json_bytes(deadline_response("deadline exhausted before forwarding"));
    }

    let walk = shared.ring.walk(ctx.key);
    // Healthy shards first (in ring order), then the rest: when the
    // prober has everything marked down (a fleet-wide blip, or probes
    // racing a restart) the router still tries rather than failing fast.
    let candidates: Vec<usize> = walk
        .iter()
        .copied()
        .filter(|&i| shared.shards[i].healthy.load(Ordering::SeqCst))
        .chain(
            walk.iter()
                .copied()
                .filter(|&i| !shared.shards[i].healthy.load(Ordering::SeqCst)),
        )
        .collect();

    let hedge_after = if ctx.hedgeable && hit_class {
        hedge_delay(shared)
    } else {
        None
    };

    let started = Instant::now();
    let mut attempted = false;
    for (position, &idx) in candidates.iter().enumerate() {
        let shard = &shared.shards[idx];
        // Admission before the breaker: a half-open probe admission must
        // never be stranded by a full in-flight window.
        let Some(_slot) = try_acquire_slot(&shard.in_flight, shared.config.max_in_flight.max(1))
        else {
            continue;
        };
        let fallback = !shard.healthy.load(Ordering::SeqCst);
        let admit = if fallback {
            // Total-outage pass: breakers steer traffic away from sick
            // shards, they do not veto the only options left.
            BreakerAdmit::Yes
        } else {
            shard.breaker.admit(Instant::now())
        };
        if admit == BreakerAdmit::No {
            continue;
        }

        // Rewrite the deadline to the remaining budget for every attempt
        // so the shard only ever sees what is actually left.
        let rewritten;
        let body: &[u8] = match ctx.remaining() {
            None => payload,
            Some(remaining) if remaining.is_zero() => {
                shared.deadline_rejected.fetch_add(1, Ordering::SeqCst);
                return json_bytes(deadline_response("deadline exhausted during forwarding"));
            }
            Some(remaining) => match rewrite_deadline_ms(payload, remaining.as_millis() as u64) {
                Some(bytes) => {
                    rewritten = bytes;
                    &rewritten
                }
                None => payload,
            },
        };

        // Hedge only the first, healthy, closed-breaker attempt, and
        // only when a distinct healthy backup exists to hedge *to*.
        let backup = match (position, fallback, admit, hedge_after) {
            (0, false, BreakerAdmit::Yes, Some(_)) => candidates
                .get(1)
                .copied()
                .filter(|&b| shared.shards[b].healthy.load(Ordering::SeqCst)),
            _ => None,
        };

        attempted = true;
        let outcome = match (backup, hedge_after) {
            (Some(backup), Some(delay)) => forward_hedged(shared, idx, backup, body, delay),
            _ => forward_with_retry(shared, idx, body).map(|response| AttemptOutcome {
                response,
                winner: idx,
                primary_failed: false,
            }),
        };
        match outcome {
            Ok(outcome) => {
                let winner = &shared.shards[outcome.winner];
                winner.forwarded.fetch_add(1, Ordering::SeqCst);
                winner.breaker.on_success();
                if outcome.primary_failed {
                    shard.breaker.on_failure(&shared.config, Instant::now());
                    shard.healthy.store(false, Ordering::SeqCst);
                }
                if position > 0 {
                    shared.reroutes.fetch_add(1, Ordering::SeqCst);
                }
                if ctx.hedgeable {
                    if hit_class {
                        let micros =
                            u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
                        lock_recovering(&shared.hit_latency).record(micros);
                    }
                    lock_recovering(&shared.seen_keys).insert(ctx.key, ());
                }
                return outcome.response;
            }
            Err(_) => {
                shard.breaker.on_failure(&shared.config, Instant::now());
                shard.healthy.store(false, Ordering::SeqCst);
                drop_idle(shared, idx);
            }
        }
    }
    if !attempted {
        // Every candidate was skipped without a wire attempt: the
        // in-flight windows are full (or every breaker is open against
        // healthy-flagged shards). Shed with a back-off hint rather than
        // queueing unbounded work.
        shared.admission_shed.fetch_add(1, Ordering::SeqCst);
        return json_bytes(shed_response(
            "router admission windows full; retry shortly",
            50,
        ));
    }
    shared.forward_errors.fetch_add(1, Ordering::SeqCst);
    json_bytes(error_response("no shard available for request"))
}

/// One logical forward to shard `idx` over an idle pooled connection,
/// retrying once on a fresh connection: a pooled socket can be stale
/// (the shard restarted since the last request) without the shard being
/// down. A failed exchange drops the shard's idle connections — they
/// are likely just as stale.
fn forward_with_retry(shared: &RouterShared, idx: usize, payload: &[u8]) -> io::Result<Vec<u8>> {
    let mut last_err = None;
    for fresh in [false, true] {
        match forward_once(shared, idx, payload, fresh) {
            Ok(response) => return Ok(response),
            Err(e) => {
                drop_idle(shared, idx);
                last_err = Some(e);
            }
        }
    }
    Err(last_err.unwrap_or_else(|| io::Error::other("forward failed")))
}

/// One forwarding attempt to shard `idx`: checks a connection out (a
/// new one when `fresh`), and back in after a clean exchange.
fn forward_once(
    shared: &RouterShared,
    idx: usize,
    payload: &[u8],
    fresh: bool,
) -> io::Result<Vec<u8>> {
    let mut stream = checkout(shared, idx, fresh)?;
    write_frame(&mut stream, payload)?;
    match read_frame(&mut stream)? {
        Some(response) => {
            checkin(shared, idx, stream);
            Ok(response)
        }
        None => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "shard closed before responding",
        )),
    }
}

/// An idle connection to shard `idx`, or — when none is idle or `fresh`
/// is asked for — a new one. Connections to a shard are thereby bounded
/// by the forwards in flight to it, whatever the worker count.
fn checkout(shared: &RouterShared, idx: usize, fresh: bool) -> io::Result<TcpStream> {
    if !fresh {
        if let Some(stream) = lock_recovering(&shared.shards[idx].idle).pop() {
            return Ok(stream);
        }
    }
    connect_shard(shared, idx)
}

/// Returns a connection whose last exchange completed cleanly (exactly
/// one request, one response) to shard `idx`'s idle list.
fn checkin(shared: &RouterShared, idx: usize, stream: TcpStream) {
    lock_recovering(&shared.shards[idx].idle).push(stream);
}

/// Drops shard `idx`'s idle connections after a failed exchange: they
/// are likely as stale as the one that failed.
fn drop_idle(shared: &RouterShared, idx: usize) {
    lock_recovering(&shared.shards[idx].idle).clear();
}

fn connect_shard(shared: &RouterShared, idx: usize) -> io::Result<TcpStream> {
    let addr = shared.shard_addr(idx)?;
    let stream = TcpStream::connect_timeout(&addr, shared.config.connect_timeout)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(shared.config.io_timeout))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    Ok(stream)
}

/// Checks out a connection to shard `idx` and writes one request frame
/// on it, reconnecting once if the pooled socket rejects the write. The
/// hedged reader decides whether the stream is checked back in.
fn send_request(shared: &RouterShared, idx: usize, payload: &[u8]) -> io::Result<TcpStream> {
    for fresh in [false, true] {
        let mut stream = checkout(shared, idx, fresh)?;
        if write_frame(&mut stream, payload).is_ok() {
            return Ok(stream);
        }
        drop_idle(shared, idx);
    }
    Err(io::Error::new(
        io::ErrorKind::BrokenPipe,
        "could not write request to shard",
    ))
}

/// A hedged forward for a cache-hit-class request: the primary shard
/// gets `delay` to answer on its own; past that, the same payload fires
/// at `backup` and the first *complete* response wins. The loser still
/// owes a response on its connection, so only the winner's socket is
/// checked back in — the other is dropped.
///
/// Errors mean the primary leg failed (after a fresh-connection retry)
/// and no backup response arrived either; the caller replays down the
/// walk order as for any failed attempt.
fn forward_hedged(
    shared: &RouterShared,
    primary: usize,
    backup: usize,
    payload: &[u8],
    delay: Duration,
) -> io::Result<AttemptOutcome> {
    let started = Instant::now();
    let overall_deadline = started + shared.config.io_timeout;
    let hedge_at = started + delay;

    let mut primary_stream = Some(send_request(shared, primary, payload)?);
    // Mirror the unhedged path's stale-pool tolerance: one reconnect.
    let mut primary_retries_left = 1u32;
    let mut primary_failed = false;
    let mut backup_stream: Option<TcpStream> = None;
    let mut _backup_slot = None;
    let mut backup_fired = false;
    let mut backup_failed = false;

    loop {
        let now = Instant::now();
        if now >= overall_deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "hedged forward timed out",
            ));
        }
        if !backup_fired && !primary_failed && now >= hedge_at {
            // The primary has had its p99-derived chance: fire the hedge
            // (unless the backup's admission window is full — a hedge is
            // opportunistic, never worth displacing first-try traffic).
            backup_fired = true;
            match try_acquire_slot(
                &shared.shards[backup].in_flight,
                shared.config.max_in_flight.max(1),
            ) {
                None => backup_failed = true,
                Some(slot) => match send_request(shared, backup, payload) {
                    Ok(stream) => {
                        _backup_slot = Some(slot);
                        backup_stream = Some(stream);
                        shared.hedges_fired.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(_) => backup_failed = true,
                },
            }
        }
        if primary_failed && (backup_failed || backup_stream.is_none()) {
            return Err(io::Error::other("both hedge legs failed"));
        }

        let mut fds = Vec::with_capacity(2);
        let mut legs = Vec::with_capacity(2);
        if let Some(stream) = primary_stream.as_ref() {
            fds.push(PollFd::new(stream.as_raw_fd(), POLLIN));
            legs.push(primary);
        }
        if let Some(stream) = backup_stream.as_ref() {
            fds.push(PollFd::new(stream.as_raw_fd(), POLLIN));
            legs.push(backup);
        }
        let wait = if backup_fired || primary_failed {
            overall_deadline
                .saturating_duration_since(now)
                .min(POLL_INTERVAL)
        } else {
            hedge_at.saturating_duration_since(now).min(POLL_INTERVAL)
        };
        let _ = poll_fds(&mut fds, Some(wait));

        // Primary first: a free response always beats a hedged one.
        for (slot_idx, &leg) in legs.iter().enumerate() {
            if !fds[slot_idx].readable() {
                continue;
            }
            if leg == primary {
                let mut stream = primary_stream.take().expect("primary leg polled");
                match read_frame(&mut stream) {
                    Ok(Some(response)) => {
                        // Exactly one request, one response: the socket
                        // is position-clean and may rejoin the pool.
                        checkin(shared, primary, stream);
                        return Ok(AttemptOutcome {
                            response,
                            winner: primary,
                            primary_failed: false,
                        });
                    }
                    _ => {
                        drop_idle(shared, primary);
                        if primary_retries_left > 0 {
                            primary_retries_left -= 1;
                            match send_request(shared, primary, payload) {
                                Ok(fresh) => primary_stream = Some(fresh),
                                Err(_) => primary_failed = true,
                            }
                        } else {
                            primary_failed = true;
                        }
                    }
                }
                break;
            }
            let mut stream = backup_stream.take().expect("backup leg polled");
            match read_frame(&mut stream) {
                Ok(Some(response)) => {
                    shared.hedges_won.fetch_add(1, Ordering::SeqCst);
                    checkin(shared, backup, stream);
                    return Ok(AttemptOutcome {
                        response,
                        winner: backup,
                        primary_failed,
                    });
                }
                _ => {
                    drop_idle(shared, backup);
                    backup_failed = true;
                }
            }
            break;
        }
    }
}

fn router_stats_json(shared: &RouterShared, core: &Core) -> Json {
    Json::object([
        ("type", Json::from("stats")),
        ("role", Json::from("router")),
        // Every frame decoded off a client socket.
        (
            "requests",
            Json::from(core.frames_in.load(Ordering::SeqCst)),
        ),
        (
            "reroutes",
            Json::from(shared.reroutes.load(Ordering::SeqCst)),
        ),
        (
            "forward_errors",
            Json::from(shared.forward_errors.load(Ordering::SeqCst)),
        ),
        (
            "resilience",
            Json::object([
                (
                    "deadline_rejected",
                    Json::from(shared.deadline_rejected.load(Ordering::SeqCst)),
                ),
                (
                    "admission_shed",
                    Json::from(shared.admission_shed.load(Ordering::SeqCst)),
                ),
                (
                    "hedges_fired",
                    Json::from(shared.hedges_fired.load(Ordering::SeqCst)),
                ),
                (
                    "hedges_won",
                    Json::from(shared.hedges_won.load(Ordering::SeqCst)),
                ),
                (
                    "hedge_delay_micros",
                    Json::from(
                        hedge_delay(shared)
                            .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
                            .unwrap_or(0),
                    ),
                ),
            ]),
        ),
        (
            "shards",
            Json::Array(
                shared
                    .shards
                    .iter()
                    .map(|s| {
                        Json::object([
                            ("addr", Json::from(s.addr.clone())),
                            ("healthy", Json::from(s.healthy.load(Ordering::SeqCst))),
                            ("forwarded", Json::from(s.forwarded.load(Ordering::SeqCst))),
                            ("breaker", Json::from(s.breaker.phase_name())),
                            (
                                "breaker_opens",
                                Json::from(s.breaker.opens.load(Ordering::SeqCst)),
                            ),
                            (
                                "in_flight",
                                Json::from(s.in_flight.load(Ordering::SeqCst) as u64),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("transport", core.transport_json()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::CompileRequest;
    use qcs_core::config::MapperConfig;

    #[test]
    fn ring_walk_visits_every_shard_once_owner_first() {
        let ring = HashRing::new(5, 64);
        for key in [0u64, 1, u64::MAX, 0xdead_beef, 42] {
            let walk = ring.walk(key);
            assert_eq!(walk.len(), 5);
            let mut sorted = walk.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn ring_is_deterministic_across_constructions() {
        let a = HashRing::new(3, 64);
        let b = HashRing::new(3, 64);
        for key in 0..200u64 {
            assert_eq!(
                a.walk(key.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                b.walk(key.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            );
        }
    }

    #[test]
    fn ring_spreads_keys_reasonably_evenly() {
        let ring = HashRing::new(4, 64);
        let mut counts = [0usize; 4];
        for key in 0..4000u64 {
            let mut h = Fnv64::new();
            h.write_u64(key);
            counts[ring.walk(h.finish())[0]] += 1;
        }
        for &c in &counts {
            // Perfectly even would be 1000; virtual nodes keep every
            // shard within a loose factor of that.
            assert!(c > 400 && c < 1800, "skewed split: {counts:?}");
        }
    }

    #[test]
    fn removing_a_shard_only_moves_its_own_keys() {
        // Consistent hashing's defining property: keys whose owner
        // survives keep their owner when another shard dies (the walk
        // just skips the dead one).
        let ring = HashRing::new(4, 64);
        for key in 0..500u64 {
            let mut h = Fnv64::new();
            h.write_u64(key);
            let walk = ring.walk(h.finish());
            let dead = 2usize;
            let rerouted_owner = walk.iter().copied().find(|&s| s != dead).unwrap();
            if walk[0] != dead {
                assert_eq!(walk[0], rerouted_owner, "surviving owner must not move");
            }
        }
    }

    fn test_config() -> RouterConfig {
        RouterConfig {
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(100),
            breaker_cooldown_max: Duration::from_millis(500),
            ..RouterConfig::default()
        }
    }

    #[test]
    fn breaker_trips_after_threshold_and_recovers_via_half_open() {
        let config = test_config();
        let breaker = Breaker::new();
        let t0 = Instant::now();
        assert_eq!(breaker.admit(t0), BreakerAdmit::Yes);
        breaker.on_failure(&config, t0);
        breaker.on_failure(&config, t0);
        assert_eq!(breaker.admit(t0), BreakerAdmit::Yes, "below threshold");
        breaker.on_failure(&config, t0);
        assert_eq!(breaker.phase_name(), "open");
        assert_eq!(breaker.opens.load(Ordering::SeqCst), 1);
        assert_eq!(breaker.admit(t0), BreakerAdmit::No, "cooldown not elapsed");
        // Past the cooldown: exactly one half-open probe is admitted.
        let after = t0 + config.breaker_cooldown + Duration::from_millis(1);
        assert_eq!(breaker.admit(after), BreakerAdmit::Probe);
        assert_eq!(breaker.phase_name(), "half-open");
        assert_eq!(breaker.admit(after), BreakerAdmit::No, "probe already out");
        breaker.on_success();
        assert_eq!(breaker.phase_name(), "closed");
        assert_eq!(breaker.admit(after), BreakerAdmit::Yes);
    }

    #[test]
    fn breaker_failed_probe_doubles_cooldown_up_to_cap() {
        let config = test_config();
        let breaker = Breaker::new();
        let t0 = Instant::now();
        for _ in 0..3 {
            breaker.on_failure(&config, t0);
        }
        // Fail half-open probes repeatedly: each reopen doubles the
        // cooldown until the cap pins it.
        let mut now = t0;
        let mut previous_until = t0;
        for round in 0..6u32 {
            now += Duration::from_secs(1);
            assert_eq!(breaker.admit(now), BreakerAdmit::Probe, "round {round}");
            breaker.on_failure(&config, now);
            let until = match &*lock_recovering(&breaker.phase) {
                BreakerPhase::Open { until, .. } => *until,
                other_phase => panic!(
                    "expected open after failed probe, got {}",
                    match other_phase {
                        BreakerPhase::Closed { .. } => "closed",
                        BreakerPhase::HalfOpen { .. } => "half-open",
                        BreakerPhase::Open { .. } => unreachable!(),
                    }
                ),
            };
            let cooldown = until - now;
            let expected = config
                .breaker_cooldown
                .saturating_mul(1u32 << (round + 1).min(5))
                .min(config.breaker_cooldown_max);
            assert_eq!(cooldown, expected, "round {round}");
            previous_until = until;
        }
        assert!(previous_until - now <= config.breaker_cooldown_max);
        // One success out of half-open closes it regardless of streak.
        now += Duration::from_secs(1);
        assert_eq!(breaker.admit(now), BreakerAdmit::Probe);
        breaker.on_success();
        assert_eq!(breaker.phase_name(), "closed");
    }

    #[test]
    fn breaker_success_from_open_closes_immediately() {
        // A fallback-pass forward can succeed against an open breaker;
        // real success is stronger evidence than any cooldown.
        let config = test_config();
        let breaker = Breaker::new();
        let t0 = Instant::now();
        for _ in 0..3 {
            breaker.on_failure(&config, t0);
        }
        assert_eq!(breaker.phase_name(), "open");
        breaker.on_success();
        assert_eq!(breaker.phase_name(), "closed");
    }

    #[test]
    fn in_flight_slots_are_bounded_and_release_on_drop() {
        let counter = AtomicUsize::new(0);
        let a = try_acquire_slot(&counter, 2).expect("first slot");
        let b = try_acquire_slot(&counter, 2).expect("second slot");
        assert!(try_acquire_slot(&counter, 2).is_none(), "window full");
        drop(a);
        let c = try_acquire_slot(&counter, 2).expect("slot freed by drop");
        drop(b);
        drop(c);
        assert_eq!(counter.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn probe_backoff_doubles_and_caps() {
        let mut config = test_config();
        config.health_interval = Duration::from_millis(100);
        config.probe_backoff_max = Duration::from_millis(900);
        assert_eq!(probe_backoff(&config, 1), Duration::from_millis(100));
        assert_eq!(probe_backoff(&config, 2), Duration::from_millis(200));
        assert_eq!(probe_backoff(&config, 3), Duration::from_millis(400));
        assert_eq!(probe_backoff(&config, 4), Duration::from_millis(800));
        assert_eq!(
            probe_backoff(&config, 5),
            Duration::from_millis(900),
            "capped"
        );
        assert_eq!(probe_backoff(&config, 60), Duration::from_millis(900));
    }

    #[test]
    fn probe_jitter_is_deterministic_and_bounded() {
        let interval = Duration::from_millis(200);
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..64 {
            let ja = probe_jitter(&mut a, interval);
            assert_eq!(ja, probe_jitter(&mut b, interval));
            assert!(ja < interval / 4 + Duration::from_millis(1));
        }
    }

    #[test]
    fn route_key_depends_on_job_identity_only() {
        let base = CompileRequest {
            source: Source::Workload("ghz:8".to_string()),
            device: "surface17".to_string(),
            config: MapperConfig::default(),
            deadline_ms: None,
            request_id: None,
            race: false,
        };
        let k1 = route_key(&Request::Compile(base.clone()));
        // Request id and deadline are delivery metadata, not identity:
        // a retry with a fresh deadline must land on the same shard.
        let mut retry = base.clone();
        retry.request_id = Some("retry-1".to_string());
        retry.deadline_ms = Some(5000);
        assert_eq!(k1, route_key(&Request::Compile(retry)));
        let mut other = base.clone();
        other.device = "line:5".to_string();
        assert_ne!(k1, route_key(&Request::Compile(other)));
        // A forced race is a distinct cache identity, so it routes as one.
        let mut raced = base;
        raced.race = true;
        assert_ne!(k1, route_key(&Request::Compile(raced)));
    }

    #[test]
    fn canonical_route_key_collapses_structural_twins() {
        let request = |qasm: &str| {
            Request::Compile(CompileRequest {
                source: Source::Qasm(qasm.to_string()),
                device: "surface17".to_string(),
                config: MapperConfig::default(),
                deadline_ms: None,
                request_id: None,
                race: false,
            })
        };
        // The same circuit under a qubit relabeling (and different text):
        // distinct text keys, one canonical routing key — so both land on
        // the shard whose semantic cache can serve them.
        let a = request("qreg q[3]; h q[0]; cx q[0],q[1]; cx q[1],q[2];");
        let b = request("qreg q[3]; h q[2]; cx q[2],q[1]; cx q[1],q[0];");
        assert_ne!(route_key(&a), route_key(&b));
        assert_eq!(
            canonical_route_key(&a).unwrap(),
            canonical_route_key(&b).unwrap()
        );
        // A genuinely different circuit routes elsewhere.
        let c = request("qreg q[3]; x q[0]; cx q[0],q[1]; cx q[1],q[2];");
        assert_ne!(
            canonical_route_key(&a).unwrap(),
            canonical_route_key(&c).unwrap()
        );
        // Unresolvable requests have no canonical key (the caller falls
        // back to the text hash).
        let mut bad = request("qreg q[3]; h q[0];");
        if let Request::Compile(c) = &mut bad {
            c.device = "warp-core".to_string();
        }
        assert!(canonical_route_key(&bad).is_none());
    }
}
