//! The traced replay: a workload's exact request stream, single
//! threaded, through the same public functions the router and the shard
//! call, in the daemon's order — frame decode, parse, resolve, identity,
//! exact probe, canonicalize, canonical probe, canonical replay or
//! compile, insert, WAL append — timing every call from outside.
//!
//! The replay keeps its own [`ResultCache`]s and [`Store`]s and a copy
//! of the router's ring, so its hit, miss, append and per-shard
//! forwarding counts can be compared with the counters the daemons
//! export after serving the same stream.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use qcs_circuit::canon::CanonConfig;
use qcs_circuit::hash::{circuit_digest, Fnv64};
use qcs_circuit::qasm;
use qcs_core::mapper::{MapOutcome, StageTiming};
use qcs_core::portfolio::Portfolio;
use qcs_core::verify::{verify_outcome, VerifyConfig};
use qcs_json::{Json, ToJson};
use qcs_rng::SeedableRng;
use qcs_serve::cache::{CanonicalHit, CanonicalInfo};
use qcs_serve::compile::CanonicalJob;
use qcs_serve::protocol::{Request, Source};
use qcs_serve::{catalog, FrameDecoder, Job, ResultCache, Store};

use crate::fleet::{CACHE_BYTES, RING_REPLICAS};

/// Devices up to this width get the statevector re-check on a canonical
/// replay (the shard's `SEMANTIC_VERIFY_MAX_QUBITS`).
pub const SEMANTIC_VERIFY_MAX_QUBITS: usize = 12;

/// Per-layer timers and counters.
#[derive(Default)]
pub struct Tracer {
    times: BTreeMap<String, (f64, u64)>,
    counts: BTreeMap<String, f64>,
}

impl Tracer {
    fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let value = f();
        let us = start.elapsed().as_secs_f64() * 1e6;
        self.add_time(name, us);
        (value, us)
    }

    fn add_time(&mut self, name: &str, us: f64) {
        let slot = self.times.entry(name.to_string()).or_default();
        slot.0 += us;
        slot.1 += 1;
    }

    fn count(&mut self, name: &str, by: f64) {
        *self.counts.entry(name.to_string()).or_default() += by;
    }

    /// Mean microseconds per call of a timed layer (0 when never called).
    pub fn mean_us(&self, name: &str) -> f64 {
        self.times
            .get(name)
            .map_or(0.0, |&(sum, n)| if n == 0 { 0.0 } else { sum / n as f64 })
    }

    /// A counter's total (0 when never counted).
    pub fn total(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }
}

/// One shard's replay state.
pub struct ShardMirror {
    /// The shard's cache, with the served shard's byte budget.
    pub cache: ResultCache,
    /// The shard's WAL, when the served shard had one.
    pub store: Option<Store>,
    /// Canonical hits served (replay accepted).
    pub canonical_hits: u64,
}

impl ShardMirror {
    /// Requests that missed both cache layers.
    pub fn misses(&self) -> u64 {
        self.cache.stats().misses - self.canonical_hits
    }
}

/// A copy of the router's request placement: text-hash route key,
/// canonical-key memo, consistent-hash ring owner.
struct RouterMirror {
    ring: Vec<(u64, usize)>,
    memo: HashMap<u64, u64>,
    decoder: FrameDecoder,
}

/// The whole replay: router copy (when the workload is routed), shard
/// mirrors, timers.
pub struct Trace {
    router: Option<RouterMirror>,
    /// Per-shard state, in ring order.
    pub shards: Vec<ShardMirror>,
    /// Requests forwarded to each shard.
    pub forwarded: Vec<u64>,
    /// Per-layer timers and counters.
    pub tracer: Tracer,
    decoder: FrameDecoder,
}

fn micros(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

impl Trace {
    /// A replay of a fleet of `shards` shards, routed or direct, with WAL
    /// stores under `persist_root` when given.
    pub fn new(shards: usize, routed: bool, persist_root: Option<&Path>) -> std::io::Result<Trace> {
        let mut mirrors = Vec::new();
        for i in 0..shards {
            let store = match persist_root {
                Some(root) => {
                    let dir = root.join(format!("trace-shard{i}"));
                    let _ = std::fs::remove_dir_all(&dir);
                    Some(Store::open(&dir)?.0)
                }
                None => None,
            };
            mirrors.push(ShardMirror {
                cache: ResultCache::new(CACHE_BYTES),
                store,
                canonical_hits: 0,
            });
        }
        let router = routed.then(|| {
            let mut ring: Vec<(u64, usize)> = (0..shards)
                .flat_map(|shard| {
                    (0..RING_REPLICAS).map(move |replica| {
                        let mut h = Fnv64::new();
                        h.write_str("qcs-router-ring")
                            .write_usize(shard)
                            .write_usize(replica);
                        (h.finish(), shard)
                    })
                })
                .collect();
            ring.sort_unstable();
            RouterMirror {
                ring,
                memo: HashMap::new(),
                decoder: FrameDecoder::new(),
            }
        });
        Ok(Trace {
            router,
            shards: mirrors,
            forwarded: vec![0; shards],
            tracer: Tracer::default(),
            decoder: FrameDecoder::new(),
        })
    }

    /// Replays one request end to end. Returns the payload and the traced
    /// time of the request in microseconds (the calls the daemons make;
    /// the replay's own extra calls into the verifier and the selector
    /// are excluded).
    pub fn replay(&mut self, payload: &[u8]) -> (Arc<Vec<u8>>, f64) {
        let start = Instant::now();
        let mut extra_us = 0.0;
        let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(payload);
        self.tracer.count("frame.req_bytes", frame.len() as f64);

        let shard = match self.router.take() {
            Some(mut router) => {
                let shard = self.route(&mut router, &frame);
                self.router = Some(router);
                shard
            }
            None => 0,
        };
        self.forwarded[shard] += 1;

        let mut decoder = std::mem::take(&mut self.decoder);
        let (frames, _) = self.tracer.time("frame.decode_us", || {
            let mut out = Vec::new();
            decoder
                .feed(&frame, &mut out)
                .expect("generated frames decode");
            out
        });
        self.decoder = decoder;
        let (request, _) = self
            .tracer
            .time("protocol.parse_us", || Request::parse(&frames[0]));
        let Ok(Request::Compile(request)) = request else {
            panic!("generated requests are compile requests");
        };

        let circuit = match &request.source {
            Source::Qasm(text) => {
                let (parsed, _) = self
                    .tracer
                    .time("resolve.qasm_parse_us", || qasm::parse(text));
                let mut circuit = parsed.expect("generated QASM parses");
                if circuit.name().is_empty() {
                    circuit.set_name("qasm");
                }
                circuit
            }
            Source::Workload(spec) => {
                let (circuit, _) = self
                    .tracer
                    .time("resolve.workload_us", || catalog::resolve_workload(spec));
                circuit.expect("generated specs resolve")
            }
        };
        let (backend, _) = self.tracer.time("resolve.backend_us", || {
            catalog::resolve_backend(&request.device)
        });
        let job = Job {
            circuit,
            backend: backend.expect("generated devices resolve"),
            config: request.config.clone(),
            race: request.race,
        };
        let (digest, _) = self.tracer.time("identity.digest_us", || job.digest());
        let (full_key, _) = self.tracer.time("identity.full_key_us", || job.full_key());

        let mirror = &mut self.shards[shard];
        let (cached, _) = self
            .tracer
            .time("cache.probe_us", || mirror.cache.get(digest, &full_key));
        if let Some(payload) = cached {
            self.tracer
                .count("frame.resp_bytes", payload.len() as f64 + 4.0);
            return (payload, micros(start));
        }

        let (cjob, _) = self.tracer.time("canon.canonicalize_us", || {
            job.canonicalize(&CanonConfig::default())
        });
        self.tracer.count("canon.calls", 1.0);
        let mirror = &mut self.shards[shard];
        let (hit, _) = self.tracer.time("cache.probe_us", || {
            mirror.cache.get_canonical(cjob.digest, &cjob.key)
        });
        let band = if job.backend.qubit_count() <= SEMANTIC_VERIFY_MAX_QUBITS {
            "le12q"
        } else {
            "gt12q"
        };
        if let Some(hit) = hit {
            let replay_start = Instant::now();
            let replayed = replay_canonical(&job, &cjob, &hit, &mut self.tracer);
            self.tracer
                .add_time(&format!("replay.total_us.{band}"), micros(replay_start));
            match replayed {
                Ok((payload, initial, final_layout)) => {
                    self.shards[shard].canonical_hits += 1;
                    let payload = Arc::new(payload);
                    let info = canonical_info(cjob, initial, final_layout);
                    self.insert(shard, digest, full_key, &payload, info);
                    self.tracer
                        .count("frame.resp_bytes", payload.len() as f64 + 4.0);
                    return (payload, micros(start));
                }
                Err(_) => self.tracer.count("replay.rejected", 1.0),
            }
        }

        let (payload, initial, final_layout, extra) = self.compile(&job, band);
        extra_us += extra;
        let payload = Arc::new(payload);
        let info = canonical_info(cjob, initial, final_layout);
        self.insert(shard, digest, full_key, &payload, info);
        self.tracer
            .count("frame.resp_bytes", payload.len() as f64 + 4.0);
        (payload, micros(start) - extra_us)
    }

    /// The router hop: frame decode, parse, route key (text hash, memo,
    /// and on a memo miss resolve + canonicalize), ring owner.
    fn route(&mut self, router: &mut RouterMirror, frame: &[u8]) -> usize {
        let (frames, _) = self.tracer.time("frame.decode_us", || {
            let mut out = Vec::new();
            router
                .decoder
                .feed(frame, &mut out)
                .expect("generated frames decode");
            out
        });
        let (request, _) = self
            .tracer
            .time("protocol.parse_us", || Request::parse(&frames[0]));
        let Ok(Request::Compile(c)) = request else {
            panic!("generated requests are compile requests");
        };
        let route_start = Instant::now();
        let mut h = Fnv64::new();
        h.write_str("compile");
        match &c.source {
            Source::Qasm(text) => h.write_str("qasm").write_str(text),
            Source::Workload(spec) => h.write_str("workload").write_str(spec),
        };
        h.write_str(&c.device)
            .write_str(&c.config.placer)
            .write_str(&c.config.router);
        if c.race {
            h.write_str("race");
        }
        let text_key = h.finish();
        let key = match router.memo.get(&text_key) {
            Some(&known) => known,
            None => {
                let canon_key = match Job::resolve(&c) {
                    Ok(job) => {
                        let (cjob, _) = self.tracer.time("canon.canonicalize_us", || {
                            job.canonicalize(&CanonConfig::default())
                        });
                        self.tracer.count("canon.calls", 1.0);
                        cjob.digest
                    }
                    Err(_) => text_key,
                };
                router.memo.insert(text_key, canon_key);
                canon_key
            }
        };
        let ring = &router.ring;
        let start = ring.partition_point(|&(point, _)| point < key) % ring.len();
        self.tracer
            .add_time("router.route_key_us", micros(route_start));
        ring[start].1
    }

    /// A cold compile exactly as `run_job` performs it, split into the
    /// layers it crosses. Returns the payload, the layouts, and the time
    /// spent in the replay's own extra calls (selector, verifier).
    fn compile(&mut self, job: &Job, band: &str) -> (Vec<u8>, Vec<usize>, Vec<usize>, f64) {
        let mut extra_us = 0.0;
        let dpqa = job.backend.id().starts_with("dpqa");
        let (outcome, cold_map_us): (MapOutcome, f64) = if job.portfolio() {
            let engine = Portfolio::default();
            let (_, select_us) = self.tracer.time("portfolio.select_us", || {
                engine.selector().select(&job.circuit)
            });
            extra_us += select_us;
            let started = Instant::now();
            let (outcome, report) = engine
                .map(&job.circuit, &job.backend, None)
                .expect("benchmark jobs compile");
            let us = micros(started);
            if report.raced > 0 {
                self.tracer.add_time("portfolio.race_us", us);
                self.tracer.count("portfolio.races", 1.0);
            }
            self.tracer
                .count(&format!("portfolio.lane.{}", report.lane), 1.0);
            (outcome, us)
        } else {
            let layer = if dpqa { "dpqa.map_us" } else { "mapper.map_us" };
            let (outcome, us) = self
                .tracer
                .time(layer, || job.backend.map(&job.circuit, &job.config));
            (outcome.expect("benchmark jobs compile"), us)
        };
        let timing = outcome.report.timing;
        self.tracer
            .add_time("mapper.decompose_us", timing.decompose_micros);
        self.tracer.add_time("mapper.place_us", timing.place_micros);
        self.tracer.add_time("mapper.route_us", timing.route_micros);
        self.tracer
            .add_time("mapper.schedule_us", timing.schedule_micros);
        self.tracer
            .count("route.score_evals", outcome.routed.score_evals as f64);
        self.tracer.count("mapper.compiles", 1.0);
        if outcome.report.fallback_rung != 0 {
            self.tracer.count("mapper.fallback_nonzero", 1.0);
        }
        if dpqa {
            self.tracer
                .count("dpqa.moves", outcome.report.moves_inserted as f64);
            self.tracer
                .count("dpqa.move_stages", outcome.report.move_stages as f64);
            self.tracer.count("dpqa.compiles", 1.0);
        }

        let verify_config = VerifyConfig {
            move_swaps: dpqa,
            ..VerifyConfig::default()
        };
        let (verdict, verify_us) = self.tracer.time("verify.check_us", || {
            verify_outcome(&job.circuit, &outcome, job.backend.device(), &verify_config)
        });
        extra_us += verify_us;
        if verdict.is_err() {
            self.tracer.count("verify.failed", 1.0);
        }

        let ((payload, initial, final_layout), encode_us) = self
            .tracer
            .time("encode.result_us", || encode(job, outcome));
        self.tracer
            .count("encode.payload_bytes", payload.len() as f64);
        self.tracer
            .add_time(&format!("mapper.cold_us.{band}"), cold_map_us + encode_us);
        (payload, initial, final_layout, extra_us)
    }

    fn insert(
        &mut self,
        shard: usize,
        digest: u64,
        key: Vec<u8>,
        payload: &Arc<Vec<u8>>,
        info: CanonicalInfo,
    ) {
        let mirror = &mut self.shards[shard];
        let (key, _) = self.tracer.time("cache.insert_us", || {
            mirror.cache.insert_with_canonical(
                digest,
                key.clone(),
                payload.as_ref().clone(),
                Some(info.clone()),
            );
            key
        });
        let Some(store) = mirror.store.as_mut() else {
            return;
        };
        let (appended, _) = self.tracer.time("persist.append_us", || {
            store.append(digest, &key, payload, Some(&info))
        });
        appended.expect("WAL append");
        if store.should_compact() {
            let entries = mirror.cache.entries_by_recency();
            store.compact(&entries).expect("WAL compaction");
            self.tracer.count("persist.compactions", 1.0);
        }
    }
}

fn canonical_info(
    cjob: CanonicalJob,
    initial: Vec<usize>,
    final_layout: Vec<usize>,
) -> CanonicalInfo {
    CanonicalInfo {
        digest: cjob.digest,
        key: Arc::new(cjob.key),
        relabel: Arc::new(cjob.form.relabel),
        initial_layout: Arc::new(initial),
        final_layout: Arc::new(final_layout),
    }
}

/// A result payload with its mapping's initial and final layouts.
type Placed = (Vec<u8>, Vec<usize>, Vec<usize>);

/// The canonical `result` payload `run_job` builds from an outcome.
fn encode(job: &Job, outcome: MapOutcome) -> Placed {
    let initial = outcome.routed.initial.as_assignment().to_vec();
    let final_layout = outcome.routed.final_layout.as_assignment().to_vec();
    let mut report = outcome.report;
    report.timing = StageTiming::ZERO;
    let value = Json::object([
        ("type", Json::from("result")),
        ("digest", Json::from(format!("{:016x}", job.digest()))),
        ("report", report.to_json()),
        ("qasm", Json::from(qasm::print(&outcome.native))),
    ]);
    (
        value.to_compact_string().into_bytes(),
        initial,
        final_layout,
    )
}

/// The shard's canonical replay: compose the cached layouts through both
/// relabelings, re-verify by statevector on small devices, rewrite the
/// payload's identity fields.
fn replay_canonical(
    job: &Job,
    cjob: &CanonicalJob,
    hit: &CanonicalHit,
    tracer: &mut Tracer,
) -> Result<Placed, String> {
    let width = job.circuit.qubit_count();
    let r_b = &cjob.form.relabel;
    if r_b.len() != width || hit.relabel.len() != width || hit.initial_layout.len() != width {
        return Err("width mismatch".to_string());
    }
    let mut inv_a = vec![usize::MAX; width];
    for (old, &new) in hit.relabel.iter().enumerate() {
        inv_a[new] = old;
    }
    let mut initial = vec![0usize; width];
    let mut final_layout = vec![0usize; width];
    for v in 0..width {
        let a = inv_a[r_b[v]];
        initial[v] = hit.initial_layout[a];
        final_layout[v] = hit.final_layout[a];
    }
    let text = std::str::from_utf8(&hit.payload).map_err(|e| e.to_string())?;
    let mut value = qcs_json::parse(text).map_err(|e| e.to_string())?;
    let device_qubits = job.backend.qubit_count();
    if device_qubits <= SEMANTIC_VERIFY_MAX_QUBITS {
        let qasm_text = value
            .get("qasm")
            .and_then(Json::as_str)
            .ok_or("payload carries no qasm")?;
        let native = qasm::parse(qasm_text).map_err(|e| e.to_string())?;
        let seed = circuit_digest(&job.circuit) ^ 0x5345_4D43;
        let (verdict, _) = tracer.time("replay.equiv_us", || {
            let mut rng = qcs_rng::ChaCha8Rng::seed_from_u64(seed);
            qcs_sim::equiv::mapped_equivalent(
                &job.circuit,
                &native,
                device_qubits,
                &initial,
                &final_layout,
                2,
                &mut rng,
            )
        });
        verdict.map_err(|e| e.to_string())?;
    }
    value.set("digest", format!("{:016x}", job.digest()));
    if let Some(report) = value.get("report") {
        let mut report = report.clone();
        report.set("circuit_name", job.circuit.name().to_string());
        value.set("report", report);
    }
    Ok((
        value.to_compact_string().into_bytes(),
        initial,
        final_layout,
    ))
}
