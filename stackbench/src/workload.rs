//! Seeded request streams for the three workloads.
//!
//! Everything the daemons receive is generated here, before any fleet
//! starts, from the in-tree generators: the paper's suite generator
//! (`generate_suite`), the catalog's workload specs, and the semantic
//! cache's twin makers (`canon::permute_qubits`,
//! `canon::commuting_shuffle`). The same `--seed` always yields the same
//! bytes; [`Stream::digest`] fingerprints them.

use std::collections::HashSet;
use std::sync::Arc;

use qcs_circuit::canon::{self, CanonConfig, CANON_MAX_GATES};
use qcs_circuit::circuit::Circuit;
use qcs_circuit::hash::Fnv64;
use qcs_circuit::qasm;
use qcs_core::config::MapperConfig;
use qcs_json::Json;
use qcs_rng::{ChaCha8Rng, Rng, SeedableRng};
use qcs_serve::catalog;
use qcs_workloads::suite::{generate_suite, SuiteConfig};

/// The workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["cold_suite", "warm_hits", "near_dup_mix"];

/// What the serving shard is expected to do with a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A job no earlier request shares: compiled cold.
    Miss,
    /// Byte-identical to a warm-pass request: an exact cache hit.
    Repeat,
    /// A renamed, relabelled, commuting-reordered twin of a warm-pass
    /// request: a canonical cache hit.
    Twin,
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Req {
    /// The request frame payload (compact JSON).
    pub bytes: Arc<Vec<u8>>,
    /// Expected shard outcome.
    pub class: Class,
    /// Warm-pass index this request repeats or twins.
    pub base: Option<usize>,
    /// For a twin, the relabelling applied to the base circuit
    /// (`perm[base_qubit] = twin_qubit`).
    pub perm: Option<Arc<Vec<usize>>>,
    /// Qubits of the target device.
    pub device_qubits: usize,
}

/// A workload's full traffic: the warm pass, then the measured stream.
pub struct Stream {
    /// Sent one at a time before measuring (part of set-up).
    pub warm: Vec<Req>,
    /// Sent while measuring, in order (closed loop) or by schedule.
    pub measured: Vec<Req>,
}

impl Stream {
    /// FNV-1a fingerprint of every request's bytes, warm pass first: two
    /// runs with equal digests sent the same traffic.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        for req in self.warm.iter().chain(&self.measured) {
            h.write_usize(req.bytes.len());
            h.write_bytes(&req.bytes);
        }
        h.finish()
    }
}

/// Derives an independent stream seed for one purpose.
pub fn mix(seed: u64, tag: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(seed).write_str(tag);
    h.finish()
}

fn compile_json(source: (&str, &str), device: &str, config: &MapperConfig) -> Arc<Vec<u8>> {
    let value = Json::object([
        ("type", Json::from("compile")),
        (source.0, Json::from(source.1)),
        ("device", Json::from(device)),
        ("placer", Json::from(config.placer.as_str())),
        ("router", Json::from(config.router.as_str())),
    ]);
    Arc::new(value.to_compact_string().into_bytes())
}

fn qasm_req(text: &str, device: &str, config: &MapperConfig, class: Class) -> Req {
    Req {
        bytes: compile_json(("qasm", text), device, config),
        class,
        base: None,
        perm: None,
        device_qubits: device_qubits(device),
    }
}

fn device_qubits(device: &str) -> usize {
    catalog::resolve_backend(device)
        .expect("benchmark devices are catalog specs")
        .qubit_count()
}

/// Job-level canonical identity of a circuit on a device + pipeline, used
/// to keep every warm-pass job distinct from every other one.
fn canonical_identity(circuit: &Circuit, device: &str, config: &MapperConfig) -> u64 {
    let form = canon::canonicalize(circuit, &CanonConfig::default());
    let mut h = Fnv64::new();
    h.write_u64(canon::canonical_digest(&form.circuit))
        .write_str(device)
        .write_str(&config.placer)
        .write_str(&config.router);
    h.finish()
}

/// A seeded permutation of `0..n`.
pub fn permutation(n: usize, rng: &mut ChaCha8Rng) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        p.swap(i, j);
    }
    p
}

/// A template circuit made distinct from every other request of the run
/// by one appended rotation with a run-unique angle. Mapping cost is the
/// template's: the rotation is one single-qubit gate.
fn perturbed(template: &Circuit, unique: usize, rng: &mut ChaCha8Rng) -> String {
    let qubit = rng.gen_range(0..template.qubit_count());
    let angle = 0.1 + unique as f64 * 1e-4;
    format!("{}rz({angle:.6}) q[{qubit}];\n", qasm::print(template))
}

/// The paper's 200-circuit suite (`SuiteConfig` defaults, fixed seed).
fn paper_suite() -> Vec<Circuit> {
    generate_suite(&SuiteConfig::default())
        .into_iter()
        .map(|b| b.circuit)
        .collect()
}

/// The four `cold_suite` pipelines: the default pipeline, SABRE and the
/// portfolio on the Fig. 3 device, and the default pipeline on a
/// neutral-atom array.
pub fn cold_configs() -> [(&'static str, MapperConfig); 4] {
    [
        ("surface97", MapperConfig::default()),
        ("surface97", MapperConfig::new("sabre", "lookahead")),
        ("surface97", MapperConfig::new("auto", "auto")),
        ("dpqa:9x9", MapperConfig::default()),
    ]
}

/// Warm-pass templates per `cold_suite` pipeline (the quality panel).
const COLD_PANEL: usize = 16;

/// `cold_suite`: every measured request is a distinct circuit, so every
/// one misses.
///
/// Templates are the paper's suite. Drawing fresh suites per seed would
/// make the work per run swing with the generator's heavy size tail
/// (mean compile time over 280 circuits ranged 10.4–19.3 ms across five
/// seeds), so the stream is built in rounds instead: round `r` sends every
/// template once, template `t` with pipeline `(t + r) mod 4`, in seeded
/// order, each with a seeded qubit and a run-unique angle for its
/// appended rotation. Any whole number of rounds (see
/// [`cold_round_len`]) is then the same work whatever the seed.
pub fn cold_suite(seed: u64, measured: usize) -> Stream {
    let templates = paper_suite();
    let configs = cold_configs();
    let mut seen = HashSet::new();
    let mut warm = Vec::new();
    for (device, config) in &configs {
        for template in templates.iter().take(COLD_PANEL) {
            if seen.insert(canonical_identity(template, device, config)) {
                warm.push(qasm_req(
                    &qasm::print(template),
                    device,
                    config,
                    Class::Miss,
                ));
            }
        }
    }
    let mut rng = ChaCha8Rng::seed_from_u64(mix(seed, "cold_suite"));
    let mut out = Vec::with_capacity(measured);
    let mut round = 0;
    while out.len() < measured {
        for t in permutation(templates.len(), &mut rng) {
            let (device, config) = &configs[(t + round) % configs.len()];
            let text = perturbed(&templates[t], out.len(), &mut rng);
            out.push(qasm_req(&text, device, config, Class::Miss));
        }
        round += 1;
    }
    Stream {
        warm,
        measured: out,
    }
}

/// Requests per `cold_suite` round: one per suite template.
pub fn cold_round_len() -> usize {
    SuiteConfig::default().count
}

/// Gate cap for `warm_hits` QASM jobs: every hit still JSON-parses its
/// request at the router and the shard, so the cap bounds the heaviest
/// hit while responses still reach tens of kilobytes.
const WARM_QASM_MAX_GATES: usize = 300;

/// `warm_hits`: about 64 fixed distinct jobs, half catalog specs and half
/// QASM, across `surface17` and `surface97`. The seed drives only the
/// arrival schedule and the job drawn for each arrival (see `main`).
pub fn warm_hits_jobs() -> Vec<Req> {
    let config = MapperConfig::default();
    let mut specs: Vec<(String, &str)> = Vec::new();
    for n in [4, 8, 12, 16] {
        specs.push((format!("ghz:{n}"), "surface17"));
        specs.push((format!("wstate:{}", n + 1), "surface17"));
    }
    for n in [4, 6, 8, 10] {
        specs.push((format!("qft:{n}"), "surface17"));
    }
    for n in [3, 4, 5, 6] {
        specs.push((format!("grover:{n}"), "surface17"));
    }
    for n in [20, 30, 40, 50] {
        specs.push((format!("ghz:{n}"), "surface97"));
        specs.push((format!("wstate:{n}"), "surface97"));
    }
    for n in [12, 16, 20, 24] {
        specs.push((format!("qft:{n}"), "surface97"));
    }
    for (i, n) in [20, 30, 40, 50].into_iter().enumerate() {
        specs.push((format!("random:{n}:{}:0.4:{i}", n * 10), "surface97"));
    }

    let mut seen = HashSet::new();
    let mut jobs = Vec::new();
    for (spec, device) in &specs {
        let circuit = catalog::resolve_workload(spec).expect("catalog specs resolve");
        if seen.insert(canonical_identity(&circuit, device, &config)) {
            jobs.push(Req {
                bytes: compile_json(("workload", spec), device, &config),
                class: Class::Miss,
                base: None,
                perm: None,
                device_qubits: device_qubits(device),
            });
        }
    }
    // QASM half: the first suite circuits that fit each device, capped so
    // responses stay within about 100 KB.
    let mut small = 0;
    let mut large = 0;
    for template in paper_suite() {
        let width = template.qubit_count();
        let device = match width {
            _ if template.gate_count() > WARM_QASM_MAX_GATES => continue,
            2..=17 if small < 16 => "surface17",
            18..=54 if large < 16 => "surface97",
            _ => continue,
        };
        if seen.insert(canonical_identity(&template, device, &config)) {
            jobs.push(qasm_req(
                &qasm::print(&template),
                device,
                &config,
                Class::Miss,
            ));
            if device == "surface17" {
                small += 1;
            } else {
                large += 1;
            }
        }
    }
    jobs
}

/// The `near_dup_mix` device bands: small devices re-verify canonical
/// replays by statevector; wide ones replay structurally.
pub const NEAR_DUP_BANDS: [&str; 2] = ["grid:3x4", "surface97"];

/// Warm-pass base circuits per band.
const NEAR_DUP_BASES: usize = 24;

/// Gate cap for `near_dup_mix` templates. Every request and cached
/// payload on this workload is JSON-parsed at least once per hop, so the
/// cap keeps one request's cost within a few milliseconds and a run
/// within reach of enough samples for a p99.
const NEAR_DUP_MAX_GATES: usize = 250;

/// Templates for one `near_dup_mix` band: suite circuits of the band's
/// widths, at most [`NEAR_DUP_MAX_GATES`] gates, whose commutation normal
/// form the canonicalizer computes (a twin of a circuit past its caps
/// would simply miss).
fn band_templates(band: usize) -> Vec<Circuit> {
    let config = SuiteConfig {
        max_qubits: if band == 0 { 12 } else { 54 },
        ..SuiteConfig::default()
    };
    generate_suite(&config)
        .into_iter()
        .map(|b| b.circuit)
        .filter(|c| {
            let width = c.qubit_count();
            let in_band = if band == 0 {
                (2..=12).contains(&width)
            } else {
                (13..=54).contains(&width)
            };
            in_band
                && c.gate_count() <= NEAR_DUP_MAX_GATES.min(CANON_MAX_GATES)
                && canon::canonicalize(c, &CanonConfig::default()).normalized
        })
        .collect()
}

/// `near_dup_mix`: per band, 40% exact repeats of warm-pass bases, 40%
/// twins of them, 20% fresh circuits; the two bands alternate.
///
/// The stream is built in rounds so that its work does not depend on the
/// seed: a band's round repeats every base once, twins every base once,
/// and sends the next half-a-base-count of fresh templates in a fixed
/// cycle, all in seeded order. The seed picks the order, each twin's
/// relabelling and reordering, and each fresh circuit's rotation.
pub fn near_dup_mix(seed: u64, measured: usize) -> Stream {
    let config = MapperConfig::default();
    let mut rng = ChaCha8Rng::seed_from_u64(mix(seed, "near_dup_mix"));
    let mut warm = Vec::new();
    let mut base_circuits: Vec<Circuit> = Vec::new();
    // Every circuit sent so far, per device: twins must not repeat one.
    let mut circuits = HashSet::new();
    let mut bands = Vec::new();
    for (band, device) in NEAR_DUP_BANDS.iter().enumerate() {
        let mut seen = HashSet::new();
        let mut bases = Vec::new();
        let mut fresh = Vec::new();
        for template in band_templates(band) {
            if bases.len() < NEAR_DUP_BASES {
                if seen.insert(canonical_identity(&template, device, &config)) {
                    circuits.insert((device.to_string(), text_digest(&qasm::print(&template))));
                    bases.push(warm.len());
                    warm.push(qasm_req(
                        &qasm::print(&template),
                        device,
                        &config,
                        Class::Miss,
                    ));
                    base_circuits.push(template);
                }
            } else {
                fresh.push(template);
            }
        }
        bands.push((device, bases, fresh));
    }

    let per_band_len = measured.div_ceil(2);
    let mut per_band: Vec<Vec<Req>> = vec![Vec::new(), Vec::new()];
    let mut unique = 0usize;
    for (band, (device, bases, fresh)) in bands.iter().enumerate() {
        let mut next_fresh = 0;
        while per_band[band].len() < per_band_len {
            let mut slots: Vec<(Class, usize)> = Vec::new();
            for &b in bases {
                slots.push((Class::Repeat, b));
                slots.push((Class::Twin, b));
            }
            for _ in 0..bases.len() / 2 {
                slots.push((Class::Miss, next_fresh % fresh.len()));
                next_fresh += 1;
            }
            for i in permutation(slots.len(), &mut rng) {
                unique += 1;
                let (class, which) = slots[i];
                let repeat = |b: usize| Req {
                    class: Class::Repeat,
                    base: Some(b),
                    ..warm[b].clone()
                };
                let req = match class {
                    Class::Miss => {
                        let text = perturbed(&fresh[which], unique, &mut rng);
                        qasm_req(&text, device, &config, Class::Miss)
                    }
                    Class::Repeat => repeat(which),
                    Class::Twin => {
                        let base = &base_circuits[which];
                        twin(
                            base,
                            which,
                            unique,
                            device,
                            &config,
                            &mut circuits,
                            &mut rng,
                        )
                        .unwrap_or_else(|| repeat(which))
                    }
                };
                per_band[band].push(req);
            }
        }
    }
    let [small, wide]: [Vec<Req>; 2] = per_band.try_into().expect("two bands");
    let measured = small
        .into_iter()
        .zip(wide)
        .flat_map(|(a, b)| [a, b])
        .take(measured)
        .collect();
    Stream { warm, measured }
}

/// Requests per `near_dup_mix` round, both bands.
pub fn near_dup_round_len() -> usize {
    2 * (2 * NEAR_DUP_BASES + NEAR_DUP_BASES / 2)
}

/// A twin of warm-pass base `b`: relabelled by a seeded permutation,
/// commuting gates reordered, and renamed by a run-unique comment, so its
/// text is new but its canonical form is the base's. The circuit itself
/// must also be new (the cache keys on the parsed circuit, not the text):
/// a small circuit whose relabellings are exhausted yields `None`.
#[allow(clippy::too_many_arguments)]
fn twin(
    base: &Circuit,
    b: usize,
    unique: usize,
    device: &str,
    config: &MapperConfig,
    circuits: &mut HashSet<(String, u64)>,
    rng: &mut ChaCha8Rng,
) -> Option<Req> {
    for _ in 0..8 {
        let perm = permutation(base.qubit_count(), rng);
        let relabelled = canon::permute_qubits(base, &perm);
        let shuffled = canon::commuting_shuffle(&relabelled, rng.gen::<u64>(), base.gate_count());
        let text = qasm::print(&shuffled);
        if circuits.insert((device.to_string(), text_digest(&text))) {
            let text = format!("// twin-{unique}\n{text}");
            return Some(Req {
                base: Some(b),
                perm: Some(Arc::new(perm)),
                ..qasm_req(&text, device, config, Class::Twin)
            });
        }
    }
    None
}

fn text_digest(text: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(text);
    h.finish()
}
