//! Job execution: from request to canonical, cacheable response bytes.
//!
//! A *job* is (circuit, backend, mapper config). Its digest — the cache
//! key — folds together the circuit's content digest, the backend id
//! and width, and the strategy names, all via the stable FNV-1a hasher
//! from `qcs_circuit::hash`. For fixed-coupler backends the id is the
//! device name, so pre-backend cache keys are unchanged.
//!
//! Every job maps through [`qcs_core::compile`], the one compile path
//! the Fig. 1 stack (`qcs_stack::FullStack`) also runs: a fixed
//! pipeline walks the backend's rungs, an `auto` or raced job runs the
//! portfolio, and either way the result is verified.
//!
//! The *canonical result* is deliberately a pure function of the job:
//! the full `MapReport` with wall-clock timing normalized to zero, plus
//! the routed native circuit as QASM. That purity is what the service's
//! headline guarantee rests on: a cache hit, a recompile on another
//! worker thread, and an in-process `qcs_core::compile` all produce
//! byte-identical payloads. The *measured* timing is returned alongside
//! (never inside) the canonical bytes, and feeds the per-stage latency
//! histograms.

use std::sync::Arc;

use qcs_circuit::canon::{self, CanonConfig, CanonicalForm};
use qcs_circuit::circuit::Circuit;
use qcs_circuit::hash::{circuit_digest, Fnv64};
use qcs_circuit::qasm;
use qcs_core::backend::Backend;
use qcs_core::config::MapperConfig;
use qcs_core::mapper::StageTiming;
use qcs_core::portfolio::{uses_portfolio, PortfolioReport};
use qcs_json::{Json, ToJson};
use qcs_topology::DeviceHealth;

use crate::catalog;
use crate::protocol::{CompileRequest, Source};

/// Why a job could not produce a result.
#[derive(Debug, Clone, PartialEq)]
pub struct JobError(pub String);

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for JobError {}

/// A fully-resolved compilation job.
#[derive(Clone)]
pub struct Job {
    /// The circuit to map.
    pub circuit: Circuit,
    /// The compilation target (fixed-coupler or movement-based).
    pub backend: Arc<dyn Backend>,
    /// The pipeline description.
    pub config: MapperConfig,
    /// Race every portfolio lane instead of selecting (the request's
    /// `"race": true`). Part of job identity: a forced race and a
    /// selector pick can legitimately serve different (both correct)
    /// results, so they must not share a cache entry.
    pub race: bool,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("circuit", &self.circuit.name())
            .field("backend", &self.backend.id())
            .field("config", &self.config)
            .finish()
    }
}

impl Job {
    /// Resolves a protocol request into a job (parses QASM / generates
    /// the workload, resolves the backend, keeps the config).
    ///
    /// # Errors
    ///
    /// [`JobError`] with a client-presentable message.
    pub fn resolve(request: &CompileRequest) -> Result<Job, JobError> {
        let circuit = match &request.source {
            Source::Qasm(text) => {
                let mut c =
                    qasm::parse(text).map_err(|e| JobError(format!("qasm rejected: {e}")))?;
                if c.name().is_empty() {
                    c.set_name("qasm");
                }
                Ok(c)
            }
            Source::Workload(spec) => {
                catalog::resolve_workload(spec).map_err(|e| JobError(e.to_string()))
            }
        }?;
        let backend =
            catalog::resolve_backend(&request.device).map_err(|e| JobError(e.to_string()))?;
        Ok(Job {
            circuit,
            backend,
            config: request.config.clone(),
            race: request.race,
        })
    }

    /// True when this job runs through the mapper portfolio (an `auto`
    /// strategy or an explicit race) rather than a fixed pipeline.
    /// Portfolio jobs degrade inside their deadline instead of being
    /// rejected against it.
    pub fn portfolio(&self) -> bool {
        uses_portfolio(&self.config, self.race)
    }

    /// The job's content digest — the cache key.
    pub fn digest(&self) -> u64 {
        let base = job_digest(&self.circuit, self.backend.as_ref(), &self.config);
        if !self.race {
            return base;
        }
        // Forced races are a distinct job identity; fold a marker so
        // pre-portfolio digests (race = false) are unchanged.
        let mut h = Fnv64::new();
        h.write_u64(base);
        h.write_str("race");
        h.finish()
    }

    /// The job's *full* key: the complete canonical description the
    /// digest summarizes (QASM text + backend identity + strategy names).
    /// The cache compares this byte-for-byte on every digest hit, so a
    /// 64-bit collision between distinct jobs can never serve the wrong
    /// result — see `cache::CacheStats::hash_conflicts`.
    pub fn full_key(&self) -> Vec<u8> {
        self.key(None, &qasm::print(&self.circuit))
    }

    /// The layout both keys share: `[domain \0] qasm \0 backend id \0
    /// width \0 placer \0 router [\0 race]`, in a buffer of exactly its
    /// length — keys move into the cache as-is, so spare capacity would
    /// ride along in every entry.
    fn key(&self, domain: Option<&[u8]>, qasm: &str) -> Vec<u8> {
        let width = self.backend.qubit_count().to_string();
        let mut fields: Vec<&[u8]> = Vec::with_capacity(7);
        fields.extend(domain);
        fields.extend([
            qasm.as_bytes(),
            self.backend.id().as_bytes(),
            width.as_bytes(),
            self.config.placer.as_bytes(),
            self.config.router.as_bytes(),
        ]);
        if self.race {
            fields.push(b"race");
        }
        // `join` sizes its output exactly before copying.
        fields.join(&0)
    }

    /// Reduces the job's circuit to canonical form and derives the
    /// job-level canonical digest and full key. The non-circuit job
    /// dimensions (backend identity, strategy, race) fold in exactly as
    /// they do for the exact digest/key, so two jobs share a canonical
    /// identity iff their circuits are structurally equivalent *and*
    /// they target the same backend + pipeline.
    pub fn canonicalize(&self, config: &CanonConfig) -> CanonicalJob {
        let form = canon::canonicalize(&self.circuit, config);
        let mut h = Fnv64::new();
        h.write_u64(canon::canonical_digest(&form.circuit));
        h.write_str(self.backend.id());
        h.write_usize(self.backend.qubit_count());
        h.write_str(&self.config.placer);
        h.write_str(&self.config.router);
        if self.race {
            h.write_str("race");
        }
        let digest = h.finish();

        // Same layout as `full_key`, in a distinct domain ("canon\0"
        // prefix) and with the *canonical* QASM — which carries no
        // circuit name, so a rename cannot split the key.
        let key = self.key(Some(b"canon"), &qasm::print(&form.circuit));
        CanonicalJob { form, digest, key }
    }

    /// Applies a `qcs-faults` trigger tag to this job.
    ///
    /// The only tag currently understood is
    /// `degrade:QFRAC:CFRAC:SEED` — a mid-flight calibration outage that
    /// swaps the job's backend for a seeded random degradation of itself
    /// (see [`DeviceHealth::random`] and [`Backend::degrade`]). Because
    /// degrading renames the backend, the job's digest changes with it
    /// and cached fault-free results stay untouched.
    ///
    /// # Errors
    ///
    /// [`JobError`] on an unknown tag, a malformed spec, or an overlay
    /// the device rejects.
    pub fn apply_trigger(&mut self, tag: &str) -> Result<(), JobError> {
        let Some(spec) = tag.strip_prefix("degrade:") else {
            return Err(JobError(format!("unknown fault trigger '{tag}'")));
        };
        let bad = || {
            JobError(format!(
                "bad degrade trigger '{tag}' (want degrade:QFRAC:CFRAC:SEED)"
            ))
        };
        let mut parts = spec.split(':');
        let qubit_frac: f64 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let coupler_frac: f64 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let seed: u64 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        if parts.next().is_some() {
            return Err(bad());
        }
        let health = DeviceHealth::random(
            self.backend.device().coupling(),
            qubit_frac,
            coupler_frac,
            seed,
        );
        self.backend = self
            .backend
            .degrade(&health)
            .map_err(|e| JobError(format!("degrade trigger rejected: {e}")))?;
        Ok(())
    }
}

/// Stable digest of everything that determines a compilation result.
pub fn job_digest(circuit: &Circuit, backend: &dyn Backend, config: &MapperConfig) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(circuit_digest(circuit));
    h.write_str(backend.id());
    h.write_usize(backend.qubit_count());
    h.write_str(&config.placer);
    h.write_str(&config.router);
    h.finish()
}

/// A job's canonical identity: the reduced circuit plus the digest and
/// full key the semantic cache layers share.
#[derive(Debug, Clone)]
pub struct CanonicalJob {
    /// The canonical form (relabeling, reduced circuit, stage costs).
    pub form: CanonicalForm,
    /// Canonical job digest: canonical circuit digest + backend +
    /// strategy + race, under the `canon/1` domain tag.
    pub digest: u64,
    /// Canonical full key, byte-compared on every canonical-digest hit
    /// so a 64-bit collision can never serve across distinct jobs.
    pub key: Vec<u8>,
}

/// A finished compilation: canonical payload plus measurement.
#[derive(Debug, Clone)]
pub struct CompileOutput {
    /// The job digest (also embedded in the payload).
    pub digest: u64,
    /// Canonical `result` response, compact-serialized — the bytes that
    /// get cached and sent.
    pub payload: Vec<u8>,
    /// Measured per-stage wall-clock timing of this compile.
    pub timing: StageTiming,
    /// The `placer/router` pipeline that actually served (for a
    /// portfolio job, the winning lane's pipeline; for a fixed job,
    /// the rung that served). Keys the per-strategy latency
    /// histograms and the strategy-aware cold-compile predictor.
    pub strategy: String,
    /// False when the result is correct and verified but *not* a pure
    /// function of the job — a portfolio run whose path was altered by
    /// the remaining deadline budget. Such results must be served but
    /// never cached.
    pub cacheable: bool,
    /// Portfolio accounting when the job ran through the portfolio
    /// (delivery metadata — never part of the canonical payload).
    pub portfolio: Option<PortfolioReport>,
    /// Virtual→physical assignment before the first gate. Stored with
    /// the cache entry so a canonical hit can compose this mapping
    /// through the relabeling and re-verify it for the new circuit.
    pub initial_layout: Vec<usize>,
    /// Virtual→physical assignment after the last gate.
    pub final_layout: Vec<usize>,
}

/// Runs the backend's mapping pipeline — the requested config at the
/// top of its fallback ladder, verification on — and builds the
/// canonical `result` payload. The embedded report records which rung
/// served (`fallback_rung`, 0 = the requested pipeline; for a movement
/// backend the SWAP-demotion rungs sit below the movement rungs) and
/// that the result was verified, so a degraded answer is always visibly
/// degraded.
///
/// # Errors
///
/// [`JobError`] when every rung of the backend's ladder rejects the job
/// (unknown strategy, circuit wider than the target, routing failure…)
/// or the job is unsatisfiable on the target.
pub fn run_job(job: &Job) -> Result<CompileOutput, JobError> {
    run_job_with_deadline(job, None)
}

/// [`run_job`] with the request's *remaining* deadline budget.
///
/// Fixed-pipeline jobs ignore the budget (the server rejects them
/// against the predictor before compiling). Portfolio jobs hand it to
/// the portfolio through [`qcs_core::compile`], which degrades *inside*
/// the budget — a tight deadline yields a verified cheapest-lane
/// result, never an error.
///
/// # Errors
///
/// As for [`run_job`].
pub fn run_job_with_deadline(
    job: &Job,
    deadline: Option<std::time::Duration>,
) -> Result<CompileOutput, JobError> {
    let digest = job.digest();
    let (outcome, portfolio) =
        qcs_core::compile(&job.circuit, &job.backend, &job.config, job.race, deadline)
            .map_err(|e| JobError(format!("mapping failed: {e}")))?;
    let timing = outcome.report.timing;
    let initial_layout = outcome.routed.initial.as_assignment().to_vec();
    let final_layout = outcome.routed.final_layout.as_assignment().to_vec();

    let mut report = outcome.report;
    report.timing = StageTiming::ZERO; // measurement out of canonical content
    let strategy = format!("{}/{}", report.placer, report.router);
    let cacheable = portfolio.as_ref().is_none_or(|p| !p.budget_limited);
    let value = Json::object([
        ("type", Json::from("result")),
        ("digest", Json::from(format!("{digest:016x}"))),
        ("report", report.to_json()),
        ("qasm", Json::from(qasm::print(&outcome.native))),
    ]);
    Ok(CompileOutput {
        digest,
        payload: value.to_compact_string().into_bytes(),
        timing,
        strategy,
        cacheable,
        portfolio,
        initial_layout,
        final_layout,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(workload: &str) -> CompileRequest {
        CompileRequest {
            source: Source::Workload(workload.to_string()),
            device: "surface17".to_string(),
            config: MapperConfig::new("trivial", "lookahead"),
            deadline_ms: None,
            request_id: None,
            race: false,
        }
    }

    #[test]
    fn identical_jobs_have_identical_digests_and_payloads() {
        let a = Job::resolve(&request("ghz:6")).unwrap();
        let b = Job::resolve(&request("ghz:6")).unwrap();
        assert_eq!(a.digest(), b.digest());
        let ra = run_job(&a).unwrap();
        let rb = run_job(&b).unwrap();
        assert_eq!(
            ra.payload, rb.payload,
            "canonical payloads must be byte-identical"
        );
    }

    #[test]
    fn digest_separates_every_input_dimension() {
        let base = Job::resolve(&request("ghz:6")).unwrap();
        let other_circuit = Job::resolve(&request("ghz:7")).unwrap();
        assert_ne!(base.digest(), other_circuit.digest());

        let mut req = request("ghz:6");
        req.device = "grid:5x4".to_string();
        assert_ne!(base.digest(), Job::resolve(&req).unwrap().digest());

        let mut req = request("ghz:6");
        req.config = MapperConfig::new("trivial", "trivial");
        assert_ne!(base.digest(), Job::resolve(&req).unwrap().digest());
    }

    #[test]
    fn payload_matches_in_process_mapper() {
        let job = Job::resolve(&request("qft:5")).unwrap();
        let out = run_job(&job).unwrap();
        let text = String::from_utf8(out.payload).unwrap();
        let value = qcs_json::parse(&text).unwrap();
        assert_eq!(value.get("type").and_then(Json::as_str), Some("result"));

        // The embedded report equals a direct in-process ladder run
        // against the same device (timing zeroed).
        let device = catalog::resolve_device("surface17").unwrap();
        let ladder = qcs_core::ladder::FallbackLadder::standard(job.config.clone());
        let outcome = ladder.map(&job.circuit, &device).unwrap();
        assert_eq!(outcome.report.fallback_rung, 0);
        assert!(outcome.report.verified);
        let mut report = outcome.report;
        report.timing = StageTiming::ZERO;
        assert_eq!(
            value.get("report").unwrap().to_compact_string(),
            report.to_json().to_compact_string()
        );
        // And the measured timing is real.
        assert!(out.timing.total_micros() > 0.0);
    }

    #[test]
    fn dpqa_jobs_run_through_the_movement_backend() {
        let mut req = request("qft:8");
        req.device = "dpqa:3x4".to_string();
        req.config = MapperConfig::default();
        let job = Job::resolve(&req).unwrap();
        assert_eq!(job.backend.id(), "dpqa-3x4");
        let out = run_job(&job).unwrap();
        let text = String::from_utf8(out.payload).unwrap();
        let value = qcs_json::parse(&text).unwrap();
        let report = value.get("report").unwrap();
        assert_eq!(
            report.get("router").and_then(Json::as_str),
            Some(qcs_dpqa::MOVE_ROUTER)
        );
        assert_eq!(report.get("verified").and_then(Json::as_bool), Some(true));
        assert!(
            report
                .get("moves_inserted")
                .and_then(Json::as_usize)
                .unwrap()
                > 0
        );
    }

    #[test]
    fn qasm_source_jobs_resolve() {
        let req = CompileRequest {
            source: Source::Qasm("qreg q[3]; h q[0]; cx q[0],q[1]; cx q[1],q[2];".to_string()),
            device: "line:3".to_string(),
            config: MapperConfig::new("trivial", "trivial"),
            deadline_ms: None,
            request_id: None,
            race: false,
        };
        let job = Job::resolve(&req).unwrap();
        assert_eq!(job.circuit.gate_count(), 3);
        assert!(run_job(&job).is_ok());
    }

    #[test]
    fn resolve_errors_are_presentable() {
        let mut req = request("ghz:6");
        req.device = "warp-core".to_string();
        let e = Job::resolve(&req).unwrap_err();
        assert!(e.0.contains("warp-core"));

        let req = CompileRequest {
            source: Source::Qasm("frobnicate q[0];".to_string()),
            device: "surface17".to_string(),
            config: MapperConfig::default(),
            deadline_ms: None,
            request_id: None,
            race: false,
        };
        assert!(Job::resolve(&req).unwrap_err().0.contains("qasm rejected"));
    }

    #[test]
    fn too_wide_job_errors_gracefully() {
        let mut req = request("ghz:30");
        req.device = "line:5".to_string();
        let job = Job::resolve(&req).unwrap();
        assert!(run_job(&job).unwrap_err().0.contains("mapping failed"));
    }

    #[test]
    fn fixed_jobs_report_their_strategy_and_stay_cacheable() {
        let job = Job::resolve(&request("ghz:6")).unwrap();
        let out = run_job(&job).unwrap();
        assert_eq!(out.strategy, "trivial/lookahead");
        assert!(out.cacheable);
        assert!(out.portfolio.is_none());
    }

    #[test]
    fn auto_jobs_run_the_portfolio_and_are_deterministic() {
        let mut req = request("qft:6");
        req.config = MapperConfig::new("auto", "auto");
        let job = Job::resolve(&req).unwrap();
        assert!(job.portfolio());
        let a = run_job(&job).unwrap();
        let b = run_job(&job).unwrap();
        assert_eq!(a.payload, b.payload, "unbounded auto runs are pure");
        assert_eq!(a.strategy, b.strategy);
        assert!(a.cacheable);
        let report = a.portfolio.expect("auto jobs carry portfolio accounting");
        assert!(report.race_complete);
        assert!(!report.budget_limited);
    }

    #[test]
    fn race_flag_is_part_of_job_identity() {
        let mut req = request("qft:6");
        req.config = MapperConfig::new("auto", "auto");
        let auto = Job::resolve(&req).unwrap();
        req.race = true;
        let raced = Job::resolve(&req).unwrap();
        assert!(raced.portfolio());
        assert_ne!(auto.digest(), raced.digest());
        assert_ne!(auto.full_key(), raced.full_key());
        // A raced fixed-pipeline job is also distinct from the plain one.
        let mut fixed = request("qft:6");
        fixed.race = true;
        assert_ne!(
            Job::resolve(&request("qft:6")).unwrap().digest(),
            Job::resolve(&fixed).unwrap().digest()
        );
    }

    #[test]
    fn canonical_identity_collapses_renames_and_reorders_only() {
        let base = Job::resolve(&request("qft:5")).unwrap();
        let config = CanonConfig::default();
        let canon_base = base.canonicalize(&config);

        // A renamed + relabeled + reordered twin shares the canonical
        // identity while its exact identity differs.
        let mut twin = base.clone();
        let perm: Vec<usize> = (0..twin.circuit.qubit_count()).rev().collect();
        twin.circuit =
            canon::commuting_shuffle(&canon::permute_qubits(&twin.circuit, &perm), 7, 100);
        twin.circuit.set_name("renamed");
        assert_ne!(base.digest(), twin.digest());
        let canon_twin = twin.canonicalize(&config);
        assert_eq!(canon_base.digest, canon_twin.digest);
        assert_eq!(canon_base.key, canon_twin.key);

        // Every non-circuit job dimension still separates.
        let mut req = request("qft:5");
        req.device = "grid:5x4".to_string();
        let other_device = Job::resolve(&req).unwrap().canonicalize(&config);
        assert_ne!(canon_base.digest, other_device.digest);

        let mut req = request("qft:5");
        req.config = MapperConfig::new("trivial", "trivial");
        let other_config = Job::resolve(&req).unwrap().canonicalize(&config);
        assert_ne!(canon_base.digest, other_config.digest);

        let mut req = request("qft:5");
        req.race = true;
        let raced = Job::resolve(&req).unwrap().canonicalize(&config);
        assert_ne!(canon_base.digest, raced.digest);
        assert_ne!(canon_base.key, raced.key);
    }

    #[test]
    fn job_keys_are_sized_exactly() {
        let mut req = request("qft:12");
        req.device = "surface97".to_string();
        req.race = true;
        let job = Job::resolve(&req).unwrap();
        let full = job.full_key();
        assert_eq!(full.capacity(), full.len());
        assert!(full.ends_with(b"\0trivial\0lookahead\0race"));
        let canonical = job.canonicalize(&CanonConfig::default()).key;
        assert_eq!(canonical.capacity(), canonical.len());
        assert!(canonical.starts_with(b"canon\0OPENQASM"));
        let tail = format!("\0{}\097\0trivial\0lookahead\0race", job.backend.id());
        assert!(canonical.ends_with(tail.as_bytes()));
    }

    #[test]
    fn outputs_carry_the_layouts() {
        let job = Job::resolve(&request("ghz:6")).unwrap();
        let out = run_job(&job).unwrap();
        assert_eq!(out.initial_layout.len(), job.circuit.qubit_count());
        assert_eq!(out.final_layout.len(), job.circuit.qubit_count());
    }

    #[test]
    fn tight_deadline_portfolio_jobs_degrade_and_are_uncacheable() {
        let mut req = request("qft:6");
        req.config = MapperConfig::new("auto", "auto");
        let job = Job::resolve(&req).unwrap();
        let out = run_job_with_deadline(&job, Some(std::time::Duration::from_millis(1))).unwrap();
        assert_eq!(out.strategy, "trivial/trivial");
        assert!(!out.cacheable, "budget-limited results must not be cached");
        let report = out.portfolio.unwrap();
        assert!(report.budget_limited);
        // The payload still embeds a verified report.
        let value = qcs_json::parse(std::str::from_utf8(&out.payload).unwrap()).unwrap();
        let embedded = value.get("report").unwrap();
        assert_eq!(embedded.get("verified").and_then(Json::as_bool), Some(true));
    }
}
