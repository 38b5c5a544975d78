//! The output oracle behind `wrong_results`.
//!
//! * An exact hit or a miss must be byte-identical to the in-process
//!   `compile::run_job` payload for the same request bytes.
//! * A canonical hit must carry the twin base's result under the
//!   requester's own digest. On a device of at most 12 qubits the served
//!   mapped circuit must pass `qcs_sim::equiv::mapped_equivalent`
//!   against the requester's circuit, under layouts derived from the
//!   relabelling the generator applied (not from the daemon's canonical
//!   machinery). Above 12 qubits it must respect the device's coupling.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use qcs_circuit::hash::Fnv64;
use qcs_circuit::qasm;
use qcs_json::Json;
use qcs_rng::SeedableRng;
use qcs_serve::protocol::Request;
use qcs_serve::{catalog, run_job, Job};

use crate::load::Sample;
use crate::trace::SEMANTIC_VERIFY_MAX_QUBITS;
use crate::workload::{Class, Req};

/// The in-process result for one request.
pub struct Expected {
    /// FNV-1a digest of the `run_job` payload.
    pub digest: u64,
    /// The payload, parsed (kept for requests that twins refer to).
    pub parsed: Option<Json>,
    /// The compile's initial layout.
    pub initial: Vec<usize>,
    /// The compile's final layout.
    pub final_layout: Vec<usize>,
}

/// FNV-1a digest of a byte string.
pub fn bytes_digest(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write_bytes(bytes);
    h.finish()
}

fn resolve(bytes: &[u8]) -> Job {
    let Ok(Request::Compile(request)) = Request::parse(bytes) else {
        panic!("generated requests are compile requests");
    };
    Job::resolve(&request).expect("generated requests resolve")
}

fn expected(bytes: &[u8], keep_parsed: bool) -> Expected {
    let out = run_job(&resolve(bytes)).expect("generated jobs compile in process");
    Expected {
        digest: bytes_digest(&out.payload),
        parsed: if keep_parsed {
            parse_json(&out.payload)
        } else {
            None
        },
        initial: out.initial_layout,
        final_layout: out.final_layout,
    }
}

/// In-process results keyed by request-bytes digest.
#[derive(Default)]
pub struct Oracle {
    expected: HashMap<u64, Expected>,
}

impl Oracle {
    /// Compiles every distinct request in `reqs` in process, on two
    /// threads. `keep_parsed` keeps each payload parsed, for requests
    /// that twins will be checked against.
    pub fn compile<'a>(&mut self, reqs: impl IntoIterator<Item = &'a Req>, keep_parsed: bool) {
        let mut todo: Vec<&Req> = Vec::new();
        let mut queued = std::collections::HashSet::new();
        for req in reqs {
            let key = bytes_digest(&req.bytes);
            if !self.expected.contains_key(&key) && queued.insert(key) {
                todo.push(req);
            }
        }
        let next = AtomicUsize::new(0);
        let done = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = todo.get(i) else { break };
                    let result = expected(&req.bytes, keep_parsed);
                    done.lock()
                        .expect("oracle results poisoned")
                        .push((bytes_digest(&req.bytes), result));
                });
            }
        });
        self.expected
            .extend(done.into_inner().expect("oracle results poisoned"));
    }

    /// The in-process result for a request compiled earlier.
    pub fn get(&self, req: &Req) -> &Expected {
        &self.expected[&bytes_digest(&req.bytes)]
    }

    /// Whether a served response is right for its request. `warm` is the
    /// warm pass a twin refers to. A failed request is not wrong (it is
    /// counted as failed).
    pub fn check(&mut self, req: &Req, sample: &Sample, warm: &[Req]) -> bool {
        if !sample.ok {
            return true;
        }
        match req.class {
            Class::Miss | Class::Repeat => self.get(req).digest == sample.digest,
            Class::Twin => {
                let base = self.get(&warm[req.base.expect("twins name a base")]);
                let body = sample.body.as_deref().expect("twin responses are kept");
                if twin_is_right(req, body, base) {
                    return true;
                }
                // A twin the canonicalizer does not collapse is compiled
                // cold, and must then match the in-process compile.
                self.compile([req], false);
                self.get(req).digest == sample.digest
            }
        }
    }
}

fn parse_json(bytes: &[u8]) -> Option<Json> {
    std::str::from_utf8(bytes)
        .ok()
        .and_then(|t| qcs_json::parse(t).ok())
}

fn twin_is_right(req: &Req, body: &[u8], base: &Expected) -> bool {
    let (Some(served), Some(cached)) = (parse_json(body), base.parsed.as_ref()) else {
        return false;
    };
    let job = resolve(&req.bytes);
    // The base's result under the requester's identity.
    let mut report = match cached.get("report") {
        Some(report) => report.clone(),
        None => return false,
    };
    report.set("circuit_name", job.circuit.name().to_string());
    if served.get("digest").and_then(Json::as_str) != Some(&format!("{:016x}", job.digest()))
        || served.get("report").map(Json::to_compact_string) != Some(report.to_compact_string())
        || served.get("qasm") != cached.get("qasm")
    {
        return false;
    }
    let Some(native) = served
        .get("qasm")
        .and_then(Json::as_str)
        .and_then(|text| qasm::parse(text).ok())
    else {
        return false;
    };
    let device = match Request::parse(&req.bytes) {
        Ok(Request::Compile(c)) => c.device,
        _ => return false,
    };
    if req.device_qubits <= SEMANTIC_VERIFY_MAX_QUBITS {
        // perm[base_qubit] = twin_qubit, so twin qubit perm[v] sits where
        // base qubit v did.
        let perm = req.perm.as_ref().expect("twins carry their relabelling");
        let mut initial = vec![0; perm.len()];
        let mut final_layout = vec![0; perm.len()];
        for (v, &t) in perm.iter().enumerate() {
            initial[t] = base.initial[v];
            final_layout[t] = base.final_layout[v];
        }
        let mut rng = qcs_rng::ChaCha8Rng::seed_from_u64(bytes_digest(&req.bytes));
        qcs_sim::equiv::mapped_equivalent(
            &job.circuit,
            &native,
            req.device_qubits,
            &initial,
            &final_layout,
            2,
            &mut rng,
        )
        .is_ok()
    } else {
        let Ok(device) = catalog::resolve_device(&device) else {
            return false;
        };
        native.gates().iter().all(|g| {
            let qs = g.qubits();
            qs.len() < 2 || device.are_adjacent(qs[0], qs[1])
        })
    }
}

/// Mean routed gates, SWAPs and analytic fidelity over result payloads.
pub fn quality<'a>(payloads: impl IntoIterator<Item = &'a [u8]>) -> (f64, f64, f64) {
    let mut sums = (0.0, 0.0, 0.0);
    let mut n = 0.0;
    for payload in payloads {
        let Some(report) = std::str::from_utf8(payload)
            .ok()
            .and_then(|t| qcs_json::parse(t).ok())
            .and_then(|v| v.get("report").cloned())
        else {
            continue;
        };
        let field = |k: &str| report.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        sums.0 += field("routed_gates");
        sums.1 += field("swaps_inserted");
        sums.2 += field("fidelity_after");
        n += 1.0;
    }
    let n: f64 = if n == 0.0 { 1.0 } else { n };
    (sums.0 / n, sums.1 / n, sums.2 / n)
}
