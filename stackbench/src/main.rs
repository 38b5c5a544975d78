//! `stackbench` — the serving stack's end-to-end and per-layer benchmark.
//!
//! ```text
//! stackbench --workload <cold_suite|warm_hits|near_dup_mix> --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload starts an in-process fleet (pinned `qcs-serve` shards,
//! optionally behind a `qcs-router`), runs a warm pass, drives seeded
//! traffic over at most two client connections for `--seconds`, and
//! checks every response against the in-process compiler. `--trace 0`
//! prints the end-to-end metrics; `--trace 1` additionally replays the
//! served stream through the layers' public functions and prints the
//! per-layer metrics. The last stdout line is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! See README.md beside this crate.

mod fleet;
mod load;
mod oracle;
mod stats;
mod trace;
mod workload;

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use qcs_json::Json;
use qcs_rng::{ChaCha8Rng, SeedableRng};

use fleet::{counter, Fleet};
use load::{Arrival, Phase, Sample};
use oracle::Oracle;
use trace::Trace;
use workload::{mix, Class, Req, Stream};

/// Fleet start + warm pass repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Requests generated for the closed-loop workloads (more than any run
/// sends; a run that exhausts them says so).
const COLD_STREAM: usize = 2400;
const NEAR_DUP_STREAM: usize = 12000;

/// Per-workload latency limits behind `slo_rps`.
const COLD_LIMIT_MS: f64 = 500.0;
const WARM_LIMIT_MS: f64 = 100.0;
const NEAR_DUP_LIMIT_MS: f64 = 100.0;

/// `warm_hits` offered rates: the fixed-rate phase, and the ladder.
const WARM_FIXED_RPS: f64 = 240.0;
const WARM_LADDER_RPS: [f64; 4] = [125.0, 250.0, 375.0, 500.0];

/// A run whose generator fell this far behind its schedule, or left this
/// many requests unanswered at its last send, did not offer the load it
/// claims and is invalid.
const MAX_SEND_LAG_P99_MS: f64 = 50.0;
const MAX_BACKLOG: usize = 256;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value()? == "1",
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !workload::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workload::WORKLOADS.join(", ")
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// One named metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Everything a run reports.
#[derive(Default)]
struct Report {
    attempted: usize,
    failed: usize,
    wrong: usize,
    /// Counter cross-check failures, one line each.
    mismatches: Vec<String>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

impl Report {
    fn correct(&self) -> bool {
        self.wrong == 0 && self.mismatches.is_empty()
    }

    fn print(&self, trace: bool) {
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            eprintln!("  {:<28} {:>16.4} {}", m.name, m.value, m.unit);
        }
        for line in &self.mismatches {
            eprintln!("counter mismatch: {line}");
        }
        let shown = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let metrics = shown
            .iter()
            // wrong_results and failed_frac are zero on every good run;
            // the result line carries them as `correct` and `failed`.
            .filter(|m| m.name != "wrong_results" && m.name != "failed_frac")
            .map(|m| {
                let value =
                    Json::object([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]);
                (m.name.clone(), value)
            })
            .collect();
        let line = Json::object([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::Object(metrics)),
        ]);
        println!("{}", line.to_compact_string());
    }
}

/// A scratch directory inside the benchmark's own directory, removed on
/// drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(workload: &str) -> WorkDir {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        WorkDir(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only removes the parent when no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("stackbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "cold_suite" => cold_suite(&args),
        "warm_hits" => warm_hits(&args),
        _ => near_dup_mix(&args),
    };
    match result {
        Ok(report) => {
            report.print(args.trace);
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("stackbench: {e}");
            ExitCode::from(1)
        }
    }
}

type Res<T> = Result<T, String>;

fn io<T>(r: std::io::Result<T>) -> Res<T> {
    r.map_err(|e| e.to_string())
}

/// Starts a fleet and runs the warm pass [`SETUP_REPS`] times, keeping the
/// last fleet. Returns it, its warm pass, and the median set-up seconds.
fn setup(stream: &Stream, start: impl Fn() -> std::io::Result<Fleet>) -> Res<(Fleet, Phase, f64)> {
    let mut times = Vec::new();
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let fleet = io(start())?;
        let warm = load::sequential(fleet.entry(), &stream.warm, true);
        times.push(t.elapsed().as_secs_f64());
        if warm.samples.iter().any(|s| !s.ok) {
            fleet.stop();
            return Err("warm pass failed".to_string());
        }
        if rep + 1 == SETUP_REPS {
            return Ok((fleet, warm, stats::median(&times)));
        }
        fleet.stop();
    }
    unreachable!("SETUP_REPS is positive")
}

/// Latency in ms for percentiles: a failed request counts as missing
/// every limit.
fn latencies_ms(samples: &[&Sample], fail_ms: f64) -> Vec<f64> {
    stats::sorted(
        &samples
            .iter()
            .map(|s| if s.ok { s.latency_us / 1e3 } else { fail_ms })
            .collect::<Vec<_>>(),
    )
}

/// What every workload measures end to end.
struct EndToEnd<'a> {
    setup_s: f64,
    throughput_rps: f64,
    latency_p50_ms: f64,
    /// The samples behind `latency_p99_ms`.
    latency: Vec<&'a Sample>,
    /// The latency a failed request counts as.
    fail_ms: f64,
    slo_rps: f64,
    cpu_s: f64,
    completions: usize,
    rss_mb: f64,
    /// Mean routed gates, SWAPs and fidelity over the warm-pass results.
    quality: (f64, f64, f64),
}

impl Report {
    fn end_to_end(&mut self, e: EndToEnd) {
        let sorted = latencies_ms(&e.latency, e.fail_ms);
        eprintln!(
            "latency samples: {} ({} beyond p99)",
            sorted.len(),
            stats::beyond(&sorted, 0.99)
        );
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        self.end_to_end = vec![
            metric("setup_s", e.setup_s, "s"),
            metric("throughput_rps", e.throughput_rps, "1/s"),
            metric("latency_p50_ms", e.latency_p50_ms, "ms"),
            metric("latency_p99_ms", stats::quantile(&sorted, 0.99), "ms"),
            metric("slo_rps", e.slo_rps, "1/s"),
            metric(
                "cpu_ms_per_request",
                e.cpu_s * 1e3 / e.completions.max(1) as f64,
                "ms",
            ),
            metric("peak_rss_mb", e.rss_mb, "MB"),
            metric("failed_frac", failed_frac, "ratio"),
            metric("wrong_results", self.wrong as f64, "count"),
            metric("routed_gates_per_circuit", e.quality.0, "gates"),
            metric("swaps_per_circuit", e.quality.1, "swaps"),
            metric("fidelity_after_mean", e.quality.2, "ratio"),
        ];
    }
}

/// Durations in seconds of the whole rounds of `round` requests a closed
/// loop measured, where a round lasts from the previous round's last
/// completion to its own.
fn round_durations(phase: &Phase, round: usize) -> Vec<f64> {
    let rounds = phase.samples.len() / round;
    let mut ends = vec![0.0f64; rounds];
    for s in &phase.samples {
        if let Some(end) = ends.get_mut(s.idx / round) {
            *end = end.max(s.done_s);
        }
    }
    let mut previous = 0.0;
    ends.into_iter()
        .map(|end| {
            let duration = (end - previous).max(1e-6);
            previous = previous.max(end);
            duration
        })
        .collect()
}

/// Completion rate of a closed loop that measured whole rounds of
/// `round` requests: `round` over the median round duration. The median
/// keeps a burst of interference on a shared host to one round.
fn round_rate(phase: &Phase, round: usize) -> f64 {
    let durations = round_durations(phase, round);
    if durations.is_empty() {
        return phase.rps();
    }
    round as f64 / stats::median(&durations)
}

/// Median over groups of each group's median latency, in ms; `group`
/// assigns a sample to its round or time window.
fn grouped_p50_ms(phase: &Phase, group: impl Fn(&Sample) -> usize) -> f64 {
    let mut groups: Vec<Vec<f64>> = Vec::new();
    for s in &phase.samples {
        let g = group(s);
        if groups.len() <= g {
            groups.resize(g + 1, Vec::new());
        }
        groups[g].push(if s.ok {
            s.latency_us / 1e3
        } else {
            phase.elapsed_s * 1e3
        });
    }
    let medians: Vec<f64> = groups
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| stats::median(v))
        .collect();
    stats::median(&medians)
}

/// `slo_rps` for a closed loop: its round rate times the share of
/// requests that completed within `limit_ms`.
fn goodput(phase: &Phase, round: usize, limit_ms: f64) -> f64 {
    let good = phase
        .samples
        .iter()
        .filter(|s| s.ok && s.latency_us / 1e3 <= limit_ms)
        .count();
    round_rate(phase, round) * good as f64 / phase.samples.len().max(1) as f64
}

/// Checks each sample of a phase over `reqs` against the oracle.
fn check_phase(
    report: &mut Report,
    oracle: &mut Oracle,
    reqs: &[Req],
    phase: &Phase,
    warm: &[Req],
) {
    for s in &phase.samples {
        if !oracle.check(&reqs[s.idx], s, warm) {
            report.wrong += 1;
        }
    }
}

/// Counts a measured phase's requests as attempted, and its failures.
fn count_attempts(report: &mut Report, phase: &Phase) {
    report.attempted += phase.samples.len();
    report.failed += phase.samples.iter().filter(|s| !s.ok).count();
}

/// The closed loop sends a prefix of the stream; returns its length.
fn sent_prefix(phase: &Phase) -> Res<usize> {
    let n = phase.samples.len();
    let mut seen = vec![false; n];
    for s in &phase.samples {
        match seen.get_mut(s.idx) {
            Some(slot) if !*slot => *slot = true,
            _ => return Err("closed loop did not send a prefix of its stream".to_string()),
        }
    }
    if phase.exhausted {
        eprintln!("warning: the closed loop exhausted its generated stream");
    }
    Ok(n)
}

/// Daemon counters after the untraced run, per shard.
struct Counters {
    exact: Vec<u64>,
    canonical: Vec<u64>,
    misses: Vec<u64>,
    appends: Vec<u64>,
    forwarded: Vec<u64>,
    reroutes: u64,
    hedges: u64,
}

fn served_counters(fleet: &Fleet) -> Res<Counters> {
    let shards = io(fleet.shard_stats())?;
    let router = io(fleet.router_stats())?;
    let per = |path: &str| shards.iter().map(|s| counter(s, path)).collect::<Vec<_>>();
    let forwarded = match &router {
        Some(r) => r
            .get("shards")
            .and_then(Json::as_array)
            .map(|a| a.iter().map(|s| counter(s, "forwarded")).collect())
            .unwrap_or_default(),
        None => Vec::new(),
    };
    Ok(Counters {
        exact: per("semantic/exact_hits"),
        canonical: per("semantic/canonical_hits"),
        misses: per("semantic/misses"),
        appends: per("persist/appends"),
        forwarded,
        reroutes: router.as_ref().map_or(0, |r| counter(r, "reroutes")),
        hedges: router
            .as_ref()
            .map_or(0, |r| counter(r, "resilience/hedges_fired")),
    })
}

/// Checks that the daemons' counters add up to the traffic sent:
/// every request counted once, per shard and in total, and as many
/// WAL appends as entries inserted.
fn check_totals(report: &mut Report, served: &Counters, sent: u64, persisted: bool) {
    let total: u64 = (0..served.exact.len())
        .map(|i| served.exact[i] + served.canonical[i] + served.misses[i])
        .sum();
    if total != sent {
        report.mismatches.push(format!(
            "shards counted {total} lookups for {sent} requests"
        ));
    }
    if !served.forwarded.is_empty() {
        for i in 0..served.exact.len() {
            let looked_up = served.exact[i] + served.canonical[i] + served.misses[i];
            if served.forwarded[i] != looked_up {
                report.mismatches.push(format!(
                    "router forwarded {} to shard {i}, which counted {looked_up}",
                    served.forwarded[i]
                ));
            }
        }
    }
    if persisted {
        let inserted: u64 = served.canonical.iter().chain(&served.misses).sum();
        let appended: u64 = served.appends.iter().sum();
        if inserted != appended {
            report.mismatches.push(format!(
                "{appended} WAL appends for {inserted} inserted entries"
            ));
        }
    }
}

/// `warm_hits` checks: the warm pass and the measured requests add up,
/// and every measured request was an exact hit.
fn check_hits(report: &mut Report, served: &Counters, warm: usize, measured: usize) {
    check_totals(report, served, (warm + measured) as u64, false);
    let exact: u64 = served.exact.iter().sum();
    if exact != measured as u64 {
        report
            .mismatches
            .push(format!("{exact} exact hits for {measured} repeated jobs"));
    }
}

/// Checks the traced replay's counters against the daemons'.
fn check_trace(report: &mut Report, served: &Counters, trace: &Trace) {
    let mut compare = |what: &str, i: usize, daemon: u64, traced: u64| {
        if daemon != traced {
            report.mismatches.push(format!(
                "shard {i} {what}: daemon {daemon}, traced replay {traced}"
            ));
        }
    };
    for (i, mirror) in trace.shards.iter().enumerate() {
        compare("exact hits", i, served.exact[i], mirror.cache.stats().hits);
        compare(
            "canonical hits",
            i,
            served.canonical[i],
            mirror.canonical_hits,
        );
        compare("misses", i, served.misses[i], mirror.misses());
        if let Some(store) = &mirror.store {
            compare("WAL appends", i, served.appends[i], store.stats().appends);
        }
        if let Some(&forwarded) = served.forwarded.get(i) {
            compare("forwarded", i, forwarded, trace.forwarded[i]);
        }
    }
}

/// Replays `reqs` through the trace, comparing each traced payload with
/// the served response. Returns the summed traced time of the requests.
fn replay_all<'a>(
    report: &mut Report,
    trace: &mut Trace,
    reqs: impl IntoIterator<Item = (&'a Req, Option<&'a Sample>)>,
) -> f64 {
    let mut traced_us = 0.0;
    for (req, sample) in reqs {
        let (payload, us) = trace.replay(&req.bytes);
        traced_us += us;
        if let Some(s) = sample.filter(|s| s.ok) {
            if oracle::bytes_digest(&payload) != s.digest {
                report.wrong += 1;
            }
        }
    }
    traced_us
}

/// The per-layer metrics every workload reports.
fn per_layer(
    report: &mut Report,
    trace: &Trace,
    served: &Counters,
    replayed: usize,
    served_mean_us: f64,
    traced_mean_us: f64,
) {
    let t = &trace.tracer;
    let exact: u64 = trace.shards.iter().map(|m| m.cache.stats().hits).sum();
    let canonical: u64 = trace.shards.iter().map(|m| m.canonical_hits).sum();
    let misses: u64 = trace.shards.iter().map(|m| m.misses()).sum();
    let evictions: u64 = trace.shards.iter().map(|m| m.cache.stats().evictions).sum();
    let appends: u64 = trace
        .shards
        .iter()
        .filter_map(|m| m.store.as_ref())
        .map(|s| s.stats().appends)
        .sum();
    let per = |total: f64, n: f64| if n == 0.0 { 0.0 } else { total / n };
    let compiles = t.total("mapper.compiles");
    let dpqa = t.total("dpqa.compiles");
    let mut layers = vec![
        metric("frame.decode_us", t.mean_us("frame.decode_us"), "us"),
        metric(
            "frame.req_bytes",
            per(t.total("frame.req_bytes"), replayed as f64),
            "bytes",
        ),
        metric(
            "frame.resp_bytes",
            per(t.total("frame.resp_bytes"), replayed as f64),
            "bytes",
        ),
        metric("protocol.parse_us", t.mean_us("protocol.parse_us"), "us"),
        metric(
            "resolve.qasm_parse_us",
            t.mean_us("resolve.qasm_parse_us"),
            "us",
        ),
        metric(
            "resolve.workload_us",
            t.mean_us("resolve.workload_us"),
            "us",
        ),
        metric("resolve.backend_us", t.mean_us("resolve.backend_us"), "us"),
        metric("identity.digest_us", t.mean_us("identity.digest_us"), "us"),
        metric(
            "identity.full_key_us",
            t.mean_us("identity.full_key_us"),
            "us",
        ),
        metric(
            "canon.canonicalize_us",
            t.mean_us("canon.canonicalize_us"),
            "us",
        ),
        metric("canon.calls", t.total("canon.calls"), "count"),
        metric(
            "canon.useful_frac",
            per(canonical as f64, t.total("canon.calls")),
            "ratio",
        ),
        metric("cache.probe_us", t.mean_us("cache.probe_us"), "us"),
        metric("cache.insert_us", t.mean_us("cache.insert_us"), "us"),
        metric("cache.exact_hits", exact as f64, "count"),
        metric("cache.canonical_hits", canonical as f64, "count"),
        metric("cache.misses", misses as f64, "count"),
        metric(
            "cache.hit_frac",
            per(
                (exact + canonical) as f64,
                (exact + canonical + misses) as f64,
            ),
            "ratio",
        ),
        metric("cache.evictions", evictions as f64, "count"),
        metric("replay.equiv_us", t.mean_us("replay.equiv_us"), "us"),
        metric(
            "replay.total_us.le12q",
            t.mean_us("replay.total_us.le12q"),
            "us",
        ),
        metric(
            "replay.total_us.gt12q",
            t.mean_us("replay.total_us.gt12q"),
            "us",
        ),
        metric("replay.rejected", t.total("replay.rejected"), "count"),
        metric(
            "mapper.decompose_us",
            t.mean_us("mapper.decompose_us"),
            "us",
        ),
        metric("mapper.place_us", t.mean_us("mapper.place_us"), "us"),
        metric("mapper.route_us", t.mean_us("mapper.route_us"), "us"),
        metric("mapper.schedule_us", t.mean_us("mapper.schedule_us"), "us"),
        metric(
            "mapper.cold_us.le12q",
            t.mean_us("mapper.cold_us.le12q"),
            "us",
        ),
        metric(
            "mapper.cold_us.gt12q",
            t.mean_us("mapper.cold_us.gt12q"),
            "us",
        ),
        metric(
            "route.score_evals",
            per(t.total("route.score_evals"), compiles),
            "count",
        ),
        metric(
            "mapper.fallback_nonzero",
            t.total("mapper.fallback_nonzero"),
            "count",
        ),
        metric("verify.check_us", t.mean_us("verify.check_us"), "us"),
        metric("verify.failed", t.total("verify.failed"), "count"),
        metric(
            "portfolio.select_us",
            t.mean_us("portfolio.select_us"),
            "us",
        ),
        metric("portfolio.races", t.total("portfolio.races"), "count"),
        metric("portfolio.race_us", t.mean_us("portfolio.race_us"), "us"),
        metric(
            "portfolio.lane.trivial",
            t.total("portfolio.lane.trivial"),
            "count",
        ),
        metric(
            "portfolio.lane.lookahead",
            t.total("portfolio.lane.lookahead"),
            "count",
        ),
        metric(
            "portfolio.lane.sabre",
            t.total("portfolio.lane.sabre"),
            "count",
        ),
        metric("dpqa.map_us", t.mean_us("dpqa.map_us"), "us"),
        metric("dpqa.moves", per(t.total("dpqa.moves"), dpqa), "count"),
        metric(
            "dpqa.move_stages",
            per(t.total("dpqa.move_stages"), dpqa),
            "count",
        ),
        metric("encode.result_us", t.mean_us("encode.result_us"), "us"),
        metric(
            "encode.payload_bytes",
            per(t.total("encode.payload_bytes"), compiles),
            "bytes",
        ),
        metric("persist.append_us", t.mean_us("persist.append_us"), "us"),
        metric("persist.appends", appends as f64, "count"),
        metric(
            "persist.compactions",
            t.total("persist.compactions"),
            "count",
        ),
        metric(
            "router.route_key_us",
            t.mean_us("router.route_key_us"),
            "us",
        ),
    ];
    for i in 0..3 {
        let forwarded = served.forwarded.get(i).copied().unwrap_or(0);
        layers.push(metric(
            &format!("router.forwarded.shard{i}"),
            forwarded as f64,
            "count",
        ));
    }
    layers.push(metric("router.reroutes", served.reroutes as f64, "count"));
    layers.push(metric("router.hedges_fired", served.hedges as f64, "count"));
    layers.push(metric(
        "server.residual_us",
        served_mean_us - traced_mean_us,
        "us",
    ));
    report.per_layer = layers;
}

/// Mean latency in µs of the successful samples.
fn mean_latency_us<'a>(samples: impl IntoIterator<Item = &'a Sample>) -> f64 {
    let v: Vec<f64> = samples
        .into_iter()
        .filter(|s| s.ok)
        .map(|s| s.latency_us)
        .collect();
    stats::mean(&v)
}

/// Open-loop generator health metrics (zero for closed loops).
fn loadgen(report: &mut Report, lag_us: &[f64], backlog: usize) -> Res<()> {
    let lag_p99_ms = stats::quantile(&stats::sorted(lag_us), 0.99) / 1e3;
    report
        .per_layer
        .push(metric("loadgen.send_lag_p99_ms", lag_p99_ms, "ms"));
    report
        .per_layer
        .push(metric("loadgen.backlog", backlog as f64, "count"));
    if lag_p99_ms > MAX_SEND_LAG_P99_MS || backlog > MAX_BACKLOG {
        return Err(format!(
            "invalid run: generator send lag p99 {lag_p99_ms:.2} ms, backlog {backlog}"
        ));
    }
    Ok(())
}

/// Router-comparison metrics only `warm_hits` measures; zero elsewhere.
fn no_router_replays(report: &mut Report) {
    for name in [
        "router.overhead_us",
        "router.p50_us.direct1",
        "router.p50_us.router1",
        "router.p50_us.router3",
        "router.sat_rps.direct1",
        "router.sat_rps.router1",
        "router.sat_rps.router3",
    ] {
        let unit = if name.contains("rps") { "1/s" } else { "us" };
        report.per_layer.push(metric(name, 0.0, unit));
    }
}

fn warm_bodies(warm: &Phase) -> impl Iterator<Item = &[u8]> {
    warm.samples.iter().filter_map(|s| s.body.as_deref())
}

fn cold_suite(args: &Args) -> Res<Report> {
    closed_loop_workload(
        args,
        ClosedLoop {
            stream: workload::cold_suite(args.seed, COLD_STREAM),
            shards: 1,
            routed: false,
            round: workload::cold_round_len(),
            limit_ms: COLD_LIMIT_MS,
        },
        None,
    )
}

fn near_dup_mix(args: &Args) -> Res<Report> {
    let work = WorkDir::new("near_dup_mix");
    closed_loop_workload(
        args,
        ClosedLoop {
            stream: workload::near_dup_mix(args.seed, NEAR_DUP_STREAM),
            shards: 2,
            routed: true,
            round: workload::near_dup_round_len(),
            limit_ms: NEAR_DUP_LIMIT_MS,
        },
        Some(&work.0),
    )
}

/// A closed-loop workload: its stream, its fleet, the round its stream is
/// balanced over, and the latency limit behind its `slo_rps`.
struct ClosedLoop {
    stream: Stream,
    shards: usize,
    routed: bool,
    round: usize,
    limit_ms: f64,
}

/// Runs a closed-loop workload: set-up, measured window, counter checks,
/// then the oracle (`--trace 0`) or the traced replay (`--trace 1`).
/// `persist` holds the shards' WALs (and the replay's) when given.
fn closed_loop_workload(args: &Args, w: ClosedLoop, persist: Option<&Path>) -> Res<Report> {
    let stream = &w.stream;
    eprintln!("{}: stream digest {:016x}", args.workload, stream.digest());
    let fleet_dir = persist.map(|dir| dir.join("fleet"));
    let (fleet, warm, setup_s) = setup(stream, || {
        Fleet::start(w.shards, w.routed, fleet_dir.as_deref())
    })?;
    let cpu0 = stats::process_cpu_s();
    let phase = load::closed_loop(
        fleet.entry(),
        &stream.measured,
        Duration::from_secs_f64(args.seconds),
        w.round,
        &|req| req.class == Class::Twin,
    );
    let cpu_s = stats::process_cpu_s() - cpu0;
    let rss_mb = stats::peak_rss_mb();
    let served = served_counters(&fleet);
    fleet.stop();
    let served = served?;
    let sent = sent_prefix(&phase)?;
    let measured = &stream.measured[..sent];

    let mut report = Report::default();
    count_attempts(&mut report, &phase);
    check_totals(
        &mut report,
        &served,
        (stream.warm.len() + sent) as u64,
        persist.is_some(),
    );
    let count = |class| measured.iter().filter(|r| r.class == class).count() as u64;
    let exact: u64 = served.exact.iter().sum();
    let canonical: u64 = served.canonical.iter().sum();
    if exact != count(Class::Repeat) || canonical > count(Class::Twin) {
        report.mismatches.push(format!(
            "{exact} exact and {canonical} canonical hits for {} repeats and {} twins",
            count(Class::Repeat),
            count(Class::Twin)
        ));
    }
    let mut oracle = Oracle::default();
    oracle.compile(&stream.warm, count(Class::Twin) > 0);
    check_phase(&mut report, &mut oracle, &stream.warm, &warm, &stream.warm);

    if args.trace {
        let mut trace = io(Trace::new(w.shards, w.routed, persist))?;
        let mut by_idx: Vec<Option<&Sample>> = vec![None; sent];
        for s in &phase.samples {
            by_idx[s.idx] = Some(s);
        }
        replay_all(
            &mut report,
            &mut trace,
            stream.warm.iter().map(|r| (r, None)),
        );
        let traced_us = replay_all(&mut report, &mut trace, measured.iter().zip(by_idx));
        check_trace(&mut report, &served, &trace);
        let replayed = stream.warm.len() + sent;
        let served_mean = mean_latency_us(&phase.samples);
        per_layer(
            &mut report,
            &trace,
            &served,
            replayed,
            served_mean,
            traced_us / sent.max(1) as f64,
        );
        loadgen(&mut report, &[], 0)?;
        no_router_replays(&mut report);
    } else {
        // Repeats share their base's bytes; twins are checked against it.
        oracle.compile(measured.iter().filter(|r| r.class != Class::Twin), false);
        check_phase(
            &mut report,
            &mut oracle,
            &stream.measured,
            &phase,
            &stream.warm,
        );
    }
    let round = w.round;
    report.end_to_end(EndToEnd {
        setup_s,
        throughput_rps: round_rate(&phase, round),
        latency_p50_ms: grouped_p50_ms(&phase, |s| s.idx / round),
        latency: phase.samples.iter().collect(),
        fail_ms: phase.elapsed_s * 1e3,
        slo_rps: goodput(&phase, round, w.limit_ms),
        cpu_s,
        completions: phase.samples.len(),
        rss_mb,
        quality: oracle::quality(warm_bodies(&warm)),
    });
    Ok(report)
}

/// Rounds of the saturation phase's request order; each round sends
/// every job once (more rounds than any run gets through).
const SATURATION_ROUNDS: usize = 1000;

/// The fixed-rate and saturation phases run as this many back-to-back
/// sub-phases, each on fresh connections, and report their medians: one
/// unlucky placement of client and router threads on a shared host then
/// moves one sub-phase, not the run.
const SUB_PHASES: usize = 5;

/// Shares of `--seconds` for the fixed-rate phase, the ladder and the
/// saturation phase. The saturation rate follows the host's speed from
/// one second to the next, so only many rounds spread over the whole run
/// give a median that holds from run to run. The ladder only has to show
/// that each offered rate is met.
const FIXED_SHARE: f64 = 0.45;
const LADDER_SHARE: f64 = 0.1;
const SATURATION_SHARE: f64 = 0.45;

/// The seeded `warm_hits` traffic: fixed-rate schedules (one per
/// sub-phase, each timed from its own start), ladder schedules, and the
/// saturation phase's request order.
struct WarmPlan {
    fixed: Vec<Vec<Arrival>>,
    ladder: Vec<Vec<Arrival>>,
    saturation: Vec<Req>,
}

fn warm_plan(seed: u64, seconds: f64, jobs: &[Req]) -> WarmPlan {
    let mut rng = ChaCha8Rng::seed_from_u64(mix(seed, "warm_hits"));
    let slice = seconds * FIXED_SHARE / SUB_PHASES as f64;
    let fixed = (0..SUB_PHASES)
        .map(|_| load::poisson(WARM_FIXED_RPS, slice, jobs.len(), &mut rng))
        .collect();
    let step = seconds * LADDER_SHARE / WARM_LADDER_RPS.len() as f64;
    let ladder = WARM_LADDER_RPS
        .iter()
        .map(|&rate| load::poisson(rate, step, jobs.len(), &mut rng))
        .collect();
    let saturation = (0..SATURATION_ROUNDS)
        .flat_map(|_| workload::permutation(jobs.len(), &mut rng))
        .map(|j| jobs[j].clone())
        .collect();
    WarmPlan {
        fixed,
        ladder,
        saturation,
    }
}

/// One `warm_hits` fleet's share of the run. A run uses [`SUB_PHASES`]
/// fleets, one after another: each is set up (timed for `setup_s`),
/// serves one fixed-rate sub-phase and one saturation sub-phase (the
/// first also serves the ladder), reports its counters and stops. A
/// fleet's thread placement on a shared two-core host can hold its rates
/// 20% off for its whole life, so p50 is a median across fleets and the
/// rate a median over the rounds of all fleets.
struct Episode {
    warm: Phase,
    fixed: Phase,
    ladder: Vec<Phase>,
    saturation: Phase,
    served: Counters,
    setup_s: f64,
    cpu_s: f64,
}

impl Episode {
    fn open_loop(&self) -> impl Iterator<Item = &Phase> {
        std::iter::once(&self.fixed).chain(&self.ladder)
    }

    fn all(&self) -> impl Iterator<Item = &Phase> {
        self.open_loop().chain(std::iter::once(&self.saturation))
    }
}

/// Untimed saturation on a throwaway fleet before the first episode: the
/// first saturation phase in a process runs about 30% slower than the
/// rest (lazy set-up in the process and the host), which this absorbs.
fn warm_up(jobs: &[Req], plan: &WarmPlan) -> Res<()> {
    let fleet = io(Fleet::start(3, true, None))?;
    load::sequential(fleet.entry(), jobs, false);
    load::closed_loop(
        fleet.entry(),
        &plan.saturation,
        WARM_UP,
        jobs.len(),
        &|_| false,
    );
    fleet.stop();
    Ok(())
}

/// Length of the untimed warm-up saturation.
const WARM_UP: Duration = Duration::from_secs(1);

fn episode(k: usize, jobs: &[Req], plan: &WarmPlan, seconds: f64) -> Res<Episode> {
    let started = Instant::now();
    let fleet = io(Fleet::start(3, true, None))?;
    let warm = load::sequential(fleet.entry(), jobs, true);
    let setup_s = started.elapsed().as_secs_f64();
    let entry = fleet.entry();
    let cpu0 = stats::process_cpu_s();
    let fixed = load::open_loop(entry, jobs, &plan.fixed[k], false);
    let ladder = match k {
        0 => plan
            .ladder
            .iter()
            .map(|schedule| load::open_loop(entry, jobs, schedule, false))
            .collect(),
        _ => Vec::new(),
    };
    let length = Duration::from_secs_f64(seconds * SATURATION_SHARE / SUB_PHASES as f64);
    let saturation = load::closed_loop(entry, &plan.saturation, length, jobs.len(), &|_| false);
    let cpu_s = stats::process_cpu_s() - cpu0;
    let served = served_counters(&fleet);
    fleet.stop();
    if warm.samples.iter().any(|s| !s.ok) {
        return Err("warm pass failed".to_string());
    }
    Ok(Episode {
        warm,
        fixed,
        ladder,
        saturation,
        served: served?,
        setup_s,
        cpu_s,
    })
}

fn warm_hits(args: &Args) -> Res<Report> {
    let jobs = workload::warm_hits_jobs();
    let plan = warm_plan(args.seed, args.seconds, &jobs);
    let stream = Stream {
        warm: jobs.clone(),
        measured: plan
            .fixed
            .iter()
            .chain(&plan.ladder)
            .flatten()
            .map(|a| jobs[a.idx].clone())
            .chain(plan.saturation.iter().cloned())
            .collect(),
    };
    eprintln!("warm_hits: stream digest {:016x}", stream.digest());
    warm_up(&jobs, &plan)?;
    let episodes = (0..SUB_PHASES)
        .map(|k| episode(k, &jobs, &plan, args.seconds))
        .collect::<Res<Vec<_>>>()?;
    let rss_mb = stats::peak_rss_mb();

    let mut report = Report::default();
    let mut oracle = Oracle::default();
    oracle.compile(&jobs, false);
    for e in &episodes {
        check_phase(&mut report, &mut oracle, &jobs, &e.warm, &jobs);
        let mut sent = 0;
        for phase in e.open_loop() {
            check_phase(&mut report, &mut oracle, &jobs, phase, &jobs);
            sent += phase.samples.len();
        }
        sent += sent_prefix(&e.saturation)?;
        check_phase(
            &mut report,
            &mut oracle,
            &plan.saturation,
            &e.saturation,
            &jobs,
        );
        check_hits(&mut report, &e.served, jobs.len(), sent);
        e.all().for_each(|p| count_attempts(&mut report, p));
    }

    // slo_rps: the highest ladder rate whose p99 meets the limit with no
    // backlog left at its last send, reported as its measured rate.
    let mut slo_rps = 0.0;
    for step in &episodes[0].ladder {
        let samples: Vec<&Sample> = step.samples.iter().collect();
        let p99 = stats::quantile(&latencies_ms(&samples, f64::INFINITY), 0.99);
        eprintln!(
            "ladder step: {:.1} rps measured, p99 {p99:.3} ms, backlog {}",
            step.rps(),
            step.backlog
        );
        if p99 <= WARM_LIMIT_MS && step.backlog <= MAX_BACKLOG / 8 {
            slo_rps = step.samples.iter().filter(|s| s.ok).count() as f64 / step.elapsed_s;
        }
    }
    let lag: Vec<f64> = episodes
        .iter()
        .flat_map(|e| e.open_loop())
        .flat_map(|p| &p.send_lag_us)
        .copied()
        .collect();
    let backlog = episodes.iter().map(|e| e.fixed.backlog).max().unwrap_or(0);

    if args.trace {
        trace_warm_hits(&mut report, &jobs, &plan, &episodes)?;
        router_replays(&mut report, &jobs, &plan)?;
    }
    loadgen(&mut report, &lag, backlog)?;
    if !args.trace {
        report.per_layer.clear();
    }
    let per_fleet =
        |f: &dyn Fn(&Episode) -> f64| stats::median(&episodes.iter().map(f).collect::<Vec<_>>());
    let rates: Vec<f64> = episodes
        .iter()
        .map(|e| round_rate(&e.saturation, jobs.len()))
        .collect();
    eprintln!("saturation rates per fleet: {rates:.0?}");
    // The rate over the median of every fleet's rounds pooled: a slow
    // stretch of the host moves the rounds it covers, not the run.
    let rounds: Vec<f64> = episodes
        .iter()
        .flat_map(|e| round_durations(&e.saturation, jobs.len()))
        .collect();
    report.end_to_end(EndToEnd {
        setup_s: per_fleet(&|e| e.setup_s),
        throughput_rps: jobs.len() as f64 / stats::median(&rounds),
        latency_p50_ms: per_fleet(&|e| grouped_p50_ms(&e.fixed, |_| 0)),
        // p99 over the closed loop, as on the other workloads. At the
        // fixed rate p99 falls among the few samples of the slowest jobs
        // and queues behind the host's stalls: it moved between 5 and
        // 15 ms from run to run, past any bound.
        latency: episodes
            .iter()
            .flat_map(|e| &e.saturation.samples)
            .collect(),
        fail_ms: args.seconds * 1e3,
        slo_rps,
        cpu_s: episodes.iter().map(|e| e.cpu_s).sum(),
        completions: episodes
            .iter()
            .flat_map(|e| e.all())
            .map(|p| p.samples.len())
            .sum(),
        rss_mb,
        quality: oracle::quality(warm_bodies(&episodes[0].warm)),
    });
    Ok(report)
}

/// The traced replay of `warm_hits`: per fleet, the warm pass and then
/// every measured request, checked against that fleet's counters. The
/// per-layer metrics come from the first fleet, which also served the
/// ladder.
fn trace_warm_hits(
    report: &mut Report,
    jobs: &[Req],
    plan: &WarmPlan,
    episodes: &[Episode],
) -> Res<()> {
    for (k, e) in episodes.iter().enumerate() {
        let mut trace = io(Trace::new(3, true, None))?;
        replay_all(report, &mut trace, jobs.iter().map(|r| (r, None)));
        let mut traced_us = 0.0;
        for phase in e.open_loop() {
            let reqs = phase.samples.iter().map(|s| (&jobs[s.idx], Some(s)));
            traced_us += replay_all(report, &mut trace, reqs);
        }
        let reqs = e
            .saturation
            .samples
            .iter()
            .map(|s| (&plan.saturation[s.idx], Some(s)));
        traced_us += replay_all(report, &mut trace, reqs);
        check_trace(report, &e.served, &trace);
        if k == 0 {
            let n: usize = e.all().map(|p| p.samples.len()).sum();
            let served_mean = mean_latency_us(e.all().flat_map(|p| &p.samples));
            let traced_mean = traced_us / n.max(1) as f64;
            per_layer(
                report,
                &trace,
                &e.served,
                jobs.len() + n,
                served_mean,
                traced_mean,
            );
        }
    }
    Ok(())
}

/// Runs open-loop schedules back to back and pools their samples.
fn fixed_rate(entry: SocketAddr, jobs: &[Req], schedules: &[Vec<Arrival>]) -> Vec<Sample> {
    schedules
        .iter()
        .flat_map(|schedule| load::open_loop(entry, jobs, schedule, false).samples)
        .collect()
}

/// Saturation phase length for the router comparison.
const ROUTER_SAT: Duration = Duration::from_secs(1);

/// Fixed-rate sub-phases each way of the router comparison.
const ROUTER_SUB_PHASES: usize = 2;

/// Replays the first fixed-rate sub-phases direct to a warmed single
/// shard, through a router to that shard, and through a router to a
/// warmed three-shard fleet; plus a one-second saturation run each way.
fn router_replays(report: &mut Report, jobs: &[Req], plan: &WarmPlan) -> Res<()> {
    let way = |entry| {
        load::sequential(entry, jobs, false);
        let fixed = fixed_rate(entry, jobs, &plan.fixed[..ROUTER_SUB_PHASES]);
        let sat = load::closed_loop(entry, &plan.saturation, ROUTER_SAT, jobs.len(), &|_| false);
        (fixed, sat)
    };
    let mut one = io(Fleet::start(1, false, None))?;
    let direct = way(one.entry());
    let routed = io(one.add_router()).map(|()| way(one.entry()));
    one.stop();
    let router1 = routed?;
    let three = io(Fleet::start(3, true, None))?;
    let router3 = way(three.entry());
    three.stop();
    let ways = [&direct, &router1, &router3];
    if ways
        .iter()
        .any(|(fixed, sat)| fixed.iter().chain(&sat.samples).any(|s| !s.ok))
    {
        return Err("a router comparison request failed".to_string());
    }
    let p50_us = |samples: &[Sample]| {
        let refs: Vec<&Sample> = samples.iter().collect();
        stats::quantile(&latencies_ms(&refs, f64::INFINITY), 0.5) * 1e3
    };
    let overhead = mean_latency_us(&router1.0) - mean_latency_us(&direct.0);
    report
        .per_layer
        .push(metric("router.overhead_us", overhead, "us"));
    for (name, (fixed, sat)) in ["direct1", "router1", "router3"].iter().zip(ways) {
        report.per_layer.push(metric(
            &format!("router.p50_us.{name}"),
            p50_us(fixed),
            "us",
        ));
        report.per_layer.push(metric(
            &format!("router.sat_rps.{name}"),
            round_rate(sat, jobs.len()),
            "1/s",
        ));
    }
    Ok(())
}
