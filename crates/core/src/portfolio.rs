//! Metric-driven mapper portfolio with deadline-bounded racing.
//!
//! BENCH_mapper.json shows a ~7x wall-time and ~3x swap-count spread
//! across the trivial/lookahead/sabre strategy lanes, so a single
//! blindly-chosen strategy is both a latency hazard and a single point
//! of failure. This module operationalises the paper's Section IV
//! thesis — the pruned interaction-graph metric set {avg shortest
//! path, max/min degree, adjacency std-dev} predicts mapping cost —
//! as a serving-path component with two halves:
//!
//! * a [`Selector`] that computes the retained metrics for a circuit
//!   and picks the cheapest lane predicted *adequate* (within
//!   [`ADEQUACY_FACTOR`] of the best lane's swap count), with
//!   thresholds calibrated offline from the committed 200-circuit
//!   training sweep (`CALIBRATION_portfolio.json`, re-derivable with
//!   the `portfolio_calibrate` bench bin); and
//! * a deadline-bounded racing engine ([`Portfolio::map`]) that, when
//!   the selector is unconfident and the remaining budget allows,
//!   races lanes on threads with per-lane `catch_unwind` isolation,
//!   cooperative cancellation of losers, and
//!   keep-best-*verified*-result semantics — a lane that panics,
//!   exceeds the race budget, or fails [`crate::verify`] is simply
//!   discarded.
//!
//! Degradation is graceful and total-ordered:
//!
//! 1. confident selector pick (panic-isolated; under a deadline it
//!    gets at most half the remaining budget, so a hung primary lane
//!    still leaves room to race the others);
//! 2. race the (remaining) lanes under the deadline budget;
//! 3. the cheapest lane (`trivial/trivial`), run synchronously — this
//!    is why a deadline that cold-racing cannot meet still returns a
//!    *verified* trivial-strategy result instead of an error;
//! 4. the backend's full degradation order ([`Backend::rungs`] for the
//!    default pipeline), walked exactly as a non-portfolio request
//!    would be.
//!
//! Every lane is a [`Walker`] walk of exactly one rung — the backend's
//! rung 0 for the lane's pipeline — so a failing lane is discarded
//! rather than demoted inside the backend, and stage 4 is the same
//! walker seeded with the discarded lanes, which lead its error's
//! attempt list.
//!
//! Failpoints: `mapper.select` fires at selector entry and
//! `mapper.race.<lane>` at every lane launch (both the confident
//! direct run and each raced lane), so the chaos suite can prove that
//! a panicking or hung selector/lane degrades with zero
//! client-visible errors.
//!
//! [`MapError::Unsatisfiable`](crate::mapper::MapError::Unsatisfiable)
//! is a property of the (degraded) device, not of any lane, so the
//! first lane that reports it short-circuits the whole portfolio —
//! matching the walker's semantics.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use qcs_core::backend::{Backend, CoupledBackend};
//! use qcs_core::portfolio::Portfolio;
//! use qcs_topology::surface::surface17;
//!
//! let backend: Arc<dyn Backend> = Arc::new(CoupledBackend::new(surface17()));
//! let qft = qcs_workloads::qft::qft(6)?;
//! let (outcome, report) = Portfolio::default().map(&qft, &backend, None)?;
//! assert!(outcome.report.verified);
//! assert!(!report.lane.is_empty());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use qcs_circuit::circuit::Circuit;
use qcs_circuit::interaction::interaction_graph;
use qcs_graph::metrics::GraphMetrics;

use crate::backend::Backend;
use crate::config::MapperConfig;
use crate::ladder::{panic_message, LadderError, Walker};
use crate::mapper::MapOutcome;

/// Placer/router value that requests metric-driven selection.
pub const AUTO: &str = "auto";

/// The portfolio lanes, cheapest first. The order is a tie-break for
/// race winners and the preference order for the oracle, so it must
/// stay aligned with the measured wall-time ranking in
/// BENCH_mapper.json (trivial ~0.3 s, lookahead ~0.5 s, sabre ~2 s
/// over the 200-circuit suite).
pub const LANES: &[&str] = &["trivial", "lookahead", "sabre"];

/// A lane's swap count is *adequate* when it is within this factor of
/// the best lane's count (or within [`ADEQUACY_SLACK`] absolute swaps,
/// whichever is looser — tiny circuits should not force sabre over a
/// 2-swap difference).
pub const ADEQUACY_FACTOR: f64 = 1.25;

/// Absolute swap slack for adequacy on small circuits.
pub const ADEQUACY_SLACK: usize = 8;

/// Minimum remaining budget below which racing is skipped and the
/// portfolio degrades straight to the cheapest lane.
pub const DEFAULT_MIN_RACE_BUDGET_MS: u64 = 50;

/// True when `config` requests metric-driven strategy selection.
pub fn is_auto(config: &MapperConfig) -> bool {
    config.placer == AUTO || config.router == AUTO
}

/// True when a job with `config`, forced to race or not, compiles
/// through the portfolio rather than a fixed pipeline: the test
/// [`compile`] dispatches on.
pub fn uses_portfolio(config: &MapperConfig, race: bool) -> bool {
    race || is_auto(config)
}

/// The one compile path: every daemon job and every `qcs-stack`
/// `FullStack` run maps through here. An `auto` config or a forced
/// `race` runs the [`Portfolio`] under the *remaining* `deadline` and
/// returns its accounting; any other config walks the backend's rungs
/// for it ([`Backend::map`]) and ignores the deadline. Either way the
/// outcome is verified.
///
/// # Errors
///
/// [`LadderError`] when every rung (or portfolio stage) failed, or the
/// job is unsatisfiable on the target.
pub fn compile(
    circuit: &Circuit,
    backend: &Arc<dyn Backend>,
    config: &MapperConfig,
    race: bool,
    deadline: Option<Duration>,
) -> Result<(MapOutcome, Option<PortfolioReport>), LadderError> {
    if !uses_portfolio(config, race) {
        return Ok((backend.map(circuit, config)?, None));
    }
    let (outcome, report) = Portfolio::default().run(circuit, backend, deadline, race)?;
    Ok((outcome, Some(report)))
}

/// The pipeline a lane name stands for, or `None` for unknown names.
/// Lane pipelines mirror the bench_baseline presets so calibration
/// data and serving behaviour describe the same strategies.
pub fn lane_config(lane: &str) -> Option<MapperConfig> {
    match lane {
        "trivial" => Some(MapperConfig::new("trivial", "trivial")),
        "lookahead" => Some(MapperConfig::new("trivial", "lookahead")),
        "sabre" => Some(MapperConfig::new("sabre", "lookahead")),
        _ => None,
    }
}

/// Position of `lane` in [`LANES`] (the cost/tie-break order).
pub fn lane_index(lane: &str) -> Option<usize> {
    LANES.iter().position(|&l| l == lane)
}

/// Whether a lane with `swaps` is adequate against the best lane's
/// `best` swap count (see [`ADEQUACY_FACTOR`]).
pub fn adequate(swaps: usize, best: usize) -> bool {
    swaps <= best.saturating_add(ADEQUACY_SLACK)
        || (swaps as f64) <= (best as f64) * ADEQUACY_FACTOR
}

/// The oracle's pick for a circuit whose per-lane swap counts are
/// `swaps` (aligned with [`LANES`]): the cheapest adequate lane. This
/// is the label the selector is calibrated against — it is defined on
/// deterministic counters only, so the calibration sweep and the
/// BENCH_mapper.json portfolio section are exactly reproducible.
pub fn oracle_lane(swaps: &[usize]) -> &'static str {
    let best = swaps.iter().copied().min().unwrap_or(0);
    for (i, lane) in LANES.iter().enumerate() {
        if swaps.get(i).is_some_and(|&s| adequate(s, best)) {
            return lane;
        }
    }
    LANES[LANES.len() - 1]
}

/// Decision thresholds over the retained Section IV metrics.
///
/// The decision list mirrors what the training sweep actually shows
/// on the 200-circuit suite: chain/ring-like graphs (tiny maximum
/// degree, long average shortest path) route almost for free, so the
/// trivial lane is adequate; large near-complete *regular* graphs
/// (average shortest path ≈ 1, high minimum degree — the QFT family)
/// are ones where lookahead keeps pace with sabre at a quarter of the
/// wall time; everything else is irregular enough that sabre's
/// placement pays for itself. Adjacency std-dev — the fourth retained
/// metric — turned out non-discriminative for *lane choice* on this
/// suite (it tracks weighted edge multiplicity, not routing
/// difficulty), so it rides along in [`Selection::metrics`] but
/// carries no threshold.
///
/// The defaults are the output of the committed calibration sweep
/// (`portfolio_calibrate` over the 200-circuit suite on the Fig. 3
/// device); a repo-level test asserts they match
/// `CALIBRATION_portfolio.json` so the two cannot drift apart.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectorThresholds {
    /// Average shortest path at or above which the interaction graph
    /// is sparse/path-like enough for the trivial lane.
    pub trivial_min_path: f64,
    /// Maximum degree at or below which the trivial lane is trusted
    /// (chain- and ring-like graphs).
    pub trivial_max_degree: f64,
    /// Average shortest path at or below which the graph is close
    /// enough to complete for the lookahead rule to apply.
    pub lookahead_max_path: f64,
    /// Minimum degree at or above which a near-complete graph is
    /// regular enough for lookahead to keep pace with sabre.
    pub lookahead_min_degree: f64,
    /// Relative margin every deciding comparison must clear for the
    /// pick to count as *confident* (confident picks skip the race).
    pub margin: f64,
}

impl Default for SelectorThresholds {
    fn default() -> Self {
        // Calibrated values — see CALIBRATION_portfolio.json.
        SelectorThresholds {
            trivial_min_path: 1.0,
            trivial_max_degree: 3.0,
            lookahead_max_path: 1.235_294_117_647_058_9,
            lookahead_min_degree: 21.0,
            margin: 0.10,
        }
    }
}

/// One selector decision for one circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// The chosen lane (an entry of [`LANES`]).
    pub lane: &'static str,
    /// True when every deciding comparison cleared its threshold by
    /// the calibrated margin; unconfident picks are raced instead.
    pub confident: bool,
    /// The retained metric vector the decision was made on, in
    /// [`GraphMetrics::selected_names`] order.
    pub metrics: [f64; 4],
}

impl Selection {
    /// The pipeline config of the chosen lane.
    pub fn config(&self) -> MapperConfig {
        lane_config(self.lane).expect("selection lanes are portfolio lanes")
    }
}

/// The metric-driven strategy selector.
#[derive(Debug, Clone, Default)]
pub struct Selector {
    /// Calibrated decision thresholds.
    pub thresholds: SelectorThresholds,
}

impl Selector {
    /// A selector with the given thresholds.
    pub fn new(thresholds: SelectorThresholds) -> Self {
        Selector { thresholds }
    }

    /// Picks a lane for `circuit`, hitting the `mapper.select`
    /// failpoint first (an injected panic propagates to the caller;
    /// [`Portfolio::map`] isolates it and degrades to the race).
    ///
    /// # Errors
    ///
    /// The injected failpoint message when a `mapper.select` error
    /// fault is armed; selection itself is total.
    pub fn select(&self, circuit: &Circuit) -> Result<Selection, String> {
        if qcs_faults::any_armed() {
            if let qcs_faults::Hit::Error(message) = qcs_faults::hit("mapper.select") {
                return Err(message);
            }
        }
        let metrics = GraphMetrics::compute(&interaction_graph(circuit));
        Ok(self.select_metrics(&metrics))
    }

    /// The pure decision function over an already-computed metric
    /// vector (used by the calibration sweep, which batches metric
    /// computation).
    pub fn select_metrics(&self, metrics: &GraphMetrics) -> Selection {
        let t = &self.thresholds;
        let vec = [
            metrics.avg_shortest_path,
            metrics.max_degree,
            metrics.min_degree,
            metrics.adjacency_std,
        ];
        // No two-qubit structure at all: nothing to route, the
        // trivial lane is exact.
        if metrics.max_degree == 0.0 {
            return Selection {
                lane: "trivial",
                confident: true,
                metrics: vec,
            };
        }
        let asp = metrics.avg_shortest_path;
        let sparse = asp >= t.trivial_min_path && metrics.max_degree <= t.trivial_max_degree;
        if sparse {
            let confident = asp >= t.trivial_min_path * (1.0 + t.margin)
                && metrics.max_degree <= t.trivial_max_degree * (1.0 - t.margin).max(0.0);
            return Selection {
                lane: "trivial",
                confident,
                metrics: vec,
            };
        }
        let regular = asp <= t.lookahead_max_path && metrics.min_degree >= t.lookahead_min_degree;
        if regular {
            let confident = asp <= t.lookahead_max_path * (1.0 - t.margin).max(0.0)
                && metrics.min_degree >= t.lookahead_min_degree * (1.0 + t.margin);
            return Selection {
                lane: "lookahead",
                confident,
                metrics: vec,
            };
        }
        // The irregular rest. Confident only when clearly neither
        // rule applies: each earlier rule misses by margin on at
        // least one of its legs.
        let clearly_not_sparse = asp < t.trivial_min_path * (1.0 - t.margin).max(0.0)
            || metrics.max_degree > t.trivial_max_degree * (1.0 + t.margin);
        let clearly_not_regular = asp > t.lookahead_max_path * (1.0 + t.margin)
            || metrics.min_degree < t.lookahead_min_degree * (1.0 - t.margin).max(0.0);
        Selection {
            lane: "sabre",
            confident: clearly_not_sparse && clearly_not_regular,
            metrics: vec,
        }
    }
}

/// How the portfolio produced (or failed to produce) its result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortfolioMode {
    /// The confident selector pick served directly.
    Selected,
    /// A race winner served.
    Raced,
    /// The cheapest lane served after selection and racing could not.
    Cheapest,
    /// The backend's full degradation order served as the last resort.
    Ladder,
}

impl PortfolioMode {
    /// Stable lowercase name for stats and logs.
    pub fn as_str(self) -> &'static str {
        match self {
            PortfolioMode::Selected => "selected",
            PortfolioMode::Raced => "raced",
            PortfolioMode::Cheapest => "cheapest",
            PortfolioMode::Ladder => "ladder",
        }
    }
}

/// Side-channel accounting for one portfolio run. Deliberately *not*
/// part of [`MapReport`](crate::mapper::MapReport): the report is
/// embedded in canonical cacheable payloads, and portfolio accounting
/// (how long a race waited, how many lanes were discarded) is
/// delivery metadata, not job identity.
#[derive(Debug, Clone, PartialEq)]
pub struct PortfolioReport {
    /// Which degradation stage served the result.
    pub mode: PortfolioMode,
    /// The serving lane name, or `"ladder"` for the last resort.
    pub lane: String,
    /// True when the selector produced a confident pick.
    pub confident: bool,
    /// True when the selector panicked or was error-injected (the
    /// portfolio then treats the circuit as unconfident and races).
    pub selector_failed: bool,
    /// Lanes launched into the race (0 when no race ran).
    pub raced: usize,
    /// Lanes discarded across the whole run: panicked, error-injected,
    /// failed verification, or still unreported when the budget ended.
    pub discarded: usize,
    /// True when every raced lane reported before the budget ended
    /// (or no race ran). A complete race is deterministic — the best
    /// verified result is a pure function of the job.
    pub race_complete: bool,
    /// True when the remaining deadline budget altered the execution
    /// path at any point: a confident pick or race was skipped as too
    /// expensive, or a race was truncated before every lane reported.
    /// Budget-limited results are correct and verified but *not* a
    /// pure function of the job, so the serving tier must not cache
    /// them.
    pub budget_limited: bool,
}

/// How one lane run ended, short of producing a verified outcome.
enum LaneFailure {
    /// The lane found the job unsatisfiable on the device — a device
    /// property, so it short-circuits the whole portfolio.
    Unsatisfiable(LadderError),
    /// Strategy-local failure: error, panic, or failed verification.
    Failed(String),
}

/// One message from a raced lane thread.
type LaneMessage = (usize, Result<Box<MapOutcome>, LaneFailure>);

/// The portfolio engine: selector plus racing plus total-ordered
/// graceful degradation. See the module docs for the exact order.
#[derive(Debug, Clone, Default)]
pub struct Portfolio {
    selector: Selector,
}

impl Portfolio {
    /// The configured selector.
    pub fn selector(&self) -> &Selector {
        &self.selector
    }

    /// Maps `circuit` on `backend` through the portfolio. `deadline`
    /// is the *remaining* end-to-end budget; `None` means unbounded
    /// (a race then waits for every lane, which makes the winner a
    /// pure function of the job).
    ///
    /// The returned outcome is always verified (every stage runs with
    /// ladder verification on). The companion [`PortfolioReport`]
    /// says which stage served and whether the result is cacheable.
    ///
    /// # Errors
    ///
    /// [`LadderError`] only when every stage — including the final
    /// walk of the backend's rungs — failed, or a lane found the job
    /// unsatisfiable on the device.
    pub fn map(
        &self,
        circuit: &Circuit,
        backend: &Arc<dyn Backend>,
        deadline: Option<Duration>,
    ) -> Result<(MapOutcome, PortfolioReport), LadderError> {
        self.run(circuit, backend, deadline, false)
    }

    /// Like [`Portfolio::map`], but always races every lane — the
    /// selector is bypassed entirely. This is the serving tier's
    /// explicit `race` request mode: callers who want the best
    /// verified result across all strategies rather than the
    /// cheapest-adequate pick. Degradation stages 2–4 are identical
    /// to [`Portfolio::map`].
    ///
    /// # Errors
    ///
    /// As for [`Portfolio::map`].
    pub fn map_racing(
        &self,
        circuit: &Circuit,
        backend: &Arc<dyn Backend>,
        deadline: Option<Duration>,
    ) -> Result<(MapOutcome, PortfolioReport), LadderError> {
        self.run(circuit, backend, deadline, true)
    }

    fn run(
        &self,
        circuit: &Circuit,
        backend: &Arc<dyn Backend>,
        deadline: Option<Duration>,
        force_race: bool,
    ) -> Result<(MapOutcome, PortfolioReport), LadderError> {
        let started = Instant::now();
        let remaining = |deadline: Option<Duration>| -> Option<Duration> {
            deadline.map(|d| d.saturating_sub(started.elapsed()))
        };
        let tight = |rem: Option<Duration>| -> bool {
            rem.is_some_and(|r| r < Duration::from_millis(DEFAULT_MIN_RACE_BUDGET_MS))
        };

        let mut report = PortfolioReport {
            mode: PortfolioMode::Ladder,
            lane: String::new(),
            confident: false,
            selector_failed: false,
            raced: 0,
            discarded: 0,
            race_complete: true,
            budget_limited: false,
        };
        let mut walker = Walker::default();

        // Stage 1: metric-driven selection, panic-isolated. A
        // panicking or error-injected selector is not an error — the
        // circuit is simply treated as unconfident. Forced races skip
        // selection entirely.
        let selection = if force_race {
            None
        } else {
            match catch_unwind(AssertUnwindSafe(|| self.selector.select(circuit))) {
                Ok(Ok(selection)) => Some(selection),
                Ok(Err(_)) | Err(_) => {
                    report.selector_failed = true;
                    None
                }
            }
        };
        report.confident = selection.as_ref().is_some_and(|s| s.confident);

        let mut failed_lanes: Vec<&'static str> = Vec::new();
        if let Some(selection) = &selection {
            if selection.confident {
                if tight(remaining(deadline)) {
                    report.budget_limited = true;
                } else {
                    // The confident pick gets at most half the
                    // remaining budget: a primary lane hung in an
                    // armed delay failpoint (or simply pathological on
                    // this circuit) must leave room to race the other
                    // lanes instead of blowing the whole deadline.
                    let budget = remaining(deadline).map(|r| r / 2);
                    let error = match run_lane_bounded(selection.lane, circuit, backend, budget) {
                        Some(Ok(outcome)) => {
                            report.mode = PortfolioMode::Selected;
                            report.lane = selection.lane.to_string();
                            return Ok((*outcome, report));
                        }
                        Some(Err(LaneFailure::Unsatisfiable(error))) => return Err(error),
                        Some(Err(LaneFailure::Failed(error))) => error,
                        None => {
                            report.budget_limited = true;
                            "did not report within the budget".to_string()
                        }
                    };
                    report.discarded += 1;
                    walker.demote(selection.config(), error);
                    failed_lanes.push(selection.lane);
                }
            }
        }

        // Stage 2: race the remaining lanes under the budget.
        if tight(remaining(deadline)) {
            report.budget_limited = true;
        } else {
            let lanes: Vec<&'static str> = LANES
                .iter()
                .copied()
                .filter(|lane| !failed_lanes.contains(lane))
                .collect();
            if !lanes.is_empty() {
                match self.race(circuit, backend, &lanes, remaining(deadline), &mut report) {
                    Ok(Some(outcome)) => {
                        report.mode = PortfolioMode::Raced;
                        return Ok((*outcome, report));
                    }
                    Ok(None) => {}
                    Err(error) => return Err(error),
                }
            }
        }

        // Stage 3: the cheapest lane, synchronously. This is the
        // guarantee that a deadline cold-racing cannot meet still
        // returns a verified trivial-strategy result.
        match run_lane_caught("trivial", circuit, backend.as_ref(), None) {
            Ok(outcome) => {
                report.mode = PortfolioMode::Cheapest;
                report.lane = "trivial".to_string();
                return Ok((*outcome, report));
            }
            Err(LaneFailure::Unsatisfiable(error)) => return Err(error),
            Err(LaneFailure::Failed(error)) => {
                report.discarded += 1;
                walker.demote(lane_config("trivial").unwrap_or_default(), error);
            }
        }

        // Stage 4: the backend's full degradation order, exactly as a
        // non-portfolio request would be served.
        let rungs = backend.rungs(&MapperConfig::default());
        let (outcome, ()) = walker.walk(circuit, backend.device(), rungs)?;
        report.mode = PortfolioMode::Ladder;
        report.lane = "ladder".to_string();
        Ok((outcome, report))
    }

    /// Races `lanes` with per-lane panic isolation and cooperative
    /// cancellation, returning the best verified result that reported
    /// within `budget` (`None` budget waits for every lane).
    ///
    /// Best is the minimum of `(swaps_inserted, routed_gates, lane
    /// cost order)` over verified lane outcomes — all deterministic
    /// quantities, so a *complete* race has a deterministic winner.
    ///
    /// Lane threads are detached: a lane hung in an armed delay
    /// failpoint (or simply slower than the budget) cannot hold the
    /// serving thread hostage. Losers observe the shared cancel flag
    /// at their next checkpoint and exit without reporting.
    fn race(
        &self,
        circuit: &Circuit,
        backend: &Arc<dyn Backend>,
        lanes: &[&'static str],
        budget: Option<Duration>,
        report: &mut PortfolioReport,
    ) -> Result<Option<Box<MapOutcome>>, LadderError> {
        report.raced = lanes.len();
        let cancel = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<LaneMessage>();
        let mut handles = Vec::with_capacity(lanes.len());
        for (index, lane) in lanes.iter().copied().enumerate() {
            let tx = tx.clone();
            let cancel = Arc::clone(&cancel);
            let circuit = circuit.clone();
            let backend = Arc::clone(backend);
            handles.push(Some(std::thread::spawn(move || {
                let result = run_lane_caught(lane, &circuit, backend.as_ref(), Some(&cancel));
                if cancel.load(Ordering::Relaxed) {
                    return; // Cancelled loser: stay silent.
                }
                let _ = tx.send((index, result));
            })));
        }
        drop(tx);

        let deadline_at = budget.map(|b| Instant::now() + b);
        let mut best: Option<(usize, Box<MapOutcome>)> = None;
        let mut reported = 0usize;
        let mut unsatisfiable: Option<LadderError> = None;
        while reported < lanes.len() {
            let message = match deadline_at {
                Some(at) => {
                    let now = Instant::now();
                    if now >= at {
                        break;
                    }
                    match rx.recv_timeout(at - now) {
                        Ok(message) => message,
                        Err(_) => break,
                    }
                }
                None => match rx.recv() {
                    Ok(message) => message,
                    Err(_) => break,
                },
            };
            reported += 1;
            let (index, result) = message;
            if let Some(handle) = handles[index].take() {
                // The lane sent its result as its last act; joining
                // here is instantaneous and keeps threads accounted.
                let _ = handle.join();
            }
            match result {
                Ok(outcome) => {
                    let better = match &best {
                        None => true,
                        Some((best_index, best_outcome)) => {
                            let candidate = (
                                outcome.report.swaps_inserted,
                                outcome.report.routed_gates,
                                index,
                            );
                            let incumbent = (
                                best_outcome.report.swaps_inserted,
                                best_outcome.report.routed_gates,
                                *best_index,
                            );
                            candidate < incumbent
                        }
                    };
                    if better {
                        best = Some((index, outcome));
                    }
                }
                Err(LaneFailure::Unsatisfiable(error)) => {
                    report.discarded += 1;
                    // Authoritative: no lane can fix a device-level
                    // unsatisfiability. Stop listening, cancel, report.
                    unsatisfiable = Some(error);
                    break;
                }
                Err(LaneFailure::Failed(_)) => report.discarded += 1,
            }
        }
        cancel.store(true, Ordering::Relaxed);
        report.race_complete = reported == lanes.len();
        report.discarded += lanes.len() - reported;
        if let Some(error) = unsatisfiable {
            return Err(error);
        }
        if !report.race_complete {
            // The budget ended before every lane reported: whatever is
            // served next depends on wall-clock, not only on the job.
            report.budget_limited = true;
        }
        if let Some((index, outcome)) = best {
            report.lane = lanes[index].to_string();
            return Ok(Some(outcome));
        }
        Ok(None)
    }
}

/// Runs one lane under a budget. With no budget the lane runs
/// synchronously on the calling thread (no spawn on the deterministic
/// unbounded path). With a budget it runs on a detached thread and
/// must report in time; a lane that does not is cancelled and `None`
/// is returned, so deadline-boundedness holds even for the confident
/// direct run — a hung lane cannot hold the request past its deadline.
fn run_lane_bounded(
    lane: &'static str,
    circuit: &Circuit,
    backend: &Arc<dyn Backend>,
    budget: Option<Duration>,
) -> Option<Result<Box<MapOutcome>, LaneFailure>> {
    let Some(budget) = budget else {
        return Some(run_lane_caught(lane, circuit, backend.as_ref(), None));
    };
    let cancel = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel();
    {
        let cancel = Arc::clone(&cancel);
        let circuit = circuit.clone();
        let backend = Arc::clone(backend);
        std::thread::spawn(move || {
            let result = run_lane_caught(lane, &circuit, backend.as_ref(), Some(&cancel));
            if cancel.load(Ordering::Relaxed) {
                return; // Cancelled after timing out: stay silent.
            }
            let _ = tx.send(result);
        });
    }
    match rx.recv_timeout(budget) {
        Ok(result) => Some(result),
        Err(_) => {
            cancel.store(true, Ordering::Relaxed);
            None
        }
    }
}

/// Runs one lane with panic isolation: failpoint, then the backend's
/// single-strategy pipeline (verification on). The `cancel` flag is
/// checked at the lane checkpoints (entry and after the failpoint) so
/// cancelled race losers stop doing work cooperatively.
fn run_lane_caught(
    lane: &'static str,
    circuit: &Circuit,
    backend: &dyn Backend,
    cancel: Option<&AtomicBool>,
) -> Result<Box<MapOutcome>, LaneFailure> {
    let cancelled = || cancel.is_some_and(|c| c.load(Ordering::Relaxed));
    if cancelled() {
        return Err(LaneFailure::Failed("cancelled".to_string()));
    }
    match catch_unwind(AssertUnwindSafe(|| {
        run_lane(lane, circuit, backend, cancel)
    })) {
        Ok(result) => result,
        Err(panic) => Err(LaneFailure::Failed(format!(
            "panicked: {}",
            panic_message(panic.as_ref())
        ))),
    }
}

/// The lane body: `mapper.race.<lane>` failpoint, cancel checkpoint,
/// then a walk of exactly one rung — the backend's rung 0 for the
/// lane's pipeline.
fn run_lane(
    lane: &'static str,
    circuit: &Circuit,
    backend: &dyn Backend,
    cancel: Option<&AtomicBool>,
) -> Result<Box<MapOutcome>, LaneFailure> {
    if qcs_faults::any_armed() {
        if let qcs_faults::Hit::Error(message) = qcs_faults::hit(&format!("mapper.race.{lane}")) {
            return Err(LaneFailure::Failed(message));
        }
    }
    if cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
        return Err(LaneFailure::Failed("cancelled".to_string()));
    }
    let config = lane_config(lane)
        .unwrap_or_else(|| panic!("unknown portfolio lane {lane:?} (expected one of {LANES:?})"));
    let mut rungs = backend.rungs(&config);
    rungs.truncate(1);
    match Walker::default().walk(circuit, backend.device(), rungs) {
        Ok((outcome, ())) => Ok(Box::new(outcome)),
        Err(error) if error.unsatisfiable => Err(LaneFailure::Unsatisfiable(error)),
        Err(error) => Err(LaneFailure::Failed(error.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::CoupledBackend;
    use qcs_topology::surface::surface17;

    fn backend() -> Arc<dyn Backend> {
        Arc::new(CoupledBackend::new(surface17()))
    }

    #[test]
    fn lane_table_is_consistent() {
        for (i, lane) in LANES.iter().enumerate() {
            assert_eq!(lane_index(lane), Some(i));
            assert!(lane_config(lane).is_some());
        }
        assert_eq!(lane_config("warp"), None);
        assert_eq!(lane_index("warp"), None);
    }

    #[test]
    fn adequacy_and_oracle_prefer_cheap_lanes() {
        // Clear win for trivial.
        assert_eq!(oracle_lane(&[10, 10, 10]), "trivial");
        // Trivial 3x worse than best: skip to lookahead.
        assert_eq!(oracle_lane(&[300, 100, 100]), "lookahead");
        // Only sabre is adequate.
        assert_eq!(oracle_lane(&[300, 200, 100]), "sabre");
        // Small absolute differences never force an expensive lane.
        assert_eq!(oracle_lane(&[8, 2, 1]), "trivial");
    }

    #[test]
    fn selector_is_deterministic_and_total() {
        let selector = Selector::default();
        let qft = qcs_workloads::qft::qft(8).unwrap();
        let a = selector.select(&qft).unwrap();
        let b = selector.select(&qft).unwrap();
        assert_eq!(a, b);
        assert!(lane_index(a.lane).is_some());
    }

    #[test]
    fn empty_interaction_graph_is_a_confident_trivial_pick() {
        let selector = Selector::default();
        let single = Circuit::new(3); // no two-qubit gates at all
        let s = selector.select(&single).unwrap();
        assert_eq!(s.lane, "trivial");
        assert!(s.confident);
    }

    #[test]
    fn portfolio_serves_verified_results_without_deadline() {
        let (outcome, report) = Portfolio::default()
            .map(&qcs_workloads::qft::qft(6).unwrap(), &backend(), None)
            .unwrap();
        assert!(outcome.report.verified);
        assert!(report.race_complete);
        assert!(!report.budget_limited);
        assert!(!report.lane.is_empty());
    }

    #[test]
    fn tight_deadline_degrades_to_the_cheapest_lane() {
        let (outcome, report) = Portfolio::default()
            .map(
                &qcs_workloads::qft::qft(6).unwrap(),
                &backend(),
                Some(Duration::from_millis(1)),
            )
            .unwrap();
        assert_eq!(report.mode, PortfolioMode::Cheapest);
        assert_eq!(report.lane, "trivial");
        assert_eq!(outcome.report.placer, "trivial");
        assert!(outcome.report.verified);
        assert!(
            report.budget_limited,
            "tight-deadline results must not be cached"
        );
    }

    #[test]
    fn forced_race_bypasses_the_selector() {
        let (outcome, report) = Portfolio::default()
            .map_racing(&qcs_workloads::qft::qft(6).unwrap(), &backend(), None)
            .unwrap();
        assert_eq!(report.mode, PortfolioMode::Raced);
        assert_eq!(report.raced, LANES.len());
        assert!(report.race_complete);
        assert!(!report.budget_limited);
        assert!(!report.confident);
        assert!(outcome.report.verified);
    }

    #[test]
    fn complete_races_are_deterministic() {
        let portfolio = Portfolio::default();
        let circuit = qcs_workloads::qft::qft(7).unwrap();
        let b = backend();
        let mut lanes = Vec::new();
        let mut payloads = Vec::new();
        for _ in 0..3 {
            let mut report = PortfolioReport {
                mode: PortfolioMode::Raced,
                lane: String::new(),
                confident: false,
                selector_failed: false,
                raced: 0,
                discarded: 0,
                race_complete: true,
                budget_limited: false,
            };
            let outcome = portfolio
                .race(&circuit, &b, LANES, None, &mut report)
                .unwrap()
                .unwrap();
            assert!(report.race_complete);
            lanes.push(report.lane.clone());
            payloads.push((
                outcome.report.swaps_inserted,
                outcome.report.routed_gates,
                outcome.report.placer.clone(),
            ));
        }
        assert_eq!(lanes[0], lanes[1]);
        assert_eq!(lanes[1], lanes[2]);
        assert_eq!(payloads[0], payloads[1]);
        assert_eq!(payloads[1], payloads[2]);
    }

    #[test]
    fn too_wide_circuits_exhaust_with_attempts() {
        let wide = Circuit::new(30); // 30 qubits on surface-17
        let err = Portfolio::default()
            .map(&wide, &backend(), None)
            .unwrap_err();
        assert!(!err.unsatisfiable);
        assert!(!err.attempts.is_empty());
    }
}
