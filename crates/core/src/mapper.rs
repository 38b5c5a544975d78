//! The end-to-end mapping pipeline and its report.
//!
//! [`Mapper`] chains the four mapping steps of Section III —
//! decomposition, placement, routing, scheduling — and produces a
//! [`MapReport`] with the metrics the paper evaluates mappers by:
//! "gate overhead (number of SWAPs), circuit depth and latency overhead
//! (number of time-stamps) and reliability/fidelity or success rate
//! probability."

use qcs_circuit::circuit::Circuit;
use qcs_circuit::decompose::{decompose_circuit, DecomposeError};
use qcs_topology::device::Device;

use crate::error::UnsatisfiableReason;
use crate::fidelity::FidelityModel;
use crate::place::{GraphSimilarityPlacer, PlaceError, Placer, TrivialPlacer};
use crate::route::{
    LookaheadRouter, NoiseAwareRouter, RouteError, RoutedCircuit, Router, TrivialRouter,
};
use crate::schedule::{schedule_asap, ControlGroups, Schedule};

/// Error raised by the mapping pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum MapError {
    /// Decomposition to the device's primitive set failed.
    Decompose(DecomposeError),
    /// Placement failed.
    Place(PlaceError),
    /// Routing failed.
    Route(RouteError),
    /// The degraded device cannot host this circuit at all — a property
    /// of the outage, not of the chosen strategies. Surfaced as its own
    /// variant (rather than buried in `Place`/`Route`) so callers can
    /// distinguish "retry on a healthier device" from "compiler bug".
    Unsatisfiable(UnsatisfiableReason),
    /// A `qcs-faults` failpoint injected this error (chaos testing).
    Injected(String),
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::Decompose(e) => write!(f, "decomposition failed: {e}"),
            MapError::Place(e) => write!(f, "placement failed: {e}"),
            MapError::Route(e) => write!(f, "routing failed: {e}"),
            MapError::Unsatisfiable(reason) => {
                write!(f, "degraded device cannot host circuit: {reason}")
            }
            MapError::Injected(message) => write!(f, "injected fault: {message}"),
        }
    }
}

impl std::error::Error for MapError {}

impl From<DecomposeError> for MapError {
    fn from(e: DecomposeError) -> Self {
        MapError::Decompose(e)
    }
}
impl From<PlaceError> for MapError {
    fn from(e: PlaceError) -> Self {
        match e {
            PlaceError::Unsatisfiable(reason) => MapError::Unsatisfiable(reason),
            other => MapError::Place(other),
        }
    }
}
impl From<RouteError> for MapError {
    fn from(e: RouteError) -> Self {
        match e {
            RouteError::Unsatisfiable(reason) => MapError::Unsatisfiable(reason),
            other => MapError::Route(other),
        }
    }
}

/// Wall-clock time spent in each pipeline stage of one mapping run, in
/// microseconds.
///
/// The compilation service reads this to attribute request latency per
/// stage in its `stats` histograms. Timing is *measurement*, not circuit
/// content: consumers that require deterministic, reproducible reports
/// (the parallel suite engine, the service's cached responses) normalize
/// it to [`StageTiming::ZERO`] before comparing or serializing results.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageTiming {
    /// Decomposition to the primitive gate set (both passes).
    pub decompose_micros: f64,
    /// Placement.
    pub place_micros: f64,
    /// Routing.
    pub route_micros: f64,
    /// ASAP scheduling.
    pub schedule_micros: f64,
}

qcs_json::impl_json_object!(StageTiming {
    decompose_micros,
    place_micros,
    route_micros,
    schedule_micros,
});

impl StageTiming {
    /// All-zero timing, the normalized form for deterministic outputs.
    pub const ZERO: StageTiming = StageTiming {
        decompose_micros: 0.0,
        place_micros: 0.0,
        route_micros: 0.0,
        schedule_micros: 0.0,
    };

    /// Total time across all stages.
    pub fn total_micros(&self) -> f64 {
        self.decompose_micros + self.place_micros + self.route_micros + self.schedule_micros
    }
}

/// All figures of merit from one mapping run.
#[derive(Debug, Clone, PartialEq)]
pub struct MapReport {
    /// Source circuit name.
    pub circuit_name: String,
    /// Target device name.
    pub device_name: String,
    /// Placement strategy used.
    pub placer: String,
    /// Routing strategy used.
    pub router: String,
    /// Gate count of the input circuit as given.
    pub input_gates: usize,
    /// Gate count after decomposition to the primitive set, before
    /// routing (the denominator of the overhead percentage).
    pub decomposed_gates: usize,
    /// Two-qubit gate count before routing.
    pub original_two_qubit_gates: usize,
    /// Gate count of the fully-routed circuit in native gates
    /// (SWAPs decomposed).
    pub routed_gates: usize,
    /// Two-qubit gate count after routing (SWAPs decomposed).
    pub routed_two_qubit_gates: usize,
    /// SWAP gates inserted by the router. Movement backends count their
    /// relocation stand-ins here too (each move is replayed as one
    /// permutation SWAP during verification), so SWAP-replay accounting
    /// stays uniform across backends.
    pub swaps_inserted: usize,
    /// Physical qubit relocations performed by a movement backend (AOD
    /// shuttle moves on a neutral-atom array). Always 0 for fixed-coupler
    /// SWAP routing.
    pub moves_inserted: usize,
    /// Parallel gate stages scheduled by a movement backend. Always 0
    /// for fixed-coupler SWAP routing.
    pub move_stages: usize,
    /// `(routed − decomposed) / decomposed × 100` (Figs. 3(b), 5).
    pub gate_overhead_pct: f64,
    /// Depth before routing (decomposed circuit).
    pub depth_before: usize,
    /// Depth after routing (native gates).
    pub depth_after: usize,
    /// `(after − before) / before × 100`.
    pub depth_overhead_pct: f64,
    /// Analytic fidelity of the decomposed circuit (pre-routing).
    pub fidelity_before: f64,
    /// Analytic fidelity of the routed native circuit (Fig. 3(a)).
    pub fidelity_after: f64,
    /// `(before − after) / before × 100` (Fig. 3(c)).
    pub fidelity_decrease_pct: f64,
    /// Scheduled makespan of the routed circuit in nanoseconds.
    pub makespan_ns: f64,
    /// Which fallback-ladder rung produced this result: 0 for the
    /// requested pipeline, 1+ for each degradation step. Always 0 for a
    /// plain [`Mapper::map`] run.
    pub fallback_rung: usize,
    /// Whether independent post-compilation verification
    /// ([`crate::verify::verify_outcome`]) passed on this result. Set by
    /// the rung walker ([`crate::ladder::Walker`]); always false for a
    /// plain [`Mapper::map`] run.
    pub verified: bool,
    /// Wall-clock time per pipeline stage (zero when normalized for
    /// deterministic output).
    pub timing: StageTiming,
}

qcs_json::impl_json_object!(MapReport {
    circuit_name,
    device_name,
    placer,
    router,
    input_gates,
    decomposed_gates,
    original_two_qubit_gates,
    routed_gates,
    routed_two_qubit_gates,
    swaps_inserted,
    moves_inserted,
    move_stages,
    gate_overhead_pct,
    depth_before,
    depth_after,
    depth_overhead_pct,
    fidelity_before,
    fidelity_after,
    fidelity_decrease_pct,
    makespan_ns,
    fallback_rung,
    verified,
    timing,
});

/// Passes the generic and per-strategy failpoint for one pipeline stage.
/// The per-strategy site name is only built when something is armed, so
/// the common case stays two relaxed atomic loads. Backends with their
/// own stages (DPQA movement rungs) call it under the same site names.
pub fn stage_failpoint(site: &str, strategy: &str) -> Result<(), MapError> {
    if !qcs_faults::any_armed() {
        return Ok(());
    }
    if let qcs_faults::Hit::Error(message) = qcs_faults::hit(site) {
        return Err(MapError::Injected(message));
    }
    if let qcs_faults::Hit::Error(message) = qcs_faults::hit(&format!("{site}.{strategy}")) {
        return Err(MapError::Injected(message));
    }
    Ok(())
}

/// Everything produced by one mapping run.
#[derive(Debug, Clone, PartialEq)]
pub struct MapOutcome {
    /// The input circuit decomposed to the device's primitive set (still
    /// virtual operands).
    pub decomposed: Circuit,
    /// The routed circuit (physical operands, SWAPs explicit).
    pub routed: RoutedCircuit,
    /// The routed circuit with SWAPs decomposed to native gates.
    pub native: Circuit,
    /// ASAP schedule of the native circuit.
    pub schedule: Schedule,
    /// Figures of merit.
    pub report: MapReport,
}

/// The configurable mapping pipeline.
///
/// # Examples
///
/// ```
/// use qcs_core::mapper::Mapper;
/// use qcs_topology::surface::surface17;
///
/// let qft = qcs_workloads::qft::qft(8)?;
/// let outcome = Mapper::algorithm_driven().map(&qft, &surface17())?;
/// assert!(outcome.report.gate_overhead_pct >= 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Mapper {
    placer: Box<dyn Placer>,
    router: Box<dyn Router>,
    fidelity: FidelityModel,
    controls: ControlGroups,
}

impl std::fmt::Debug for Mapper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mapper")
            .field("placer", &self.placer.name())
            .field("router", &self.router.name())
            .field("fidelity", &self.fidelity)
            .finish_non_exhaustive()
    }
}

impl Mapper {
    /// Builds a mapper from explicit strategies.
    pub fn new(placer: Box<dyn Placer>, router: Box<dyn Router>) -> Self {
        Mapper {
            placer,
            router,
            fidelity: FidelityModel::default(),
            controls: ControlGroups::unconstrained(),
        }
    }

    /// The OpenQL-style trivial mapper of Figs. 3/5: identity placement +
    /// shortest-path routing.
    pub fn trivial() -> Self {
        Mapper::new(Box::new(TrivialPlacer), Box::new(TrivialRouter))
    }

    /// Hardware-aware baseline: identity placement + SABRE-style
    /// look-ahead routing.
    pub fn lookahead() -> Self {
        Mapper::new(
            Box::new(TrivialPlacer),
            Box::new(LookaheadRouter::default()),
        )
    }

    /// The paper's target: algorithm-driven (interaction-graph) placement
    /// combined with hardware-aware look-ahead routing.
    pub fn algorithm_driven() -> Self {
        Mapper::new(
            Box::new(GraphSimilarityPlacer),
            Box::new(LookaheadRouter::default()),
        )
    }

    /// Noise-aware variant: calibration-weighted SWAP chains.
    pub fn noise_aware() -> Self {
        Mapper::new(Box::new(GraphSimilarityPlacer), Box::new(NoiseAwareRouter))
    }

    /// Exact subgraph-isomorphism placement (greedy fallback) with
    /// look-ahead routing.
    pub fn subgraph() -> Self {
        Mapper::new(
            Box::new(crate::place_subgraph::SubgraphPlacer::default()),
            Box::new(LookaheadRouter::default()),
        )
    }

    /// SABRE-style forward/backward placement refinement with look-ahead
    /// routing.
    pub fn sabre() -> Self {
        Mapper::new(
            Box::new(crate::place_sabre::SabrePlacer::default()),
            Box::new(LookaheadRouter::default()),
        )
    }

    /// Replaces the fidelity model.
    pub fn with_fidelity_model(mut self, model: FidelityModel) -> Self {
        self.fidelity = model;
        self
    }

    /// Adds shared-control scheduling constraints.
    pub fn with_control_groups(mut self, controls: ControlGroups) -> Self {
        self.controls = controls;
        self
    }

    /// The placer's name.
    pub fn placer_name(&self) -> &'static str {
        self.placer.name()
    }

    /// The router's name.
    pub fn router_name(&self) -> &'static str {
        self.router.name()
    }

    /// Runs the full pipeline: decompose → place → route → re-decompose
    /// (SWAPs) → schedule, and assembles the report.
    ///
    /// # Errors
    ///
    /// See [`MapError`].
    pub fn map(&self, circuit: &Circuit, device: &Device) -> Result<MapOutcome, MapError> {
        let micros_since = |start: std::time::Instant| start.elapsed().as_secs_f64() * 1e6;

        let t = std::time::Instant::now();
        let decomposed = decompose_circuit(circuit, device.gate_set())?;
        let mut decompose_micros = micros_since(t);

        let t = std::time::Instant::now();
        // Chaos-test failpoints: panics and delays act inside `hit`,
        // injected errors surface as `MapError::Injected`, triggers are
        // meaningless mid-pipeline and pass through. Each stage has a
        // generic site plus a per-strategy one (`mapper.place.sabre`, …)
        // so chaos harnesses can fail exactly one fallback-ladder rung.
        stage_failpoint("mapper.place", self.placer.name())?;
        let layout = self.placer.place(&decomposed, device)?;
        let place_micros = micros_since(t);

        let t = std::time::Instant::now();
        stage_failpoint("mapper.route", self.router.name())?;
        let routed = self.router.route(&decomposed, device, layout)?;
        let route_micros = micros_since(t);

        let t = std::time::Instant::now();
        let native = decompose_circuit(&routed.circuit, device.gate_set())?;
        decompose_micros += micros_since(t);

        let t = std::time::Instant::now();
        let schedule = schedule_asap(&native, &device.calibration().durations, &self.controls);
        let schedule_micros = micros_since(t);

        let decomposed_gates = decomposed.gate_count();
        let routed_gates = native.gate_count();
        let depth_before = decomposed.depth();
        let depth_after = native.depth();
        let fidelity_before = self.fidelity.circuit_fidelity(&decomposed, device);
        let fidelity_after = self
            .fidelity
            .circuit_fidelity_scheduled(&native, device, &schedule);

        let pct = |before: f64, after: f64| {
            if before > 0.0 {
                (after - before) / before * 100.0
            } else {
                0.0
            }
        };

        let report = MapReport {
            circuit_name: circuit.name().to_string(),
            device_name: device.name().to_string(),
            placer: self.placer.name().to_string(),
            router: self.router.name().to_string(),
            input_gates: circuit.gate_count(),
            decomposed_gates,
            original_two_qubit_gates: decomposed.two_qubit_gate_count(),
            routed_gates,
            routed_two_qubit_gates: native.two_qubit_gate_count(),
            swaps_inserted: routed.swaps_inserted,
            moves_inserted: 0,
            move_stages: 0,
            gate_overhead_pct: pct(decomposed_gates as f64, routed_gates as f64),
            depth_before,
            depth_after,
            depth_overhead_pct: pct(depth_before as f64, depth_after as f64),
            fidelity_before,
            fidelity_after,
            fidelity_decrease_pct: if fidelity_before > 0.0 {
                (fidelity_before - fidelity_after) / fidelity_before * 100.0
            } else {
                0.0
            },
            makespan_ns: schedule.makespan_ns,
            fallback_rung: 0,
            verified: false,
            timing: StageTiming {
                decompose_micros,
                place_micros,
                route_micros,
                schedule_micros,
            },
        };

        Ok(MapOutcome {
            decomposed,
            routed,
            native,
            schedule,
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcs_circuit::gate::GateKind;
    use qcs_topology::lattice::{grid_device, line_device};
    use qcs_topology::surface::surface7;

    fn fig2_circuit() -> Circuit {
        let mut c = Circuit::with_name(4, "fig2");
        c.cnot(1, 0)
            .unwrap()
            .cnot(1, 2)
            .unwrap()
            .cnot(2, 3)
            .unwrap();
        c.cnot(2, 0).unwrap().cnot(1, 2).unwrap();
        c
    }

    #[test]
    fn trivial_mapper_on_fig2() {
        let outcome = Mapper::trivial().map(&fig2_circuit(), &surface7()).unwrap();
        let r = &outcome.report;
        assert_eq!(r.input_gates, 5);
        assert!(r.swaps_inserted >= 1);
        assert!(r.gate_overhead_pct > 0.0);
        assert!(r.fidelity_after < r.fidelity_before);
        assert!(outcome.routed.respects_connectivity(&surface7()));
        // Native circuit must be entirely in the device's gate set.
        assert!(outcome
            .native
            .gates()
            .iter()
            .all(|g| surface7().gate_set().contains(g.kind())));
    }

    #[test]
    fn swaps_become_native_gates() {
        let mut c = Circuit::new(3);
        c.cnot(0, 2).unwrap();
        let dev = line_device(3);
        let outcome = Mapper::trivial().map(&c, &dev).unwrap();
        assert_eq!(outcome.routed.swaps_inserted, 1);
        assert!(outcome
            .native
            .gates()
            .iter()
            .all(|g| g.kind() != GateKind::Swap));
        assert!(outcome.report.routed_two_qubit_gates >= 4); // 1 + 3 per swap
    }

    #[test]
    fn zero_overhead_when_layout_fits() {
        let mut c = Circuit::new(3);
        c.cnot(0, 1).unwrap().cnot(1, 2).unwrap();
        let dev = line_device(3);
        let outcome = Mapper::trivial().map(&c, &dev).unwrap();
        assert_eq!(outcome.report.swaps_inserted, 0);
        assert_eq!(outcome.report.gate_overhead_pct, 0.0);
        assert_eq!(outcome.report.depth_overhead_pct, 0.0);
        assert!((outcome.report.fidelity_before - outcome.report.fidelity_after).abs() < 1e-12);
    }

    #[test]
    fn algorithm_driven_no_worse_than_trivial_on_star() {
        // Star circuit: algorithm-driven placement puts the hub centrally.
        let mut c = Circuit::new(5);
        for q in 1..5 {
            c.cnot(0, q).unwrap();
            c.cnot(0, q).unwrap();
        }
        let dev = grid_device(3, 3);
        let trivial = Mapper::trivial().map(&c, &dev).unwrap();
        let smart = Mapper::algorithm_driven().map(&c, &dev).unwrap();
        assert!(
            smart.report.swaps_inserted <= trivial.report.swaps_inserted,
            "smart {} vs trivial {}",
            smart.report.swaps_inserted,
            trivial.report.swaps_inserted
        );
    }

    #[test]
    fn report_names_filled() {
        let outcome = Mapper::lookahead()
            .map(&fig2_circuit(), &surface7())
            .unwrap();
        assert_eq!(outcome.report.circuit_name, "fig2");
        assert_eq!(outcome.report.device_name, "surface-7");
        assert_eq!(outcome.report.placer, "trivial");
        assert_eq!(outcome.report.router, "lookahead");
        assert!(outcome.report.makespan_ns > 0.0);
    }

    #[test]
    fn too_wide_circuit_errors() {
        let c = Circuit::new(9);
        let err = Mapper::trivial().map(&c, &surface7()).unwrap_err();
        assert!(matches!(err, MapError::Place(_)));
    }

    #[test]
    fn toffoli_is_decomposed_before_routing() {
        let mut c = Circuit::new(3);
        c.toffoli(0, 1, 2).unwrap();
        let dev = line_device(3);
        let outcome = Mapper::trivial().map(&c, &dev).unwrap();
        assert!(outcome.report.decomposed_gates > 10);
        assert!(outcome.routed.respects_connectivity(&dev));
    }

    #[test]
    fn mapper_debug_format() {
        let m = Mapper::noise_aware();
        let s = format!("{m:?}");
        assert!(s.contains("graph-similarity"));
        assert!(s.contains("noise-aware"));
    }

    #[test]
    fn stage_timing_is_measured_and_normalizable() {
        let mut outcome = Mapper::trivial().map(&fig2_circuit(), &surface7()).unwrap();
        let t = outcome.report.timing;
        assert!(t.place_micros >= 0.0 && t.route_micros >= 0.0);
        assert!(t.total_micros() > 0.0, "pipeline takes nonzero time");
        outcome.report.timing = StageTiming::ZERO;
        assert_eq!(outcome.report.timing.total_micros(), 0.0);
    }

    #[test]
    fn control_groups_extend_makespan() {
        let mut c = Circuit::new(4);
        c.h(0).unwrap().h(1).unwrap().h(2).unwrap().h(3).unwrap();
        let dev = line_device(4);
        let free = Mapper::trivial().map(&c, &dev).unwrap();
        let constrained = Mapper::trivial()
            .with_control_groups(ControlGroups::new(vec![vec![0, 1, 2, 3]]))
            .map(&c, &dev)
            .unwrap();
        assert!(constrained.report.makespan_ns > free.report.makespan_ns);
    }
}
