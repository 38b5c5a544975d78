//! The DPQA compilation backend: movement first, SWAP routing as the
//! demotion target.
//!
//! [`DpqaBackend`] implements [`Backend`] over a [`DpqaGrid`]. Its rung
//! list starts with *movement rungs* — the requested placer, then the
//! trivial placer — each producing a move schedule via
//! [`crate::sched::plan_moves`] and verified with
//! [`VerifyConfig::move_swaps`] enabled. A movement rung is demoted on
//! any failure **including an unsatisfiable plan** (an over-full array
//! is a property of the movement physics, not of the job: SWAP routing
//! over the same interaction-radius graph may still succeed), after
//! which the [`FallbackLadder::standard`] SWAP rungs follow on the
//! radius device. The one walker ([`Walker`]) runs the whole list, so
//! `fallback_rung` counts movement rungs and SWAP rungs alike, and
//! rung 0 always means "the requested pipeline, movement included,
//! served this". Movement rungs pass the same failpoints as SWAP rungs:
//! `mapper.place[.<placer>]` before placement and
//! `mapper.route[.dpqa-move]` before move planning.

use std::sync::Arc;
use std::time::Instant;

use qcs_circuit::circuit::Circuit;
use qcs_circuit::decompose::decompose_circuit;
use qcs_core::backend::Backend;
use qcs_core::config::{build_placer, MapperConfig};
use qcs_core::fidelity::FidelityModel;
use qcs_core::ladder::{FallbackLadder, LadderError, Rung, RungError, Walker};
use qcs_core::mapper::{stage_failpoint, MapOutcome, MapReport, StageTiming};
use qcs_core::schedule::{schedule_asap, ControlGroups};
use qcs_core::verify::VerifyConfig;
use qcs_topology::device::{Device, DeviceError};
use qcs_topology::health::DeviceHealth;

use crate::grid::DpqaGrid;
use crate::moves::MoveSchedule;
use crate::sched::plan_moves;

/// The router name movement rungs report: there is no SWAP router in
/// the loop, the "routing" stage is the movement scheduler.
pub const MOVE_ROUTER: &str = "dpqa-move";

/// A movement-based neutral-atom compilation target.
///
/// # Examples
///
/// ```
/// use qcs_core::backend::Backend;
/// use qcs_core::config::MapperConfig;
/// use qcs_dpqa::DpqaBackend;
///
/// let backend = DpqaBackend::new(3, 4)?;
/// assert_eq!(backend.id(), "dpqa-3x4");
/// let qft = qcs_workloads::qft::qft(6)?;
/// let outcome = backend.map(&qft, &MapperConfig::default())?;
/// assert!(outcome.report.verified);
/// assert_eq!(outcome.report.moves_inserted, outcome.report.swaps_inserted);
/// assert!(outcome.report.move_stages > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct DpqaBackend {
    grid: DpqaGrid,
    device: Device,
}

impl DpqaBackend {
    /// A backend over a rows × cols site array.
    ///
    /// # Errors
    ///
    /// [`DeviceError`] when either dimension is zero (surfaced as a
    /// device-construction failure rather than a panic so spec parsing
    /// can report it).
    pub fn new(rows: usize, cols: usize) -> Result<Self, DeviceError> {
        if rows == 0 || cols == 0 {
            return Err(DeviceError::EmptyRegister);
        }
        let grid = DpqaGrid::new(rows, cols);
        let device = grid.device()?;
        Ok(DpqaBackend { grid, device })
    }

    /// The site geometry.
    pub fn grid(&self) -> &DpqaGrid {
        &self.grid
    }

    /// As [`Backend::map`], additionally returning the batched AOD move
    /// schedule when a movement rung served the result (`None` when the
    /// job was demoted to SWAP routing).
    ///
    /// # Errors
    ///
    /// [`LadderError`] when every movement rung *and* every SWAP rung
    /// failed; `unsatisfiable` is set only when SWAP routing itself
    /// found the job unsatisfiable on the radius device.
    pub fn compile_with_schedule(
        &self,
        circuit: &Circuit,
        config: &MapperConfig,
    ) -> Result<(MapOutcome, Option<MoveSchedule>), LadderError> {
        Walker::default().walk(circuit, &self.device, self.ladder(config, Some))
    }

    /// The degradation order for `config`: a movement rung for the
    /// requested placer and one for the trivial placer, then the
    /// standard SWAP chain. `keep` turns a served movement rung's
    /// schedule into the walk's side product; SWAP rungs yield
    /// `T::default()`.
    fn ladder<T: Default + 'static>(
        &self,
        config: &MapperConfig,
        keep: fn(MoveSchedule) -> T,
    ) -> Vec<Rung<'_, T>> {
        let mut placers = vec![config.placer.clone()];
        if config.placer != "trivial" {
            placers.push("trivial".to_string());
        }
        let movement = placers.into_iter().map(|placer| Rung {
            label: MapperConfig::new(placer.clone(), MOVE_ROUTER),
            verify: VerifyConfig {
                move_swaps: true,
                ..VerifyConfig::default()
            },
            unsatisfiable_ends_walk: false,
            compile: Box::new(move |circuit, device| {
                let (outcome, schedule) = self.compile_moves(circuit, device, &placer)?;
                Ok((outcome, keep(schedule)))
            }),
        });
        movement
            .chain(FallbackLadder::standard(config.clone()).swap_rungs())
            .collect()
    }

    /// One movement compile: place with the named strategy, plan moves,
    /// assemble the (unverified) outcome.
    fn compile_moves(
        &self,
        circuit: &Circuit,
        device: &Device,
        placer_name: &str,
    ) -> Result<(MapOutcome, MoveSchedule), RungError> {
        let micros_since = |start: Instant| start.elapsed().as_secs_f64() * 1e6;
        let placer = build_placer(placer_name).map_err(RungError::other)?;

        let t = Instant::now();
        let decomposed = decompose_circuit(circuit, device.gate_set()).map_err(RungError::other)?;
        let decompose_micros = micros_since(t);

        let t = Instant::now();
        stage_failpoint("mapper.place", placer_name)?;
        let initial = placer
            .place(&decomposed, device)
            .map_err(RungError::other)?;
        let place_micros = micros_since(t);

        let t = Instant::now();
        stage_failpoint("mapper.route", MOVE_ROUTER)?;
        let plan = plan_moves(&decomposed, device, &self.grid, initial)?;
        let route_micros = micros_since(t);

        // The routed circuit is already native apart from relocation
        // stand-ins, which must survive into the native artifact for
        // SWAP-replay verification — no re-decomposition.
        let native = plan.routed.circuit.clone();
        let t = Instant::now();
        let schedule = schedule_asap(
            &native,
            &device.calibration().durations,
            &ControlGroups::unconstrained(),
        );
        let schedule_micros = micros_since(t);

        let fidelity = FidelityModel::default();
        let decomposed_gates = decomposed.gate_count();
        let routed_gates = native.gate_count();
        let depth_before = decomposed.depth();
        let depth_after = native.depth();
        let fidelity_before = fidelity.circuit_fidelity(&decomposed, device);
        let fidelity_after = fidelity.circuit_fidelity_scheduled(&native, device, &schedule);
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
            placer: placer_name.to_string(),
            router: MOVE_ROUTER.to_string(),
            input_gates: circuit.gate_count(),
            decomposed_gates,
            original_two_qubit_gates: decomposed.two_qubit_gate_count(),
            routed_gates,
            routed_two_qubit_gates: native.two_qubit_gate_count(),
            swaps_inserted: plan.routed.swaps_inserted,
            moves_inserted: plan.schedule.move_count(),
            move_stages: plan.schedule.stage_count(),
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
        let outcome = MapOutcome {
            decomposed,
            routed: plan.routed,
            native,
            schedule,
            report,
        };
        Ok((outcome, plan.schedule))
    }
}

impl Backend for DpqaBackend {
    fn id(&self) -> &str {
        self.device.name()
    }

    fn qubit_count(&self) -> usize {
        self.device.qubit_count()
    }

    fn device(&self) -> &Device {
        &self.device
    }

    fn rungs(&self, config: &MapperConfig) -> Vec<Rung<'_>> {
        self.ladder(config, |_schedule| ())
    }

    fn degrade(&self, health: &DeviceHealth) -> Result<Arc<dyn Backend>, DeviceError> {
        Ok(Arc::new(DpqaBackend {
            grid: self.grid,
            device: self.device.degrade(health)?,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn movement_rung_serves_and_verifies() {
        let backend = DpqaBackend::new(3, 4).unwrap();
        let qft = qcs_workloads::qft::qft(8).unwrap();
        let (outcome, schedule) = backend
            .compile_with_schedule(&qft, &MapperConfig::default())
            .unwrap();
        let schedule = schedule.expect("movement rung should serve");
        assert_eq!(outcome.report.fallback_rung, 0);
        assert_eq!(outcome.report.router, MOVE_ROUTER);
        assert!(outcome.report.verified);
        assert_eq!(outcome.report.moves_inserted, schedule.move_count());
        assert_eq!(outcome.report.move_stages, schedule.stage_count());
        assert_eq!(outcome.report.swaps_inserted, outcome.report.moves_inserted);
    }

    #[test]
    fn equivalence_simulation_covers_small_arrays() {
        // 3x4 = 12 sites is within the default simulation ceiling, so
        // the movement rung's verification includes statevector
        // equivalence of the relocated circuit — not just structure.
        let backend = DpqaBackend::new(3, 4).unwrap();
        let qft = qcs_workloads::qft::qft(7).unwrap();
        let outcome = backend.map(&qft, &MapperConfig::default()).unwrap();
        assert!(outcome.report.verified);
        assert!(outcome.report.moves_inserted > 0, "QFT needs relocations");
    }

    #[test]
    fn full_array_demotes_to_swap_routing() {
        // 9 atoms fill a 3x3 array completely, and the circuit's
        // interaction graph is K5 — the radius graph's largest clique
        // is 4, so under *any* placement some pair is out of radius and
        // no atom can move on the full array. SWAP routing over the
        // radius graph still works, so an unsatisfiable movement plan
        // must demote, not fail the job.
        let backend = DpqaBackend::new(3, 3).unwrap();
        let mut c = Circuit::new(9);
        for a in 0..5 {
            for b in (a + 1)..5 {
                c.cnot(a, b).unwrap();
            }
        }
        let (outcome, schedule) = backend
            .compile_with_schedule(&c, &MapperConfig::default())
            .unwrap();
        assert!(schedule.is_none(), "SWAP rung should have served");
        assert!(
            outcome.report.fallback_rung >= 2,
            "both movement rungs demoted"
        );
        assert_ne!(outcome.report.router, MOVE_ROUTER);
        assert_eq!(outcome.report.moves_inserted, 0);
        assert!(outcome.report.verified);
    }

    #[test]
    fn zero_dimension_is_a_device_error() {
        assert!(DpqaBackend::new(0, 4).is_err());
        assert!(DpqaBackend::new(4, 0).is_err());
    }

    #[test]
    fn degrade_renames_and_keeps_geometry() {
        let backend = DpqaBackend::new(4, 4).unwrap();
        let health = DeviceHealth::random(backend.device().coupling(), 0.1, 0.1, 3);
        let degraded = backend.degrade(&health).unwrap();
        assert!(degraded.id().starts_with("dpqa-4x4@"), "{}", degraded.id());
        assert_eq!(degraded.qubit_count(), 16);
    }

    #[test]
    fn compile_is_deterministic() {
        let backend = DpqaBackend::new(4, 4).unwrap();
        let qft = qcs_workloads::qft::qft(10).unwrap();
        let a = backend.map(&qft, &MapperConfig::default()).unwrap();
        let b = backend.map(&qft, &MapperConfig::default()).unwrap();
        let mut ra = a.report.clone();
        let mut rb = b.report.clone();
        ra.timing = StageTiming::ZERO;
        rb.timing = StageTiming::ZERO;
        assert_eq!(ra, rb);
        assert_eq!(a.routed.circuit, b.routed.circuit);
    }
}
