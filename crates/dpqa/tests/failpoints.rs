//! Failpoint-driven exercise of the DPQA degradation order: movement
//! rungs answer to the same per-strategy kill switches as SWAP rungs
//! (`mapper.place.<placer>`, `mapper.route.dpqa-move`), and a portfolio
//! lane on a movement backend is exactly one rung — a lane whose
//! movement plan fails is discarded, not silently demoted to SWAP
//! routing inside the lane.
//!
//! The `qcs-faults` registry is process-global; tests serialize on a
//! local gate.

use std::sync::{Arc, Mutex, MutexGuard};

use qcs_circuit::circuit::Circuit;
use qcs_core::backend::Backend;
use qcs_core::config::MapperConfig;
use qcs_core::portfolio::{Portfolio, PortfolioMode};
use qcs_dpqa::{DpqaBackend, MOVE_ROUTER};
use qcs_faults::{arm, reset, FaultAction, Policy};

fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|p| p.into_inner())
}

fn qft8() -> Circuit {
    qcs_workloads::qft::qft(8).unwrap()
}

#[test]
fn panicking_primary_placer_demotes_to_the_trivial_movement_rung() {
    let _g = serial();
    reset();
    arm(
        "mapper.place.graph-similarity",
        FaultAction::Panic,
        Policy::Always,
    );
    let backend = DpqaBackend::new(3, 4).unwrap();
    let result = backend.compile_with_schedule(&qft8(), &MapperConfig::default());
    reset();
    let (outcome, schedule) = result.unwrap();
    assert!(schedule.is_some(), "a movement rung should serve");
    assert_eq!(outcome.report.fallback_rung, 1);
    assert_eq!(outcome.report.placer, "trivial");
    assert_eq!(outcome.report.router, MOVE_ROUTER);
    assert!(outcome.report.verified);
}

#[test]
fn dead_movement_router_demotes_to_swap_routing() {
    let _g = serial();
    reset();
    arm(
        "mapper.route.dpqa-move",
        FaultAction::Error("aod offline".into()),
        Policy::Always,
    );
    let backend = DpqaBackend::new(3, 4).unwrap();
    let result = backend.compile_with_schedule(&qft8(), &MapperConfig::default());
    reset();
    let (outcome, schedule) = result.unwrap();
    assert!(schedule.is_none(), "a SWAP rung should serve");
    assert_eq!(
        outcome.report.fallback_rung, 2,
        "both movement rungs demoted"
    );
    assert_eq!(outcome.report.placer, "graph-similarity");
    assert_eq!(outcome.report.router, "lookahead");
    assert!(outcome.report.verified);
}

/// K5 on a full 3×3 array: no placement puts every pair in radius and
/// no atom can move, so every movement rung fails. Each portfolio lane
/// is one movement rung, so every lane is discarded and the backend's
/// full ladder serves from a SWAP rung.
#[test]
fn unmovable_portfolio_lanes_fall_through_to_the_ladder() {
    let _g = serial();
    reset();
    let backend: Arc<dyn Backend> = Arc::new(DpqaBackend::new(3, 3).unwrap());
    let mut k5 = Circuit::new(9);
    for a in 0..5 {
        for b in (a + 1)..5 {
            k5.cnot(a, b).unwrap();
        }
    }
    let (outcome, report) = Portfolio::default().map(&k5, &backend, None).unwrap();
    assert_eq!(report.mode, PortfolioMode::Ladder);
    assert_eq!(report.lane, "ladder");
    assert_ne!(outcome.report.router, MOVE_ROUTER);
    assert!(outcome.report.verified);
}
