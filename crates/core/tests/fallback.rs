//! Failpoint-driven exercise of the fallback ladder: a strategy that
//! panics or errors must cost a request its preferred pipeline, never
//! its answer — and the report must say which rung served.
//!
//! The failpoint sites are per-strategy (`mapper.place.<placer>`,
//! `mapper.route.<router>`), so a chaos spec can kill exactly one rung's
//! strategy while the rest of the ladder stays healthy. The `qcs-faults`
//! registry is process-global; tests serialize on a local gate.

use std::sync::{Mutex, MutexGuard};

use qcs_core::config::MapperConfig;
use qcs_core::ladder::FallbackLadder;
use qcs_faults::{arm, reset, FaultAction, Policy};
use qcs_topology::surface::surface17;
use qcs_workloads::suite::{generate_suite, SuiteConfig};

fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|p| p.into_inner())
}

fn qft5() -> qcs_circuit::circuit::Circuit {
    qcs_workloads::qft::qft(5).unwrap()
}

#[test]
fn panicking_primary_placer_falls_back_one_rung() {
    let _g = serial();
    reset();
    arm(
        "mapper.place.graph-similarity",
        FaultAction::Panic,
        Policy::Always,
    );
    let ladder = FallbackLadder::standard(MapperConfig::default());
    let outcome = ladder.map(&qft5(), &surface17()).unwrap();
    reset();
    assert_eq!(outcome.report.fallback_rung, 1);
    assert_eq!(outcome.report.placer, "sabre");
    assert!(outcome.report.verified);
}

#[test]
fn erroring_primary_and_secondary_fall_back_two_rungs() {
    let _g = serial();
    reset();
    arm(
        "mapper.place.graph-similarity",
        FaultAction::Error("calibration drift".into()),
        Policy::Always,
    );
    arm("mapper.place.sabre", FaultAction::Panic, Policy::Always);
    let ladder = FallbackLadder::standard(MapperConfig::default());
    let outcome = ladder.map(&qft5(), &surface17()).unwrap();
    reset();
    assert_eq!(outcome.report.fallback_rung, 2);
    assert_eq!(outcome.report.placer, "subgraph");
    assert!(outcome.report.verified);
}

#[test]
fn panicking_shared_router_degrades_to_trivial_pipeline() {
    let _g = serial();
    reset();
    // The first three standard rungs all route with `lookahead`; killing
    // it proves the ladder walks all the way down to trivial/trivial.
    arm("mapper.route.lookahead", FaultAction::Panic, Policy::Always);
    let ladder = FallbackLadder::standard(MapperConfig::default());
    let outcome = ladder.map(&qft5(), &surface17()).unwrap();
    reset();
    assert_eq!(outcome.report.fallback_rung, 3);
    assert_eq!(outcome.report.placer, "trivial");
    assert_eq!(outcome.report.router, "trivial");
    assert!(outcome.report.verified);
}

#[test]
fn every_rung_dead_is_a_structured_error_with_the_full_story() {
    let _g = serial();
    reset();
    arm("mapper.place", FaultAction::Panic, Policy::Always); // generic: every rung
    let ladder = FallbackLadder::standard(MapperConfig::default());
    let err = ladder.map(&qft5(), &surface17()).unwrap_err();
    reset();
    assert_eq!(err.attempts.len(), 4);
    assert!(err.attempts.iter().all(|a| a.error.contains("panicked")));
}

/// The acceptance sweep: primary placer armed to always panic, a full
/// generated suite still compiles with zero failures, and every report
/// names a non-primary serving rung.
#[test]
fn suite_sweep_survives_a_dead_primary_strategy() {
    let _g = serial();
    reset();
    arm(
        "mapper.place.graph-similarity",
        FaultAction::Panic,
        Policy::Always,
    );
    let suite = generate_suite(&SuiteConfig {
        count: 60,
        max_qubits: 12,
        max_gates: 300,
        seed: 11,
    });
    let ladder = FallbackLadder::standard(MapperConfig::default());
    let device = surface17();
    let mut failures = Vec::new();
    for benchmark in &suite {
        match ladder.map(&benchmark.circuit, &device) {
            Ok(outcome) => {
                assert!(
                    outcome.report.fallback_rung >= 1,
                    "{}: primary rung cannot serve while its placer panics",
                    benchmark.name
                );
                assert!(outcome.report.verified, "{}", benchmark.name);
            }
            Err(e) => failures.push(format!("{}: {e}", benchmark.name)),
        }
    }
    reset();
    assert!(
        failures.is_empty(),
        "ladder failed {} of {} suite requests:\n{}",
        failures.len(),
        suite.len(),
        failures.join("\n")
    );
}

/// Without any armed faults the ladder is invisible: the primary rung
/// serves the whole suite and reports rung 0.
#[test]
fn healthy_suite_always_serves_from_the_primary_rung() {
    let _g = serial();
    reset();
    let suite = generate_suite(&SuiteConfig {
        count: 30,
        max_qubits: 10,
        max_gates: 200,
        seed: 3,
    });
    let ladder = FallbackLadder::standard(MapperConfig::default());
    let device = surface17();
    for benchmark in &suite {
        let outcome = ladder.map(&benchmark.circuit, &device).unwrap();
        assert_eq!(outcome.report.fallback_rung, 0, "{}", benchmark.name);
        assert!(outcome.report.verified, "{}", benchmark.name);
    }
}

/// The portfolio's last resort: with a hopeless deadline the confident
/// pick and the race are skipped, and when the cheapest lane is killed
/// too the standard ladder serves from its primary rung.
#[test]
fn dead_cheapest_lane_under_a_hopeless_deadline_serves_from_the_ladder() {
    use std::sync::Arc;
    use std::time::Duration;

    use qcs_core::backend::{Backend, CoupledBackend};
    use qcs_core::portfolio::{Portfolio, PortfolioMode};

    let _g = serial();
    reset();
    arm(
        "mapper.race.trivial",
        FaultAction::Error("lane down".into()),
        Policy::Always,
    );
    let backend: Arc<dyn Backend> = Arc::new(CoupledBackend::new(surface17()));
    let result = Portfolio::default().map(
        &qcs_workloads::qft::qft(6).unwrap(),
        &backend,
        Some(Duration::from_millis(1)),
    );
    reset();
    let (outcome, report) = result.unwrap();
    assert_eq!(report.mode, PortfolioMode::Ladder);
    assert_eq!(report.lane, "ladder");
    assert!(report.budget_limited);
    assert_eq!(report.discarded, 1);
    assert_eq!(outcome.report.fallback_rung, 0);
    assert_eq!(outcome.report.placer, "graph-similarity");
    assert!(outcome.report.verified);
}
