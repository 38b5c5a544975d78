//! The end-to-end full-stack run: program text to control events.
//!
//! The compiler layer is [`qcs_core::compile`], the same call every
//! `qcs-serve` job makes: the stack's [`MapperConfig`] (the daemon's
//! default unless [`FullStack::with_config`] overrides it) walks the
//! backend's fallback rungs with verification on, and an `auto` config
//! runs the calibrated portfolio. A Fig. 1 run and a daemon request for
//! the same circuit, device and config therefore report the same
//! mapping.

use std::sync::Arc;

use qcs_circuit::circuit::Circuit;
use qcs_circuit::qasm::ParseQasmError;
use qcs_core::backend::{Backend, CoupledBackend};
use qcs_core::config::MapperConfig;
use qcs_core::ladder::LadderError;
use qcs_core::mapper::MapOutcome;
use qcs_core::portfolio::PortfolioReport;
use qcs_topology::device::Device;

use crate::control::{ChannelConflict, ControlTrace};
use crate::frontend::{Frontend, PreparedProgram};
use crate::isa::{IsaProgram, DEFAULT_CYCLE_NS};

/// Error raised anywhere along the stack.
#[derive(Debug, Clone, PartialEq)]
pub enum StackError {
    /// Front-end parse failure.
    Parse(ParseQasmError),
    /// Compiler (mapping) failure: every rung failed, or the circuit is
    /// unsatisfiable on the device.
    Map(LadderError),
    /// Control dispatch failure (indicates a scheduler bug — dispatch of
    /// a consistent schedule cannot conflict).
    Control(ChannelConflict),
}

impl std::fmt::Display for StackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StackError::Parse(e) => write!(f, "frontend: {e}"),
            StackError::Map(e) => write!(f, "compiler: {e}"),
            StackError::Control(e) => write!(f, "control: {e}"),
        }
    }
}

impl std::error::Error for StackError {}

impl From<ParseQasmError> for StackError {
    fn from(e: ParseQasmError) -> Self {
        StackError::Parse(e)
    }
}
impl From<LadderError> for StackError {
    fn from(e: LadderError) -> Self {
        StackError::Map(e)
    }
}
impl From<ChannelConflict> for StackError {
    fn from(e: ChannelConflict) -> Self {
        StackError::Control(e)
    }
}

/// Everything produced by one full-stack run.
#[derive(Debug)]
pub struct StackRun {
    /// The front-end's prepared program.
    pub prepared: PreparedProgram,
    /// Portfolio accounting (serving lane, mode) when the stack's config
    /// is `auto`; `None` for a fixed pipeline.
    pub portfolio: Option<PortfolioReport>,
    /// The compiler's verified outcome (routed circuit, schedule,
    /// report naming the rung that served).
    pub outcome: MapOutcome,
    /// The lowered ISA program.
    pub isa: IsaProgram,
    /// The dispatched control trace.
    pub control: ControlTrace,
}

/// The assembled full-stack: device at the bottom, compiler in the
/// middle, front-end on top.
pub struct FullStack {
    backend: Arc<dyn Backend>,
    config: MapperConfig,
    frontend: Frontend,
    cycle_ns: f64,
}

impl std::fmt::Debug for FullStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FullStack")
            .field("backend", &self.backend.id())
            .field("config", &self.config)
            .field("frontend", &self.frontend)
            .field("cycle_ns", &self.cycle_ns)
            .finish()
    }
}

impl FullStack {
    /// Builds a stack over `device` with the default front-end and the
    /// daemon's default pipeline ([`MapperConfig::default`]).
    pub fn new(device: Device) -> Self {
        FullStack {
            backend: Arc::new(CoupledBackend::new(device)),
            config: MapperConfig::default(),
            frontend: Frontend::default(),
            cycle_ns: DEFAULT_CYCLE_NS,
        }
    }

    /// Compiles with `config` instead of the default pipeline; an `auto`
    /// config lets the portfolio pick the lane per circuit.
    pub fn with_config(mut self, config: MapperConfig) -> Self {
        self.config = config;
        self
    }

    /// Overrides the front-end.
    pub fn with_frontend(mut self, frontend: Frontend) -> Self {
        self.frontend = frontend;
        self
    }

    /// Overrides the ISA cycle length (ns).
    ///
    /// # Panics
    ///
    /// Panics if `cycle_ns` is not positive.
    pub fn with_cycle_ns(mut self, cycle_ns: f64) -> Self {
        assert!(cycle_ns > 0.0, "cycle length must be positive");
        self.cycle_ns = cycle_ns;
        self
    }

    /// The device at the bottom of the stack.
    pub fn device(&self) -> &Device {
        self.backend.device()
    }

    /// Runs an OpenQASM program through the whole stack.
    ///
    /// # Errors
    ///
    /// See [`StackError`].
    pub fn run_qasm(&self, source: &str) -> Result<StackRun, StackError> {
        let prepared = self.frontend.accept_qasm(source)?;
        self.run_prepared(prepared)
    }

    /// Runs an in-memory circuit through the whole stack.
    ///
    /// # Errors
    ///
    /// See [`StackError`].
    pub fn run_circuit(&self, circuit: &Circuit) -> Result<StackRun, StackError> {
        let prepared = self.frontend.accept_circuit(circuit.clone());
        self.run_prepared(prepared)
    }

    fn run_prepared(&self, prepared: PreparedProgram) -> Result<StackRun, StackError> {
        let (outcome, portfolio) =
            qcs_core::compile(&prepared.circuit, &self.backend, &self.config, false, None)?;
        let isa = IsaProgram::lower(&outcome.schedule, self.cycle_ns);
        let control = ControlTrace::dispatch(&isa)?;
        Ok(StackRun {
            prepared,
            portfolio,
            outcome,
            isa,
            control,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcs_core::mapper::StageTiming;
    use qcs_topology::lattice::line_device;
    use qcs_topology::surface::{surface17, surface7};

    #[test]
    fn end_to_end_qasm() {
        let stack = FullStack::new(surface7());
        let src = "OPENQASM 2.0;\nqreg q[4];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\ncx q[2],q[3];\nmeasure q[3] -> c[3];\n";
        let run = stack.run_qasm(src).unwrap();
        assert!(run.outcome.routed.respects_connectivity(&surface7()));
        assert!(run.isa.instruction_count() >= run.outcome.native.gate_count());
        assert!(run.control.event_count() > 0);
        assert!(run.outcome.report.fidelity_after > 0.0);
    }

    #[test]
    fn parse_errors_surface() {
        let stack = FullStack::new(surface7());
        assert!(matches!(
            stack.run_qasm("h q[0];"),
            Err(StackError::Parse(_))
        ));
    }

    #[test]
    fn too_wide_circuit_errors() {
        let stack = FullStack::new(surface7());
        let c = Circuit::new(20);
        assert!(matches!(stack.run_circuit(&c), Err(StackError::Map(_))));
    }

    #[test]
    fn config_override() {
        let stack =
            FullStack::new(surface17()).with_config(MapperConfig::new("trivial", "trivial"));
        let qft = qcs_workloads::qft::qft(6).unwrap();
        let run = stack.run_circuit(&qft).unwrap();
        assert_eq!(run.outcome.report.placer, "trivial");
        assert_eq!(run.outcome.report.router, "trivial");
        assert!(run.portfolio.is_none());
    }

    #[test]
    fn stack_compiles_exactly_as_the_daemon_default() {
        // A dense interaction graph (QFT-8) and a sparse one (GHZ-8):
        // the stack takes the default pipeline for both.
        let backend = CoupledBackend::new(surface17());
        let stack = FullStack::new(surface17());
        for circuit in [
            qcs_workloads::qft::qft(8).unwrap(),
            qcs_workloads::ghz::ghz_chain(8).unwrap(),
        ] {
            let run = stack.run_circuit(&circuit).unwrap();
            let expected = backend
                .map(&run.prepared.circuit, &MapperConfig::default())
                .unwrap();
            let mut report = run.outcome.report;
            let mut expected = expected.report;
            report.timing = StageTiming::ZERO;
            expected.timing = StageTiming::ZERO;
            assert!(report.verified, "{}: unverified", circuit.name());
            assert_eq!(report, expected, "{}", circuit.name());
        }
    }

    #[test]
    fn mapped_program_verifies_against_simulator() {
        use qcs_rng::SeedableRng;
        let stack =
            FullStack::new(line_device(5)).with_config(MapperConfig::new("trivial", "trivial"));
        let mut c = Circuit::new(3);
        c.h(0).unwrap().cnot(0, 2).unwrap().cz(1, 2).unwrap();
        let run = stack.run_circuit(&c).unwrap();
        let mut rng = qcs_rng::ChaCha8Rng::seed_from_u64(1);
        qcs_sim::equiv::mapped_equivalent(
            &run.prepared.circuit,
            &run.outcome.routed.circuit,
            5,
            run.outcome.routed.initial.as_assignment(),
            run.outcome.routed.final_layout.as_assignment(),
            3,
            &mut rng,
        )
        .expect("full-stack output must implement the source program");
    }

    #[test]
    fn cycle_override() {
        let stack = FullStack::new(surface7()).with_cycle_ns(10.0);
        let mut c = Circuit::new(2);
        c.h(0).unwrap().cnot(0, 1).unwrap();
        let run = stack.run_circuit(&c).unwrap();
        assert_eq!(run.isa.cycle_ns, 10.0);
        assert_eq!(stack.device().qubit_count(), 7);
    }
}
