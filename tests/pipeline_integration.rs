//! End-to-end full-stack integration: QASM in, control events out, every
//! layer's invariants checked against the one below it.

use nisq_codesign::circuit::qasm;
use nisq_codesign::core::config::MapperConfig;
use nisq_codesign::stack::control::ControlTrace;
use nisq_codesign::stack::pipeline::{FullStack, StackError};
use nisq_codesign::topology::lattice::grid_device;
use nisq_codesign::topology::surface::{surface17, surface7};

#[test]
fn qasm_source_survives_every_layer() {
    let src = r#"
OPENQASM 2.0;
include "qelib1.inc";
qreg q[5];
creg c[5];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
rz(pi/8) q[2];
cx q[2],q[3];
cx q[3],q[4];
measure q[4] -> c[4];
"#;
    let stack = FullStack::new(surface17());
    let run = stack.run_qasm(src).expect("stack runs");

    // Frontend produced what the parser alone would (modulo optimization).
    let parsed = qasm::parse(src).expect("parses");
    assert!(run.prepared.circuit.gate_count() <= parsed.gate_count());

    // Compiler output is consistent with the device.
    assert!(run.outcome.routed.respects_connectivity(stack.device()));

    // ISA instruction count equals native gate count minus barriers.
    assert_eq!(run.isa.instruction_count(), run.outcome.native.gate_count());

    // Control trace covers every ISA op.
    assert_eq!(run.control.event_count(), run.isa.instruction_count());

    // Re-dispatching the ISA is deterministic.
    let again = ControlTrace::dispatch(&run.isa).expect("redispatch");
    assert_eq!(again, run.control);
}

#[test]
fn stack_serializes_back_to_qasm() {
    // The routed physical circuit can be printed as QASM and re-parsed —
    // the interchange loop a real toolchain needs.
    let stack = FullStack::new(surface7()).with_config(MapperConfig::new("trivial", "trivial"));
    let circuit = nisq_codesign::workloads::ghz::ghz_chain(4).unwrap();
    let run = stack.run_circuit(&circuit).expect("runs");
    let text = qasm::print(&run.outcome.routed.circuit);
    let back = qasm::parse(&text).expect("round-trips");
    assert_eq!(back.gates(), run.outcome.routed.circuit.gates());
}

#[test]
fn codesign_choice_varies_with_workload() {
    // Under `auto` the calibrated portfolio picks the lane per circuit
    // from its interaction-graph metrics.
    let stack = FullStack::new(surface17()).with_config(MapperConfig::new("auto", "auto"));
    let lane = |circuit| {
        let run = stack.run_circuit(circuit).expect("runs");
        assert!(run.outcome.report.verified);
        run.portfolio.expect("auto runs the portfolio").lane
    };
    let sparse = nisq_codesign::workloads::vqe::hardware_efficient_ansatz(8, 2, 1).unwrap();
    let dense = nisq_codesign::workloads::qft::qft(8).unwrap();
    assert_eq!(lane(&sparse), "trivial");
    assert_eq!(lane(&dense), "sabre");
}

#[test]
fn every_workload_family_clears_the_stack() {
    let device = grid_device(4, 4);
    let stack = FullStack::new(device);
    let suite = nisq_codesign::workloads::suite::generate_suite(
        &nisq_codesign::workloads::suite::SuiteConfig {
            count: 22,
            max_qubits: 12,
            max_gates: 300,
            ..Default::default()
        },
    );
    for b in &suite {
        let run = stack
            .run_circuit(&b.circuit)
            .unwrap_or_else(|e| panic!("{} failed: {e}", b.name));
        assert!(
            run.outcome.report.fidelity_after > 0.0,
            "{}: zero fidelity",
            b.name
        );
        assert!(run.isa.total_cycles > 0, "{}: empty program", b.name);
    }
}

#[test]
fn oversized_programs_fail_cleanly() {
    let stack = FullStack::new(surface7());
    let big = nisq_codesign::workloads::qft::qft(10).unwrap();
    match stack.run_circuit(&big) {
        Err(StackError::Map(_)) => {}
        other => panic!("expected Map error, got {other:?}"),
    }
}

#[test]
fn malformed_qasm_fails_cleanly() {
    let stack = FullStack::new(surface7());
    match stack.run_qasm("OPENQASM 2.0;\nqreg q[2];\nfrob q[0];\n") {
        Err(StackError::Parse(e)) => assert!(e.message.contains("unknown")),
        other => panic!("expected Parse error, got {other:?}"),
    }
}
