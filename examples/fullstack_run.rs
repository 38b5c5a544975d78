//! A complete full-stack run (Fig. 1): OpenQASM source in, control
//! events out, compiled by the same verified pipeline a `qcs-serve`
//! request runs.
//!
//! Run with: `cargo run --example fullstack_run`

use nisq_codesign::stack::pipeline::FullStack;
use nisq_codesign::topology::surface::surface17;

const PROGRAM: &str = r#"
OPENQASM 2.0;
include "qelib1.inc";
qreg q[6];
creg c[6];
// GHZ-like entangling chain with some phase structure.
h q[0];
cx q[0],q[1];
cx q[1],q[2];
cx q[2],q[3];
cx q[3],q[4];
cx q[4],q[5];
rz(pi/4) q[5];
cx q[4],q[5];
measure q[0] -> c[0];
measure q[5] -> c[5];
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let stack = FullStack::new(surface17());
    let run = stack.run_qasm(PROGRAM)?;

    println!("=== layer 1: frontend ===");
    println!(
        "parsed {} gates; optimizer removed {} (cancelled {}, merged {})",
        run.prepared.circuit.gate_count(),
        run.prepared.optimization.total_removed(),
        run.prepared.optimization.cancelled,
        run.prepared.optimization.merged,
    );

    println!("\n=== layer 2: compiler pipeline ===");
    println!(
        "placer = {}, router = {}, fallback rung {}, verified: {}",
        run.outcome.report.placer,
        run.outcome.report.router,
        run.outcome.report.fallback_rung,
        run.outcome.report.verified
    );

    println!("\n=== layer 3: compiler (mapping) ===");
    let r = &run.outcome.report;
    println!(
        "decomposed {} -> routed {} native gates ({} SWAPs, {:.1}% overhead)",
        r.decomposed_gates, r.routed_gates, r.swaps_inserted, r.gate_overhead_pct
    );
    println!(
        "estimated fidelity {:.4} -> {:.4}; makespan {:.0} ns",
        r.fidelity_before, r.fidelity_after, r.makespan_ns
    );

    println!("\n=== layer 4: quantum ISA ===");
    println!(
        "{} instructions ({} ops + {} waits), {} cycles @ {} ns",
        run.isa.instructions.len(),
        run.isa.instruction_count(),
        run.isa.wait_count(),
        run.isa.total_cycles,
        run.isa.cycle_ns
    );
    // First few assembly lines.
    for line in run.isa.to_assembly().lines().take(12) {
        println!("  {line}");
    }
    println!("  …");

    println!("\n=== layer 5: control electronics ===");
    println!(
        "{} events dispatched over {} analog channels",
        run.control.event_count(),
        run.control.channel_count()
    );
    for (channel, events) in run.control.iter().take(6) {
        println!("  {channel}: {} events", events.len());
    }
    println!("  …");
    Ok(())
}
