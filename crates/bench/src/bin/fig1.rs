//! Fig. 1: software and hardware functional elements of the quantum
//! computing full-stack, with the co-design information flows.
//!
//! Fig. 1 is an architecture diagram rather than a data plot; this
//! harness renders the stack and then pushes one program through it,
//! printing what each layer receives, produces, and — the grey arrows —
//! which information crossed layer boundaries in each direction.

use qcs_core::profile::CircuitProfile;
use qcs_stack::codesign::HardwareInfo;
use qcs_stack::pipeline::FullStack;
use qcs_topology::surface::surface17;

fn main() {
    println!("=== Fig. 1: the quantum computing full-stack ===\n");
    println!("   ┌────────────────────────────────────┐");
    println!("   │        quantum application         │   qcs-workloads");
    println!("   ├────────────────────────────────────┤");
    println!("   │  high-level language & front-end   │   qcs-circuit / qcs-stack::frontend");
    println!("   ├────────────────────────────────────┤ ◄── algorithm info (profile) ──┐");
    println!("   │        compiler / mapper           │   qcs-core                     │ co-");
    println!("   ├────────────────────────────────────┤ ◄── hardware info (calib.) ──┐ │ design");
    println!("   │     quantum ISA (eQASM-like)       │   qcs-stack::isa             │ │");
    println!("   ├────────────────────────────────────┤                              │ │");
    println!("   │        control electronics         │   qcs-stack::control         │ │");
    println!("   ├────────────────────────────────────┤ ─────────────────────────────┘ │");
    println!("   │          quantum device            │   qcs-topology ────────────────┘");
    println!("   └────────────────────────────────────┘\n");

    let device = surface17();
    let circuit = qcs_workloads::qaoa::qaoa_maxcut_ring(8, 2, 1).expect("qaoa builds");

    // The two co-design information packets (the grey arrows).
    let hw = HardwareInfo::of(&device);
    let profile = CircuitProfile::of(&circuit);
    println!("information flowing UP from the device layer:");
    println!(
        "  qubits = {}, avg distance = {:.2}, diameter = {}, 2q-fidelity spread = {:.4}",
        hw.qubits, hw.average_distance, hw.diameter, hw.two_qubit_fidelity_spread
    );
    println!("information flowing DOWN from the application layer:");
    println!(
        "  {}: density = {:.2}, max degree = {}, avg shortest path = {:.2}",
        profile.name,
        profile.metrics.density,
        profile.metrics.max_degree,
        profile.metrics.avg_shortest_path
    );

    // The compiler layer runs the daemon's compile path: the default
    // pipeline on its fallback rungs, verified.
    let stack = FullStack::new(device);
    let run = stack.run_circuit(&circuit).expect("stack runs");
    let report = &run.outcome.report;
    println!(
        "\ncompiler pipeline: {}/{} (fallback rung {}, verified: {})",
        report.placer, report.router, report.fallback_rung, report.verified
    );
    println!("\nper-layer artifact sizes for this program:");
    println!(
        "  application  : {} gates over {} qubits",
        circuit.gate_count(),
        circuit.qubit_count()
    );
    println!(
        "  front-end    : {} gates after optimization",
        run.prepared.circuit.gate_count()
    );
    println!(
        "  compiler     : {} native gates, {} SWAPs, fidelity {:.4}",
        run.outcome.report.routed_gates,
        run.outcome.report.swaps_inserted,
        run.outcome.report.fidelity_after
    );
    println!(
        "  ISA          : {} instructions over {} cycles",
        run.isa.instructions.len(),
        run.isa.total_cycles
    );
    println!(
        "  control      : {} events on {} analog channels",
        run.control.event_count(),
        run.control.channel_count()
    );
}
