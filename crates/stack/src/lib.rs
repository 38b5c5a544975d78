//! The full-stack pipeline of Fig. 1.
//!
//! "Full-stack quantum computing systems consist of a series of
//! functional elements … that bridge quantum algorithms with quantum
//! devices": quantum applications, high-level languages and compilers, a
//! quantum instruction set architecture and microarchitecture, control
//! electronics, and the quantum device. Each element is a module here:
//!
//! * [`frontend`] — the language layer: programs enter as OpenQASM text
//!   or as [`qcs_circuit::Circuit`]s, with optional high-level
//!   optimization.
//! * [`codesign`] — the grey arrows of Fig. 1: hardware information
//!   flowing *up* ([`codesign::HardwareInfo`]); the algorithm
//!   information flowing *down* is the Section IV profile
//!   ([`qcs_core::profile::CircuitProfile`]).
//! * [`isa`] — the eQASM-like executable ISA: the scheduled circuit
//!   lowered to timestamped instructions with explicit waits.
//! * [`microarch`] — the issue engine between ISA and analog channels:
//!   finite issue width stretching over-parallel cycles into stalls.
//! * [`control`] — the control-electronics layer: ISA instructions
//!   dispatched onto shared analog channels, checking that the schedule
//!   respects channel exclusivity.
//! * [`pipeline`] — [`pipeline::FullStack`]: one call from source program
//!   to control events plus the mapping report. Its compiler layer is
//!   [`qcs_core::compile`], the call every `qcs-serve` job makes, so the
//!   stack's mapping is verified, walks the fallback rungs, and runs the
//!   calibrated portfolio for an `auto` config — the only mapper
//!   selector in the workspace.
//!
//! # Examples
//!
//! ```
//! use qcs_stack::pipeline::FullStack;
//! use qcs_topology::surface::surface17;
//!
//! let stack = FullStack::new(surface17());
//! let qasm = "OPENQASM 2.0;\nqreg q[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n";
//! let run = stack.run_qasm(qasm)?;
//! assert!(run.isa.instruction_count() > 0);
//! assert!(run.outcome.report.fidelity_after > 0.0);
//! assert!(run.outcome.report.verified);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod codesign;
pub mod control;
pub mod frontend;
pub mod isa;
pub mod microarch;
pub mod pipeline;

pub use pipeline::{FullStack, StackError, StackRun};
