//! Hardware-aware and algorithm-driven quantum circuit mapping.
//!
//! This crate implements the paper's core subject (Sections III–IV): the
//! *mapping process* that accommodates quantum algorithms to
//! resource-constrained quantum devices, and the interaction-graph
//! profiling that makes it algorithm-driven.
//!
//! The four mapping steps of Section III each have a module:
//!
//! 1. **Decomposition** to the primitive gate set — reused from
//!    [`qcs_circuit::decompose`].
//! 2. **Scheduling** to leverage parallelism — [`schedule`] (ASAP/ALAP
//!    with gate durations and shared-control constraints).
//! 3. **Placement** of virtual qubits onto physical qubits — [`place`]
//!    (trivial, random, and the algorithm-driven graph-similarity placer).
//! 4. **Routing** via SWAP insertion — [`route`] (the OpenQL-style
//!    trivial router used in Figs. 3/5, a SABRE-style look-ahead router, a
//!    meet-in-the-middle bidirectional router and a noise-aware router).
//!
//! On top of these sit:
//!
//! * [`backend`] — the compilation-target trait that lets the serving
//!   stack address fixed-coupler devices and movement-based hardware
//!   (`qcs-dpqa`) through one interface;
//! * [`error`] — the structured unsatisfiability taxonomy for degraded
//!   devices (outages can make mapping impossible; see
//!   [`qcs_topology::health`]);
//! * [`layout`] — the virtual↔physical qubit bijection the routers evolve;
//! * [`fidelity`] — the analytic fidelity model of Fig. 3 ("product of
//!   fidelities for all one- and two-qubit gates"), with optional
//!   decoherence weighting;
//! * [`mapper`] — the end-to-end pass pipeline with a mapping report
//!   (gate overhead, depth overhead, fidelity decrease, per-stage
//!   wall-clock timing);
//! * [`config`] — the serializable strategy-name form of a mapper, used
//!   by callers that receive their pipeline choice over the wire;
//! * [`profile`] — interaction-graph metric vectors (Table I), Pearson
//!   correlation pruning and k-means clustering of benchmark circuits;
//! * [`report`] — serializable experiment records for the figure
//!   harnesses;
//! * [`place_subgraph`] — exact subgraph-isomorphism placement (refs
//!   \[41\]/\[42\]) with greedy fallback;
//! * [`place_sabre`] — SABRE-style forward/backward placement refinement;
//! * [`portfolio`] — the metric-driven strategy selector and
//!   deadline-bounded racing engine that put the Section IV analysis
//!   on the serving path, and [`compile`], the one entry point the
//!   daemon and the Fig. 1 stack both map through.
//!
//! # Examples
//!
//! Map the Fig. 2 circuit onto Surface-7 with the trivial mapper:
//!
//! ```
//! use qcs_circuit::circuit::Circuit;
//! use qcs_core::mapper::Mapper;
//! use qcs_topology::surface::surface7;
//!
//! let mut c = Circuit::new(4);
//! c.cnot(1, 0)?.cnot(1, 2)?.cnot(2, 3)?.cnot(2, 0)?.cnot(1, 2)?;
//! let outcome = Mapper::trivial().map(&c, &surface7())?;
//! assert!(outcome.report.swaps_inserted >= 1); // Fig. 2 needs a SWAP
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod config;
pub mod error;
pub mod fidelity;
pub mod ladder;
pub mod layout;
pub mod mapper;
pub mod place;
pub mod place_sabre;
pub mod place_subgraph;
pub mod portfolio;
pub mod profile;
pub mod report;
pub mod route;
pub mod schedule;
pub mod verify;

pub use backend::{Backend, CoupledBackend};
pub use config::MapperConfig;
pub use error::UnsatisfiableReason;
pub use ladder::{FallbackLadder, LadderAttempt, LadderError, Rung, RungError, Walker};
pub use layout::Layout;
pub use mapper::{MapError, MapOutcome, Mapper, StageTiming};
pub use portfolio::{compile, Portfolio, PortfolioMode, PortfolioReport, Selection, Selector};
pub use verify::{verify_outcome, VerifyConfig, VerifyError, VerifyReport};
