//! Movement-based neutral-atom (DPQA) compilation backend.
//!
//! A dynamically field-programmable qubit array holds atoms in a 2D
//! grid of optical trap sites and entangles pairs that sit within the
//! Rydberg interaction radius. Instead of satisfying connectivity with
//! SWAP chains — the fixed-coupler physics the rest of this workspace
//! was built around — the hardware *physically relocates* atoms
//! between stages using AOD (acousto-optic deflector) row/column
//! shuttles, whose one structural rule is that picked rows and columns
//! may not cross.
//!
//! This crate is that second physics for the whole stack:
//!
//! * [`grid`] — site geometry and the interaction-radius [`Device`]
//!   view (`distance² ≤ 2`: axial plus diagonal neighbours), which is
//!   what placement, health overlays and independent verification run
//!   against;
//! * [`stages`] — ASAP gate staging by commuting-set recomputation;
//! * [`moves`] — AOD move primitives ([`MovePick`]/[`MoveOp`]) with an
//!   independent batched-move legality checker (vacant destinations,
//!   no row/column crossing);
//! * [`sched`] — the greedy movement scheduler: per stage it shuttles
//!   out-of-radius operands together (move-in → spectator displacement
//!   → pair rebuild, splitting stages when blocked), emitting each
//!   relocation both as a [`MoveSchedule`] pick and as a SWAP stand-in
//!   in the routed circuit so `qcs-core::verify` replays movement as a
//!   qubit permutation;
//! * [`backend`] — [`DpqaBackend`], the [`qcs_core::Backend`]
//!   implementation whose rung list demotes an unsatisfiable
//!   movement compile to SWAP routing over the radius graph rather
//!   than failing the job.
//!
//! Modelling note: two-qubit gates are taken as individually addressed
//! CZ pulses (no global-pulse separation constraint between concurrent
//! pairs), and each relocation stand-in is charged the calibrated
//! two-qubit fidelity as a transfer-loss proxy.
//!
//! [`Device`]: qcs_topology::device::Device
//!
//! # Examples
//!
//! Compile and verify a QFT on a 3×4 site array:
//!
//! ```
//! use qcs_core::backend::Backend;
//! use qcs_core::config::MapperConfig;
//! use qcs_dpqa::DpqaBackend;
//!
//! let backend = DpqaBackend::new(3, 4)?;
//! let qft = qcs_workloads::qft::qft(8)?;
//! let (outcome, schedule) =
//!     backend.compile_with_schedule(&qft, &MapperConfig::default())?;
//! let schedule = schedule.expect("movement rung serves on a sparse array");
//! assert!(outcome.report.verified);
//! assert_eq!(outcome.report.moves_inserted, schedule.move_count());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod grid;
pub mod moves;
pub mod sched;
pub mod stages;

pub use backend::{DpqaBackend, MOVE_ROUTER};
pub use grid::DpqaGrid;
pub use moves::{MoveOp, MovePick, MoveSchedule, MoveStage};
pub use sched::{plan_moves, MovePlan};
pub use stages::recalculate_stages;
