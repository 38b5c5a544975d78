//! The compilation-target abstraction: one trait per routing physics.
//!
//! The paper's pipeline (and everything this workspace built on top of
//! it) assumes *fixed-coupler* hardware: connectivity is a static graph
//! and two-qubit gates between distant qubits are satisfied by inserting
//! SWAP chains. A [`Backend`] generalises that contract so the serving
//! tier, caches and benches can target hardware with a different
//! physics — today the movement-based neutral-atom arrays in
//! `qcs-dpqa`, where qubits are physically relocated by AOD row/column
//! shifts instead of SWAPped.
//!
//! The trait deliberately keeps the fixed-coupler *verification view*:
//! every backend exposes an inner [`Device`] that independent checking
//! ([`crate::verify`]) and health degradation run against. A backend
//! only lists its degradation order ([`Backend::rungs`]); the one
//! [`Walker`] runs it, so `map` returns the same
//! [`MapOutcome`]/[`LadderError`] pair on every backend and callers
//! cannot tell (and need not care) which physics served them beyond
//! the report's counters.

use std::sync::Arc;

use qcs_circuit::circuit::Circuit;
use qcs_topology::device::{Device, DeviceError};
use qcs_topology::health::DeviceHealth;

use crate::config::MapperConfig;
use crate::ladder::{FallbackLadder, LadderError, Rung, Walker};
use crate::mapper::MapOutcome;

/// A compilation target: something a circuit can be mapped onto.
///
/// Implementations describe their compile pipeline (placement, routing
/// or movement scheduling) as a list of [`Rung`]s and report through
/// the standard [`MapOutcome`]. The serving tier holds backends as
/// `Arc<dyn Backend>` and keys its caches on [`Backend::id`], so the id
/// must be deterministic for a given spec and distinct across specs
/// (degraded variants included).
pub trait Backend: Send + Sync {
    /// Stable identity used in cache keys and reports. For coupled
    /// devices this is the device name (degraded variants carry their
    /// health-digest suffix, e.g. `surface17@1a2b3c4d`).
    fn id(&self) -> &str;

    /// Number of physical qubit slots (sites) on the target.
    fn qubit_count(&self) -> usize;

    /// The fixed-coupler view of the target, used for independent
    /// verification, health overlays and topology introspection. For a
    /// movement backend this is the interaction-radius graph over its
    /// sites, not a physical coupler map.
    fn device(&self) -> &Device;

    /// This target's degradation order for `config`, most preferred
    /// first: rung 0 runs the requested pipeline, each later rung is a
    /// more robust fallback. [`Backend::map`] walks them all; a racing
    /// portfolio lane ([`crate::portfolio`]) walks rung 0 alone, so a
    /// failing lane is genuinely discarded (and another lane's result
    /// kept) instead of being silently demoted inside the backend.
    fn rungs(&self, config: &MapperConfig) -> Vec<Rung<'_>>;

    /// Compiles `circuit` for this target with the requested strategy
    /// pipeline, walking [`Backend::rungs`] until one verifies.
    ///
    /// # Errors
    ///
    /// [`LadderError`] when every rung failed or the job is
    /// unsatisfiable on the target.
    fn map(&self, circuit: &Circuit, config: &MapperConfig) -> Result<MapOutcome, LadderError> {
        Walker::default()
            .walk(circuit, self.device(), self.rungs(config))
            .map(|(outcome, ())| outcome)
    }

    /// A new backend of the same physics with the health overlay
    /// applied (qubit/coupler outages). The returned backend's
    /// [`id`](Backend::id) reflects the overlay so cache keys stay
    /// distinct.
    ///
    /// # Errors
    ///
    /// [`DeviceError`] when the overlay leaves the target unusable
    /// (e.g. the surviving interaction graph is disconnected).
    fn degrade(&self, health: &DeviceHealth) -> Result<Arc<dyn Backend>, DeviceError>;
}

/// The classic fixed-coupler backend: SWAP routing over a static
/// coupling graph, its rungs the [`FallbackLadder::standard`] chain.
///
/// This is a thin adapter — it is exactly the pre-trait daemon path
/// (place → route → schedule → verify with fallback), packaged behind
/// [`Backend`] so it composes with movement backends in the catalog.
///
/// # Examples
///
/// ```
/// use qcs_core::backend::{Backend, CoupledBackend};
/// use qcs_core::config::MapperConfig;
/// use qcs_topology::surface::surface7;
///
/// let backend = CoupledBackend::new(surface7());
/// assert_eq!(backend.id(), "surface-7");
/// let ghz = qcs_workloads::ghz::ghz_chain(5)?;
/// let outcome = backend.map(&ghz, &MapperConfig::default())?;
/// assert!(outcome.report.verified);
/// assert_eq!(outcome.report.moves_inserted, 0); // SWAPs, not moves
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct CoupledBackend {
    device: Device,
}

impl CoupledBackend {
    /// Wraps a fixed-coupler device as a backend.
    pub fn new(device: Device) -> Self {
        CoupledBackend { device }
    }
}

impl Backend for CoupledBackend {
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
        FallbackLadder::standard(config.clone()).swap_rungs()
    }

    fn degrade(&self, health: &DeviceHealth) -> Result<Arc<dyn Backend>, DeviceError> {
        Ok(Arc::new(CoupledBackend::new(self.device.degrade(health)?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcs_topology::surface::surface17;

    #[test]
    fn coupled_backend_mirrors_device_identity() {
        let backend = CoupledBackend::new(surface17());
        assert_eq!(backend.id(), "surface-17");
        assert_eq!(backend.qubit_count(), 17);
        assert_eq!(backend.device().name(), "surface-17");
    }

    #[test]
    fn coupled_backend_maps_like_the_ladder() {
        let circuit = qcs_workloads::ghz::ghz_chain(5).unwrap();
        let backend = CoupledBackend::new(surface17());
        let via_backend = backend.map(&circuit, &MapperConfig::default()).unwrap();
        let via_ladder = FallbackLadder::standard(MapperConfig::default())
            .map(&circuit, &surface17())
            .unwrap();
        assert_eq!(
            via_backend.report.swaps_inserted,
            via_ladder.report.swaps_inserted
        );
        assert_eq!(via_backend.report.moves_inserted, 0);
        assert_eq!(via_backend.report.move_stages, 0);
        assert!(via_backend.report.verified);
    }

    #[test]
    fn degrade_renames_the_backend() {
        let backend = CoupledBackend::new(surface17());
        let health = DeviceHealth::random(backend.device().coupling(), 0.1, 0.1, 7);
        let degraded = backend.degrade(&health).unwrap();
        assert!(
            degraded.id().starts_with("surface-17@"),
            "{}",
            degraded.id()
        );
        assert_eq!(degraded.qubit_count(), 17);
    }
}
