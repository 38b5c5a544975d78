//! Co-design information flow (the grey arrows of Fig. 1).
//!
//! "Co-design refers to the flow of information between different
//! hardware and software stack layers, in order to improve the overall
//! application execution and hardware design" (Tomesh & Martonosi,
//! quoted in Section II). [`HardwareInfo`] holds the low-level
//! parameters exposed *upward*: connectivity shape and calibration
//! spread. The application profile handed *downward* is the
//! interaction-graph metric vector of Section IV,
//! [`qcs_core::profile::CircuitProfile`]. The compiler layer joins the
//! two through the calibrated portfolio selector
//! ([`qcs_core::portfolio`]) when a stack runs an `auto` config.

use qcs_topology::device::Device;

/// Hardware parameters flowing up the stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardwareInfo {
    /// Number of physical qubits.
    pub qubits: usize,
    /// Average hop distance between qubit pairs (compactness).
    pub average_distance: f64,
    /// Coupling-graph diameter.
    pub diameter: usize,
    /// Best − worst two-qubit fidelity: the calibration *spread*.
    pub two_qubit_fidelity_spread: f64,
}

impl HardwareInfo {
    /// Extracts the co-design parameters from a device.
    pub fn of(device: &Device) -> Self {
        let cal = device.calibration();
        HardwareInfo {
            qubits: device.qubit_count(),
            average_distance: device.average_distance(),
            diameter: device.diameter(),
            two_qubit_fidelity_spread: cal.best_two_qubit_fidelity()
                - cal.worst_two_qubit_fidelity(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcs_topology::lattice::grid_device;
    use qcs_topology::surface::surface17;

    #[test]
    fn hardware_info_extraction() {
        let dev = surface17();
        let hw = HardwareInfo::of(&dev);
        assert_eq!(hw.qubits, 17);
        assert!(hw.average_distance > 1.0);
        assert!(hw.diameter >= 4);
        assert_eq!(hw.two_qubit_fidelity_spread, 0.0); // uniform calibration
    }

    #[test]
    fn spread_detected_after_degradation() {
        let mut dev = grid_device(2, 2);
        dev.calibration_mut().set_two_qubit_fidelity(0, 1, 0.9);
        let hw = HardwareInfo::of(&dev);
        assert!((hw.two_qubit_fidelity_spread - 0.09).abs() < 1e-12);
    }
}
