//! Energy accounting for protected LLM inference at scaled supply voltages.
//!
//! The evaluation's headline metric (Fig. 9, Fig. 10, Table II) is the *total* energy of a
//! workload at a given operating voltage: the energy of the main computation (which shrinks
//! roughly with V² as the supply is lowered), plus the always-on detection hardware of the
//! chosen protection scheme, plus the energy of every recovery the scheme triggers
//! (re-execution at nominal voltage, per the paper's recovery assumption).

/// Dynamic-energy model of the systolic array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Nominal supply voltage in volts.
    pub nominal_voltage: f64,
    /// Energy of one INT8 multiply-accumulate at nominal voltage, in picojoules.
    pub mac_energy_pj: f64,
    /// Leakage/static energy charged per MAC-slot regardless of voltage, as a fraction of
    /// the nominal MAC energy. Leakage does not scale with V² and therefore limits the
    /// benefit of aggressive undervolting.
    pub leakage_fraction: f64,
}

impl EnergyModel {
    /// Energy model calibrated to a 14 nm-class INT8 MAC (≈0.5 pJ/MAC at 0.9 V).
    pub fn default_14nm() -> Self {
        Self {
            nominal_voltage: 0.9,
            mac_energy_pj: 0.5,
            leakage_fraction: 0.08,
        }
    }

    /// Energy of one MAC at the given supply voltage, in picojoules.
    ///
    /// Dynamic energy scales with V²; the leakage component does not scale.
    pub fn mac_energy_at(&self, voltage: f64) -> f64 {
        let dynamic = self.mac_energy_pj * (voltage / self.nominal_voltage).powi(2);
        let leakage = self.mac_energy_pj * self.leakage_fraction;
        dynamic + leakage
    }

    /// Energy of `macs` multiply-accumulates at the given voltage, in joules.
    pub fn compute_energy_j(&self, macs: u64, voltage: f64) -> f64 {
        macs as f64 * self.mac_energy_at(voltage) * 1e-12
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::default_14nm()
    }
}

/// Energy breakdown of a protected workload.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkloadEnergy {
    /// Energy of the main computation at the scaled voltage, in joules.
    pub compute_j: f64,
    /// Energy of the always-on detection hardware, in joules.
    pub detection_j: f64,
    /// Energy of recovery re-execution, in joules.
    pub recovery_j: f64,
}

impl WorkloadEnergy {
    /// Total energy in joules.
    pub fn total_j(&self) -> f64 {
        self.compute_j + self.detection_j + self.recovery_j
    }
}

/// Parameters of one protected-workload energy evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// MACs of the main computation.
    pub macs: u64,
    /// Operating voltage of the main computation, in volts.
    pub voltage: f64,
    /// Power of the detection hardware relative to the array
    /// (`AreaPowerModel::detection_power_fraction`). DMR-style schemes have a fraction near
    /// 1.0, ABFT schemes a fraction near 0.015.
    pub detection_power_fraction: f64,
    /// MACs re-executed by recovery events.
    pub recovery_macs: u64,
    /// Voltage at which recovery re-executes (nominal voltage in the paper).
    pub recovery_voltage: f64,
}

impl EnergyModel {
    /// Evaluates the energy breakdown of a protected workload.
    pub fn workload_energy(&self, spec: &WorkloadSpec) -> WorkloadEnergy {
        let compute_j = self.compute_energy_j(spec.macs, spec.voltage);
        let detection_j = compute_j * spec.detection_power_fraction;
        let recovery_j = self.compute_energy_j(spec.recovery_macs, spec.recovery_voltage);
        WorkloadEnergy {
            compute_j,
            detection_j,
            recovery_j,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_energy_scales_quadratically() {
        let m = EnergyModel::default_14nm();
        let nominal = m.mac_energy_at(0.9);
        let scaled = m.mac_energy_at(0.45);
        // Dynamic part drops to a quarter; leakage stays, so the ratio is slightly above 0.25.
        let dynamic_only = (scaled - m.mac_energy_pj * m.leakage_fraction)
            / (nominal - m.mac_energy_pj * m.leakage_fraction);
        assert!((dynamic_only - 0.25).abs() < 1e-9);
        assert!(scaled < nominal);
    }

    #[test]
    fn undervolting_saves_compute_energy() {
        let m = EnergyModel::default_14nm();
        let high = m.compute_energy_j(1_000_000, 0.9);
        let low = m.compute_energy_j(1_000_000, 0.7);
        assert!(low < high);
        assert!(low > high * 0.4, "leakage bounds the saving");
    }

    #[test]
    fn workload_energy_components_add_up() {
        let m = EnergyModel::default_14nm();
        let spec = WorkloadSpec {
            macs: 10_000_000,
            voltage: 0.72,
            detection_power_fraction: 0.016,
            recovery_macs: 500_000,
            recovery_voltage: 0.9,
        };
        let e = m.workload_energy(&spec);
        assert!(e.compute_j > 0.0 && e.detection_j > 0.0 && e.recovery_j > 0.0);
        assert!((e.total_j() - (e.compute_j + e.detection_j + e.recovery_j)).abs() < 1e-18);
        assert!(e.detection_j < e.compute_j * 0.02);
    }

    #[test]
    fn zero_recovery_means_zero_recovery_energy() {
        let m = EnergyModel::default_14nm();
        let spec = WorkloadSpec {
            macs: 1_000,
            voltage: 0.8,
            detection_power_fraction: 0.0,
            recovery_macs: 0,
            recovery_voltage: 0.9,
        };
        let e = m.workload_energy(&spec);
        assert_eq!(e.recovery_j, 0.0);
        assert_eq!(e.detection_j, 0.0);
    }

    #[test]
    fn full_recovery_can_erase_undervolting_gains() {
        // If every GEMM has to be recomputed at nominal voltage, the total exceeds simply
        // running at nominal voltage in the first place — the effect that makes classical
        // ABFT expensive at low voltages (Fig. 1(b)).
        let m = EnergyModel::default_14nm();
        let macs = 1_000_000;
        let protected_low_voltage = m.workload_energy(&WorkloadSpec {
            macs,
            voltage: 0.65,
            detection_power_fraction: 0.015,
            recovery_macs: macs,
            recovery_voltage: 0.9,
        });
        let unprotected_nominal = m.compute_energy_j(macs, 0.9);
        assert!(protected_low_voltage.total_j() > unprotected_nominal);
    }
}
