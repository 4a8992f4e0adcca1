//! Area and power accounting for the protected systolic array (Fig. 8 of the paper).
//!
//! Absolute synthesis numbers require the paper's 14 nm PDK and Design Compiler flow. What
//! the evaluation actually reports — and what this model reproduces — are *relative*
//! overheads of each protection scheme over the unprotected array. The per-block unit costs
//! below are expressed relative to one INT8 MAC PE and are calibrated so that the statistical
//! ABFT lands at the paper's reported ≈1.4% area and ≈1.8% power overhead on a 256×256 array,
//! with classical ABFT slightly cheaper and ApproxABFT in between.

use crate::array::SystolicArray;
use crate::protection::{ExtraHardware, ProtectionScheme};

/// Relative cost of one hardware block, in units of one baseline INT8 MAC PE.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitCosts {
    /// Area of a baseline INT8 MAC PE (definitionally 1.0).
    pub pe_area: f64,
    /// Dynamic + leakage power of a baseline PE under LLM-inference toggle rates (1.0).
    pub pe_power: f64,
    /// Area factor of a checksum PE (wider multipliers/accumulators for 32-bit checksums).
    pub wide_pe_area: f64,
    /// Power factor of a checksum PE (toggles every cycle on wide operands).
    pub wide_pe_power: f64,
    /// 32-bit adder used in the checksum reduction row/column.
    pub adder_area: f64,
    /// 32-bit adder power.
    pub adder_power: f64,
    /// Area added to a PE by Razor/ThunderVolt shadow flip-flops and error muxes.
    pub shadow_ff_area: f64,
    /// Power added to a PE by shadow flip-flops.
    pub shadow_ff_power: f64,
    /// 32-bit buffer register in the statistical unit.
    pub stat_buffer_area: f64,
    /// 32-bit buffer register power.
    pub stat_buffer_power: f64,
    /// Comparator in the `countif` stage.
    pub comparator_area: f64,
    /// Comparator power.
    pub comparator_power: f64,
    /// Fixed-function block (subtractor / accumulator / Log2LinearFunction unit).
    pub stat_fixed_area: f64,
    /// Fixed-function block power.
    pub stat_fixed_power: f64,
}

impl UnitCosts {
    /// Unit costs calibrated against the paper's 14 nm synthesis results.
    pub fn calibrated_14nm() -> Self {
        Self {
            pe_area: 1.0,
            pe_power: 1.0,
            wide_pe_area: 2.9,
            wide_pe_power: 3.8,
            adder_area: 0.45,
            adder_power: 0.55,
            shadow_ff_area: 0.18,
            shadow_ff_power: 0.22,
            stat_buffer_area: 0.14,
            stat_buffer_power: 0.12,
            comparator_area: 0.06,
            comparator_power: 0.05,
            stat_fixed_area: 1.5,
            stat_fixed_power: 1.2,
        }
    }
}

impl Default for UnitCosts {
    fn default() -> Self {
        Self::calibrated_14nm()
    }
}

/// Area/power overhead of a protection scheme relative to the unprotected array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Overhead {
    /// Scheme the overhead refers to.
    pub scheme: ProtectionScheme,
    /// Absolute area in PE-equivalents (baseline array plus extra hardware).
    pub total_area: f64,
    /// Absolute power in PE-equivalents.
    pub total_power: f64,
    /// Extra area as a percentage of the unprotected array.
    pub area_percent: f64,
    /// Extra power as a percentage of the unprotected array.
    pub power_percent: f64,
}

/// Analytical area/power model of a protected systolic array.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaPowerModel {
    array: SystolicArray,
    costs: UnitCosts,
}

impl AreaPowerModel {
    /// Builds the model with the calibrated 14 nm unit costs.
    pub fn default_14nm(array: &SystolicArray) -> Self {
        Self {
            array: *array,
            costs: UnitCosts::calibrated_14nm(),
        }
    }

    /// Area of the unprotected array in PE-equivalents.
    pub fn baseline_area(&self) -> f64 {
        self.array.num_pes() as f64 * self.costs.pe_area
    }

    /// Power of the unprotected array in PE-equivalents.
    pub fn baseline_power(&self) -> f64 {
        self.array.num_pes() as f64 * self.costs.pe_power
    }

    /// Extra area added by a protection scheme, in PE-equivalents.
    pub fn extra_area(&self, scheme: ProtectionScheme) -> f64 {
        let hw = ExtraHardware::for_scheme(scheme, &self.array);
        let c = &self.costs;
        hw.duplicate_pes as f64 * c.pe_area
            + hw.wide_pes as f64 * c.wide_pe_area
            + hw.adders as f64 * c.adder_area
            + hw.shadow_ff_pes as f64 * c.shadow_ff_area
            + hw.stat_buffers as f64 * c.stat_buffer_area
            + hw.comparators as f64 * c.comparator_area
            + hw.stat_fixed_units as f64 * c.stat_fixed_area
    }

    /// Extra power added by a protection scheme, in PE-equivalents.
    pub fn extra_power(&self, scheme: ProtectionScheme) -> f64 {
        let hw = ExtraHardware::for_scheme(scheme, &self.array);
        let c = &self.costs;
        hw.duplicate_pes as f64 * c.pe_power
            + hw.wide_pes as f64 * c.wide_pe_power
            + hw.adders as f64 * c.adder_power
            + hw.shadow_ff_pes as f64 * c.shadow_ff_power
            + hw.stat_buffers as f64 * c.stat_buffer_power
            + hw.comparators as f64 * c.comparator_power
            + hw.stat_fixed_units as f64 * c.stat_fixed_power
    }

    /// Full overhead report for a protection scheme.
    pub fn overhead(&self, scheme: ProtectionScheme) -> Overhead {
        let base_area = self.baseline_area();
        let base_power = self.baseline_power();
        let extra_area = self.extra_area(scheme);
        let extra_power = self.extra_power(scheme);
        Overhead {
            scheme,
            total_area: base_area + extra_area,
            total_power: base_power + extra_power,
            area_percent: 100.0 * extra_area / base_area,
            power_percent: 100.0 * extra_power / base_power,
        }
    }

    /// Fraction of the protected array's power spent in the detection hardware while running.
    ///
    /// Used by the energy model to charge a detection-energy tax proportional to compute
    /// energy for ABFT schemes (the checksum path is active whenever the array is).
    pub fn detection_power_fraction(&self, scheme: ProtectionScheme) -> f64 {
        self.extra_power(scheme) / self.baseline_power()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_ws() -> AreaPowerModel {
        AreaPowerModel::default_14nm(&SystolicArray::paper_256x256_ws())
    }

    fn model_os() -> AreaPowerModel {
        AreaPowerModel::default_14nm(&SystolicArray::paper_256x256_os())
    }

    #[test]
    fn statistical_abft_overhead_matches_paper_magnitude() {
        for model in [model_ws(), model_os()] {
            let o = model.overhead(ProtectionScheme::StatisticalAbft);
            assert!(
                (1.0..=2.0).contains(&o.area_percent),
                "area overhead {}% out of the paper's ~1.4% range",
                o.area_percent
            );
            assert!(
                (1.2..=2.5).contains(&o.power_percent),
                "power overhead {}% out of the paper's ~1.8% range",
                o.power_percent
            );
        }
    }

    #[test]
    fn abft_family_ordering_matches_paper() {
        let model = model_ws();
        let classical = model.overhead(ProtectionScheme::ClassicalAbft);
        let approx = model.overhead(ProtectionScheme::ApproxAbft);
        let statistical = model.overhead(ProtectionScheme::StatisticalAbft);
        assert!(classical.area_percent <= approx.area_percent);
        assert!(approx.area_percent <= statistical.area_percent);
        assert!(classical.power_percent <= statistical.power_percent);
        // The statistical unit is cheap: going from classical to statistical costs well under
        // one additional percentage point.
        assert!(statistical.area_percent - classical.area_percent < 0.5);
    }

    #[test]
    fn dmr_costs_roughly_double() {
        let model = model_ws();
        let dmr = model.overhead(ProtectionScheme::Dmr);
        assert!(dmr.area_percent > 99.0);
        assert!(dmr.power_percent > 99.0);
    }

    #[test]
    fn razor_and_thundervolt_cost_more_than_abft() {
        let model = model_ws();
        let razor = model.overhead(ProtectionScheme::RazorFfs);
        let statistical = model.overhead(ProtectionScheme::StatisticalAbft);
        assert!(razor.area_percent > statistical.area_percent);
        let tv = model.overhead(ProtectionScheme::ThunderVolt);
        assert!(tv.area_percent >= razor.area_percent);
    }

    #[test]
    fn no_protection_has_zero_overhead() {
        let model = model_os();
        let o = model.overhead(ProtectionScheme::None);
        assert_eq!(o.area_percent, 0.0);
        assert_eq!(o.power_percent, 0.0);
        assert_eq!(o.total_area, model.baseline_area());
    }

    #[test]
    fn ws_and_os_overheads_are_close() {
        // Fig. 8 reports near-identical overheads for the two dataflows (1.43% vs 1.42% area).
        let ws = model_ws().overhead(ProtectionScheme::StatisticalAbft);
        let os = model_os().overhead(ProtectionScheme::StatisticalAbft);
        assert!((ws.area_percent - os.area_percent).abs() < 0.2);
        assert!((ws.power_percent - os.power_percent).abs() < 0.2);
    }

    #[test]
    fn detection_power_fraction_is_small_for_abft() {
        let model = model_ws();
        let f = model.detection_power_fraction(ProtectionScheme::StatisticalAbft);
        assert!(f > 0.0 && f < 0.03);
        assert!(model.detection_power_fraction(ProtectionScheme::Dmr) > 0.99);
    }
}
