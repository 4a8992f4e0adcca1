//! Operating-voltage ↔ bit-error-rate relationship (the shape of Fig. 1(a)).
//!
//! The paper obtains its voltage/BER curve from gate-level timing analysis of a 256×256
//! systolic array synthesised on a commercial 14 nm PDK (nominal 0.9 V), in line with prior
//! silicon measurements. That toolchain is not available here, so the curve is modelled
//! analytically: timing-error probability grows roughly exponentially as the supply voltage
//! is scaled below the point where the critical path no longer fits in the clock period,
//! which appears as a straight line on the paper's log-BER axis. The default parameters are
//! calibrated so that the BER is negligible at nominal voltage and reaches ~1e-2 around
//! 0.55–0.6 V, matching the range the paper sweeps.

/// Log-linear mapping between operating voltage and computation bit-error rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltageBerCurve {
    /// Nominal operating voltage in volts (BER is `ber_nominal` here).
    pub nominal_voltage: f64,
    /// BER at the nominal voltage (a tiny but non-zero residual rate).
    pub ber_nominal: f64,
    /// Decades of BER increase per volt of undervolting.
    pub decades_per_volt: f64,
    /// BER ceiling (a fully broken datapath flips about half its bits).
    pub ber_max: f64,
}

impl VoltageBerCurve {
    /// The default curve used throughout the reproduction: nominal 0.9 V, BER 1e-10 at
    /// nominal, ~23 decades/V, matching the BER range of Fig. 1(a) (1e-8 … 1e-2) over the
    /// 0.55–0.9 V sweep used in the evaluation.
    pub fn default_14nm() -> Self {
        Self {
            nominal_voltage: 0.9,
            ber_nominal: 1e-10,
            decades_per_volt: 23.0,
            ber_max: 0.5,
        }
    }

    /// Creates a custom curve.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive or `ber_nominal > ber_max`.
    pub fn new(
        nominal_voltage: f64,
        ber_nominal: f64,
        decades_per_volt: f64,
        ber_max: f64,
    ) -> Self {
        assert!(nominal_voltage > 0.0, "nominal voltage must be positive");
        assert!(ber_nominal > 0.0 && ber_max > 0.0, "BERs must be positive");
        assert!(decades_per_volt > 0.0, "slope must be positive");
        assert!(
            ber_nominal <= ber_max,
            "nominal BER cannot exceed the ceiling"
        );
        Self {
            nominal_voltage,
            ber_nominal,
            decades_per_volt,
            ber_max,
        }
    }

    /// Bit-error rate at the given operating voltage.
    pub fn ber_at(&self, voltage: f64) -> f64 {
        let undervolt = (self.nominal_voltage - voltage).max(0.0);
        let log_ber = self.ber_nominal.log10() + self.decades_per_volt * undervolt;
        10f64.powf(log_ber).min(self.ber_max)
    }

    /// The lowest voltage at which the BER stays at or below `target_ber`.
    ///
    /// Returns the nominal voltage if the target is below the nominal BER.
    pub fn voltage_for_ber(&self, target_ber: f64) -> f64 {
        if target_ber <= self.ber_nominal {
            return self.nominal_voltage;
        }
        let decades = target_ber.log10() - self.ber_nominal.log10();
        (self.nominal_voltage - decades / self.decades_per_volt).max(0.0)
    }
}

impl Default for VoltageBerCurve {
    fn default() -> Self {
        Self::default_14nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ber_is_monotonically_decreasing_in_voltage() {
        let curve = VoltageBerCurve::default_14nm();
        let mut previous = f64::INFINITY;
        for step in 0..=35 {
            let v = 0.55 + step as f64 * 0.01;
            let ber = curve.ber_at(v);
            assert!(ber <= previous, "BER must not increase with voltage");
            previous = ber;
        }
    }

    #[test]
    fn nominal_voltage_has_negligible_ber() {
        let curve = VoltageBerCurve::default_14nm();
        assert!(curve.ber_at(0.9) <= 1e-10);
        assert!(
            curve.ber_at(1.0) <= 1e-10,
            "overvolting never increases BER"
        );
    }

    #[test]
    fn low_voltage_reaches_percent_level_ber() {
        let curve = VoltageBerCurve::default_14nm();
        let ber_060 = curve.ber_at(0.60);
        let ber_055 = curve.ber_at(0.55);
        assert!(ber_060 > 1e-4 && ber_060 < 1e-1, "0.60 V BER {ber_060}");
        assert!(ber_055 > ber_060);
    }

    #[test]
    fn ber_is_capped() {
        let curve = VoltageBerCurve::default_14nm();
        assert!(curve.ber_at(0.0) <= 0.5);
    }

    #[test]
    fn voltage_for_ber_inverts_ber_at() {
        let curve = VoltageBerCurve::default_14nm();
        for target in [1e-8, 1e-6, 1e-4, 1e-2] {
            let v = curve.voltage_for_ber(target);
            let ber = curve.ber_at(v);
            assert!(
                (ber.log10() - target.log10()).abs() < 1e-6,
                "target {target} voltage {v} ber {ber}"
            );
        }
        assert_eq!(curve.voltage_for_ber(1e-20), curve.nominal_voltage);
    }

    #[test]
    #[should_panic(expected = "slope must be positive")]
    fn invalid_slope_is_rejected() {
        let _ = VoltageBerCurve::new(0.9, 1e-10, 0.0, 0.5);
    }
}
