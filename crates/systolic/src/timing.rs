//! Critical-path timing vs supply voltage and the resulting timing-error rate.
//!
//! The paper's platform runs a 500 ps clock against a 439 ps critical path at the nominal
//! 0.9 V; Synopsys PrimeTime/HSPICE analysis (with LLM-inference toggle rates) gives the BER
//! at each reduced voltage. This module reproduces that chain analytically:
//!
//! 1. gate delay grows as the supply approaches the threshold voltage (alpha-power law);
//! 2. path delays are spread around the critical path (process variation), modelled with a
//!    Gaussian tail;
//! 3. a timing error occurs when an exercised path no longer fits the clock period, scaled by
//!    the datapath toggle rate.
//!
//! The resulting curve has the same log-linear shape as `realm_inject::VoltageBerCurve`
//! (Fig. 1(a)); the inject crate's curve is the calibrated summary used by experiments, while
//! this model exposes the underlying circuit quantities (slack, delay) for the overhead and
//! trade-off analyses.

/// Alpha-power-law timing model of the systolic array's critical path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingModel {
    /// Nominal supply voltage in volts.
    pub nominal_voltage: f64,
    /// Critical-path delay at nominal voltage, in picoseconds (439 ps in the paper).
    pub nominal_delay_ps: f64,
    /// Clock period in picoseconds (500 ps in the paper).
    pub clock_period_ps: f64,
    /// Device threshold voltage in volts.
    pub threshold_voltage: f64,
    /// Velocity-saturation exponent of the alpha-power law (≈1.3 for deep submicron).
    pub alpha: f64,
    /// Relative standard deviation of path delay due to variation.
    pub delay_sigma_fraction: f64,
    /// Average fraction of accumulator bits that toggle per cycle during LLM inference.
    pub toggle_rate: f64,
}

impl TimingModel {
    /// The paper's platform: 0.9 V nominal, 439 ps critical path, 500 ps clock.
    pub fn paper_14nm() -> Self {
        Self {
            nominal_voltage: 0.9,
            nominal_delay_ps: 439.0,
            clock_period_ps: 500.0,
            threshold_voltage: 0.35,
            alpha: 1.3,
            delay_sigma_fraction: 0.05,
            toggle_rate: 0.25,
        }
    }

    /// Critical-path delay at the given supply voltage (alpha-power law).
    ///
    /// # Panics
    ///
    /// Panics if `voltage` is at or below the threshold voltage.
    pub fn delay_at(&self, voltage: f64) -> f64 {
        assert!(
            voltage > self.threshold_voltage,
            "voltage {voltage} V is below the threshold voltage"
        );
        let nominal_drive =
            (self.nominal_voltage - self.threshold_voltage).powf(self.alpha) / self.nominal_voltage;
        let drive = (voltage - self.threshold_voltage).powf(self.alpha) / voltage;
        self.nominal_delay_ps * nominal_drive / drive
    }

    /// Timing slack (clock period minus critical-path delay) at the given voltage, in ps.
    ///
    /// Negative slack means the nominal critical path no longer fits in the clock period.
    pub fn slack_at(&self, voltage: f64) -> f64 {
        self.clock_period_ps - self.delay_at(voltage)
    }

    /// Voltage at which the critical path exactly meets the clock period.
    pub fn zero_slack_voltage(&self) -> f64 {
        // Bisection over the monotone delay function.
        let mut lo = self.threshold_voltage + 1e-3;
        let mut hi = self.nominal_voltage + 0.5;
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if self.delay_at(mid) > self.clock_period_ps {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// Probability that a single exercised bit suffers a timing violation at the given
    /// voltage (the computation bit-error rate).
    ///
    /// Path delays are modelled as Gaussian around the scaled critical path with relative
    /// sigma [`TimingModel::delay_sigma_fraction`]; the violation probability is the Gaussian
    /// tail beyond the clock period, scaled by the toggle rate (a bit that does not toggle
    /// cannot capture a wrong value).
    pub fn ber_at(&self, voltage: f64) -> f64 {
        let delay = self.delay_at(voltage);
        let sigma = delay * self.delay_sigma_fraction;
        let z = (self.clock_period_ps - delay) / sigma;
        let violation = 0.5 * erfc(z / std::f64::consts::SQRT_2);
        (violation * self.toggle_rate).min(0.5)
    }

    /// Convenience sweep of `(voltage, BER)` pairs, mirroring
    /// `realm_inject::VoltageBerCurve::sweep`.
    pub fn ber_sweep(&self, v_low: f64, v_high: f64, steps: usize) -> Vec<(f64, f64)> {
        assert!(steps >= 2 && v_low < v_high, "invalid sweep range");
        (0..steps)
            .map(|i| {
                let v = v_low + (v_high - v_low) * i as f64 / (steps - 1) as f64;
                (v, self.ber_at(v))
            })
            .collect()
    }
}

impl Default for TimingModel {
    fn default() -> Self {
        Self::paper_14nm()
    }
}

/// Complementary error function (Abramowitz–Stegun 7.1.26 rational approximation).
fn erfc(x: f64) -> f64 {
    let sign_negative = x < 0.0;
    let x_abs = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x_abs);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let erf = 1.0 - poly * (-x_abs * x_abs).exp();
    let erf = if sign_negative { -erf } else { erf };
    1.0 - erf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_operating_point_matches_paper() {
        let t = TimingModel::paper_14nm();
        assert!((t.delay_at(0.9) - 439.0).abs() < 1e-9);
        assert!((t.slack_at(0.9) - 61.0).abs() < 1e-9);
        assert!(t.ber_at(0.9) < 1e-3, "nominal BER should be tiny");
    }

    #[test]
    fn delay_increases_as_voltage_drops() {
        let t = TimingModel::paper_14nm();
        let mut prev = 0.0;
        for step in 0..30 {
            let v = 0.9 - step as f64 * 0.01;
            let d = t.delay_at(v);
            assert!(d > prev, "delay must grow monotonically as voltage drops");
            prev = d;
        }
    }

    #[test]
    fn ber_increases_as_voltage_drops() {
        let t = TimingModel::paper_14nm();
        let high = t.ber_at(0.85);
        let mid = t.ber_at(0.70);
        let low = t.ber_at(0.60);
        assert!(high <= mid && mid <= low);
        assert!(low <= 0.5);
    }

    #[test]
    fn zero_slack_voltage_is_between_threshold_and_nominal() {
        let t = TimingModel::paper_14nm();
        let v0 = t.zero_slack_voltage();
        assert!(v0 > t.threshold_voltage && v0 < t.nominal_voltage);
        assert!(
            t.slack_at(v0).abs() < 1.0,
            "slack at v0 is {}",
            t.slack_at(v0)
        );
        assert!(t.ber_at(v0) > 1e-3, "at zero slack errors are frequent");
    }

    #[test]
    #[should_panic(expected = "below the threshold")]
    fn delay_rejects_subthreshold_voltage() {
        let _ = TimingModel::paper_14nm().delay_at(0.2);
    }

    #[test]
    fn sweep_produces_monotone_ber_series() {
        let t = TimingModel::paper_14nm();
        let points = t.ber_sweep(0.6, 0.9, 13);
        assert_eq!(points.len(), 13);
        for w in points.windows(2) {
            assert!(w[0].1 >= w[1].1, "BER must fall as voltage rises");
        }
    }

    #[test]
    fn erfc_matches_known_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-6);
        assert!(erfc(3.0) < 1e-4);
        assert!((erfc(-3.0) - 2.0).abs() < 1e-4);
    }
}
