//! Statistical ABFT — the ReaLM detector (Sec. V-A).
//!
//! The detector computes the per-column deviations of a GEMM result, summarises them as
//! `(MSD, freq_eff)` and consults the fitted [`CriticalRegion`]:
//!
//! 1. `MSD` is accumulated from the column deviations (the same quantity ApproxABFT uses);
//! 2. the magnitude threshold `θ_mag = b − (a−1)·log₂(MSD)` is evaluated;
//! 3. `freq_eff = countif(|deviation| > 2^θ_mag)` counts only the *significant* deviations;
//! 4. recovery fires only if `freq_eff > θ_freq`.
//!
//! Compared with classical ABFT (recover on any mismatch) and ApproxABFT (recover on large
//! MSD), this policy ignores both sporadic large errors and frequent tiny errors — the two
//! regimes the characterization shows to be harmless for resilient components — and therefore
//! saves most of the recovery energy while keeping model quality inside the budget.

use crate::checksum;
use crate::critical_region::CriticalRegion;
use crate::detector::{AbftDetector, Detection};

/// The ReaLM statistical ABFT detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatisticalAbft {
    region: CriticalRegion,
}

impl StatisticalAbft {
    /// Creates a detector from a fitted critical region.
    pub fn new(region: CriticalRegion) -> Self {
        Self { region }
    }

    /// Detector parametrised for a resilient component (default region of Fig. 6(a)).
    pub fn resilient() -> Self {
        Self::new(CriticalRegion::resilient_default())
    }

    /// Detector parametrised for a sensitive component (default region of Fig. 6(b)).
    pub fn sensitive() -> Self {
        Self::new(CriticalRegion::sensitive_default())
    }
}

impl AbftDetector for StatisticalAbft {
    fn evaluate(&self, deviations: &[i64]) -> Detection {
        let msd = checksum::msd(deviations);
        let errors_detected = deviations.iter().any(|&d| d != 0);
        if !errors_detected {
            return Detection::clean();
        }
        let theta_mag = self.region.theta_mag_log2(msd);
        let threshold = theta_mag.exp2();
        let effective_frequency = deviations
            .iter()
            .filter(|&&d| (d.unsigned_abs() as f64) > threshold)
            .count();
        Detection {
            trigger_recovery: self.region.requires_recovery(effective_frequency, msd),
            errors_detected,
            msd,
            effective_frequency,
            theta_mag_log2: Some(theta_mag),
        }
    }

    fn name(&self) -> &'static str {
        "statistical-abft"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classical::ClassicalAbft;
    use realm_tensor::gemm;
    use realm_tensor::{MatI32, MatI8};

    fn operands(n: usize) -> (MatI8, MatI8, MatI32) {
        let w = MatI8::from_fn(n, n, |r, c| ((r * 5 + c) % 9) as i8 - 4);
        let x = MatI8::from_fn(n, n, |r, c| ((r + 3 * c) % 7) as i8 - 3);
        let acc = gemm::gemm_i8(&w, &x).unwrap();
        (w, x, acc)
    }

    #[test]
    fn clean_gemm_is_not_flagged() {
        let (w, x, acc) = operands(16);
        let verdict = StatisticalAbft::resilient().inspect(&w, &x, &acc);
        assert_eq!(verdict, Detection::clean());
    }

    #[test]
    fn sporadic_large_error_is_tolerated_on_resilient_components() {
        // One huge error: classical ABFT recovers, statistical ABFT (resilient region) does
        // not, because freq_eff = 1 ≤ θ_freq.
        let (w, x, mut acc) = operands(16);
        acc[(3, 7)] = acc[(3, 7)].wrapping_add(1 << 28);
        let classical = ClassicalAbft::new().inspect(&w, &x, &acc);
        let statistical = StatisticalAbft::resilient().inspect(&w, &x, &acc);
        assert!(classical.trigger_recovery);
        assert!(statistical.errors_detected);
        assert!(!statistical.trigger_recovery);
        assert_eq!(statistical.effective_frequency, 1);
    }

    #[test]
    fn frequent_small_errors_are_tolerated() {
        // Many tiny errors: each deviation stays below θ_mag, so freq_eff is 0 even though
        // dozens of columns deviate.
        let (w, x, mut acc) = operands(32);
        for j in 0..32usize {
            acc[(j % 32, j)] = acc[(j % 32, j)].wrapping_add(64);
        }
        let verdict = StatisticalAbft::resilient().inspect(&w, &x, &acc);
        assert!(verdict.errors_detected);
        assert_eq!(verdict.effective_frequency, 0);
        assert!(!verdict.trigger_recovery);
    }

    #[test]
    fn moderate_frequency_of_large_errors_triggers_recovery() {
        // The damaging regime from Q1.4: a dozen medium-large errors.
        let (w, x, mut acc) = operands(32);
        for j in 0..12usize {
            acc[(j, j * 2)] = acc[(j, j * 2)].wrapping_add(1 << 24);
        }
        let verdict = StatisticalAbft::resilient().inspect(&w, &x, &acc);
        assert!(verdict.trigger_recovery);
        assert!(verdict.effective_frequency > 8);
    }

    #[test]
    fn sensitive_region_triggers_on_single_significant_error() {
        let (w, x, mut acc) = operands(16);
        acc[(2, 2)] = acc[(2, 2)].wrapping_add(1 << 26);
        let verdict = StatisticalAbft::sensitive().inspect(&w, &x, &acc);
        assert!(verdict.trigger_recovery);
    }

    #[test]
    fn theta_mag_is_reported() {
        let (w, x, mut acc) = operands(16);
        acc[(1, 1)] = acc[(1, 1)].wrapping_add(1 << 20);
        let verdict = StatisticalAbft::resilient().inspect(&w, &x, &acc);
        let region = CriticalRegion::resilient_default();
        let expected = region.theta_mag_log2(verdict.msd);
        assert!((verdict.theta_mag_log2.unwrap() - expected).abs() < 1e-9);
    }

    #[test]
    fn recovery_rate_is_strictly_lower_than_classical_under_random_faults() {
        use rand::Rng;
        let mut rng = realm_tensor::rng::seeded(77);
        let classical = ClassicalAbft::new();
        let statistical = StatisticalAbft::resilient();
        let mut classical_recoveries = 0;
        let mut statistical_recoveries = 0;
        for _ in 0..60 {
            let (w, x, mut acc) = operands(24);
            // Sprinkle 1–3 random single-bit flips at random positions/bits.
            for _ in 0..rng.gen_range(1..=3) {
                let r = rng.gen_range(0..24);
                let c = rng.gen_range(0..24);
                let bit = rng.gen_range(0..31);
                acc[(r, c)] ^= 1 << bit;
            }
            if classical.inspect(&w, &x, &acc).trigger_recovery {
                classical_recoveries += 1;
            }
            if statistical.inspect(&w, &x, &acc).trigger_recovery {
                statistical_recoveries += 1;
            }
        }
        assert_eq!(
            classical_recoveries, 60,
            "classical recovers every corrupted GEMM"
        );
        assert!(
            statistical_recoveries < classical_recoveries / 4,
            "statistical ABFT should skip most recoveries ({statistical_recoveries}/60)"
        );
    }
}
