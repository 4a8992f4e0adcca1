//! Statistical ABFT — the ReaLM detector, in the integer arithmetic of the paper's
//! statistical unit (Sec. V-A, Fig. 7(c)).
//!
//! The detector summarises a GEMM's per-column deviations as `(MSD, freq_eff)` and consults
//! a fitted [`CriticalRegion`], the way the unit's subtractor, accumulator,
//! Log2LinearFunction and countif stages do:
//!
//! 1. `MSD` is accumulated from the column deviations (the same quantity ApproxABFT uses);
//! 2. the magnitude threshold `θ_mag = b − (a−1)·log₂|MSD|` is formed in Q.12, from `b` in
//!    Q.12, the slope `a−1` in Q.6 and the unit's leading-one `log₂` in Q.6;
//! 3. `freq_eff` counts the non-zero deviations whose `log₂|d|`, shifted from Q.6 to Q.12,
//!    exceeds `θ_mag`: the countif compares in the log domain;
//! 4. recovery fires only if `MSD ≠ 0` and `freq_eff > θ_freq`, with `θ_freq` the whole
//!    count `⌊2^θ_freq_log2⌋` (exact: `freq_eff` is an integer).
//!
//! The region is quantized once, in [`StatisticalAbft::new`]; no float is touched per
//! inspection. The leading-one `log₂` reads low by less than 0.102 (0.086 from the linear
//! segment, 1/64 from truncating to six fraction bits), so a deviation is counted
//! differently from the exact real-valued rule only if its exact `log₂` lies within
//! `0.102·(1 + s) + |a−1−s|·log₂|MSD| + 2⁻¹³` of the exact `θ_mag`, where `s` is the
//! quantized slope.
//!
//! Compared with classical ABFT (recover on any mismatch) and ApproxABFT (recover on large
//! MSD), this policy ignores both sporadic large errors and frequent tiny errors — the two
//! regimes the characterization shows to be harmless for resilient components — and therefore
//! saves most of the recovery energy while keeping model quality inside the budget.

use crate::checksum;
use crate::critical_region::CriticalRegion;
use crate::detector::{AbftDetector, Detection};

/// Fraction bits of the unit's `log₂` and of the slope `a−1`; `b` and `θ_mag` carry twice as
/// many (their product's format).
const FRAC_BITS: u32 = 6;

/// The ReaLM statistical ABFT detector: a critical region quantized to the statistical
/// unit's fixed-point formats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatisticalAbft {
    /// The slope `a−1` in Q.6.
    slope_q6: i64,
    /// The intercept `b` in Q.12.
    b_q12: i64,
    /// `⌊2^θ_freq_log2⌋`: recovery needs more counted deviations than this.
    theta_freq: usize,
}

impl StatisticalAbft {
    /// Creates a detector from a fitted critical region, quantizing it to the unit's formats
    /// (round to nearest for `a−1` and `b`, floor for the frequency threshold).
    pub fn new(region: CriticalRegion) -> Self {
        Self {
            slope_q6: ((region.a - 1.0) * f64::from(1 << FRAC_BITS)).round() as i64,
            b_q12: (region.b * f64::from(1 << (2 * FRAC_BITS))).round() as i64,
            theta_freq: region.theta_freq_log2.exp2() as usize,
        }
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

/// The unit's `log₂` in Q.6: the leading one's position, then the six bits below it read as
/// a linear fraction. Reads low by less than 0.102; 0 for 0 (the unit gates a zero MSD off,
/// which leaves `θ_mag = b`) and for 1.
fn log2_q6(value: u64) -> i64 {
    if value == 0 {
        return 0;
    }
    let msb = 63 - value.leading_zeros();
    let fraction = if msb >= FRAC_BITS {
        value >> (msb - FRAC_BITS)
    } else {
        value << (FRAC_BITS - msb)
    } & ((1 << FRAC_BITS) - 1);
    i64::from(msb << FRAC_BITS) + fraction as i64
}

impl AbftDetector for StatisticalAbft {
    fn evaluate(&self, deviations: &[i64]) -> Detection {
        let msd = checksum::msd(deviations);
        let errors_detected = deviations.iter().any(|&d| d != 0);
        if !errors_detected {
            return Detection::clean();
        }
        let theta_mag_q12 = self
            .b_q12
            .saturating_sub(self.slope_q6.saturating_mul(log2_q6(msd.unsigned_abs())));
        let effective_frequency = deviations
            .iter()
            .filter(|&&d| d != 0 && log2_q6(d.unsigned_abs()) << FRAC_BITS > theta_mag_q12)
            .count();
        Detection {
            trigger_recovery: msd != 0 && effective_frequency > self.theta_freq,
            errors_detected,
            msd,
            effective_frequency,
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
    use rand::Rng;
    use realm_tensor::gemm;
    use realm_tensor::{MatI32, MatI8};

    /// Bound on how far the unit's `log₂` reads below the exact one: 0.086 from the linear
    /// segment, 1/64 from the truncated fraction.
    const LOG2_Q6_ERROR: f64 = 0.102;

    /// The real-valued magnitude threshold the unit approximates: `b − (a−1)·log₂|MSD|` in
    /// f64, and `b` for a zero MSD.
    fn theta_mag_log2(region: &CriticalRegion, msd: i64) -> f64 {
        let magnitude = msd.unsigned_abs();
        if magnitude == 0 {
            return region.b;
        }
        region.b - (region.a - 1.0) * (magnitude as f64).log2()
    }

    /// The real-valued recovery rule: a non-zero MSD and more than `2^θ_freq_log2` counted
    /// deviations.
    fn requires_recovery(region: &CriticalRegion, effective_frequency: usize, msd: i64) -> bool {
        if effective_frequency == 0 || msd == 0 {
            return false;
        }
        (effective_frequency as f64) > region.theta_freq()
    }

    /// The f64 detector the integer unit replaced: `(freq_eff, trigger_recovery)`.
    fn oracle(region: &CriticalRegion, deviations: &[i64]) -> (usize, bool) {
        let msd = checksum::msd(deviations);
        let threshold = theta_mag_log2(region, msd).exp2();
        let effective_frequency = deviations
            .iter()
            .filter(|&&d| (d.unsigned_abs() as f64) > threshold)
            .count();
        (
            effective_frequency,
            requires_recovery(region, effective_frequency, msd),
        )
    }

    fn operands(n: usize) -> (MatI8, MatI8, MatI32) {
        let w = MatI8::from_fn(n, n, |r, c| ((r * 5 + c) % 9) as i8 - 4);
        let x = MatI8::from_fn(n, n, |r, c| ((r + 3 * c) % 7) as i8 - 3);
        let acc = gemm::gemm_i8(&w, &x).unwrap();
        (w, x, acc)
    }

    #[test]
    fn log2_q6_reads_low_by_less_than_its_bound() {
        let mut rng = realm_tensor::rng::seeded(5);
        let values = (1..1u64 << 16)
            .chain((0..64).flat_map(|bit| [(1u64 << bit) - 1, 1 << bit, (1 << bit) + 1]))
            .chain((0..100_000).map(|_| rng.gen::<u64>() >> rng.gen_range(0..64)))
            .chain([u64::MAX]);
        let mut worst = 0.0f64;
        for v in values.filter(|&v| v > 0) {
            let error = (v as f64).log2() - log2_q6(v) as f64 / 64.0;
            assert!(
                (-1e-9..LOG2_Q6_ERROR).contains(&error),
                "log2({v}) = {} against Q.6 {}",
                (v as f64).log2(),
                log2_q6(v)
            );
            worst = worst.max(error);
        }
        assert!(worst > 0.1, "the bound is tight: worst error {worst}");
        assert_eq!(log2_q6(0), 0);
        assert_eq!(log2_q6(1), 0);
        assert_eq!(log2_q6(3), 64 + 32);
        assert_eq!(log2_q6(1 << 40), 40 * 64);
    }

    #[test]
    fn integer_rule_agrees_with_the_f64_oracle() {
        let regions = [
            CriticalRegion::resilient_default(),
            CriticalRegion::sensitive_default(),
            CriticalRegion::new(1.5, 22.4, 1.6),
            CriticalRegion::new(1.37, 19.9, 3.0),
        ];
        let mut rng = realm_tensor::rng::seeded(31);
        let trials = 4000;
        for region in regions {
            let detector = StatisticalAbft::new(region);
            let slope = detector.slope_q6 as f64 / 64.0;
            let mut disagreements = 0;
            for _ in 0..trials {
                // 0–20 errors of ±2^4..2^30 over 64 columns.
                let mut deviations = vec![0i64; 64];
                for _ in 0..rng.gen_range(0..20) {
                    let magnitude = 1i64 << rng.gen_range(4..30);
                    let sign = if rng.gen::<bool>() { 1 } else { -1 };
                    deviations[rng.gen_range(0..64)] += sign * magnitude;
                }
                let verdict = detector.evaluate(&deviations);
                let (frequency, recover) = oracle(&region, &deviations);
                if verdict.trigger_recovery != recover {
                    disagreements += 1;
                }
                if verdict.effective_frequency == frequency {
                    continue;
                }
                // Some deviation is counted by one rule and not the other: it must lie within
                // the approximation's error of the exact threshold.
                let log2_msd = (verdict.msd.unsigned_abs().max(1) as f64).log2();
                let theta = theta_mag_log2(&region, verdict.msd);
                let bound = LOG2_Q6_ERROR * (1.0 + slope)
                    + (region.a - 1.0 - slope).abs() * log2_msd
                    + 2f64.powi(-13);
                assert!(
                    deviations
                        .iter()
                        .filter(|&&d| d != 0)
                        .any(|&d| ((d.unsigned_abs() as f64).log2() - theta).abs() <= bound),
                    "{region:?}: {deviations:?} disagrees with no deviation within {bound} of θ_mag {theta}"
                );
            }
            assert!(
                disagreements * 100 <= trials,
                "{region:?}: {disagreements}/{trials} recovery decisions disagree"
            );
        }
    }

    #[test]
    fn whole_count_theta_freq_decides_as_the_f64_compare() {
        for theta_freq_log2 in [-1.0, 0.0, 1.0, 1.6, 2.0, 3.0] {
            let region = CriticalRegion::new(1.8, 25.0, theta_freq_log2);
            let detector = StatisticalAbft::new(region);
            for count in 0..=64usize {
                assert_eq!(
                    count > detector.theta_freq,
                    count as f64 > region.theta_freq(),
                    "count {count} against 2^{theta_freq_log2}"
                );
            }
        }
    }

    #[test]
    fn clean_gemm_is_not_flagged() {
        let (w, x, acc) = operands(16);
        let verdict = StatisticalAbft::resilient().inspect(&w, &x, &acc);
        assert_eq!(verdict, Detection::clean());
    }

    #[test]
    fn msd_cancelling_to_zero_detects_but_does_not_recover() {
        // Two equal-and-opposite pairs above θ_mag = b = 25 (a zero MSD leaves θ_mag at b):
        // four counted deviations, more than θ_freq = 3, yet the signed MSD is 0.
        let mut deviations = vec![0i64; 16];
        deviations[..4].copy_from_slice(&[1 << 27, -(1 << 27), 1 << 28, -(1 << 28)]);
        let verdict = StatisticalAbft::resilient().evaluate(&deviations);
        assert!(verdict.errors_detected);
        assert_eq!(verdict.msd, 0);
        assert_eq!(verdict.effective_frequency, 4);
        assert!(!verdict.trigger_recovery);
        assert_eq!(
            oracle(&CriticalRegion::resilient_default(), &deviations),
            (4, false)
        );
    }

    #[test]
    fn a_larger_msd_lowers_the_magnitude_threshold() {
        // θ_mag = 25 − 0.8·log₂|MSD|: about 15 beside a 2^12 deviation, about 2.6 beside 2^28.
        let detector = StatisticalAbft::resilient();
        assert_eq!(
            detector.evaluate(&[1 << 10, 1 << 12]).effective_frequency,
            0
        );
        assert_eq!(
            detector.evaluate(&[1 << 10, 1 << 28]).effective_frequency,
            2
        );
    }

    #[test]
    fn recovery_requires_exceeding_frequency_threshold() {
        // θ_freq = ⌊2^1.6⌋ = 3; both patterns have |MSD| ≈ 2^24, so θ_mag ≈ 5.8.
        let detector = StatisticalAbft::resilient();
        assert!(!detector.evaluate(&[1 << 23, 1 << 23]).trigger_recovery);
        assert!(detector.evaluate(&[1 << 21; 9]).trigger_recovery);
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
    fn recovery_rate_is_strictly_lower_than_classical_under_random_faults() {
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
