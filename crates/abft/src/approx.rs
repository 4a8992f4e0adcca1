//! ApproxABFT: tolerate small errors by thresholding the matrix-sum deviation.
//!
//! ApproxABFT (Xue et al.) observes that tiny computational errors do not hurt model quality
//! and therefore triggers recovery only when `|MSD|` exceeds a threshold. The paper's
//! criticism — which motivates statistical ABFT — is that MSD alone cannot distinguish one
//! huge error from many small ones, and it ignores error *frequency* entirely, so it still
//! recovers unnecessarily in some regimes and misses damaging patterns in others.

use crate::checksum;
use crate::detector::{AbftDetector, Detection};

/// MSD-threshold ABFT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApproxAbft {
    /// Recovery is triggered when `|MSD|` is strictly greater than this threshold.
    pub msd_threshold: i64,
}

impl ApproxAbft {
    /// Creates an ApproxABFT detector with the given MSD threshold.
    ///
    /// # Panics
    ///
    /// Panics if the threshold is negative.
    pub fn new(msd_threshold: i64) -> Self {
        assert!(msd_threshold >= 0, "MSD threshold must be non-negative");
        Self { msd_threshold }
    }

    /// The threshold the paper's comparison uses for quantized LLM GEMMs: tolerate deviations
    /// up to 2²⁰ accumulator LSBs, roughly the magnitude below which the characterization
    /// shows no measurable perplexity impact for any component.
    pub fn paper_default() -> Self {
        Self::new(1 << 20)
    }
}

impl Default for ApproxAbft {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl AbftDetector for ApproxAbft {
    fn evaluate(&self, deviations: &[i64]) -> Detection {
        let msd = checksum::msd(deviations);
        let nonzero = deviations.iter().filter(|&&d| d != 0).count();
        Detection {
            trigger_recovery: msd.unsigned_abs() > self.msd_threshold as u64,
            errors_detected: nonzero > 0,
            msd,
            effective_frequency: nonzero,
            theta_mag_log2: Some((self.msd_threshold.max(1) as f64).log2()),
        }
    }

    fn name(&self) -> &'static str {
        "approx-abft"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use realm_tensor::gemm;
    use realm_tensor::{MatI32, MatI8};

    fn operands() -> (MatI8, MatI8, MatI32) {
        let w = MatI8::from_fn(8, 8, |r, c| ((r + c) % 11) as i8 - 5);
        let x = MatI8::from_fn(8, 8, |r, c| ((3 * r + c) % 13) as i8 - 6);
        let acc = gemm::gemm_i8(&w, &x).unwrap();
        (w, x, acc)
    }

    #[test]
    fn clean_gemm_is_not_flagged() {
        let (w, x, acc) = operands();
        let verdict = ApproxAbft::paper_default().inspect(&w, &x, &acc);
        assert!(!verdict.trigger_recovery);
        assert!(!verdict.errors_detected);
    }

    #[test]
    fn small_errors_are_tolerated_but_reported() {
        let (w, x, mut acc) = operands();
        acc[(1, 1)] = acc[(1, 1)].wrapping_add(1 << 10);
        let verdict = ApproxAbft::paper_default().inspect(&w, &x, &acc);
        assert!(verdict.errors_detected, "the deviation is visible");
        assert!(!verdict.trigger_recovery, "but below the MSD threshold");
        assert_eq!(verdict.msd, 1 << 10);
    }

    #[test]
    fn large_errors_trigger_recovery() {
        let (w, x, mut acc) = operands();
        acc[(2, 5)] = acc[(2, 5)].wrapping_add(1 << 26);
        let verdict = ApproxAbft::paper_default().inspect(&w, &x, &acc);
        assert!(verdict.trigger_recovery);
    }

    #[test]
    fn negative_msd_uses_absolute_value() {
        let (w, x, mut acc) = operands();
        acc[(2, 5)] = acc[(2, 5)].wrapping_sub(1 << 26);
        assert!(
            ApproxAbft::paper_default()
                .inspect(&w, &x, &acc)
                .trigger_recovery
        );
    }

    #[test]
    fn msd_blindspot_many_small_errors_pass_undetected() {
        // 32 errors of 2^15 each give MSD = 2^20, right at the threshold: ApproxABFT lets this
        // pattern through even though (per the paper's Q1.4) a moderate frequency of
        // medium-sized errors is exactly the damaging regime. This documented blind spot is
        // what the statistical detector fixes.
        let (w, x, mut acc) = operands();
        for i in 0..32usize {
            let (r, c) = (i / 8, i % 8);
            acc[(r, c)] = acc[(r, c)].wrapping_add(1 << 15);
        }
        let verdict = ApproxAbft::paper_default().inspect(&w, &x, &acc);
        assert!(verdict.errors_detected);
        assert!(!verdict.trigger_recovery);
        // The 32 injected errors fold into the 8 per-column deviations.
        assert_eq!(verdict.effective_frequency, 8);
    }

    #[test]
    fn threshold_zero_degenerates_to_classical_behaviour_for_nonzero_msd() {
        let (w, x, mut acc) = operands();
        acc[(0, 0)] = acc[(0, 0)].wrapping_add(3);
        let verdict = ApproxAbft::new(0).inspect(&w, &x, &acc);
        assert!(verdict.trigger_recovery);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_threshold_is_rejected() {
        let _ = ApproxAbft::new(-5);
    }
}
