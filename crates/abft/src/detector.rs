//! The common detector interface shared by classical, Approx and statistical ABFT.
//!
//! Every policy decides from the same signature — the per-column checksum deviations of one
//! GEMM — so the trait is built around [`AbftDetector::evaluate`] on a deviation vector.
//! Two provided conveniences feed it, differing only in where the deviations come from:
//!
//! * [`AbftDetector::inspect`] recomputes them from the raw operands and the accumulator
//!   (the two-pass oracle);
//! * [`AbftDetector::inspect_checksummed`] reads them off a [`ChecksummedGemm`] produced by a
//!   fused-checksum [`realm_tensor::GemmEngine`] pass, skipping the operand re-read.
//!
//! A protector that owns a deviation buffer (`realm_core::SchemeProtector`) fills it itself
//! and calls `evaluate` directly.

use crate::checksum;
use realm_tensor::{ChecksummedGemm, MatI32, MatI8};

/// Verdict of one ABFT inspection of a GEMM result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Whether the detector requests a recovery (recomputation / replay) of this GEMM.
    pub trigger_recovery: bool,
    /// Whether any non-zero deviation was observed at all (errors may exist without a
    /// recovery being warranted — the whole point of the statistical scheme).
    pub errors_detected: bool,
    /// Matrix-sum deviation of the inspected accumulator.
    pub msd: i64,
    /// Number of output columns whose deviation magnitude exceeded the detector's magnitude
    /// threshold (`freq_eff` in the paper); equals the number of non-zero deviations for the
    /// classical detector.
    pub effective_frequency: usize,
}

impl Detection {
    /// A verdict for a fault-free GEMM: nothing detected, nothing to recover.
    pub fn clean() -> Self {
        Self {
            trigger_recovery: false,
            errors_detected: false,
            msd: 0,
            effective_frequency: 0,
        }
    }
}

impl Default for Detection {
    fn default() -> Self {
        Self::clean()
    }
}

/// An ABFT error detector operating on one GEMM invocation.
///
/// Implementations receive the INT8 operands (assumed fault-free — operands are read from
/// ECC-protected memory in the paper's fault model) and the INT32 accumulator as produced by
/// the (possibly faulty) datapath, or — on the fused path — the accumulator already bundled
/// with its checksums.
pub trait AbftDetector: Send + Sync {
    /// Decides from a precomputed per-column deviation vector.
    ///
    /// This is the policy core — checksum deviations in, recovery decision out — and the
    /// signature of the paper's statistical unit (Fig. 7(c)), whose integer arithmetic
    /// [`crate::statistical::StatisticalAbft`] computes: the leading-one `log₂` in Q.6 and
    /// `θ_mag` in Q.12. A deviation is counted differently from the real-valued rule only
    /// within `0.102·(1 + s) + |a−1−s|·log₂|MSD| + 2⁻¹³` of `θ_mag` (`s` the Q.6 slope).
    fn evaluate(&self, deviations: &[i64]) -> Detection;

    /// Inspects one GEMM result, recomputing the checksums from the operands (two-pass).
    fn inspect(&self, w: &MatI8, x: &MatI8, acc: &MatI32) -> Detection {
        self.evaluate(&checksum::column_deviations(w, x, acc))
    }

    /// Inspects a fused-checksum GEMM result without touching the operands.
    ///
    /// The deviations reflect the accumulator's *current* contents: a mutation through
    /// [`ChecksummedGemm::acc_mut`] (error injection) transparently refreshes the observed
    /// side, while the operand-side checksum from the fused pass is reused as-is.
    fn inspect_checksummed(&self, result: &ChecksummedGemm) -> Detection {
        self.evaluate(&result.column_deviations())
    }

    /// Short human-readable name used in reports.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;
    use realm_tensor::{GemmEngine, ReferenceEngine};

    #[test]
    fn clean_detection_is_default() {
        let d = Detection::default();
        assert!(!d.trigger_recovery);
        assert!(!d.errors_detected);
        assert_eq!(d.msd, 0);
        assert_eq!(d.effective_frequency, 0);
        assert_eq!(d, Detection::clean());
    }

    struct AlwaysTrigger;

    impl AbftDetector for AlwaysTrigger {
        fn evaluate(&self, _: &[i64]) -> Detection {
            Detection {
                trigger_recovery: true,
                errors_detected: true,
                ..Detection::clean()
            }
        }

        fn name(&self) -> &'static str {
            "always"
        }
    }

    #[test]
    fn trait_objects_forward_calls() {
        let boxed: Box<dyn AbftDetector> = Box::new(AlwaysTrigger);
        let verdict = boxed.inspect(
            &MatI8::zeros(1, 1),
            &MatI8::zeros(1, 1),
            &MatI32::zeros(1, 1),
        );
        assert!(verdict.trigger_recovery);
        assert_eq!(boxed.name(), "always");
        let by_ref = &AlwaysTrigger;
        assert!(
            by_ref
                .inspect(
                    &MatI8::zeros(1, 1),
                    &MatI8::zeros(1, 1),
                    &MatI32::zeros(1, 1)
                )
                .trigger_recovery
        );
        assert!(by_ref.evaluate(&[0]).trigger_recovery);
    }

    #[test]
    fn default_inspect_paths_agree() {
        struct CountNonzero;
        impl AbftDetector for CountNonzero {
            fn evaluate(&self, deviations: &[i64]) -> Detection {
                let nonzero = deviations.iter().filter(|&&d| d != 0).count();
                Detection {
                    trigger_recovery: nonzero > 0,
                    errors_detected: nonzero > 0,
                    msd: deviations.iter().sum(),
                    effective_frequency: nonzero,
                }
            }
            fn name(&self) -> &'static str {
                "count"
            }
        }
        let w = MatI8::from_fn(5, 4, |r, c| (r as i8) - (c as i8));
        let x = MatI8::from_fn(4, 6, |r, c| (2 * r as i8) - (c as i8));
        let mut result = ReferenceEngine
            .gemm_i8_checksummed_two_pass(&w, &x)
            .unwrap();
        result.acc_mut()[(1, 2)] = result.acc()[(1, 2)].wrapping_add(999);
        let detector = CountNonzero;
        let via_inspect = detector.inspect(&w, &x, result.acc());
        let via_checksummed = detector.inspect_checksummed(&result);
        assert_eq!(via_inspect, via_checksummed);
        assert_eq!(via_inspect.msd, 999);
    }
}
