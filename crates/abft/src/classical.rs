//! Classical ABFT: recover on *any* detected checksum mismatch.
//!
//! This is the baseline the paper improves upon (Tab. I, Fig. 9). Detection capability is
//! excellent — any additive datapath error that changes a column checksum is caught — but
//! every detection triggers a full recovery, which is exactly the recovery-cost problem
//! ReaLM addresses: at aggressive voltages nearly every GEMM contains at least one (harmless)
//! flipped low bit, so classical ABFT ends up recomputing almost everything.

use crate::checksum;
use crate::detector::{AbftDetector, Detection};
use realm_tensor::{MatI32, MatI8};

/// Classical one-sided column-checksum ABFT.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassicalAbft {
    /// Also verify row-side checksums (two-sided ABFT); improves localisation at the cost of
    /// a second checksum path. Detection behaviour for additive errors is identical because
    /// every additive error already perturbs a column checksum.
    pub two_sided: bool,
}

impl ClassicalAbft {
    /// One-sided classical ABFT (the variant integrated into the SA in Fig. 3(b)).
    pub fn new() -> Self {
        Self { two_sided: false }
    }

    /// Two-sided classical ABFT (column and row checksums).
    ///
    /// Row-side verification needs the raw operands, so it only runs through the two-pass
    /// [`AbftDetector::inspect`] entry point. On the fused path
    /// ([`AbftDetector::inspect_checksummed`]) this detector degrades to one-sided column
    /// coverage — the same coverage the paper's systolic array provides, whose checksum
    /// hardware is the column row of Fig. 3(b).
    pub fn two_sided() -> Self {
        Self { two_sided: true }
    }
}

impl AbftDetector for ClassicalAbft {
    fn evaluate(&self, deviations: &[i64]) -> Detection {
        let nonzero = deviations.iter().filter(|&&d| d != 0).count();
        Detection {
            trigger_recovery: nonzero > 0,
            errors_detected: nonzero > 0,
            msd: checksum::msd(deviations),
            effective_frequency: nonzero,
            theta_mag_log2: None,
        }
    }

    fn inspect(&self, w: &MatI8, x: &MatI8, acc: &MatI32) -> Detection {
        let mut verdict = self.evaluate(&checksum::column_deviations(w, x, acc));
        if self.two_sided {
            // The row-side checksums need the operands, so only this two-pass entry point
            // can apply them; the fused path (`inspect_checksummed`) is column-side only,
            // which matches the one-sided checksum column integrated into the systolic array.
            let row_nonzero = checksum::row_deviations(w, x, acc)
                .iter()
                .filter(|&&d| d != 0)
                .count();
            if row_nonzero > 0 {
                verdict.trigger_recovery = true;
                verdict.errors_detected = true;
            }
        }
        verdict
    }

    fn inspect_checksummed(&self, result: &realm_tensor::ChecksummedGemm) -> Detection {
        // Explicitly column-side only: a fused result carries no operands, so the two_sided
        // row checksums cannot be evaluated here (see `ClassicalAbft::two_sided`). Canceling
        // same-column errors that only the row side would catch pass this entry point.
        self.evaluate(&result.column_deviations())
    }

    fn name(&self) -> &'static str {
        "classical-abft"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use realm_tensor::gemm;

    fn operands() -> (MatI8, MatI8, MatI32) {
        let w = MatI8::from_fn(6, 6, |r, c| ((r * 3 + c) % 9) as i8 - 4);
        let x = MatI8::from_fn(6, 6, |r, c| ((r + 2 * c) % 7) as i8 - 3);
        let acc = gemm::gemm_i8(&w, &x).unwrap();
        (w, x, acc)
    }

    #[test]
    fn clean_gemm_is_not_flagged() {
        let (w, x, acc) = operands();
        let verdict = ClassicalAbft::new().inspect(&w, &x, &acc);
        assert!(!verdict.trigger_recovery);
        assert!(!verdict.errors_detected);
        assert_eq!(verdict.msd, 0);
    }

    #[test]
    fn any_single_bit_flip_triggers_recovery() {
        let (w, x, acc) = operands();
        for bit in [0u32, 5, 14, 27, 30] {
            let mut corrupted = acc.clone();
            corrupted[(2, 4)] ^= 1 << bit;
            let verdict = ClassicalAbft::new().inspect(&w, &x, &corrupted);
            assert!(
                verdict.trigger_recovery,
                "bit {bit} flip must trigger classical recovery"
            );
            assert_eq!(verdict.effective_frequency, 1);
        }
    }

    #[test]
    fn tiny_errors_still_trigger_recovery() {
        // The defining weakness of classical ABFT: a ±1 deviation that cannot possibly affect
        // model quality still costs a full recomputation.
        let (w, x, mut acc) = operands();
        acc[(0, 0)] = acc[(0, 0)].wrapping_add(1);
        assert!(ClassicalAbft::new().inspect(&w, &x, &acc).trigger_recovery);
    }

    #[test]
    fn two_sided_variant_detects_the_same_errors() {
        let (w, x, mut acc) = operands();
        acc[(3, 3)] = acc[(3, 3)].wrapping_add(1 << 10);
        assert!(
            ClassicalAbft::two_sided()
                .inspect(&w, &x, &acc)
                .trigger_recovery
        );
        let (_, _, clean) = operands();
        assert!(
            !ClassicalAbft::two_sided()
                .inspect(&w, &x, &clean)
                .trigger_recovery
        );
    }

    #[test]
    fn cancelling_errors_in_one_column_can_hide_from_one_sided_checksums() {
        // Two errors of opposite sign in the same column cancel in the column checksum; the
        // two-sided variant still sees them in the row checksums. This documents the known
        // coverage limits of checksum ABFT rather than a bug.
        let (w, x, mut acc) = operands();
        acc[(0, 2)] = acc[(0, 2)].wrapping_add(1 << 12);
        acc[(4, 2)] = acc[(4, 2)].wrapping_sub(1 << 12);
        let one_sided = ClassicalAbft::new().inspect(&w, &x, &acc);
        assert!(!one_sided.trigger_recovery);
        let two_sided = ClassicalAbft::two_sided().inspect(&w, &x, &acc);
        assert!(two_sided.trigger_recovery);
    }
}
