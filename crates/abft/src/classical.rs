//! Classical ABFT: recover on *any* detected checksum mismatch.
//!
//! This is the baseline the paper improves upon (Tab. I, Fig. 9). Detection capability is
//! excellent — any additive datapath error that changes a column checksum is caught — but
//! every detection triggers a full recovery, which is exactly the recovery-cost problem
//! ReaLM addresses: at aggressive voltages nearly every GEMM contains at least one (harmless)
//! flipped low bit, so classical ABFT ends up recomputing almost everything.

use crate::checksum;
use crate::detector::{AbftDetector, Detection};

/// Classical one-sided column-checksum ABFT (the variant integrated into the SA in
/// Fig. 3(b)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassicalAbft;

impl ClassicalAbft {
    /// Creates the detector.
    pub fn new() -> Self {
        Self
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
        }
    }

    fn name(&self) -> &'static str {
        "classical-abft"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use realm_tensor::{gemm, MatI32, MatI8};

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
    fn cancelling_errors_in_one_column_hide_from_column_checksums() {
        // Two errors of opposite sign in the same column cancel in the column checksum. This
        // documents the known coverage limit of one-sided checksum ABFT rather than a bug.
        let (w, x, mut acc) = operands();
        acc[(0, 2)] = acc[(0, 2)].wrapping_add(1 << 12);
        acc[(4, 2)] = acc[(4, 2)].wrapping_sub(1 << 12);
        assert!(!ClassicalAbft::new().inspect(&w, &x, &acc).trigger_recovery);
    }
}
