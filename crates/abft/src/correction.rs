//! Single-error localisation and in-place correction from two-sided checksums.
//!
//! Classical ABFT can do more than detect: with both column checksums (`eᵀW·X` vs `eᵀY`) and
//! row checksums (`W·Xe` vs `Y·e`), a *single* corrupted accumulator element can be located at
//! the intersection of the deviating row and column and corrected by subtracting the
//! deviation — no recomputation needed. The paper's recovery model is recomputation (it must
//! handle arbitrary error patterns), but single-error correction is the classic extension and
//! is provided here as an optional, cheaper first-line recovery: when it applies, the
//! recomputation (and its energy) is avoided entirely.

use crate::checksum;
use realm_tensor::{MatI32, MatI8};

/// Outcome of attempting checksum-based correction on a GEMM result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorrectionOutcome {
    /// No deviation was observed; the accumulator was already correct.
    AlreadyCorrect,
    /// Exactly one row and one column deviated consistently; the element at their
    /// intersection was corrected in place.
    Corrected {
        /// Row of the corrected element.
        row: usize,
        /// Column of the corrected element.
        col: usize,
        /// The deviation that was removed (new value = old value − deviation).
        deviation: i64,
    },
    /// The deviation pattern is not a single-element error (multiple rows/columns deviate or
    /// the row and column deviations disagree); the caller must fall back to recomputation.
    NeedsRecomputation,
}

impl CorrectionOutcome {
    /// Whether the accumulator is now known to be correct (either it already was, or the
    /// single error was repaired).
    pub fn is_correct(&self) -> bool {
        !matches!(self, CorrectionOutcome::NeedsRecomputation)
    }
}

/// Attempts to locate and correct a single corrupted element of `acc = w · x` in place.
///
/// Returns [`CorrectionOutcome::NeedsRecomputation`] whenever the deviation pattern cannot be
/// explained by exactly one corrupted element; in that case `acc` is left untouched.
///
/// # Panics
///
/// Panics if the operand shapes are inconsistent with `acc` (the GEMM would already have
/// rejected them).
pub fn correct_single_error(w: &MatI8, x: &MatI8, acc: &mut MatI32) -> CorrectionOutcome {
    let col_dev = checksum::column_deviations(w, x, acc);
    let row_dev = checksum::row_deviations(w, x, acc);

    let deviating_cols: Vec<usize> = col_dev
        .iter()
        .enumerate()
        .filter(|(_, &d)| d != 0)
        .map(|(j, _)| j)
        .collect();
    let deviating_rows: Vec<usize> = row_dev
        .iter()
        .enumerate()
        .filter(|(_, &d)| d != 0)
        .map(|(i, _)| i)
        .collect();

    match (deviating_rows.as_slice(), deviating_cols.as_slice()) {
        ([], []) => CorrectionOutcome::AlreadyCorrect,
        ([row], [col]) if row_dev[*row] == col_dev[*col] => {
            let deviation = col_dev[*col];
            let corrected = acc[(*row, *col)] as i64 - deviation;
            // An additive error on an i32 accumulator always leaves the corrected value
            // representable; clamp defensively anyway so the repair can never widen damage.
            acc[(*row, *col)] = corrected.clamp(i32::MIN as i64, i32::MAX as i64) as i32;
            CorrectionOutcome::Corrected {
                row: *row,
                col: *col,
                deviation,
            }
        }
        _ => CorrectionOutcome::NeedsRecomputation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use realm_tensor::gemm;

    fn operands(seed: u64, n: usize) -> (MatI8, MatI8, MatI32) {
        use rand::Rng;
        let mut r = realm_tensor::rng::seeded(seed);
        let w = MatI8::from_fn(n, n, |_, _| r.gen_range(-50..=50));
        let x = MatI8::from_fn(n, n, |_, _| r.gen_range(-50..=50));
        let acc = gemm::gemm_i8(&w, &x).unwrap();
        (w, x, acc)
    }

    #[test]
    fn clean_accumulator_is_reported_correct() {
        let (w, x, mut acc) = operands(1, 8);
        assert_eq!(
            correct_single_error(&w, &x, &mut acc),
            CorrectionOutcome::AlreadyCorrect
        );
    }

    #[test]
    fn single_bit_flip_is_located_and_repaired() {
        let (w, x, clean) = operands(2, 10);
        for &(r, c, bit) in &[(0usize, 0usize, 30u32), (3, 7, 22), (9, 9, 5)] {
            let mut acc = clean.clone();
            acc[(r, c)] ^= 1 << bit;
            let outcome = correct_single_error(&w, &x, &mut acc);
            match outcome {
                CorrectionOutcome::Corrected { row, col, .. } => {
                    assert_eq!((row, col), (r, c));
                }
                other => panic!("expected correction at ({r},{c}), got {other:?}"),
            }
            assert_eq!(acc, clean, "repair must restore the exact result");
            assert!(outcome.is_correct());
        }
    }

    #[test]
    fn multi_error_patterns_request_recomputation() {
        let (w, x, clean) = operands(3, 8);
        let mut acc = clean.clone();
        acc[(1, 2)] = acc[(1, 2)].wrapping_add(1 << 20);
        acc[(5, 6)] = acc[(5, 6)].wrapping_add(1 << 18);
        let before = acc.clone();
        assert_eq!(
            correct_single_error(&w, &x, &mut acc),
            CorrectionOutcome::NeedsRecomputation
        );
        assert_eq!(acc, before, "the accumulator must not be modified");
    }

    #[test]
    fn two_errors_in_same_row_are_not_misrepaired() {
        let (w, x, clean) = operands(4, 8);
        let mut acc = clean.clone();
        acc[(2, 1)] = acc[(2, 1)].wrapping_add(500);
        acc[(2, 6)] = acc[(2, 6)].wrapping_add(700);
        // Row 2 deviates by 1200; columns 1 and 6 deviate individually → ambiguous.
        assert_eq!(
            correct_single_error(&w, &x, &mut acc),
            CorrectionOutcome::NeedsRecomputation
        );
    }

    #[test]
    fn negative_deviations_are_repaired_too() {
        let (w, x, clean) = operands(5, 6);
        let mut acc = clean.clone();
        acc[(4, 3)] = acc[(4, 3)].wrapping_sub(1 << 15);
        let outcome = correct_single_error(&w, &x, &mut acc);
        assert!(matches!(outcome, CorrectionOutcome::Corrected { deviation, .. } if deviation < 0));
        assert_eq!(acc, clean);
    }
}
