//! Non-linear activation functions, kept in floating point as in the paper's setup and
//! applied in place (the workspace-threaded layers rewrite pooled activations without a fresh
//! allocation).
//!
//! Every exponential here is `realm_tensor::row_kernels::exp`, on the row kernels' dispatch:
//! no libm, and the same bits on every tier and every host.

use realm_tensor::{MatF32, RowKernels};

/// Rectified linear unit, applied elementwise in place (OPT-style MLP).
pub fn relu_in_place(x: &mut MatF32) {
    x.apply(|v| v.max(0.0));
}

/// Sigmoid-weighted linear unit `v · (1 / (1 + exp(−v)))`, applied elementwise in place
/// (LLaMA-style MLP) — [`RowKernels::silu_row`].
pub fn silu_in_place(x: &mut MatF32) {
    RowKernels::granted().silu_row(x.as_mut_slice());
}

/// Numerically stable softmax over one row, in place: each element becomes
/// `exp(v − max) * inv`, `inv = 1 / Σ exp(v − max)`. The attention path applies it to a
/// query row's *visible prefix* of the score tile, so a probability depends only on the
/// scores at or before its own position.
///
/// Softmax bounds every output to `(0, 1)` and makes each row sum to 1; this is why the paper
/// finds that errors in the `QKᵀ` component stay confined (Sec. IV-A3).
pub fn softmax_in_place(row: &mut [f32]) {
    softmax_with(RowKernels::granted(), row);
}

/// [`softmax_in_place`] on the given row kernels: the maximum and the exponentials are
/// vector passes, the sum is a left-to-right f32 fold (its order is part of the
/// definition), and the scaling is one multiply per element.
fn softmax_with(kernels: RowKernels, row: &mut [f32]) {
    let max = kernels.max(row);
    kernels.exp_row(row, max);
    let sum = row.iter().fold(0.0f32, |sum, &e| sum + e);
    let inv = if sum > 0.0 { 1.0 / sum } else { 0.0 };
    for v in row.iter_mut() {
        *v *= inv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use realm_tensor::row_kernels::sigmoid;
    use realm_tensor::{rng, SimdTier};

    #[test]
    fn relu_clamps_negatives() {
        let mut x = MatF32::from_vec(1, 4, vec![-2.0, -0.1, 0.0, 3.0]).unwrap();
        relu_in_place(&mut x);
        assert_eq!(x.as_slice(), &[0.0, 0.0, 0.0, 3.0]);
    }

    #[test]
    fn silu_matches_definition() {
        let mut x = MatF32::from_vec(1, 2, vec![0.0, 2.0]).unwrap();
        silu_in_place(&mut x);
        assert_eq!(x[(0, 0)], 0.0);
        assert_eq!(x[(0, 1)], 2.0 * sigmoid(2.0));
    }

    #[test]
    fn sigmoid_is_bounded_and_centred() {
        assert_eq!(sigmoid(0.0), 0.5);
        assert!(sigmoid(50.0) <= 1.0);
        assert!(sigmoid(-50.0) >= 0.0);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut x = MatF32::from_fn(3, 5, |r, c| (r as f32) - (c as f32) * 0.3);
        for r in 0..3 {
            softmax_in_place(x.row_mut(r));
            let sum: f32 = x.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(x.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn softmax_is_stable_for_huge_inputs() {
        // A corrupted accumulator can push scores to enormous values; softmax must not NaN.
        let mut row = [1e30, 0.0, -1e30];
        softmax_in_place(&mut row);
        assert_eq!(row, [1.0, 0.0, 0.0]);
    }

    #[test]
    fn softmax_gives_masked_positions_zero_probability() {
        let mut row = [0.0, f32::NEG_INFINITY, f32::NEG_INFINITY];
        softmax_in_place(&mut row);
        assert_eq!(row, [1.0, 0.0, 0.0]);
    }

    #[test]
    fn softmax_agrees_across_tiers() {
        let tiers = [
            RowKernels::with_tier(SimdTier::Portable),
            RowKernels::granted(),
        ];
        let mut r = rng::seeded(41);
        for len in 0..=33 {
            let mut rows = vec![
                (0..len)
                    .map(|_| r.gen_range(-30.0f32..30.0))
                    .collect::<Vec<_>>(),
                vec![f32::NEG_INFINITY; len],
            ];
            // A huge score beside ordinary ones, a masked tail, and a NaN.
            let mut huge: Vec<f32> = (0..len).map(|_| r.gen_range(-4.0f32..4.0)).collect();
            for (i, v) in [1e30, f32::NEG_INFINITY, f32::NAN].into_iter().enumerate() {
                if i < len {
                    huge[(i * 7) % len] = v;
                }
            }
            rows.push(huge);
            for row in &rows {
                let bits: Vec<Vec<u32>> = tiers
                    .iter()
                    .map(|&kernels| {
                        let mut s = row.clone();
                        softmax_with(kernels, &mut s);
                        s.iter().map(|v| v.to_bits()).collect()
                    })
                    .collect();
                assert_eq!(bits[0], bits[1], "softmax of {row:?}");
            }
        }
        // A row whose maximum is −∞ has no finite weight: `−∞ − (−∞)` is NaN, as it was
        // under libm.
        let mut row = [f32::NEG_INFINITY; 3];
        softmax_in_place(&mut row);
        assert!(row.iter().all(|v| v.is_nan()));
    }
}
