//! Non-linear activation functions, kept in floating point as in the paper's setup and
//! applied in place (the workspace-threaded layers rewrite pooled activations without a fresh
//! allocation).

use realm_tensor::MatF32;

/// Rectified linear unit, applied elementwise in place (OPT-style MLP).
pub fn relu_in_place(x: &mut MatF32) {
    x.apply(|v| v.max(0.0));
}

/// Sigmoid-weighted linear unit `x * sigmoid(x)`, applied elementwise in place (LLaMA-style
/// MLP).
pub fn silu_in_place(x: &mut MatF32) {
    x.apply(|v| v * sigmoid(v));
}

/// Logistic sigmoid.
pub fn sigmoid(v: f32) -> f32 {
    1.0 / (1.0 + (-v).exp())
}

/// Numerically stable softmax over one row, in place: each element becomes
/// `exp(v − max) * inv`. The attention path applies it to a query row's *visible prefix*
/// of the score tile, so a probability depends only on the scores at or before its own
/// position.
///
/// Softmax bounds every output to `(0, 1)` and makes each row sum to 1; this is why the paper
/// finds that errors in the `QKᵀ` component stay confined (Sec. IV-A3).
pub fn softmax_in_place(row: &mut [f32]) {
    let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
    let mut sum = 0.0f32;
    for v in row.iter_mut() {
        let e = (*v - max).exp();
        sum += e;
        *v = e;
    }
    let inv = if sum > 0.0 { 1.0 / sum } else { 0.0 };
    for v in row.iter_mut() {
        *v *= inv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!((x[(0, 1)] - 2.0 * sigmoid(2.0)).abs() < 1e-6);
    }

    #[test]
    fn sigmoid_is_bounded_and_centred() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
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
        assert!(row.iter().all(|v| v.is_finite()));
        assert!((row[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_gives_masked_positions_zero_probability() {
        let mut row = [0.0, f32::NEG_INFINITY, f32::NEG_INFINITY];
        softmax_in_place(&mut row);
        assert_eq!(row, [1.0, 0.0, 0.0]);
    }
}
