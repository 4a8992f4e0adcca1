//! Non-linear activation functions, kept in floating point as in the paper's setup.

use realm_tensor::MatF32;

/// Rectified linear unit, applied elementwise (OPT-style MLP).
pub fn relu(x: &MatF32) -> MatF32 {
    x.map(|v| v.max(0.0))
}

/// [`relu`] applied in place (bit-identical; the workspace-threaded MLP path rectifies the
/// pooled hidden activations without a fresh allocation).
pub fn relu_in_place(x: &mut MatF32) {
    x.apply(|v| v.max(0.0));
}

/// Sigmoid-weighted linear unit `x * sigmoid(x)`, applied elementwise (LLaMA-style MLP).
pub fn silu(x: &MatF32) -> MatF32 {
    x.map(|v| v * sigmoid(v))
}

/// [`silu`] applied in place (bit-identical).
pub fn silu_in_place(x: &mut MatF32) {
    x.apply(|v| v * sigmoid(v));
}

/// Logistic sigmoid.
pub fn sigmoid(v: f32) -> f32 {
    1.0 / (1.0 + (-v).exp())
}

/// Numerically stable softmax applied independently to each row.
///
/// Softmax bounds every output to `(0, 1)` and makes each row sum to 1; this is why the paper
/// finds that errors in the `QKᵀ` component stay confined (Sec. IV-A3).
pub fn softmax_rows(x: &MatF32) -> MatF32 {
    let mut out = x.clone();
    softmax_rows_in_place(&mut out);
    out
}

/// [`softmax_rows`] applied in place.
///
/// Bit-identical to the allocating path: each element becomes `exp(v − max) * inv`, with
/// the exponentials staged in the row itself instead of a per-row scratch vector — the
/// attention-score path of the allocation-free decode loop.
pub fn softmax_rows_in_place(x: &mut MatF32) {
    for r in 0..x.rows() {
        softmax_in_place(x.row_mut(r));
    }
}

/// Numerically stable softmax over one row, in place: each element becomes
/// `exp(v − max) * inv`. The attention path applies it to a query row's *visible prefix*
/// of the score tile, so a probability depends only on the scores at or before its own
/// position.
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

/// Applies a causal mask in place: positions `col > row + offset` receive `-inf` before softmax.
///
/// `offset` is the number of cached tokens already attended to (0 during prefill; the current
/// cache length during decode, where each query row corresponds to one new token).
pub fn apply_causal_mask(scores: &mut MatF32, offset: usize) {
    let (rows, cols) = scores.shape();
    for r in 0..rows {
        for c in 0..cols {
            if c > r + offset {
                scores[(r, c)] = f32::NEG_INFINITY;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use realm_tensor::MatF32;

    #[test]
    fn relu_clamps_negatives() {
        let x = MatF32::from_vec(1, 4, vec![-2.0, -0.1, 0.0, 3.0]).unwrap();
        assert_eq!(relu(&x).as_slice(), &[0.0, 0.0, 0.0, 3.0]);
    }

    #[test]
    fn silu_matches_definition() {
        let x = MatF32::from_vec(1, 2, vec![0.0, 2.0]).unwrap();
        let y = silu(&x);
        assert_eq!(y[(0, 0)], 0.0);
        assert!((y[(0, 1)] - 2.0 * sigmoid(2.0)).abs() < 1e-6);
    }

    #[test]
    fn sigmoid_is_bounded_and_centred() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid(50.0) <= 1.0);
        assert!(sigmoid(-50.0) >= 0.0);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = MatF32::from_fn(3, 5, |r, c| (r as f32) - (c as f32) * 0.3);
        let s = softmax_rows(&x);
        for r in 0..3 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(s.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn softmax_is_stable_for_huge_inputs() {
        // A corrupted accumulator can push scores to enormous values; softmax must not NaN.
        let x = MatF32::from_vec(1, 3, vec![1e30, 0.0, -1e30]).unwrap();
        let s = softmax_rows(&x);
        assert!(s.iter().all(|v| v.is_finite()));
        assert!((s[(0, 0)] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn causal_mask_blocks_future_positions() {
        let mut scores = MatF32::zeros(3, 3);
        apply_causal_mask(&mut scores, 0);
        assert_eq!(scores[(0, 1)], f32::NEG_INFINITY);
        assert_eq!(scores[(1, 2)], f32::NEG_INFINITY);
        assert_eq!(scores[(2, 2)], 0.0);
        let s = softmax_rows(&scores);
        assert_eq!(s[(0, 0)], 1.0);
        assert_eq!(s[(0, 2)], 0.0);
    }

    #[test]
    fn causal_mask_with_offset_allows_cached_positions() {
        let mut scores = MatF32::zeros(1, 5);
        // One new query token attending to 4 cached tokens plus itself.
        apply_causal_mask(&mut scores, 4);
        assert!(scores.iter().all(|&v| v == 0.0));
    }
}
