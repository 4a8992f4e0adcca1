//! GEMM kernels: the INT8×INT8→INT32 datapath the paper protects, plus f32 reference paths.
//!
//! The paper injects transient errors into the **INT32 accumulation results** of quantized
//! GEMMs ([`gemm_i8`]); the floating-point path ([`gemm_f32`]) models the non-quantized
//! portions of the transformer (normalization statistics, softmax) and provides a reference
//! for quantization-accuracy tests.

use crate::{MatF32, MatI32, MatI8, Result, TensorError};

pub(crate) fn check_compatible(
    op: &'static str,
    lhs: (usize, usize),
    rhs: (usize, usize),
) -> Result<()> {
    if lhs.1 != rhs.0 {
        return Err(TensorError::ShapeMismatch { op, lhs, rhs });
    }
    Ok(())
}

/// Multiplies two INT8 matrices producing an INT32 accumulator matrix.
///
/// This is the datapath executed on the systolic array in the paper: operands are quantized
/// to INT8, products are accumulated in INT32, and transient timing errors manifest as bit
/// flips in the INT32 results.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `a.cols() != b.rows()`.
///
/// # Example
///
/// ```
/// use realm_tensor::{MatI8, gemm};
/// let a = MatI8::filled(2, 3, 2);
/// let b = MatI8::filled(3, 2, 3);
/// let y = gemm::gemm_i8(&a, &b)?;
/// assert_eq!(y[(0, 0)], 18);
/// # Ok::<(), realm_tensor::TensorError>(())
/// ```
pub fn gemm_i8(a: &MatI8, b: &MatI8) -> Result<MatI32> {
    let mut out = MatI32::zeros(0, 0);
    gemm_i8_into(a, b, &mut out)?;
    Ok(out)
}

/// [`gemm_i8`] writing into caller-provided storage.
///
/// `out` is reshaped to `(a.rows(), b.cols())` in place, reusing its backing allocation
/// whenever the capacity suffices — with a workspace-pooled accumulator the multiply runs
/// without touching the allocator. Results are bit-identical to [`gemm_i8`].
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `a.cols() != b.rows()`.
pub fn gemm_i8_into(a: &MatI8, b: &MatI8, out: &mut MatI32) -> Result<()> {
    check_compatible("gemm_i8", a.shape(), b.shape())?;
    let (m, k) = a.shape();
    let n = b.cols();
    out.resize_reset(m, n);
    // Transpose-free inner loop ordering (i, p, j) keeps the access to `b` row-contiguous.
    for i in 0..m {
        let a_row = a.row(i);
        let out_row = out.row_mut(i);
        for (p, &a_ip) in a_row.iter().enumerate().take(k) {
            let a_ip = a_ip as i32;
            if a_ip == 0 {
                continue;
            }
            let b_row = b.row(p);
            for (j, &b_pj) in b_row.iter().enumerate() {
                out_row[j] += a_ip * b_pj as i32;
            }
        }
    }
    Ok(())
}

/// Multiplies two f32 matrices.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `a.cols() != b.rows()`.
pub fn gemm_f32(a: &MatF32, b: &MatF32) -> Result<MatF32> {
    let mut out = MatF32::zeros(0, 0);
    gemm_f32_into(a, b, &mut out)?;
    Ok(out)
}

/// [`gemm_f32`] writing into caller-provided storage (reshaped in place, reusing its
/// backing allocation). Bit-identical to [`gemm_f32`]; used by the allocation-free logits
/// path of the decode hot loop.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `a.cols() != b.rows()`.
pub fn gemm_f32_into(a: &MatF32, b: &MatF32, out: &mut MatF32) -> Result<()> {
    check_compatible("gemm_f32", a.shape(), b.shape())?;
    let (m, k) = a.shape();
    let n = b.cols();
    out.resize_reset(m, n);
    for i in 0..m {
        let a_row = a.row(i);
        let out_row = out.row_mut(i);
        for (p, &a_ip) in a_row.iter().enumerate().take(k) {
            if a_ip == 0.0 {
                continue;
            }
            let b_row = b.row(p);
            for (j, &b_pj) in b_row.iter().enumerate() {
                out_row[j] += a_ip * b_pj;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_i8_matches_manual_result() {
        let a = MatI8::from_vec(2, 2, vec![1, 2, 3, 4]).unwrap();
        let b = MatI8::from_vec(2, 2, vec![5, 6, 7, 8]).unwrap();
        let y = gemm_i8(&a, &b).unwrap();
        assert_eq!(y.as_slice(), &[19, 22, 43, 50]);
    }

    #[test]
    fn gemm_i8_rejects_incompatible_shapes() {
        let a = MatI8::zeros(2, 3);
        let b = MatI8::zeros(2, 3);
        assert!(matches!(
            gemm_i8(&a, &b),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn gemm_i8_handles_saturating_range_without_overflow() {
        // 128 accumulations of 127*127 stays far below i32::MAX; validate no wrap.
        let a = MatI8::filled(1, 128, 127);
        let b = MatI8::filled(128, 1, 127);
        let y = gemm_i8(&a, &b).unwrap();
        assert_eq!(y[(0, 0)], 127 * 127 * 128);
    }

    #[test]
    fn gemm_f32_identity_preserves_input() {
        let a = MatF32::from_fn(3, 3, |r, c| (r * 3 + c) as f32);
        let identity = MatF32::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
        let y = gemm_f32(&a, &identity).unwrap();
        assert_eq!(y, a);
    }

    #[test]
    fn int8_and_f32_paths_agree_for_integer_valued_inputs() {
        let a8 = MatI8::from_fn(3, 5, |r, c| (r as i8 * 2) - c as i8);
        let b8 = MatI8::from_fn(5, 4, |r, c| (c as i8) - (r as i8));
        let af = a8.map(|v| v as f32);
        let bf = b8.map(|v| v as f32);
        let yi = gemm_i8(&a8, &b8).unwrap();
        let yf = gemm_f32(&af, &bf).unwrap();
        for (i, j) in (0..3).flat_map(|i| (0..4).map(move |j| (i, j))) {
            assert_eq!(yi[(i, j)] as f32, yf[(i, j)]);
        }
    }
}
