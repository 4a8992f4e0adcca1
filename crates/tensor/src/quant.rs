//! Symmetric INT8 quantization, following the SmoothQuant-style setup referenced by the paper.
//!
//! GEMM inputs are quantized to INT8, accumulation happens in INT32, and the accumulator is
//! either de-quantized back to f32 (for components feeding non-linear functions such as the
//! attention output projection `O`) or re-quantized to INT8 (for components feeding another
//! quantized GEMM, such as `K`). The paper's Q1.2 insight — that high-bit errors saturate
//! because of re-quantization clipping — falls directly out of the ±127 clamp in
//! [`RowKernels::requantize_row`].
//!
//! The rounding itself — and its vectorised, per-row forms — is defined once, in
//! [`crate::row_kernels`]; everything here calls it.

use crate::row_kernels::{round_to_code, RowKernels};
use crate::{MatF32, MatI8};

/// Scale describing a symmetric quantization mapping `real = scale * quantized`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Multiplicative step size between adjacent integer codes.
    pub scale: f32,
}

impl QuantParams {
    /// Creates quantization parameters from an absolute-maximum value so that `abs_max`
    /// maps to the INT8 extreme (±127).
    ///
    /// A zero or non-finite `abs_max` falls back to a scale of 1.0 so that all-zero tensors
    /// quantize losslessly instead of producing NaNs.
    pub fn from_abs_max(abs_max: f32) -> Self {
        let scale = if abs_max.is_finite() && abs_max > 0.0 {
            abs_max / 127.0
        } else {
            1.0
        };
        Self { scale }
    }

    /// Quantizes a single value to INT8 with saturation.
    pub fn quantize(&self, value: f32) -> i8 {
        round_to_code(value / self.scale)
    }

    /// De-quantizes a single INT8 code back to f32.
    pub fn dequantize(&self, code: i8) -> f32 {
        code as f32 * self.scale
    }
}

impl Default for QuantParams {
    fn default() -> Self {
        Self { scale: 1.0 }
    }
}

/// Quantizes an f32 matrix symmetrically to INT8 using a single per-tensor scale.
///
/// Returns the quantized matrix together with the scale so the caller can combine it with the
/// other operand's scale when interpreting INT32 accumulators.
///
/// # Example
///
/// ```
/// use realm_tensor::{MatF32, quant};
/// let x = MatF32::from_fn(2, 2, |r, c| (r as f32 - c as f32) * 3.0);
/// let (q, scale) = quant::quantize_symmetric(&x);
/// let back = quant::dequantize(&q, scale);
/// assert!(x.distance(&back)? < 0.1);
/// # Ok::<(), realm_tensor::TensorError>(())
/// ```
pub fn quantize_symmetric(x: &MatF32) -> (MatI8, f32) {
    let kernels = RowKernels::granted();
    let params = QuantParams::from_abs_max(kernels.abs_max(x.as_slice()));
    let mut q = MatI8::zeros(x.rows(), x.cols());
    kernels.quantize_row(x.as_slice(), params.scale, q.as_mut_slice());
    (q, params.scale)
}

/// De-quantizes an INT8 matrix given its scale.
pub fn dequantize(q: &MatI8, scale: f32) -> MatF32 {
    q.map(|v| v as f32 * scale)
}

/// Worst-case absolute quantization error for a tensor quantized with the given scale.
///
/// Symmetric rounding quantization has error at most half a step.
pub fn max_quantization_error(scale: f32) -> f32 {
    scale * 0.5
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_roundtrip_error_is_bounded() {
        let x = MatF32::from_fn(8, 8, |r, c| ((r * 8 + c) as f32 - 32.0) * 0.37);
        let (q, scale) = quantize_symmetric(&x);
        let back = dequantize(&q, scale);
        let bound = max_quantization_error(scale) + 1e-6;
        for (a, b) in x.iter().zip(back.iter()) {
            assert!((a - b).abs() <= bound, "{a} vs {b} exceeds {bound}");
        }
    }

    #[test]
    fn zero_tensor_quantizes_to_zero() {
        let x = MatF32::zeros(4, 4);
        let (q, scale) = quantize_symmetric(&x);
        assert!(q.iter().all(|&v| v == 0));
        assert!(scale.is_finite() && scale > 0.0);
    }

    #[test]
    fn abs_max_maps_to_127() {
        let x = MatF32::from_vec(1, 2, vec![10.0, -5.0]).unwrap();
        let (q, _) = quantize_symmetric(&x);
        assert_eq!(q[(0, 0)], 127);
    }

    #[test]
    fn quant_params_single_value_roundtrip() {
        let p = QuantParams::from_abs_max(6.35);
        let code = p.quantize(1.0);
        let back = p.dequantize(code);
        assert!((back - 1.0).abs() <= p.scale * 0.5 + 1e-6);
    }

    #[test]
    fn default_params_are_identity_like() {
        let p = QuantParams::default();
        assert_eq!(p.quantize(5.0), 5);
        assert_eq!(p.dequantize(5), 5.0);
    }
}
