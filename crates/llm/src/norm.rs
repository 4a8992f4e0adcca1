//! Normalization layers: LayerNorm (OPT-style) and RMSNorm (LLaMA-style).
//!
//! The paper's central characterization insight (Fig. 5) is that these layers are the reason
//! some components are error-sensitive: the mean and standard deviation (or RMS) computed
//! per token are dominated by a handful of outlier channels, so a single large injected error
//! becomes an artificial outlier that skews the statistics and corrupts *every* element of
//! the normalized vector — not just the one that was hit.

use realm_tensor::MatF32;

/// Per-token LayerNorm with learned scale and bias.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerNorm {
    /// Learned per-channel scale (γ).
    pub gamma: Vec<f32>,
    /// Learned per-channel bias (β).
    pub beta: Vec<f32>,
    /// Numerical-stability epsilon added to the variance.
    pub eps: f32,
}

impl LayerNorm {
    /// Creates a LayerNorm with unit scale and zero bias over `dim` channels.
    pub fn identity(dim: usize) -> Self {
        Self {
            gamma: vec![1.0; dim],
            beta: vec![0.0; dim],
            eps: 1e-5,
        }
    }

    /// Creates a LayerNorm with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `gamma` and `beta` have different lengths.
    pub fn new(gamma: Vec<f32>, beta: Vec<f32>) -> Self {
        assert_eq!(
            gamma.len(),
            beta.len(),
            "gamma and beta must have equal length"
        );
        Self {
            gamma,
            beta,
            eps: 1e-5,
        }
    }

    /// Number of channels.
    pub fn dim(&self) -> usize {
        self.gamma.len()
    }

    /// Normalizes each row of `x` to zero mean / unit variance and applies γ, β.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.dim()`.
    pub fn forward(&self, x: &MatF32) -> MatF32 {
        let mut out = MatF32::zeros(0, 0);
        self.forward_into(x, &mut out);
        out
    }

    /// [`LayerNorm::forward`] into caller-provided storage (reshaped in place,
    /// bit-identical output).
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.dim()`.
    pub fn forward_into(&self, x: &MatF32, out: &mut MatF32) {
        assert_eq!(x.cols(), self.dim(), "LayerNorm dimension mismatch");
        out.resize_overwrite(x.rows(), x.cols());
        for r in 0..x.rows() {
            let row = x.row(r);
            let (mean, var) = mean_variance(row);
            let inv = 1.0 / (var + self.eps).sqrt();
            for (c, &v) in row.iter().enumerate() {
                out.row_mut(r)[c] = (v - mean) * inv * self.gamma[c] + self.beta[c];
            }
        }
    }

    /// Returns the per-row `(mean, std)` statistics the normalization would use.
    ///
    /// Exposed so the characterization study (Fig. 5) can report how much an injected error
    /// skews µ and σ without re-deriving the internals.
    pub fn row_statistics(&self, x: &MatF32) -> Vec<(f32, f32)> {
        (0..x.rows())
            .map(|r| {
                let (m, v) = mean_variance(x.row(r));
                (m, v.sqrt())
            })
            .collect()
    }
}

/// Per-token RMSNorm with learned scale.
#[derive(Debug, Clone, PartialEq)]
pub struct RmsNorm {
    /// Learned per-channel scale (γ).
    pub gamma: Vec<f32>,
    /// Numerical-stability epsilon added to the mean square.
    pub eps: f32,
}

impl RmsNorm {
    /// Creates an RMSNorm with unit scale over `dim` channels.
    pub fn identity(dim: usize) -> Self {
        Self {
            gamma: vec![1.0; dim],
            eps: 1e-5,
        }
    }

    /// Creates an RMSNorm with an explicit scale vector.
    pub fn new(gamma: Vec<f32>) -> Self {
        Self { gamma, eps: 1e-5 }
    }

    /// Number of channels.
    pub fn dim(&self) -> usize {
        self.gamma.len()
    }

    /// Normalizes each row of `x` by its root-mean-square and applies γ.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.dim()`.
    pub fn forward(&self, x: &MatF32) -> MatF32 {
        let mut out = MatF32::zeros(0, 0);
        self.forward_into(x, &mut out);
        out
    }

    /// [`RmsNorm::forward`] into caller-provided storage (reshaped in place, bit-identical
    /// output).
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.dim()`.
    pub fn forward_into(&self, x: &MatF32, out: &mut MatF32) {
        assert_eq!(x.cols(), self.dim(), "RMSNorm dimension mismatch");
        out.resize_overwrite(x.rows(), x.cols());
        for r in 0..x.rows() {
            let row = x.row(r);
            let ms: f32 = row.iter().map(|v| v * v).sum::<f32>() / row.len() as f32;
            let inv = 1.0 / (ms + self.eps).sqrt();
            for (c, &v) in row.iter().enumerate() {
                out.row_mut(r)[c] = v * inv * self.gamma[c];
            }
        }
    }
}

fn mean_variance(row: &[f32]) -> (f32, f32) {
    let n = row.len() as f32;
    let mean = row.iter().sum::<f32>() / n;
    let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
    (mean, var)
}

#[cfg(test)]
mod tests {
    use super::*;
    use realm_tensor::stats;

    #[test]
    fn layernorm_output_has_zero_mean_unit_variance() {
        let ln = LayerNorm::identity(64);
        let x = MatF32::from_fn(4, 64, |r, c| (r as f32 + 1.0) * ((c % 9) as f32 - 4.0));
        let y = ln.forward(&x);
        for r in 0..4 {
            let row = MatF32::from_vec(1, 64, y.row(r).to_vec()).unwrap();
            let s = stats::summary(&row);
            assert!(s.mean.abs() < 1e-4, "mean {}", s.mean);
            assert!((s.std - 1.0).abs() < 1e-2, "std {}", s.std);
        }
    }

    #[test]
    fn layernorm_applies_gamma_beta() {
        let ln = LayerNorm::new(vec![2.0; 8], vec![1.0; 8]);
        let x = MatF32::from_fn(1, 8, |_, c| c as f32);
        let y = ln.forward(&x);
        let mean: f32 = y.row(0).iter().sum::<f32>() / 8.0;
        assert!(
            (mean - 1.0).abs() < 1e-5,
            "beta shifts the mean to 1, got {mean}"
        );
    }

    #[test]
    fn rmsnorm_output_has_unit_rms() {
        let rn = RmsNorm::identity(32);
        let x = MatF32::from_fn(2, 32, |_, c| (c as f32 - 16.0) * 0.3);
        let y = rn.forward(&x);
        for r in 0..2 {
            let rms: f32 = (y.row(r).iter().map(|v| v * v).sum::<f32>() / 32.0).sqrt();
            assert!((rms - 1.0).abs() < 1e-3, "rms {rms}");
        }
    }

    #[test]
    fn single_large_error_skews_every_normalized_element() {
        // Reproduces the Fig. 5 phenomenon in miniature: one corrupted element before the
        // normalization perturbs *all* elements after it.
        let ln = LayerNorm::identity(128);
        let clean = MatF32::from_fn(1, 128, |_, c| ((c % 11) as f32 - 5.0) * 0.2);
        let mut corrupted = clean.clone();
        corrupted.set(0, 64, 500.0).unwrap();

        let y_clean = ln.forward(&clean);
        let y_corrupted = ln.forward(&corrupted);

        let changed = y_clean
            .row(0)
            .iter()
            .zip(y_corrupted.row(0).iter())
            .enumerate()
            .filter(|(c, (a, b))| *c != 64 && (*a - *b).abs() > 0.05)
            .count();
        assert!(
            changed > 100,
            "a single pre-norm error should disturb most elements, changed={changed}"
        );
    }

    #[test]
    fn rmsnorm_is_scale_invariant_in_shape() {
        let rn = RmsNorm::identity(16);
        let x = MatF32::from_fn(1, 16, |_, c| (c as f32) - 8.0);
        let y1 = rn.forward(&x);
        let y2 = rn.forward(&x.scale(10.0));
        // RMS normalization removes the global scale (up to epsilon effects).
        assert!(y1.distance(&y2).unwrap() < 1e-2);
    }

    #[test]
    fn row_statistics_report_skew() {
        let ln = LayerNorm::identity(64);
        let clean = MatF32::from_fn(1, 64, |_, c| ((c % 7) as f32 - 3.0) * 0.5);
        let mut corrupted = clean.clone();
        corrupted.set(0, 10, 300.0).unwrap();
        let s_clean = ln.row_statistics(&clean)[0];
        let s_corr = ln.row_statistics(&corrupted)[0];
        assert!(s_corr.0 > s_clean.0, "mean should increase");
        assert!(s_corr.1 > s_clean.1 * 2.0, "std should blow up");
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn layernorm_rejects_wrong_width() {
        let ln = LayerNorm::identity(8);
        let x = MatF32::zeros(1, 9);
        let _ = ln.forward(&x);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn layernorm_rejects_mismatched_params() {
        let _ = LayerNorm::new(vec![1.0; 4], vec![0.0; 5]);
    }
}
