//! Summary statistics used by the resilience characterization and synthetic-weight generation.
//!
//! The paper's central architectural insight (Fig. 5) is that hidden states consist of a
//! near-zero bulk plus a handful of outliers, so the mean and standard deviation computed by
//! LayerNorm/RMSNorm are dominated by those outliers. These helpers quantify exactly that:
//! [`summary`] returns µ/σ, and [`outlier_count`] characterizes how heavy the tails are before
//! and after an injected error.

use crate::MatF32;

/// Basic distribution summary of a matrix's elements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Arithmetic mean.
    pub mean: f32,
    /// Population standard deviation.
    pub std: f32,
    /// Minimum element (0.0 for an empty matrix).
    pub min: f32,
    /// Maximum element (0.0 for an empty matrix).
    pub max: f32,
    /// Number of elements summarised.
    pub count: usize,
}

impl Summary {
    /// Range between the maximum and minimum element.
    pub fn range(&self) -> f32 {
        self.max - self.min
    }
}

/// Computes mean, standard deviation and extrema of a matrix.
///
/// # Example
///
/// ```
/// use realm_tensor::{MatF32, stats};
/// let x = MatF32::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0])?;
/// let s = stats::summary(&x);
/// assert_eq!(s.mean, 2.5);
/// assert_eq!(s.max, 4.0);
/// # Ok::<(), realm_tensor::TensorError>(())
/// ```
pub fn summary(x: &MatF32) -> Summary {
    let count = x.len();
    if count == 0 {
        return Summary {
            mean: 0.0,
            std: 0.0,
            min: 0.0,
            max: 0.0,
            count: 0,
        };
    }
    let mut sum = 0.0f64;
    let mut min = f32::INFINITY;
    let mut max = f32::NEG_INFINITY;
    for &v in x.iter() {
        sum += v as f64;
        min = min.min(v);
        max = max.max(v);
    }
    let mean = (sum / count as f64) as f32;
    let mut var = 0.0f64;
    for &v in x.iter() {
        let d = v as f64 - mean as f64;
        var += d * d;
    }
    let std = (var / count as f64).sqrt() as f32;
    Summary {
        mean,
        std,
        min,
        max,
        count,
    }
}

/// Counts elements whose absolute value exceeds `threshold` standard deviations of the bulk.
///
/// This is the operational definition of "outlier channel" used when generating synthetic
/// activations and when measuring how an injected error skews the pre-normalization
/// distribution.
pub fn outlier_count(x: &MatF32, threshold_sigmas: f32) -> usize {
    let s = summary(x);
    if s.std == 0.0 {
        return 0;
    }
    x.iter()
        .filter(|&&v| ((v - s.mean) / s.std).abs() > threshold_sigmas)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MatF32;

    #[test]
    fn summary_of_known_values() {
        let x = MatF32::from_vec(1, 4, vec![2.0, 4.0, 4.0, 6.0]).unwrap();
        let s = summary(&x);
        assert_eq!(s.mean, 4.0);
        assert!((s.std - 2.0_f32.sqrt()).abs() < 1e-6);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 6.0);
        assert_eq!(s.range(), 4.0);
    }

    #[test]
    fn summary_of_empty_matrix_is_zero() {
        let s = summary(&MatF32::zeros(0, 0));
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn outlier_count_detects_injected_spike() {
        let mut x = MatF32::from_fn(1, 1000, |_, c| ((c % 7) as f32 - 3.0) * 0.1);
        assert_eq!(outlier_count(&x, 6.0), 0);
        x.set(0, 500, 50.0).unwrap();
        assert!(outlier_count(&x, 6.0) >= 1);
    }
}
