//! # realm-abft
//!
//! Algorithm-based fault tolerance for quantized GEMMs: the checksum mathematics, the
//! detection policies compared in the paper, and the paper's contribution — **statistical
//! ABFT** driven by an empirically fitted critical error region.
//!
//! ABFT (Huang & Abraham, 1984) augments a GEMM `Y = W·X` with checksums: the column sums of
//! `Y` must equal `(eᵀW)·X` when the computation is correct, so comparing the two detects
//! datapath errors without recomputing the product. The crate provides:
//!
//! * [`checksum`] — one-sided column checksums, per-column deviations and the matrix-sum
//!   deviation (MSD) used by the lightweight detection schemes the paper builds on;
//! * [`detector`] — the [`detector::AbftDetector`] trait and the [`detector::Detection`]
//!   verdict shared by all policies;
//! * [`classical`] — classical ABFT: any non-zero deviation triggers recovery;
//! * [`approx`] — ApproxABFT: recovery only when |MSD| exceeds a threshold;
//! * [`statistical`] — the ReaLM detector: per-column error statistics (magnitude and
//!   frequency) are compared against a fitted [`critical_region::CriticalRegion`], so
//!   recovery fires only when the error pattern actually endangers model quality;
//! * [`critical_region`] — the `θmag = b − (a−1)·log₂(MSD)` boundary, the `θfreq` cap and a
//!   least-squares fitting procedure from characterization data;
//! * [`statistical_unit`] — a behavioural model of the hardware statistical unit (Fig. 7(c)),
//!   including its fixed-point `log₂` approximation and cycle counts;
//! * [`recovery`] — recovery policies (recomputation at nominal voltage, per-error replay,
//!   DMR re-execution) and their cost accounting.
//!
//! # Example
//!
//! ```
//! use realm_abft::{classical::ClassicalAbft, detector::AbftDetector};
//! use realm_tensor::{MatI8, gemm};
//!
//! # fn main() -> Result<(), realm_tensor::TensorError> {
//! let w = MatI8::from_fn(4, 4, |r, c| (r + c) as i8);
//! let x = MatI8::from_fn(4, 4, |r, c| (r as i8) - (c as i8));
//! let mut acc = gemm::gemm_i8(&w, &x)?;
//! let detector = ClassicalAbft::new();
//! assert!(!detector.inspect(&w, &x, &acc).trigger_recovery);
//!
//! // Corrupt one accumulator element: classical ABFT flags it immediately.
//! acc[(1, 2)] ^= 1 << 20;
//! assert!(detector.inspect(&w, &x, &acc).trigger_recovery);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod approx;
pub mod checksum;
pub mod classical;
pub mod critical_region;
pub mod detector;
pub mod recovery;
pub mod statistical;
pub mod statistical_unit;

pub use approx::ApproxAbft;
pub use classical::ClassicalAbft;
pub use critical_region::{rank_by_sensitivity, CriticalRegion};
pub use detector::{AbftDetector, Detection};
pub use recovery::{RecoveryPolicy, RecoveryStats};
pub use statistical::StatisticalAbft;
