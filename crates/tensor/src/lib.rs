//! # realm-tensor
//!
//! Minimal dense-tensor substrate used by the ReaLM reproduction.
//!
//! The crate provides exactly what the paper's inference path needs and nothing more:
//!
//! * [`Matrix`] — a row-major dense matrix generic over its element type, with the
//!   concrete aliases [`MatF32`], [`MatI8`] and [`MatI32`] used throughout the workspace.
//! * [`gemm`] — general matrix-matrix multiplication kernels. The quantized path follows
//!   the paper's setup (inputs quantized to INT8, accumulation in INT32); the f32 path is
//!   used for the non-linear portions of the transformer that stay in floating point.
//! * [`engine`] — interchangeable execution backends for the quantized GEMM: the scalar
//!   oracle [`ReferenceEngine`] and [`KernelEngine`], the SIMD row kernel × one worker
//!   count (inline or work-stealing row chunks), including the fused-checksum pass that
//!   computes the ABFT column checksums inside the GEMM pass. A backend implements the two
//!   `_into` primitives of [`GemmEngine`]; every consumer in the workspace routes its
//!   quantized GEMMs through a handle selected by [`EngineKind`].
//! * [`simd`] — the i8 row kernel behind [`KernelEngine::simd`]: an AVX2 tier, an optional
//!   AVX-512 tier for the packed kernels, and a portable tier — the crate's one scalar
//!   GEMM loop besides the [`gemm`] oracle, cache-tiled, which also takes the packed
//!   kernels' column tail ([`SimdTier`]) — all behind runtime feature detection.
//! * [`packed`] — [`PackedMatI8`], static B-operand (weight) matrices pre-packed at model
//!   load into the exact interleaved tile order the microkernels consume, with the
//!   `eᵀ·W` column checksums precomputed at pack time; the decode-shape fast path behind
//!   [`GemmEngine::gemm_i8_packed_into`].
//! * [`partition`] — [`RowPartition`], the row-range → sequence map that batched inference
//!   uses to stack many sequences into one GEMM while keeping quantization scales and ABFT
//!   attribution per-sequence.
//! * [`quant`] — symmetric quantization between `f32` and `i8`, including the re-quantization
//!   of INT32 accumulator outputs back to INT8 that gives rise to the bit-position
//!   saturation effect studied in the paper (Q1.2).
//! * [`row_kernels`] — [`RowKernels`], the per-row primitives of the envelope around every
//!   quantized GEMM (abs-max, quantize, requantize/dequantize, the integer order statistic of
//!   the robust output scale), of the norms' row statistics, of softmax and SiLU and of
//!   attention's probability codes, portable or AVX2 on the same
//!   dispatch as the GEMM kernels; the workspace's one definition of INT8 rounding and its
//!   one `exp`.
//! * [`stats`] — summary statistics (mean, standard deviation, outlier counts) used both by
//!   the normalization-skew study (Fig. 5) and by synthetic-weight generation.
//! * [`rng`] — deterministic random-number helpers so every experiment in the workspace is
//!   reproducible from a seed.
//! * [`workspace`] — [`Workspace`], the typed scratch arena behind the allocation-free
//!   decode hot loop: quantized operands, accumulators, checksum vectors and activation
//!   scratch are checked out of reusable pools instead of allocated per GEMM.
//!
//! # Example
//!
//! ```
//! use realm_tensor::{MatF32, gemm, quant};
//!
//! # fn main() -> Result<(), realm_tensor::TensorError> {
//! let a = MatF32::from_fn(4, 8, |r, c| (r as f32) - (c as f32) * 0.25);
//! let b = MatF32::from_fn(8, 3, |r, c| 0.1 * (r as f32 + c as f32));
//!
//! // Quantize both operands to INT8 and multiply with INT32 accumulation, the same
//! // datapath the paper injects errors into.
//! let (qa, sa) = quant::quantize_symmetric(&a);
//! let (qb, sb) = quant::quantize_symmetric(&b);
//! let acc = gemm::gemm_i8(&qa, &qb)?;
//! // The accumulator holds `Y / (sa · sb)`.
//! let y = acc.map(|v| v as f32 * (sa * sb));
//!
//! let reference = gemm::gemm_f32(&a, &b)?;
//! assert_eq!(y.shape(), reference.shape());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod gemm;
pub mod matrix;
pub mod packed;
pub mod partition;
pub mod quant;
pub mod rng;
pub mod row_kernels;
pub mod simd;
pub mod stats;
pub mod workspace;

mod error;

pub use engine::{ChecksummedGemm, EngineKind, GemmEngine, KernelEngine, ReferenceEngine};
pub use error::TensorError;
pub use matrix::{MatF32, MatI32, MatI8, Matrix};
pub use packed::PackedMatI8;
pub use partition::RowPartition;
pub use quant::QuantParams;
pub use row_kernels::{RowKernels, RowSum};
pub use simd::SimdTier;
pub use workspace::Workspace;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
