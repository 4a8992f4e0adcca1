//! Quantized linear layers and the hooked INT8 GEMM every component runs through.
//!
//! Following the paper's setup (Sec. III-B), every GEMM's inputs are quantized to INT8 and
//! its results are accumulated in INT32. The INT32 accumulator is the error-injection and
//! ABFT-verification point, exposed through [`crate::hooks::GemmHook`]. After the hooks run,
//! the accumulator is converted back according to the component's [`OutputMode`]:
//!
//! * [`OutputMode::Float`] — de-quantize to f32 (components whose outputs feed normalization
//!   or non-linear functions, e.g. `O`, `FC2`, `Down`);
//! * [`OutputMode::RequantizedInt8`] — re-quantize to INT8 and de-quantize again (components
//!   whose outputs feed another quantized GEMM, e.g. `Q`, `K`, `V`). Re-quantization clips to
//!   ±127, which is why very-high-bit errors saturate for these components (Q1.2).

use crate::hooks::{GemmContext, GemmHook};
use crate::{LlmError, Result};
use realm_tensor::{
    quant, ChecksummedGemm, GemmEngine, MatF32, MatI8, PackedMatI8, QuantParams, RowPartition,
    ShardedLinear, TpGroup, Workspace,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// How a quantized GEMM's INT32 accumulator is converted back for downstream computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OutputMode {
    /// De-quantize the accumulator to f32 without clipping.
    Float,
    /// Re-quantize the accumulator to INT8 (saturating at ±127), then de-quantize to f32 for
    /// the rest of the pipeline. Models components whose outputs are stored as INT8.
    RequantizedInt8,
}

/// A linear layer with INT8-quantized static weights.
///
/// The weights are held as a [`PackedMatI8`]: packed once into the SIMD engines'
/// interleaved tile order at construction (model load), with the `eᵀ·W` pack-time
/// checksums alongside — the load-time allocation that makes every decode-step GEMM
/// hit the packed kernels without touching the allocator. The row-major weights stay
/// reachable through [`QuantLinear::weight_q`] for hooks, workload accounting and
/// the engines that don't override the packed entry points.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantLinear {
    weight: PackedMatI8,
    weight_scale: f32,
    output_mode: OutputMode,
    use_packed: bool,
    /// Tensor-parallel execution handle: when present, forwards run the weight's packed
    /// column stripes on the group's persistent ranks instead of the local engine (see
    /// [`QuantLinear::set_tensor_parallel`]). Execution state, not layer identity.
    tp: Option<ShardedLinear>,
}

impl QuantLinear {
    /// Quantizes a floating-point weight matrix of shape `(in_features, out_features)`
    /// and packs it for the decode-shape kernels.
    pub fn from_f32(weight: &MatF32, output_mode: OutputMode) -> Self {
        let (weight_q, weight_scale) = quant::quantize_symmetric(weight);
        Self {
            weight: PackedMatI8::from_mat(weight_q),
            weight_scale,
            output_mode,
            use_packed: true,
            tp: None,
        }
    }

    /// Input dimension of the layer.
    pub fn in_features(&self) -> usize {
        self.weight.rows()
    }

    /// Output dimension of the layer.
    pub fn out_features(&self) -> usize {
        self.weight.cols()
    }

    /// The quantized weights in row-major order (used by workload accounting and tests).
    pub fn weight_q(&self) -> &MatI8 {
        self.weight.unpacked()
    }

    /// The packed weights, including the pack-time `eᵀ·W` column checksums (used by the
    /// ABFT audit of the packed replica, see `realm-abft`'s `packed_weight_deviations`).
    pub fn packed_weight(&self) -> &PackedMatI8 {
        &self.weight
    }

    /// Scale of the quantized weights.
    pub fn weight_scale(&self) -> f32 {
        self.weight_scale
    }

    /// Output conversion mode.
    pub fn output_mode(&self) -> OutputMode {
        self.output_mode
    }

    /// Whether forwards route through the engine's packed entry points (the default) or
    /// the unpacked `gemm_i8*` path. Both are bit-identical; the switch exists for the
    /// packed-vs-unpacked benchmarks and differential tests. Sharded execution honours
    /// the same switch per rank.
    pub fn set_packing(&mut self, enabled: bool) {
        self.use_packed = enabled;
    }

    /// Shards this layer's weights column-wise over `group`'s persistent ranks
    /// (`Some`), or restores the unsharded single-device path (`None`).
    ///
    /// Sharding packs one column stripe per rank at call time — a load-time allocation,
    /// exactly like the original [`PackedMatI8`] pack — after which every forward
    /// scatters the activation once, runs the per-rank fused-checksum GEMMs in parallel
    /// and merges stripes and checksum segments back into the layout hooks already
    /// consume. Outputs, checksums and hook observations are bit-identical to the
    /// unsharded path (`tests/tp_parity.rs`).
    pub fn set_tensor_parallel(&mut self, group: Option<&Arc<TpGroup>>) {
        self.tp = group.map(|group| ShardedLinear::new(Arc::clone(group), self.weight.unpacked()));
    }

    /// The tensor-parallel execution handle, when sharded.
    pub fn tensor_parallel(&self) -> Option<&ShardedLinear> {
        self.tp.as_ref()
    }

    /// Computes `x · W` through the quantized INT8 → INT32 datapath of `engine`.
    ///
    /// `x` has shape `(tokens, in_features)`; the result has shape `(tokens, out_features)`.
    /// When a hook in the chain consumes checksums ([`GemmHook::wants_checksums`]) the GEMM
    /// runs through the engine's fused-checksum pass and the hook observes (and may mutate)
    /// the checksummed INT32 accumulator before conversion; otherwise the plain GEMM runs
    /// and the checksum reductions are skipped entirely.
    ///
    /// # Errors
    ///
    /// Returns an error if `x.cols() != self.in_features()`.
    pub fn forward(
        &self,
        x: &MatF32,
        engine: &dyn GemmEngine,
        ctx: &GemmContext,
        hook: &mut dyn GemmHook,
    ) -> Result<MatF32> {
        let mut ws = Workspace::new();
        self.forward_ws(x, engine, ctx, hook, &mut ws)
    }

    /// [`QuantLinear::forward`] with every intermediate — the quantized activations, the
    /// INT32 accumulator, the fused checksums and the requantization scratch — checked out
    /// of `ws` instead of allocated per call. The returned matrix is workspace-pooled;
    /// recycle it once consumed. Output is bit-identical to [`QuantLinear::forward`].
    ///
    /// # Errors
    ///
    /// Returns an error if `x.cols() != self.in_features()`.
    pub fn forward_ws(
        &self,
        x: &MatF32,
        engine: &dyn GemmEngine,
        ctx: &GemmContext,
        hook: &mut dyn GemmHook,
        ws: &mut Workspace,
    ) -> Result<MatF32> {
        let mut xq = ws.take_mat_i8(x.rows(), x.cols());
        let mut scales = ws.take_vec_f32(x.rows());
        quantize_symmetric_rows_into(x, &mut xq, &mut scales);
        let acc = run_hooked_linear_gemm_ws(
            &xq,
            &self.weight,
            self.tp.as_ref(),
            self.use_packed,
            engine,
            ctx,
            hook,
            ws,
        );
        ws.recycle_mat_i8(xq);
        let acc = match acc {
            Ok(acc) => acc,
            Err(e) => {
                ws.recycle_vec_f32(scales);
                return Err(e);
            }
        };
        // Reuse the scale buffer in place for the combined (activation × weight) scales.
        for s in scales.iter_mut() {
            *s *= self.weight_scale;
        }
        let mut out = ws.take_mat_f32(acc.rows(), acc.cols());
        let mut mags = ws.take_vec_f32(mags_len(&acc, self.output_mode));
        convert_accumulator_rows_into(&acc, &scales, self.output_mode, &mut out, &mut mags);
        ws.recycle_vec_f32(mags);
        ws.recycle_vec_f32(scales);
        ws.recycle_mat_i32(acc);
        Ok(out)
    }

    /// Computes `x · W` for a batch-stacked activation matrix in **one** engine GEMM while
    /// keeping every per-sequence number bit-identical to [`QuantLinear::forward`] on that
    /// sequence alone.
    ///
    /// `x` holds the rows of every sequence in the batch, grouped by `parts`. Each row is
    /// quantized with its *own* symmetric scale — exactly what [`QuantLinear::forward`]
    /// does per row — so the grouping carries attribution metadata only and never touches
    /// the numerics. The stacked INT8 matrix runs through a single (optionally
    /// fused-checksum) GEMM — this is where checksum and detection cost amortise across
    /// the batch — and the INT32 accumulator is converted back per row, including the
    /// per-row robust requantization scale.
    ///
    /// # Errors
    ///
    /// Returns an error if `x.cols() != self.in_features()` or if `parts` does not cover
    /// exactly `x.rows()` rows.
    pub fn forward_batched(
        &self,
        x: &MatF32,
        parts: &RowPartition,
        engine: &dyn GemmEngine,
        ctx: &GemmContext,
        hook: &mut dyn GemmHook,
    ) -> Result<MatF32> {
        let mut ws = Workspace::new();
        self.forward_batched_ws(x, parts, engine, ctx, hook, &mut ws)
    }

    /// [`QuantLinear::forward_batched`] drawing every intermediate — including the
    /// per-row-group quantization scales and grouped requantization scratch — from `ws`.
    /// The returned matrix is workspace-pooled; output is bit-identical to
    /// [`QuantLinear::forward_batched`].
    ///
    /// # Errors
    ///
    /// Returns an error if `x.cols() != self.in_features()` or if `parts` does not cover
    /// exactly `x.rows()` rows.
    pub fn forward_batched_ws(
        &self,
        x: &MatF32,
        parts: &RowPartition,
        engine: &dyn GemmEngine,
        ctx: &GemmContext,
        hook: &mut dyn GemmHook,
        ws: &mut Workspace,
    ) -> Result<MatF32> {
        if parts.total_rows() != x.rows() {
            return Err(LlmError::InvalidSequence {
                detail: format!(
                    "row partition covers {} rows but the stacked matrix has {}",
                    parts.total_rows(),
                    x.rows()
                ),
            });
        }
        // Per-row quantization makes the batched path numerically identical to the solo
        // path row by row: the partition is attribution metadata for the hooks, nothing
        // more. This is also what makes chunked prefill bit-exact — a row's scale depends
        // on that row alone, never on which chunk (or batch) it happens to ride in.
        self.forward_ws(x, engine, ctx, hook, ws)
    }
}

/// Quantizes each row of `x` with its own symmetric scale, filling `scales` with one
/// scale per row.
///
/// Bit-identical to calling [`realm_tensor::quant::quantize_symmetric`] on each row in
/// isolation and stacking the results. Because a row's scale depends on that row alone,
/// the quantized codes are invariant to how rows are grouped into batches or prefill
/// chunks — the property the chunked-prefill parity contract (`tests/chunked_parity.rs`)
/// rests on. A single-row input degenerates to exactly the former per-tensor scale, so
/// the decode hot path is unchanged bit for bit.
pub fn quantize_symmetric_rows_into(x: &MatF32, q: &mut MatI8, scales: &mut Vec<f32>) {
    q.resize_reset(x.rows(), x.cols());
    scales.clear();
    scales.resize(x.rows(), 1.0);
    for (r, scale) in scales.iter_mut().enumerate() {
        let mut abs_max = 0.0f32;
        for &v in x.row(r) {
            abs_max = abs_max.max(v.abs());
        }
        let params = QuantParams::from_abs_max(abs_max);
        *scale = params.scale;
        for (qv, &v) in q.row_mut(r).iter_mut().zip(x.row(r)) {
            *qv = params.quantize(v);
        }
    }
}

/// Converts an INT32 accumulator back to f32 row by row, using `combined_scales[r]` for
/// row `r` (and, for [`OutputMode::RequantizedInt8`], a robust percentile-calibrated
/// output scale derived from that row's magnitudes alone).
///
/// The single-row counterpart of [`convert_accumulator_grouped_into`]: bit-identical to
/// converting each row's accumulator in isolation, so the conversion — like the per-row
/// quantization it pairs with — is invariant to batching and chunking.
///
/// # Panics
///
/// Panics if `combined_scales.len() != acc.rows()`.
pub fn convert_accumulator_rows_into(
    acc: &realm_tensor::MatI32,
    combined_scales: &[f32],
    mode: OutputMode,
    out: &mut MatF32,
    mags_scratch: &mut Vec<f32>,
) {
    assert_eq!(
        combined_scales.len(),
        acc.rows(),
        "one combined scale per accumulator row"
    );
    out.resize_reset(acc.rows(), acc.cols());
    for (r, &combined) in combined_scales.iter().enumerate() {
        convert_rows_into(acc, r..r + 1, combined, mode, out, mags_scratch);
    }
}

/// Quantizes each row group of `x` with its own symmetric per-group scale.
///
/// Bit-identical to calling [`realm_tensor::quant::quantize_symmetric`] on each group's rows
/// in isolation and stacking the results. The forward paths now quantize per *row*
/// ([`quantize_symmetric_rows_into`]); this grouped variant remains the oracle for
/// group-granular callers and tests. Empty groups get the neutral scale 1.0.
///
/// # Errors
///
/// Returns [`LlmError::InvalidSequence`] if `parts` does not cover exactly `x.rows()` rows.
pub fn quantize_symmetric_grouped(x: &MatF32, parts: &RowPartition) -> Result<(MatI8, Vec<f32>)> {
    let mut q = MatI8::zeros(0, 0);
    let mut scales = Vec::new();
    quantize_symmetric_grouped_into(x, parts, &mut q, &mut scales)?;
    Ok((q, scales))
}

/// [`quantize_symmetric_grouped`] into caller-provided storage (`q` and `scales` are
/// reshaped in place; output is bit-identical to the allocating path).
///
/// # Errors
///
/// Returns [`LlmError::InvalidSequence`] if `parts` does not cover exactly `x.rows()` rows.
pub fn quantize_symmetric_grouped_into(
    x: &MatF32,
    parts: &RowPartition,
    q: &mut MatI8,
    scales: &mut Vec<f32>,
) -> Result<()> {
    if parts.total_rows() != x.rows() {
        return Err(LlmError::InvalidSequence {
            detail: format!(
                "row partition covers {} rows but the stacked matrix has {}",
                parts.total_rows(),
                x.rows()
            ),
        });
    }
    q.resize_reset(x.rows(), x.cols());
    scales.clear();
    scales.resize(parts.num_groups(), 1.0);
    for (g, scale) in scales.iter_mut().enumerate() {
        let range = parts.range(g);
        if range.is_empty() {
            continue;
        }
        let mut abs_max = 0.0f32;
        for r in range.clone() {
            for &v in x.row(r) {
                abs_max = abs_max.max(v.abs());
            }
        }
        let params = QuantParams::from_abs_max(abs_max);
        *scale = params.scale;
        for r in range {
            for (qv, &v) in q.row_mut(r).iter_mut().zip(x.row(r)) {
                *qv = params.quantize(v);
            }
        }
    }
    Ok(())
}

/// Converts a batch-stacked INT32 accumulator back to f32 group by group.
///
/// Each group is converted with its own combined scale (and, for
/// [`OutputMode::RequantizedInt8`], its own robust percentile-calibrated output scale over
/// only that group's accumulator rows), so the result is bit-identical to converting each
/// sequence's accumulator in isolation.
///
/// # Errors
///
/// Returns [`LlmError::InvalidSequence`] if `parts` does not cover exactly `acc.rows()` rows
/// or `combined_scales` has the wrong length.
pub fn convert_accumulator_grouped(
    acc: &realm_tensor::MatI32,
    combined_scales: &[f32],
    mode: OutputMode,
    parts: &RowPartition,
) -> Result<MatF32> {
    let mut out = MatF32::zeros(0, 0);
    let mut mags = Vec::new();
    convert_accumulator_grouped_into(acc, combined_scales, mode, parts, &mut out, &mut mags)?;
    Ok(out)
}

/// [`convert_accumulator_grouped`] into caller-provided storage.
///
/// Each group's rows are converted directly into the matching rows of `out` (no
/// sub-matrix materialisation); `mags_scratch` holds the per-group robust-requantization
/// magnitudes, reused across groups. Output is bit-identical to the allocating path: the
/// per-group robust scale is derived from exactly the same magnitudes in the same
/// row-major order.
///
/// # Errors
///
/// Returns [`LlmError::InvalidSequence`] under the same conditions as
/// [`convert_accumulator_grouped`].
pub fn convert_accumulator_grouped_into(
    acc: &realm_tensor::MatI32,
    combined_scales: &[f32],
    mode: OutputMode,
    parts: &RowPartition,
    out: &mut MatF32,
    mags_scratch: &mut Vec<f32>,
) -> Result<()> {
    if parts.total_rows() != acc.rows() || combined_scales.len() != parts.num_groups() {
        return Err(LlmError::InvalidSequence {
            detail: format!(
                "row partition ({} rows, {} groups) inconsistent with accumulator ({} rows) \
                 or scales ({})",
                parts.total_rows(),
                parts.num_groups(),
                acc.rows(),
                combined_scales.len()
            ),
        });
    }
    out.resize_reset(acc.rows(), acc.cols());
    for (g, &combined) in combined_scales.iter().enumerate() {
        let range = parts.range(g);
        if range.is_empty() {
            continue;
        }
        convert_rows_into(acc, range, combined, mode, out, mags_scratch);
    }
    Ok(())
}

/// Converts the accumulator rows `range` into the same rows of `out` under `mode`.
///
/// For [`OutputMode::RequantizedInt8`] the INT8 output scale is derived from a *robust*
/// percentile of the accumulator magnitudes rather than the absolute maximum. This emulates
/// statically calibrated activation quantization: a single corrupted element cannot inflate
/// the scale, so it saturates at the ±127 rail instead — the mechanism behind the paper's
/// observation that high-bit errors on re-quantized components plateau. The path
/// rounds/clamps to the INT8 code and multiplies back by the output scale in one pass, so
/// every emitted row is `code · out_scale` with at least one code on the rail — which is
/// what lets the KV cache recover the codes exactly at append.
fn convert_rows_into(
    acc: &realm_tensor::MatI32,
    range: std::ops::Range<usize>,
    combined_scale: f32,
    mode: OutputMode,
    out: &mut MatF32,
    mags_scratch: &mut Vec<f32>,
) {
    match mode {
        OutputMode::Float => {
            for r in range {
                for (o, &v) in out.row_mut(r).iter_mut().zip(acc.row(r)) {
                    *o = v as f32 * combined_scale;
                }
            }
        }
        OutputMode::RequantizedInt8 => {
            let out_scale =
                robust_output_scale_rows(acc, range.clone(), combined_scale, mags_scratch);
            let out_scale = if out_scale > 0.0 && out_scale.is_finite() {
                out_scale
            } else {
                1.0
            };
            for r in range {
                for (o, &v) in out.row_mut(r).iter_mut().zip(acc.row(r)) {
                    let real = v as f32 * combined_scale;
                    let q = (real / out_scale).round().clamp(-127.0, 127.0) as i8;
                    *o = q as f32 * out_scale;
                }
            }
        }
    }
}

/// [`run_hooked_gemm_ws`] for the static-weight layers: routes through the engine's
/// `gemm_i8_packed*` entry points when packing is enabled, falling back to the unpacked
/// path (on [`PackedMatI8::unpacked`]) when it is not. When the layer is tensor-parallel
/// sharded, the GEMM instead runs on the group's persistent ranks and the merged result
/// lands in the same workspace-pooled destination. Hooks always observe the row-major
/// weights and the *merged* accumulator/checksums — sharding, like the packed tiles, is
/// an execution detail the detection and injection layers never see. Bit-identical on
/// every route.
#[allow(clippy::too_many_arguments)] // mirrors run_hooked_gemm_ws plus the routing switches
fn run_hooked_linear_gemm_ws(
    aq: &MatI8,
    weight: &PackedMatI8,
    tp: Option<&ShardedLinear>,
    use_packed: bool,
    engine: &dyn GemmEngine,
    ctx: &GemmContext,
    hook: &mut dyn GemmHook,
    ws: &mut Workspace,
) -> Result<realm_tensor::MatI32> {
    if hook.wants_checksums() {
        let acc = ws.take_mat_i32(aq.rows(), weight.cols());
        let expected = ws.take_vec_i64(weight.cols());
        let observed = ws.take_vec_i64(weight.cols());
        let mut result = ChecksummedGemm::from_parts(acc, expected, observed);
        let mut etw = ws.take_vec_i64(aq.cols());
        let ran = if let Some(tp) = tp {
            tp.gemm_checksummed_into(aq, use_packed, &mut result)
        } else if use_packed {
            engine.gemm_i8_packed_checksummed_into(aq, weight, &mut result, &mut etw)
        } else {
            engine.gemm_i8_checksummed_into(aq, weight.unpacked(), &mut result, &mut etw)
        };
        ws.recycle_vec_i64(etw);
        if let Err(e) = ran {
            let (acc, expected, observed) = result.into_parts();
            ws.recycle_mat_i32(acc);
            ws.recycle_vec_i64(expected);
            ws.recycle_vec_i64(observed);
            return Err(e.into());
        }
        hook.on_gemm_checksummed(ctx, aq, weight.unpacked(), &mut result);
        let (acc, expected, observed) = result.into_parts();
        ws.recycle_vec_i64(expected);
        ws.recycle_vec_i64(observed);
        Ok(acc)
    } else {
        let mut acc = ws.take_mat_i32(aq.rows(), weight.cols());
        let ran = if let Some(tp) = tp {
            tp.gemm_into(aq, use_packed, &mut acc)
        } else if use_packed {
            engine.gemm_i8_packed_into(aq, weight, &mut acc)
        } else {
            engine.gemm_i8_into(aq, weight.unpacked(), &mut acc)
        };
        if let Err(e) = ran {
            ws.recycle_mat_i32(acc);
            return Err(e.into());
        }
        hook.on_gemm(ctx, aq, weight.unpacked(), &mut acc);
        Ok(acc)
    }
}

/// Executes one quantized GEMM through the engine and hook, picking the fused-checksum pass
/// only when a hook in the chain will consume the checksums ([`GemmHook::wants_checksums`]).
/// Fault-free baselines, unprotected runs and injection-only campaigns therefore skip the
/// checksum reductions entirely.
///
/// This is the activation×activation path (attention's `QKᵀ` and `SV`): the operands are
/// the query/probability codes of the current chunk and the resident KV codes, which grow
/// every step, so there is nothing to pre-pack — packing here would itself re-stream the
/// operand per GEMM and would need hot-loop scratch, exactly what [`PackedMatI8`] exists
/// to avoid for static weights.
///
/// The accumulator, the checksum vectors of the fused pass and the operand-checksum
/// scratch all come from `ws`; the returned accumulator is workspace-pooled. This is the
/// innermost allocation-free step of the decode hot loop.
pub(crate) fn run_hooked_gemm_ws(
    wq: &MatI8,
    xq: &MatI8,
    engine: &dyn GemmEngine,
    ctx: &GemmContext,
    hook: &mut dyn GemmHook,
    ws: &mut Workspace,
) -> Result<realm_tensor::MatI32> {
    if hook.wants_checksums() {
        let acc = ws.take_mat_i32(wq.rows(), xq.cols());
        let expected = ws.take_vec_i64(xq.cols());
        let observed = ws.take_vec_i64(xq.cols());
        let mut result = ChecksummedGemm::from_parts(acc, expected, observed);
        let mut etw = ws.take_vec_i64(wq.cols());
        let ran = engine.gemm_i8_checksummed_into(wq, xq, &mut result, &mut etw);
        ws.recycle_vec_i64(etw);
        if let Err(e) = ran {
            let (acc, expected, observed) = result.into_parts();
            ws.recycle_mat_i32(acc);
            ws.recycle_vec_i64(expected);
            ws.recycle_vec_i64(observed);
            return Err(e.into());
        }
        hook.on_gemm_checksummed(ctx, wq, xq, &mut result);
        let (acc, expected, observed) = result.into_parts();
        ws.recycle_vec_i64(expected);
        ws.recycle_vec_i64(observed);
        Ok(acc)
    } else {
        let mut acc = ws.take_mat_i32(wq.rows(), xq.cols());
        if let Err(e) = engine.gemm_i8_into(wq, xq, &mut acc) {
            ws.recycle_mat_i32(acc);
            return Err(e.into());
        }
        hook.on_gemm(ctx, wq, xq, &mut acc);
        Ok(acc)
    }
}

/// The requantization-magnitude scratch a conversion of `acc` needs: one slot per element
/// for [`OutputMode::RequantizedInt8`], nothing for [`OutputMode::Float`].
fn mags_len(acc: &realm_tensor::MatI32, mode: OutputMode) -> usize {
    match mode {
        OutputMode::Float => 0,
        OutputMode::RequantizedInt8 => acc.len(),
    }
}

/// Derives an INT8 output scale from the 99th percentile of accumulator magnitudes (the
/// allocating oracle [`robust_output_scale_rows`] is tested against).
#[cfg(test)]
fn robust_output_scale(acc: &realm_tensor::MatI32, combined_scale: f32) -> f32 {
    robust_output_scale_rows(acc, 0..acc.rows(), combined_scale, &mut Vec::new())
}

/// [`robust_output_scale`] over the accumulator rows `range`, staging the magnitudes in
/// `mags_scratch` (the grouped requantization path calls this once per row group, reusing
/// one buffer).
fn robust_output_scale_rows(
    acc: &realm_tensor::MatI32,
    range: std::ops::Range<usize>,
    combined_scale: f32,
    mags_scratch: &mut Vec<f32>,
) -> f32 {
    mags_scratch.clear();
    for r in range {
        mags_scratch.extend(
            acc.row(r)
                .iter()
                .map(|&v| (v as f32 * combined_scale).abs()),
        );
    }
    if mags_scratch.is_empty() {
        return 1.0;
    }
    // Index of the 99th percentile over the *existing* elements (never the absolute maximum
    // for tensors with more than a handful of entries), so a lone corrupted element cannot
    // inflate the calibration scale.
    let idx = (((mags_scratch.len() - 1) as f32) * 0.99).floor() as usize;
    mags_scratch.select_nth_unstable_by(idx, |a, b| a.partial_cmp(b).expect("finite magnitudes"));
    let p99 = mags_scratch[idx];
    if p99 > 0.0 && p99.is_finite() {
        p99 / 127.0
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{Component, Stage};
    use crate::hooks::NoopHook;
    use realm_tensor::{gemm, MatI32, Matrix, ReferenceEngine};

    fn ctx() -> GemmContext {
        GemmContext::new(Component::Q, 0, Stage::Prefill, 0)
    }

    #[test]
    fn quant_linear_matches_f32_reference_within_quant_error() {
        let w = MatF32::from_fn(16, 8, |r, c| ((r + 2 * c) % 7) as f32 * 0.1 - 0.3);
        let layer = QuantLinear::from_f32(&w, OutputMode::Float);
        let x = MatF32::from_fn(4, 16, |r, c| ((r * 16 + c) % 11) as f32 * 0.2 - 1.0);
        let y = layer
            .forward(&x, &ReferenceEngine, &ctx(), &mut NoopHook)
            .unwrap();
        let reference = gemm::gemm_f32(&x, &w).unwrap();
        // Quantization error per output element is bounded; check a loose relative bound.
        let denom = reference.abs_max().max(1e-6);
        assert!(y.distance(&reference).unwrap() / denom < 0.5);
        assert_eq!(layer.in_features(), 16);
        assert_eq!(layer.out_features(), 8);
    }

    #[test]
    fn forward_rejects_wrong_input_width() {
        let layer = QuantLinear::from_f32(&MatF32::zeros(4, 4), OutputMode::Float);
        let x = MatF32::zeros(2, 5);
        assert!(layer
            .forward(&x, &ReferenceEngine, &ctx(), &mut NoopHook)
            .is_err());
    }

    #[test]
    fn hook_mutation_is_visible_in_output() {
        struct Spike;
        impl GemmHook for Spike {
            fn on_gemm(&mut self, _: &GemmContext, _: &MatI8, _: &MatI8, acc: &mut MatI32) {
                let v = acc[(0, 0)];
                acc[(0, 0)] = v ^ (1 << 20);
            }
        }
        let w = MatF32::from_fn(8, 8, |r, c| if r == c { 1.0 } else { 0.0 });
        let layer = QuantLinear::from_f32(&w, OutputMode::Float);
        let x = MatF32::filled(1, 8, 1.0);
        let clean = layer
            .forward(&x, &ReferenceEngine, &ctx(), &mut NoopHook)
            .unwrap();
        let faulty = layer
            .forward(&x, &ReferenceEngine, &ctx(), &mut Spike)
            .unwrap();
        assert!((faulty[(0, 0)] - clean[(0, 0)]).abs() > 1.0);
        assert_eq!(faulty[(0, 1)], clean[(0, 1)]);
    }

    #[test]
    fn requantized_mode_saturates_corrupted_elements() {
        struct HighBitFlip;
        impl GemmHook for HighBitFlip {
            fn on_gemm(&mut self, _: &GemmContext, _: &MatI8, _: &MatI8, acc: &mut MatI32) {
                let v = acc[(0, 0)];
                acc[(0, 0)] = v ^ (1 << 30);
            }
        }
        let w = MatF32::from_fn(8, 8, |r, c| ((r + c) % 5) as f32 * 0.1);
        let x = MatF32::from_fn(2, 8, |r, c| (r + c) as f32 * 0.3);

        let float_layer = QuantLinear::from_f32(&w, OutputMode::Float);
        let req_layer = QuantLinear::from_f32(&w, OutputMode::RequantizedInt8);

        let float_clean = float_layer
            .forward(&x, &ReferenceEngine, &ctx(), &mut NoopHook)
            .unwrap();
        let float_faulty = float_layer
            .forward(&x, &ReferenceEngine, &ctx(), &mut HighBitFlip)
            .unwrap();
        let req_clean = req_layer
            .forward(&x, &ReferenceEngine, &ctx(), &mut NoopHook)
            .unwrap();
        let req_faulty = req_layer
            .forward(&x, &ReferenceEngine, &ctx(), &mut HighBitFlip)
            .unwrap();

        let float_err = (float_faulty[(0, 0)] - float_clean[(0, 0)]).abs();
        let req_err = (req_faulty[(0, 0)] - req_clean[(0, 0)]).abs();
        // Re-quantization clips the corrupted element to the INT8 rail, so its error is
        // orders of magnitude smaller than on the floating-point path.
        assert!(
            req_err < float_err / 100.0,
            "requantized error {req_err} should be far below float error {float_err}"
        );
    }

    #[test]
    fn robust_scale_ignores_single_outlier() {
        let mut acc = MatI32::filled(10, 10, 100);
        let clean_scale = robust_output_scale(&acc, 1.0);
        acc[(0, 0)] = 1 << 30;
        let corrupted_scale = robust_output_scale(&acc, 1.0);
        assert!((corrupted_scale - clean_scale).abs() / clean_scale < 0.05);
    }

    #[test]
    fn grouped_quantization_matches_per_group_quantization() {
        let x = MatF32::from_fn(7, 5, |r, c| (r as f32 - 3.0) * 0.7 + (c as f32) * 1.3);
        let parts = RowPartition::from_lens(&[3, 0, 4]);
        let (q, scales) = quantize_symmetric_grouped(&x, &parts).unwrap();
        for (g, (start, len)) in [(0usize, (0usize, 3usize)), (2, (3, 4))] {
            let sub = x.rows_slice(start, len).unwrap();
            let (q_ref, scale_ref) = quant::quantize_symmetric(&sub);
            assert_eq!(scales[g], scale_ref);
            assert_eq!(q.rows_slice(start, len).unwrap(), q_ref);
        }
        assert_eq!(scales[1], 1.0, "empty group keeps the neutral scale");
        assert!(quantize_symmetric_grouped(&x, &RowPartition::single(6)).is_err());
    }

    #[test]
    fn batched_forward_is_bit_exact_with_per_group_forward() {
        let w = MatF32::from_fn(6, 4, |r, c| ((r * 3 + c) % 7) as f32 * 0.2 - 0.5);
        for mode in [OutputMode::Float, OutputMode::RequantizedInt8] {
            let layer = QuantLinear::from_f32(&w, mode);
            // Row groups with deliberately different magnitudes so per-tensor quantization
            // of the stack would diverge from the per-group scales.
            let x = MatF32::from_fn(5, 6, |r, c| {
                let gain = if r < 2 { 10.0 } else { 0.3 };
                gain * ((r * 6 + c) % 9) as f32 - gain
            });
            let parts = RowPartition::from_lens(&[2, 3]);
            let batched = layer
                .forward_batched(&x, &parts, &ReferenceEngine, &ctx(), &mut NoopHook)
                .unwrap();
            for (start, len) in [(0, 2), (2, 3)] {
                let solo = layer
                    .forward(
                        &x.rows_slice(start, len).unwrap(),
                        &ReferenceEngine,
                        &ctx(),
                        &mut NoopHook,
                    )
                    .unwrap();
                assert_eq!(
                    batched.rows_slice(start, len).unwrap(),
                    solo,
                    "{mode:?} rows {start}..{}",
                    start + len
                );
            }
        }
    }

    #[test]
    fn forward_rows_are_invariant_to_row_chunking() {
        let w = MatF32::from_fn(6, 4, |r, c| ((r * 3 + c) % 7) as f32 * 0.2 - 0.5);
        for mode in [OutputMode::Float, OutputMode::RequantizedInt8] {
            let layer = QuantLinear::from_f32(&w, mode);
            let x = MatF32::from_fn(5, 6, |r, c| {
                let gain = if r < 2 { 10.0 } else { 0.3 };
                gain * ((r * 6 + c) % 9) as f32 - gain
            });
            let full = layer
                .forward(&x, &ReferenceEngine, &ctx(), &mut NoopHook)
                .unwrap();
            for split in 1..x.rows() {
                let head = layer
                    .forward(
                        &x.rows_slice(0, split).unwrap(),
                        &ReferenceEngine,
                        &ctx(),
                        &mut NoopHook,
                    )
                    .unwrap();
                let tail = layer
                    .forward(
                        &x.rows_slice(split, x.rows() - split).unwrap(),
                        &ReferenceEngine,
                        &ctx(),
                        &mut NoopHook,
                    )
                    .unwrap();
                assert_eq!(full.rows_slice(0, split).unwrap(), head, "{mode:?}");
                assert_eq!(
                    full.rows_slice(split, x.rows() - split).unwrap(),
                    tail,
                    "{mode:?} split {split}"
                );
            }
        }
    }

    #[test]
    fn convert_accumulator_zero_matrix() {
        let acc = Matrix::zeros(2, 2);
        let mut y = MatF32::zeros(0, 0);
        let mode = OutputMode::RequantizedInt8;
        convert_accumulator_rows_into(&acc, &[0.5, 0.5], mode, &mut y, &mut Vec::new());
        assert_eq!(y.shape(), (2, 2));
        assert!(y.iter().all(|&v| v == 0.0));
    }
}
