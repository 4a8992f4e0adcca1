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
//!
//! # The envelope
//!
//! Around the GEMM sit two per-row passes, both built from [`RowKernels`] — the tiered SIMD
//! row kernels of `realm-tensor`, which hold the workspace's one definition of INT8
//! rounding:
//!
//! * **in** — [`quantize_symmetric_rows_into`]: abs-max, then quantize, one scale per row.
//!   A [`QuantizedInput`] carries the result, so an activation that feeds several
//!   projections (`Q`/`K`/`V`, `Gate`/`Up`) is quantized once and handed to each
//!   [`QuantLinear::forward_quantized`]; [`QuantLinear::forward`] is the one-consumer form.
//! * **out** — [`convert_accumulator_rows_into`]: de-quantize, or pick the row's robust
//!   (99th-percentile) output scale by integer selection and re-quantize. The selection is
//!   [`RowKernels::kth_largest_magnitude`], a lane-wise top-k network on the AVX2 tier: the
//!   `Q`/`K`/`V` rows carry outlier channels, which a stream that branches on "beats the
//!   running k-th largest" pays for on most loads.
//!
//! Both are functions of a row alone, which is what makes batching and chunked prefill
//! pure amortisations. The other f32 passes around the GEMMs are row kernels too: the
//! norms' statistics ([`RowKernels::row_sums`], eight rows per vector) and attention's
//! probability codes ([`RowKernels::probability_codes`]).

use crate::component::{Component, Stage};
use crate::hooks::{GemmContext, GemmHook};
use crate::Result;
use realm_tensor::{
    quant, ChecksummedGemm, GemmEngine, MatF32, MatI32, MatI8, PackedMatI8, QuantParams,
    RowKernels, Workspace,
};

/// What every layer of one forward pass shares: the inference stage, the backend, the hook,
/// the workspace every intermediate is drawn from, and the pass-wide GEMM counter.
///
/// The model creates one per forward and threads it through every block; each hooked GEMM
/// takes its [`GemmContext`] from [`ForwardPass::next_ctx`], so GEMM indices are assigned in
/// execution order by construction.
pub struct ForwardPass<'a> {
    stage: Stage,
    gemms: usize,
    /// The GEMM backend.
    pub engine: &'a dyn GemmEngine,
    /// The hook observing (and possibly mutating) every accumulator: one hook, or a stack of
    /// them as an `(A, B)` pair, nested for a third (see [`crate::hooks`]).
    pub hook: &'a mut dyn GemmHook,
    /// The pool every intermediate is checked out of; matrices the layers return are
    /// pooled here too — recycle them once consumed.
    pub ws: &'a mut Workspace,
}

impl<'a> ForwardPass<'a> {
    /// Starts a pass at GEMM index 0.
    pub fn new(
        stage: Stage,
        engine: &'a dyn GemmEngine,
        hook: &'a mut dyn GemmHook,
        ws: &'a mut Workspace,
    ) -> Self {
        Self {
            stage,
            gemms: 0,
            engine,
            hook,
            ws,
        }
    }

    /// The context of the pass's next GEMM, advancing the counter. It is tagged
    /// [`GemmOrigin::BatchedRows`](crate::GemmOrigin::BatchedRows): the shared GEMMs
    /// (`Q`/`K`/`V`/`O` and the MLP) read every row of the pass, and the per-sequence
    /// attention GEMMs retag it with [`GemmContext::for_sequence`].
    pub fn next_ctx(&mut self, component: Component, layer: usize) -> GemmContext {
        let ctx = GemmContext::new(component, layer, self.stage, self.gemms).batched();
        self.gemms += 1;
        ctx
    }
}

/// How a quantized GEMM's INT32 accumulator is converted back for downstream computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
/// hit the packed kernels without touching the allocator. The pack keeps the row-major
/// weights too ([`PackedMatI8::unpacked`]): hooks observe them, and the engines that don't
/// override the packed entry points multiply with them.
///
/// A layer knows nothing of shards: a shard is a column stripe of its output, which only
/// the hooks see (`realm_inject`'s shard faults, a protector's shard attribution).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantLinear {
    weight: PackedMatI8,
    weight_scale: f32,
    output_mode: OutputMode,
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
        }
    }

    /// Computes `x · W` as `component` of `layer` through the quantized INT8 → INT32
    /// datapath of the pass's engine: [`QuantizedInput::quantize`], then
    /// [`QuantLinear::forward_quantized`].
    ///
    /// `x` has shape `(rows, in_features)`; the result has shape `(rows, out_features)` and
    /// is workspace-pooled — recycle it once consumed.
    ///
    /// # Errors
    ///
    /// Returns an error if `x.cols()` is not the layer's input dimension.
    pub fn forward(
        &self,
        x: &MatF32,
        component: Component,
        layer: usize,
        pass: &mut ForwardPass<'_>,
    ) -> Result<MatF32> {
        let input = QuantizedInput::quantize(x, pass.ws);
        let out = self.forward_quantized(&input, component, layer, pass);
        input.recycle(pass.ws);
        out
    }

    /// Computes `x · W` from an already quantized `x` — what layers that feed one
    /// activation to several projections (`Q`/`K`/`V`, `Gate`/`Up`) call directly, so the
    /// shared input is quantized once. The result is workspace-pooled.
    ///
    /// Every row of `x` was quantized with its *own* symmetric scale and is converted back
    /// with it (including the per-row robust requantization scale), so a row's output
    /// depends on that row alone: stacking the rows of a whole batch, or cutting a prompt
    /// into prefill chunks, shares one (optionally fused-checksum) GEMM — where checksum
    /// and detection cost amortise — without changing a single number.
    ///
    /// When a hook in the stack consumes checksums ([`GemmHook::wants_checksums`]) the GEMM
    /// runs through the engine's fused-checksum pass and the hook observes (and may mutate)
    /// the checksummed INT32 accumulator before conversion; otherwise the plain GEMM runs
    /// and the checksum reductions are skipped entirely.
    ///
    /// # Errors
    ///
    /// Returns an error if the input's width is not the layer's input dimension.
    pub fn forward_quantized(
        &self,
        input: &QuantizedInput,
        component: Component,
        layer: usize,
        pass: &mut ForwardPass<'_>,
    ) -> Result<MatF32> {
        let ctx = pass.next_ctx(component, layer);
        let rhs = Rhs::Weight(&self.weight);
        let acc = run_hooked_gemm(&input.codes, rhs, &ctx, pass)?;
        let ws = &mut *pass.ws;
        let mut combined = ws.take_vec_f32(input.scales.len());
        for (c, &s) in combined.iter_mut().zip(&input.scales) {
            *c = s * self.weight_scale;
        }
        let mut out = ws.take_mat_f32(acc.rows(), acc.cols());
        convert_accumulator_rows_into(&acc, &combined, self.output_mode, &mut out, &mut Vec::new());
        ws.recycle_vec_f32(combined);
        ws.recycle_mat_i32(acc);
        Ok(out)
    }
}

/// An activation matrix quantized row by row for the INT8 GEMMs: the codes and one scale
/// per row, both checked out of the pass's workspace.
///
/// It exists so that an input shared by several projections is quantized once:
/// [`QuantizedInput::quantize`] it, hand it to each [`QuantLinear::forward_quantized`],
/// then [`QuantizedInput::recycle`] it — on the error paths too.
#[derive(Debug)]
pub struct QuantizedInput {
    codes: MatI8,
    scales: Vec<f32>,
}

impl QuantizedInput {
    /// Quantizes `x` with [`quantize_symmetric_rows_into`] into buffers taken from `ws`.
    pub fn quantize(x: &MatF32, ws: &mut Workspace) -> Self {
        let mut codes = ws.take_mat_i8(x.rows(), x.cols());
        let mut scales = ws.take_vec_f32(x.rows());
        quantize_symmetric_rows_into(x, &mut codes, &mut scales);
        Self { codes, scales }
    }

    /// Returns both buffers to `ws`.
    pub fn recycle(self, ws: &mut Workspace) {
        ws.recycle_mat_i8(self.codes);
        ws.recycle_vec_f32(self.scales);
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
    let kernels = RowKernels::granted();
    q.resize_overwrite(x.rows(), x.cols());
    scales.clear();
    for r in 0..x.rows() {
        let row = x.row(r);
        let scale = QuantParams::from_abs_max(kernels.abs_max(row)).scale;
        kernels.quantize_row(row, scale, q.row_mut(r));
        scales.push(scale);
    }
}

/// Converts an INT32 accumulator back to f32 row by row, using `combined_scales[r]` for
/// row `r` (and, for [`OutputMode::RequantizedInt8`], a robust percentile-calibrated
/// output scale derived from that row's magnitudes alone).
///
/// Bit-identical to converting each row's accumulator in isolation, so the conversion —
/// like the per-row quantization it pairs with — is invariant to batching and chunking.
///
/// `_mags_scratch` is unused: the percentile is selected on the integers in place
/// ([`RowKernels::kth_largest_magnitude`]). The parameter stays because the repo benchmark,
/// which a change may not edit, calls this signature.
///
/// # Panics
///
/// Panics if `combined_scales.len() != acc.rows()`.
pub fn convert_accumulator_rows_into(
    acc: &MatI32,
    combined_scales: &[f32],
    mode: OutputMode,
    out: &mut MatF32,
    _mags_scratch: &mut Vec<f32>,
) {
    assert_eq!(
        combined_scales.len(),
        acc.rows(),
        "one combined scale per accumulator row"
    );
    let kernels = RowKernels::granted();
    out.resize_overwrite(acc.rows(), acc.cols());
    for (r, &combined) in combined_scales.iter().enumerate() {
        let (acc, out) = (acc.row(r), out.row_mut(r));
        match mode {
            OutputMode::Float => kernels.dequantize_row(acc, combined, out),
            OutputMode::RequantizedInt8 => {
                let out_scale = robust_output_scale(acc, combined);
                kernels.requantize_row(acc, combined, out_scale, out);
            }
        }
    }
}

/// The right operand of a hooked GEMM, which decides the engine entry point it runs on.
pub(crate) enum Rhs<'a> {
    /// A layer's static weights: the engine's `gemm_i8_packed*` entry points over the
    /// resident tiles.
    Weight(&'a PackedMatI8),
    /// Another activation (attention's `QKᵀ` and `SV`): the query/probability codes of the
    /// current chunk against the resident KV codes, which grow every step, so nothing is
    /// pre-packed here and hooks see the row-major operand. The engine's row-major entry
    /// points take it as it is: on the AMX tier a GEMM past the crossover (a prefill chunk's)
    /// packs the operand's B tiles inside the kernel, into stack scratch, and smaller ones
    /// (decode's one-row GEMMs) run the AVX2 tile on it directly.
    Activation(&'a MatI8),
}

impl<'a> Rhs<'a> {
    /// The operand as hooks see it: dense and row-major.
    fn row_major(&self) -> &'a MatI8 {
        match self {
            Rhs::Weight(weight) => weight.unpacked(),
            Rhs::Activation(b) => b,
        }
    }
}

/// The destination of hooked GEMMs — everything [`run_hooked_gemm_into`] writes — in the
/// form the pass's hook asks for ([`GemmHook::wants_checksums`]).
///
/// One is checked out of the pass's workspace per GEMM by [`run_hooked_gemm`], or once for a
/// whole run of GEMMs by a caller that issues many small ones (attention: two per sequence
/// and head); every GEMM reshapes it in place.
pub(crate) enum HookedGemmScratch {
    /// No hook consumes checksums: the plain GEMM's accumulator.
    Plain(MatI32),
    /// The fused-checksum pass's bundle and its operand-checksum (`eᵀ·W`) scratch.
    Checksummed(ChecksummedGemm, Vec<i64>),
}

impl HookedGemmScratch {
    /// Checks out storage for GEMMs of up to `rows × depth · depth × cols`.
    pub(crate) fn take(
        ws: &mut Workspace,
        (rows, depth, cols): (usize, usize, usize),
        checksummed: bool,
    ) -> Self {
        let acc = ws.take_mat_i32(rows, cols);
        if !checksummed {
            return Self::Plain(acc);
        }
        let (expected, observed) = (ws.take_vec_i64(cols), ws.take_vec_i64(cols));
        let result = ChecksummedGemm::from_parts(acc, expected, observed);
        Self::Checksummed(result, ws.take_vec_i64(depth))
    }

    /// The accumulator of the last GEMM run into this scratch, as the hooks left it.
    pub(crate) fn acc(&self) -> &MatI32 {
        match self {
            Self::Plain(acc) => acc,
            Self::Checksummed(result, _) => result.acc(),
        }
    }

    /// Returns everything but the accumulator to `ws`.
    pub(crate) fn into_acc(self, ws: &mut Workspace) -> MatI32 {
        match self {
            Self::Plain(acc) => acc,
            Self::Checksummed(result, etw) => {
                let (acc, expected, observed) = result.into_parts();
                ws.recycle_vec_i64(expected);
                ws.recycle_vec_i64(observed);
                ws.recycle_vec_i64(etw);
                acc
            }
        }
    }

    /// Returns every buffer to `ws`.
    pub(crate) fn recycle(self, ws: &mut Workspace) {
        let acc = self.into_acc(ws);
        ws.recycle_mat_i32(acc);
    }
}

/// Executes one quantized GEMM `a · rhs` through the pass's engine and hook into a
/// workspace-pooled accumulator: [`run_hooked_gemm_into`] on a [`HookedGemmScratch`] checked
/// out for this GEMM alone — what the linears call.
pub(crate) fn run_hooked_gemm(
    a: &MatI8,
    rhs: Rhs<'_>,
    ctx: &GemmContext,
    pass: &mut ForwardPass<'_>,
) -> Result<MatI32> {
    let shape = (a.rows(), a.cols(), rhs.row_major().cols());
    let mut scratch = HookedGemmScratch::take(pass.ws, shape, pass.hook.wants_checksums());
    let ran = run_hooked_gemm_into(a, rhs, ctx, pass, &mut scratch);
    let acc = scratch.into_acc(pass.ws);
    match ran {
        Ok(()) => Ok(acc),
        Err(e) => {
            pass.ws.recycle_mat_i32(acc);
            Err(e)
        }
    }
}

/// Executes one quantized GEMM `a · rhs` through the pass's engine and hook into `scratch`,
/// on the fused-checksum pass only when `scratch` was taken for it, i.e. when a hook in the
/// stack will consume the checksums ([`GemmHook::wants_checksums`]). Fault-free baselines,
/// unprotected runs and injection-only campaigns therefore skip the checksum reductions
/// entirely. The only place hooks are invoked.
///
/// Hooks always observe the row-major right operand and the accumulator and checksums as
/// the engine delivered them: the packed tiles are an execution detail the detection and
/// injection layers never see. Bit-identical on every route.
///
/// Nothing is allocated as long as `scratch` was taken at least as large as the GEMM: this
/// is the innermost step of the decode hot loop.
pub(crate) fn run_hooked_gemm_into(
    a: &MatI8,
    rhs: Rhs<'_>,
    ctx: &GemmContext,
    pass: &mut ForwardPass<'_>,
    scratch: &mut HookedGemmScratch,
) -> Result<()> {
    let (engine, hook) = (pass.engine, &mut *pass.hook);
    let b = rhs.row_major();
    match scratch {
        HookedGemmScratch::Plain(acc) => {
            match rhs {
                Rhs::Weight(weight) => engine.gemm_i8_packed_into(a, weight, acc)?,
                Rhs::Activation(b) => engine.gemm_i8_into(a, b, acc)?,
            }
            hook.on_gemm(ctx, a, b, acc);
        }
        HookedGemmScratch::Checksummed(result, etw) => {
            match rhs {
                Rhs::Weight(weight) => {
                    engine.gemm_i8_packed_checksummed_into(a, weight, result, etw)?
                }
                Rhs::Activation(b) => engine.gemm_i8_checksummed_into(a, b, result, etw)?,
            }
            hook.on_gemm_checksummed(ctx, a, b, result);
        }
    }
    Ok(())
}

/// Derives the INT8 output scale of one [`OutputMode::RequantizedInt8`] row from the 99th
/// percentile of its magnitudes `|acc[i] as f32 · combined_scale|`; degenerate inputs take
/// the neutral scale 1.0.
///
/// The scale is *robust* rather than the absolute maximum. This emulates statically
/// calibrated activation quantization: a single corrupted element cannot inflate the scale,
/// so it saturates at the ±127 rail instead — the mechanism behind the paper's observation
/// that high-bit errors on re-quantized components plateau. Everything at or above the
/// percentile saturates too, so every emitted row is `code · out_scale` with at least one
/// code on the rail — which is what lets the KV cache recover the codes exactly at append.
///
/// The percentile is an order statistic, and `v ↦ |v as f32 · combined_scale|` is monotone
/// non-decreasing in `|v|`, so the `idx`-th smallest magnitude is that expression applied to
/// the `idx`-th smallest `|v|`: the selection runs on the integers, and only the selected
/// one is converted — bit-identical to selecting among the converted magnitudes.
fn robust_output_scale(acc: &[i32], combined_scale: f32) -> f32 {
    if acc.is_empty() {
        return 1.0;
    }
    // Index of the 99th percentile over the *existing* elements (never the absolute maximum
    // for tensors with more than a handful of entries), so a lone corrupted element cannot
    // inflate the calibration scale.
    let idx = (((acc.len() - 1) as f32) * 0.99).floor() as usize;
    let selected = RowKernels::granted().kth_largest_magnitude(acc, acc.len() - idx);
    let scale = (selected as f32 * combined_scale).abs() / 127.0;
    if scale > 0.0 && scale.is_finite() {
        scale
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NoopHook;
    use realm_tensor::{gemm, Matrix, ReferenceEngine};

    /// `layer · x` as component `Q` of a fresh prefill pass on the oracle backend.
    fn forward(layer: &QuantLinear, x: &MatF32, hook: &mut dyn GemmHook) -> Result<MatF32> {
        let mut ws = Workspace::new();
        let mut pass = ForwardPass::new(Stage::Prefill, &ReferenceEngine, hook, &mut ws);
        layer.forward(x, Component::Q, 0, &mut pass)
    }

    #[test]
    fn quant_linear_matches_f32_reference_within_quant_error() {
        let w = MatF32::from_fn(16, 8, |r, c| ((r + 2 * c) % 7) as f32 * 0.1 - 0.3);
        let layer = QuantLinear::from_f32(&w, OutputMode::Float);
        let x = MatF32::from_fn(4, 16, |r, c| ((r * 16 + c) % 11) as f32 * 0.2 - 1.0);
        let y = forward(&layer, &x, &mut NoopHook).unwrap();
        let reference = gemm::gemm_f32(&x, &w).unwrap();
        // Quantization error per output element is bounded; check a loose relative bound.
        let denom = reference.abs_max().max(1e-6);
        assert!(y.distance(&reference).unwrap() / denom < 0.5);
        assert_eq!(y.shape(), (4, 8));
    }

    #[test]
    fn forward_rejects_wrong_input_width() {
        let layer = QuantLinear::from_f32(&MatF32::zeros(4, 4), OutputMode::Float);
        assert!(forward(&layer, &MatF32::zeros(2, 5), &mut NoopHook).is_err());
    }

    #[test]
    fn pass_numbers_gemms_in_order_and_tags_them_batched_rows() {
        let layer = QuantLinear::from_f32(&MatF32::zeros(4, 4), OutputMode::Float);
        let x = MatF32::zeros(2, 4);
        let (mut rec, mut ws) = (crate::hooks::RecordingHook::new(), Workspace::new());
        let mut pass = ForwardPass::new(Stage::Decode, &ReferenceEngine, &mut rec, &mut ws);
        for component in [Component::Q, Component::O] {
            let y = layer.forward(&x, component, 3, &mut pass).unwrap();
            pass.ws.recycle_mat_f32(y);
        }
        assert_eq!(ws.outstanding_buffers(), 0, "every checkout was recycled");
        let expected = |component, sequence| GemmContext {
            component,
            layer: 3,
            stage: Stage::Decode,
            sequence,
            origin: crate::GemmOrigin::BatchedRows,
        };
        assert_eq!(
            rec.calls,
            [expected(Component::Q, 0), expected(Component::O, 1)]
        );
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
        let clean = forward(&layer, &x, &mut NoopHook).unwrap();
        let faulty = forward(&layer, &x, &mut Spike).unwrap();
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

        let float_clean = forward(&float_layer, &x, &mut NoopHook).unwrap();
        let float_faulty = forward(&float_layer, &x, &mut HighBitFlip).unwrap();
        let req_clean = forward(&req_layer, &x, &mut NoopHook).unwrap();
        let req_faulty = forward(&req_layer, &x, &mut HighBitFlip).unwrap();

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
        let mut acc = [100i32; 100];
        let clean_scale = robust_output_scale(&acc, 1.0);
        acc[0] = 1 << 30;
        let corrupted_scale = robust_output_scale(&acc, 1.0);
        assert!((corrupted_scale - clean_scale).abs() / clean_scale < 0.05);
    }

    /// The selection this module replaced: stage every magnitude as f32, then order them.
    fn staged_f32_output_scale(acc: &[i32], combined_scale: f32) -> f32 {
        let mut mags: Vec<f32> = acc
            .iter()
            .map(|&v| (v as f32 * combined_scale).abs())
            .collect();
        if mags.is_empty() {
            return 1.0;
        }
        let idx = (((mags.len() - 1) as f32) * 0.99).floor() as usize;
        mags.sort_by(f32::total_cmp);
        let scale = mags[idx] / 127.0;
        if scale > 0.0 && scale.is_finite() {
            scale
        } else {
            1.0
        }
    }

    #[test]
    fn integer_percentile_selects_the_scale_the_f32_staging_did() {
        use rand::Rng;
        let mut r = realm_tensor::rng::seeded(99);
        // The widths in use, the percentile index's small-n corner cases, and a row wide
        // enough to leave the streaming selection (k = 42 at n = 4096). The tiers of the
        // selection itself are compared in `realm_tensor::row_kernels`.
        for len in [0usize, 1, 2, 3, 100, 101, 160, 448, 641, 4096] {
            for (case, combined) in [1.0f32, 3.1e-5, 7.7e-4, 0.0].into_iter().enumerate() {
                let mut acc: Vec<i32> = (0..len).map(|_| r.gen_range(-90_000..90_000)).collect();
                match case {
                    // One high-bit fault; a row of ties; the extreme accumulators.
                    1 if len > 0 => acc[len / 2] = 1 << 30,
                    2 => acc.iter_mut().for_each(|v| *v = (*v % 3) * 1000),
                    3 if len > 1 => (acc[0], acc[1]) = (i32::MIN, i32::MAX),
                    _ => {}
                }
                assert_eq!(
                    robust_output_scale(&acc, combined).to_bits(),
                    staged_f32_output_scale(&acc, combined).to_bits(),
                    "n {len} case {case}"
                );
            }
        }
    }

    #[test]
    fn forward_rows_are_invariant_to_row_chunking() {
        // Every row is quantized and converted with its own scales, so stacking rows of
        // deliberately different magnitudes — a batch, or a prefill chunk — changes no row.
        let w = MatF32::from_fn(6, 4, |r, c| ((r * 3 + c) % 7) as f32 * 0.2 - 0.5);
        for mode in [OutputMode::Float, OutputMode::RequantizedInt8] {
            let layer = QuantLinear::from_f32(&w, mode);
            let x = MatF32::from_fn(5, 6, |r, c| {
                let gain = if r < 2 { 10.0 } else { 0.3 };
                gain * ((r * 6 + c) % 9) as f32 - gain
            });
            let full = forward(&layer, &x, &mut NoopHook).unwrap();
            for split in 1..x.rows() {
                let tail_rows = x.rows() - split;
                let head = x.rows_slice(0, split).unwrap();
                let tail = x.rows_slice(split, tail_rows).unwrap();
                assert_eq!(
                    full.rows_slice(0, split).unwrap(),
                    forward(&layer, &head, &mut NoopHook).unwrap(),
                    "{mode:?} split {split}"
                );
                assert_eq!(
                    full.rows_slice(split, tail_rows).unwrap(),
                    forward(&layer, &tail, &mut NoopHook).unwrap(),
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
