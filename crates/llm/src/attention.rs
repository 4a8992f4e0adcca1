//! Multi-head self-attention with KV cache, built entirely from quantized GEMMs.
//!
//! The attention path contributes six of the paper's network components: the `Q`, `K`, `V`
//! projections, the score GEMM `QKᵀ`, the context GEMM `SV`, and the output projection `O`.
//! `Q`/`K`/`V` outputs are re-quantized to INT8 (they feed further quantized GEMMs), while the
//! score and context GEMMs return floating point; `O` feeds the residual stream and the next
//! normalization, which is why the paper finds it to be the most sensitive attention
//! component.
//!
//! # One core, whole-tile GEMMs
//!
//! There is one forward: the [`KvTarget`] says whether the rows belong to one sequence or
//! to the slots of a batch, and every sequence with rows runs the same per-sequence core
//! (`MultiHeadAttention::attend`). For a sequence whose cache holds `T` rows after appending this chunk's `n` new ones, each
//! head runs exactly **one** score GEMM `Qc (n × d) · Kcᵀ (d × T)` and **one** context GEMM
//! `P'c (n × T) · Vc (T × d)` — the whole tiles the paper's systolic array executes (Fig. 4)
//! — directly on the INT8 codes the `Q`/`K`/`V` requantizers produced:
//!
//! ```text
//! score[i][t] = acc[i][t] · q_scale[i]/√d · k_scale[t]     t ≤ prior + i, else masked
//! P[i][·]     = softmax over the visible prefix            masked cells: probability 0
//! P'[i][t]    = P[i][t] · v_scale[t]  → codes, one abs-max scale p_scale[i] per query row
//! ctx[i][c]   = acc'[i][c] · p_scale[i]
//! ```
//!
//! Every scale is per token row (`k_scale`, `v_scale`) or per query row (`q_scale`,
//! `p_scale`, and a masked cell contributes an exact zero to its row's abs-max), and the
//! integer dot products are exact functions of the stored codes, so a query row's output
//! depends on its own position and the rows before it — never on how the prompt was cut
//! into chunks or which batch neighbours it rode with. The hooked `QKᵀ` GEMM is the full
//! rectangle; the causal mask is applied to the accumulator afterwards, so a fault landing
//! in a masked cell is detected by the checksum but cannot reach the output.

use crate::activation::softmax_in_place;
use crate::component::Component;
use crate::config::ModelConfig;
use crate::kv_cache::KvTarget;
use crate::quantized::{
    quantize_symmetric_rows_into, run_hooked_gemm_into, ForwardPass, HookedGemmScratch, OutputMode,
    QuantLinear, QuantizedInput, Rhs,
};
use crate::weights;
use crate::Result;
use realm_tensor::rng::SeededRng;
use realm_tensor::{MatF32, QuantParams, RowKernels};

/// Multi-head self-attention for a single Transformer layer.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    wq: QuantLinear,
    wk: QuantLinear,
    wv: QuantLinear,
    wo: QuantLinear,
    num_heads: usize,
    head_dim: usize,
}

impl MultiHeadAttention {
    /// Creates an attention layer with synthetic weights drawn from `rng`.
    pub fn new(config: &ModelConfig, rng: &mut SeededRng) -> Self {
        let h = config.hidden_size;
        let make = |rng: &mut SeededRng, mode| {
            QuantLinear::from_f32(&weights::projection(rng, h, h), mode)
        };
        Self {
            wq: make(rng, OutputMode::RequantizedInt8),
            wk: make(rng, OutputMode::RequantizedInt8),
            wv: make(rng, OutputMode::RequantizedInt8),
            wo: make(rng, OutputMode::Float),
            num_heads: config.num_heads,
            head_dim: config.head_dim(),
        }
    }

    /// Number of attention heads.
    pub fn num_heads(&self) -> usize {
        self.num_heads
    }

    /// Dimension of each head.
    pub fn head_dim(&self) -> usize {
        self.head_dim
    }

    /// Runs attention over `x` (shape `(new_tokens, hidden)`) as layer `layer` of `pass`:
    /// project, append the new K/V rows to `kv`, attend per sequence, project out. The
    /// returned matrix is workspace-pooled.
    ///
    /// During prefill `x` holds a prompt (or one chunk of it) and the cache the chunks
    /// before it; during decode `x` holds one new token per sequence. With a
    /// [`KvTarget::Batch`], `x` stacks every slot's rows in partition order: the
    /// `Q`/`K`/`V`/`O` projections each run as **one** batch-wide GEMM, the score and
    /// context GEMMs per sequence and head over that sequence's own slot (each has its own
    /// resident length), and empty groups are skipped.
    ///
    /// Processing a prompt in chunks of any size is bit-identical to processing it
    /// monolithically (see the [module documentation](self)): prefilling `n` tokens is the
    /// same arithmetic as `n` decode steps. This is the invariant
    /// `tests/chunked_parity.rs` proves end to end.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying GEMMs and cache operations.
    pub fn forward(
        &self,
        x: &MatF32,
        layer: usize,
        kv: &mut KvTarget<'_>,
        pass: &mut ForwardPass<'_>,
    ) -> Result<MatF32> {
        // `Q`, `K` and `V` read the same rows: quantize them once, for all three.
        let input = QuantizedInput::quantize(x, pass.ws);
        let q = self.wq.forward_quantized(&input, Component::Q, layer, pass);
        let projected = q.map(|q| {
            let k = self.wk.forward_quantized(&input, Component::K, layer, pass);
            let appended = k.and_then(|k| {
                let v = self.wv.forward_quantized(&input, Component::V, layer, pass);
                let appended = v.and_then(|v| {
                    let appended = kv.append(layer, &k, &v);
                    pass.ws.recycle_mat_f32(v);
                    appended
                });
                pass.ws.recycle_mat_f32(k);
                appended
            });
            (q, appended)
        });
        input.recycle(pass.ws);
        let (q, appended) = projected?;
        let attended = appended.and_then(|()| self.attend(&q, layer, kv, pass));
        pass.ws.recycle_mat_f32(q);
        let context = attended?;
        let out = self.wo.forward(&context, Component::O, layer, pass);
        pass.ws.recycle_mat_f32(context);
        out
    }

    /// The attention core: for every sequence of `kv` with query rows in `q` (the `Q`
    /// projection output, whose K/V rows are already appended) and every head, one
    /// rectangular score GEMM and one context GEMM over the sequence's resident codes —
    /// see the [module documentation](self). Returns the workspace-pooled context matrix.
    fn attend(
        &self,
        q: &MatF32,
        layer: usize,
        kv: &KvTarget<'_>,
        pass: &mut ForwardPass<'_>,
    ) -> Result<MatF32> {
        let d = self.head_dim;
        let kernels = RowKernels::granted();
        let groups = || (0..kv.num_groups()).map(|g| kv.group(layer, g, q.rows()));
        // Scratch sized once by the groups that have rows in this pass — a slot that sits it
        // out (mid-prefill during a decode pass, or the reverse) sizes nothing — and reused
        // across heads and sequences.
        let (max_chunk, max_len, max_cells) = groups().filter(|(rows, _)| !rows.is_empty()).fold(
            (0, 0, 0),
            |(chunk, len, cells), (rows, cache)| {
                // The largest accumulator of a group: its scores, or its context.
                let group_cells = rows.len() * cache.len().max(d);
                (
                    chunk.max(rows.len()),
                    len.max(cache.len()),
                    cells.max(group_cells),
                )
            },
        );
        let mut q_codes = pass.ws.take_mat_i8(q.rows(), q.cols());
        let mut q_scales = pass.ws.take_vec_f32(q.rows());
        quantize_symmetric_rows_into(q, &mut q_codes, &mut q_scales);
        let inv_sqrt_d = 1.0 / (d as f32).sqrt();
        for s in q_scales.iter_mut() {
            *s *= inv_sqrt_d;
        }
        let mut q_h = pass.ws.take_mat_i8(max_chunk, d);
        let mut k_t = pass.ws.take_mat_i8(d, max_len);
        let mut p_codes = pass.ws.take_mat_i8(1, max_cells);
        let mut p_scales = pass.ws.take_vec_f32(max_chunk);
        let mut probs = pass.ws.take_vec_f32(max_len);
        let mut context = pass.ws.take_mat_f32(q.rows(), self.num_heads * d);
        // One destination for every score (`chunk × len`, depth `d`) and context
        // (`chunk × d`, depth `len`) GEMM of the call: as wide as the widest of them and as
        // many cells as the largest — the longest chunk and the longest cache may belong to
        // different groups, and their product to no GEMM at all.
        let widest = max_len.max(d);
        let shape = (max_cells.div_ceil(widest), widest, widest);
        let mut gemm = HookedGemmScratch::take(pass.ws, shape, pass.hook.wants_checksums());

        let ran = (|| -> Result<()> {
            for (g, (rows, cache)) in groups().enumerate() {
                if rows.is_empty() {
                    continue;
                }
                let (chunk, len) = (rows.len(), cache.len());
                // Query row i sits at global position prior + i and sees cache rows
                // 0..=prior + i: a function of its position alone, never of the chunk.
                let prior = len - chunk;
                for h in 0..self.num_heads {
                    let cols = h * d..(h + 1) * d;
                    q_h.resize_overwrite(chunk, d);
                    for (i, r) in rows.clone().enumerate() {
                        q_h.row_mut(i)
                            .copy_from_slice(&q_codes.row(r)[cols.clone()]);
                    }
                    // The one transpose per (sequence, head, chunk): row-appended key codes
                    // into the score GEMM's dense `(head_dim × T)` right operand.
                    cache.key_codes(h).transpose_into(&mut k_t);
                    let ctx = pass.next_ctx(Component::QkT, layer).for_sequence(g);
                    let keys = Rhs::Activation(&k_t);
                    run_hooked_gemm_into(&q_h, keys, &ctx, pass, &mut gemm)?;
                    p_codes.resize_overwrite(chunk, len);
                    for (i, r) in rows.clone().enumerate() {
                        p_scales[i] = probability_codes(
                            &gemm.acc().row(i)[..=prior + i],
                            q_scales[r],
                            cache.key_scales(),
                            cache.value_scales(),
                            &mut probs,
                            p_codes.row_mut(i),
                        );
                    }

                    let ctx = pass.next_ctx(Component::Sv, layer).for_sequence(g);
                    let values = Rhs::Activation(cache.value_codes(h));
                    run_hooked_gemm_into(&p_codes, values, &ctx, pass, &mut gemm)?;
                    for (i, r) in rows.clone().enumerate() {
                        let out = &mut context.row_mut(r)[cols.clone()];
                        kernels.dequantize_row(gemm.acc().row(i), p_scales[i], out);
                    }
                }
            }
            Ok(())
        })();
        let ws = &mut *pass.ws;
        ws.recycle_mat_i8(q_codes);
        ws.recycle_vec_f32(q_scales);
        ws.recycle_mat_i8(q_h);
        ws.recycle_mat_i8(k_t);
        ws.recycle_mat_i8(p_codes);
        ws.recycle_vec_f32(p_scales);
        ws.recycle_vec_f32(probs);
        gemm.recycle(ws);
        match ran {
            Ok(()) => Ok(context),
            Err(e) => {
                ws.recycle_mat_f32(context);
                Err(e)
            }
        }
    }
}

/// Turns one query row's visible score accumulators into the probability codes the `SV`
/// GEMM consumes, returning the row's dequantization scale.
///
/// `scores` holds the accumulators of the visible prefix only (cells beyond it are masked:
/// their codes are exact zeros). Each is dequantized with the query row's scale (already
/// divided by `√d`) and its key row's scale, soft-maxed over the prefix, multiplied by its
/// value row's scale — folding `v_scale[t]` into the probability keeps the `SV` GEMM a
/// plain integer product over the stored codes — and quantized with the row's own abs-max.
fn probability_codes(
    scores: &[i32],
    q_scale: f32,
    key_scales: &[f32],
    value_scales: &[f32],
    probs: &mut [f32],
    codes: &mut [i8],
) -> f32 {
    let visible = scores.len();
    let probs = &mut probs[..visible];
    for ((p, &acc), &k_scale) in probs.iter_mut().zip(scores).zip(key_scales) {
        *p = acc as f32 * q_scale * k_scale;
    }
    softmax_in_place(probs);
    for (p, &v_scale) in probs.iter_mut().zip(value_scales) {
        *p *= v_scale;
    }
    let kernels = RowKernels::granted();
    // Probabilities and value scales are non-negative, so the abs-max is the max.
    let scale = QuantParams::from_abs_max(kernels.abs_max(probs)).scale;
    let (seen, masked) = codes.split_at_mut(visible);
    kernels.quantize_row(probs, scale, seen);
    masked.fill(0);
    scale
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchedKvCache;
    use crate::component::Stage;
    use crate::hooks::{GemmContext, GemmHook, GemmOrigin, NoopHook, RecordingHook};
    use crate::kv_cache::KvCache;
    use realm_tensor::{
        rng, ChecksummedGemm, EngineKind, GemmEngine, MatI32, MatI8, PackedMatI8, ReferenceEngine,
        Result as TensorResult, RowPartition, TpGroup, Workspace,
    };
    use std::ops::Range;
    use std::sync::Arc;

    fn attention_and_input() -> (MultiHeadAttention, MatF32, ModelConfig) {
        let config = ModelConfig::tiny_opt();
        let mut r = rng::seeded(17);
        let attn = MultiHeadAttention::new(&config, &mut r);
        let x = rng::gaussian_matrix(&mut r, 5, config.hidden_size, 0.0, 1.0);
        (attn, x, config)
    }

    /// An empty one-layer solo cache: the attention under test is layer 0 of it.
    fn empty_cache(attn: &MultiHeadAttention) -> KvCache {
        KvCache::new(1, attn.num_heads(), attn.head_dim(), 0)
    }

    /// One forward of `x` as layer 0 of a fresh pass over `kv`.
    fn forward_on(
        attn: &MultiHeadAttention,
        x: &MatF32,
        stage: Stage,
        mut kv: KvTarget<'_>,
        engine: &dyn GemmEngine,
        hook: &mut dyn GemmHook,
    ) -> MatF32 {
        let mut ws = Workspace::new();
        let mut pass = ForwardPass::new(stage, kv.shared_origin(), engine, hook, &mut ws);
        attn.forward(x, 0, &mut kv, &mut pass).unwrap()
    }

    /// Solo prefill forward of `x` on the oracle backend.
    fn forward(
        attn: &MultiHeadAttention,
        x: &MatF32,
        cache: &mut KvCache,
        hook: &mut dyn GemmHook,
    ) -> MatF32 {
        let kv = KvTarget::Solo(cache);
        forward_on(attn, x, Stage::Prefill, kv, &ReferenceEngine, hook)
    }

    #[test]
    fn forward_produces_hidden_sized_output() {
        let (attn, x, config) = attention_and_input();
        let mut cache = empty_cache(&attn);
        let y = forward(&attn, &x, &mut cache, &mut NoopHook);
        assert_eq!(y.shape(), (5, config.hidden_size));
        assert_eq!(cache.seq_len(), 5);
        assert!(y.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn one_score_and_one_context_gemm_per_head_per_sequence_per_chunk() {
        let (attn, x, config) = attention_and_input();
        let (heads, hidden) = (attn.num_heads(), config.hidden_size as u64);
        let mut cache = empty_cache(&attn);
        let mut rec = RecordingHook::new();
        forward(&attn, &x, &mut cache, &mut rec);
        // Q, K, V once each; QK^T and SV once per head — whatever the chunk's row count;
        // O once. The attention GEMMs are the full (rows x resident) rectangles.
        for component in [Component::Q, Component::K, Component::V, Component::O] {
            assert_eq!(rec.count_for(component), 1);
        }
        assert_eq!(rec.count_for(Component::QkT), heads);
        assert_eq!(rec.count_for(Component::Sv), heads);
        let rows = x.rows() as u64;
        assert_eq!(
            rec.total_macs,
            4 * rows * hidden * hidden + 2 * rows * rows * hidden
        );
        // A solo pass tags everything Sequence(0) and numbers the GEMMs in order.
        assert!(rec
            .calls
            .iter()
            .all(|c| c.origin == GemmOrigin::Sequence(0)));
        assert!(rec.calls.iter().map(|c| c.sequence).eq(0..4 + 2 * heads));

        // A second chunk and a batch: still `heads` pairs per sequence with rows, each
        // tagged with its own sequence; empty groups issue nothing.
        let mut rec = RecordingHook::new();
        let decode = x.rows_slice(0, 1).unwrap();
        forward(&attn, &decode, &mut cache, &mut rec);
        assert_eq!(rec.count_for(Component::QkT), heads);
        assert_eq!(
            rec.total_macs,
            4 * hidden * hidden + 2 * (rows + 1) * hidden
        );

        let mut batch = BatchedKvCache::new(1, 3, heads, attn.head_dim());
        let parts = RowPartition::from_lens(&[3, 0, 2]);
        let mut rec = RecordingHook::new();
        let kv = KvTarget::Batch(&mut batch, &parts);
        forward_on(&attn, &x, Stage::Prefill, kv, &ReferenceEngine, &mut rec);
        for component in [Component::QkT, Component::Sv] {
            for (g, expected) in [(0, heads), (1, 0), (2, heads)] {
                let seen = rec
                    .calls
                    .iter()
                    .filter(|c| c.component == component && c.origin == GemmOrigin::Sequence(g));
                assert_eq!(seen.count(), expected, "{component:?} of sequence {g}");
            }
        }
        for component in [Component::Q, Component::K, Component::V, Component::O] {
            let shared: Vec<_> = rec
                .calls
                .iter()
                .filter(|c| c.component == component)
                .collect();
            assert_eq!(shared.len(), 1);
            assert_eq!(shared[0].origin, GemmOrigin::BatchedRows);
        }
        assert_eq!(rec.count(), 4 + 4 * heads);
    }

    #[test]
    fn failed_forwards_leave_nothing_checked_out() {
        let (attn, x, config) = attention_and_input();
        // A mis-shaped input fails the first projection; a cache of the wrong geometry
        // fails the append, after all three ran.
        let narrow = MatF32::zeros(2, config.hidden_size - 1);
        let mut wrong_heads = KvCache::new(1, attn.num_heads() + 1, attn.head_dim(), 0);
        for (x, cache) in [(&narrow, &mut empty_cache(&attn)), (&x, &mut wrong_heads)] {
            let (mut hook, mut ws) = (NoopHook, Workspace::new());
            let mut kv = KvTarget::Solo(cache);
            let origin = kv.shared_origin();
            let mut pass =
                ForwardPass::new(Stage::Prefill, origin, &ReferenceEngine, &mut hook, &mut ws);
            assert!(attn.forward(x, 0, &mut kv, &mut pass).is_err());
            assert_eq!(ws.outstanding_buffers(), 0);
        }

        /// Runs weight GEMMs on the oracle and refuses activation × activation ones, so a
        /// forward fails inside `attend`, at the first score GEMM.
        #[derive(Debug)]
        struct NoActivationGemms;
        impl GemmEngine for NoActivationGemms {
            fn name(&self) -> &'static str {
                "no_activation_gemms"
            }
            fn gemm_i8_into(&self, a: &MatI8, b: &MatI8, _: &mut MatI32) -> TensorResult<()> {
                Err(realm_tensor::TensorError::ShapeMismatch {
                    op: "refused",
                    lhs: a.shape(),
                    rhs: b.shape(),
                })
            }
            fn gemm_i8_checksummed_into(
                &self,
                a: &MatI8,
                b: &MatI8,
                dest: &mut ChecksummedGemm,
                _: &mut Vec<i64>,
            ) -> TensorResult<()> {
                self.gemm_i8_into(a, b, dest.acc_mut())
            }
            fn gemm_i8_packed_into(
                &self,
                a: &MatI8,
                pb: &PackedMatI8,
                out: &mut MatI32,
            ) -> TensorResult<()> {
                ReferenceEngine.gemm_i8_packed_into(a, pb, out)
            }
            fn gemm_i8_packed_checksummed_into(
                &self,
                a: &MatI8,
                pb: &PackedMatI8,
                dest: &mut ChecksummedGemm,
                etw: &mut Vec<i64>,
            ) -> TensorResult<()> {
                ReferenceEngine.gemm_i8_packed_checksummed_into(a, pb, dest, etw)
            }
        }
        // Both forms of the per-call GEMM scratch: plain, and with the checksum vectors.
        struct ChecksumConsumer;
        impl GemmHook for ChecksumConsumer {
            fn on_gemm(&mut self, _: &GemmContext, _: &MatI8, _: &MatI8, _: &mut MatI32) {}
        }
        assert!(ChecksumConsumer.wants_checksums() && !NoopHook.wants_checksums());
        let hooks: [&mut dyn GemmHook; 2] = [&mut NoopHook, &mut ChecksumConsumer];
        for hook in hooks {
            let (mut cache, mut ws) = (empty_cache(&attn), Workspace::new());
            let mut kv = KvTarget::Solo(&mut cache);
            let origin = kv.shared_origin();
            let mut pass =
                ForwardPass::new(Stage::Prefill, origin, &NoActivationGemms, hook, &mut ws);
            assert!(attn.forward(&x, 0, &mut kv, &mut pass).is_err());
            assert_eq!(ws.outstanding_buffers(), 0);
            assert_eq!(cache.seq_len(), x.rows(), "it failed after the append");
        }
    }

    #[test]
    fn a_slot_that_sits_a_pass_out_sizes_none_of_its_scratch() {
        // Slot 1 decodes one token over a 3-row cache. Whether slot 0 next to it is empty or
        // holds a long context it contributes no rows to this pass, so the pass checks the
        // same buffers out of a fresh workspace either way.
        let (attn, x, config) = attention_and_input();
        let mut r = rng::seeded(8);
        let long = rng::gaussian_matrix(&mut r, 200, config.hidden_size, 0.0, 1.0);
        let high_water_with = |neighbour: &MatF32| {
            let mut batch = BatchedKvCache::new(1, 2, attn.num_heads(), attn.head_dim());
            let lead = neighbour.rows();
            let stacked = neighbour.vstack(&x.rows_slice(0, 3).unwrap()).unwrap();
            let parts = RowPartition::from_lens(&[lead, 3]);
            let kv = KvTarget::Batch(&mut batch, &parts);
            forward_on(
                &attn,
                &stacked,
                Stage::Prefill,
                kv,
                &ReferenceEngine,
                &mut NoopHook,
            );
            let parts = RowPartition::from_lens(&[0, 1]);
            let mut kv = KvTarget::Batch(&mut batch, &parts);
            let (mut hook, mut ws) = (NoopHook, Workspace::new());
            let origin = kv.shared_origin();
            let mut pass =
                ForwardPass::new(Stage::Decode, origin, &ReferenceEngine, &mut hook, &mut ws);
            let token = x.rows_slice(3, 1).unwrap();
            attn.forward(&token, 0, &mut kv, &mut pass).unwrap();
            ws.high_water_mark_bytes()
        };
        let alone = high_water_with(&MatF32::zeros(0, config.hidden_size));
        assert_eq!(high_water_with(&long), alone);
    }

    #[test]
    fn decode_step_attends_to_cached_prefix() {
        let (attn, x, config) = attention_and_input();
        let mut cache = empty_cache(&attn);
        forward(&attn, &x, &mut cache, &mut NoopHook);
        assert_eq!(cache.seq_len(), 5);
        let mut r = rng::seeded(99);
        let new = rng::gaussian_matrix(&mut r, 1, config.hidden_size, 0.0, 1.0);
        let kv = KvTarget::Solo(&mut cache);
        let y = forward_on(
            &attn,
            &new,
            Stage::Decode,
            kv,
            &ReferenceEngine,
            &mut NoopHook,
        );
        assert_eq!(y.shape(), (1, config.hidden_size));
        assert_eq!(cache.seq_len(), 6);
    }

    /// Every way to cut `n` rows into 1..=3 consecutive non-empty chunks.
    fn splits(n: usize) -> Vec<Vec<Range<usize>>> {
        let mut out = vec![vec![0..n]];
        for a in 1..n {
            out.push(vec![0..a, a..n]);
            for b in a + 1..n {
                out.push(vec![0..a, a..b, b..n]);
            }
        }
        out
    }

    #[test]
    fn every_chunking_solo_or_batched_on_every_backend_is_bit_identical() {
        // Every projection row is quantized with its own scale, every cached row keeps its
        // own scale and every query row is masked to its own visible prefix, so neither the
        // outputs nor the cache contents depend on chunk boundaries, batch neighbours,
        // the GEMM backend or the tensor-parallel degree of the projections.
        let config = ModelConfig::tiny_opt();
        let mut r = rng::seeded(4);
        let base = MultiHeadAttention::new(&config, &mut r);
        let full = rng::gaussian_matrix(&mut r, 6, config.hidden_size, 0.0, 1.0);
        let neighbour = rng::gaussian_matrix(&mut r, 4, config.hidden_size, 0.0, 3.0);
        let mut cache_full = empty_cache(&base);
        let y_full = forward(&base, &full, &mut cache_full, &mut NoopHook);

        for kind in [
            EngineKind::Reference,
            EngineKind::Simd,
            EngineKind::SimdParallel,
        ] {
            for tp in [1usize, 2] {
                let engine: Arc<dyn GemmEngine> = match tp {
                    1 => kind.build(),
                    _ => Arc::new(TpGroup::new(tp, kind.build())),
                };
                for split in splits(full.rows()) {
                    let label = format!("{kind}/tp{tp}/{split:?}");
                    let mut solo = empty_cache(&base);
                    let mut batch = BatchedKvCache::new(1, 2, base.num_heads(), base.head_dim());
                    for (step, rows) in split.iter().enumerate() {
                        let chunk = full.rows_slice(rows.start, rows.len()).unwrap();
                        let stage = if chunk.rows() == 1 && step > 0 {
                            Stage::Decode
                        } else {
                            Stage::Prefill
                        };
                        let kv = KvTarget::Solo(&mut solo);
                        let y =
                            forward_on(&base, &chunk, stage, kv, engine.as_ref(), &mut NoopHook);
                        // The same chunk in slot 1 of a batch whose slot 0 prefills a
                        // louder neighbour in the first step and idles afterwards.
                        let lead = if step == 0 { neighbour.rows() } else { 0 };
                        let stacked = neighbour.rows_slice(0, lead).unwrap().vstack(&chunk);
                        let parts = RowPartition::from_lens(&[lead, chunk.rows()]);
                        let kv = KvTarget::Batch(&mut batch, &parts);
                        let y_batch = forward_on(
                            &base,
                            &stacked.unwrap(),
                            stage,
                            kv,
                            engine.as_ref(),
                            &mut NoopHook,
                        );
                        for (i, row) in rows.clone().enumerate() {
                            assert_eq!(y_full.row(row), y.row(i), "{label} solo row {row}");
                            assert_eq!(
                                y_full.row(row),
                                y_batch.row(lead + i),
                                "{label} batched row {row}"
                            );
                        }
                    }
                    assert_eq!(solo, cache_full, "{label} solo cache");
                    assert_eq!(
                        batch.layer(0).slot(1),
                        cache_full.layer(0),
                        "{label} batched cache"
                    );
                }
            }
        }
    }

    #[test]
    fn context_error_against_f32_attention_is_no_larger_than_the_per_prefix_path() {
        // Same Q/K/V (the projections' requantized outputs), f32 causal softmax attention
        // as the reference, relative Frobenius error of the context matrix. The per-query-row
        // path this core replaced — which re-quantized the visible K/V prefix and the
        // q slice per tensor for every row — reads 0.006_02 on this seed; keeping the
        // requantizers' codes and scales as they are reads 0.002_40.
        const PER_PREFIX_PATH_ERROR: f64 = 0.006_02;
        let config = ModelConfig::llama_3_8b_proxy();
        let mut r = rng::seeded(2025);
        let attn = MultiHeadAttention::new(&config, &mut r);
        let x = rng::gaussian_matrix(&mut r, 48, config.hidden_size, 0.0, 1.0);
        let mut cache = empty_cache(&attn);
        let (mut hook, mut ws) = (NoopHook, Workspace::new());
        let (engine, origin) = (&ReferenceEngine, GemmOrigin::default());
        let mut pass = ForwardPass::new(Stage::Prefill, origin, engine, &mut hook, &mut ws);
        let mut project = |w: &QuantLinear| w.forward(&x, Component::Q, 0, &mut pass).unwrap();
        let (q, k, v) = (project(&attn.wq), project(&attn.wk), project(&attn.wv));

        let mut kv = KvTarget::Solo(&mut cache);
        kv.append(0, &k, &v).unwrap();
        let context = attn.attend(&q, 0, &kv, &mut pass).unwrap();

        let d = attn.head_dim();
        let (mut err, mut norm) = (0.0f64, 0.0f64);
        for h in 0..attn.num_heads() {
            for i in 0..x.rows() {
                let dot = |t: usize| -> f64 {
                    (0..d)
                        .map(|c| q[(i, h * d + c)] as f64 * k[(t, h * d + c)] as f64)
                        .sum::<f64>()
                        / (d as f64).sqrt()
                };
                let max = (0..=i).map(dot).fold(f64::NEG_INFINITY, f64::max);
                let weights: Vec<f64> = (0..=i).map(|t| (dot(t) - max).exp()).collect();
                let total: f64 = weights.iter().sum();
                for c in 0..d {
                    let exact: f64 = weights
                        .iter()
                        .enumerate()
                        .map(|(t, w)| w / total * v[(t, h * d + c)] as f64)
                        .sum();
                    err += (context[(i, h * d + c)] as f64 - exact).powi(2);
                    norm += exact.powi(2);
                }
            }
        }
        let relative = (err / norm).sqrt();
        assert!(
            relative <= PER_PREFIX_PATH_ERROR,
            "context error {relative:.5} exceeds the per-prefix path's {PER_PREFIX_PATH_ERROR}"
        );
    }

    #[test]
    fn a_fault_in_a_masked_score_cell_is_visible_to_the_hook_but_not_the_output() {
        /// Flips a high bit of one cell of head 0's score accumulator.
        struct FlipScore(usize, usize);
        impl GemmHook for FlipScore {
            fn on_gemm(&mut self, ctx: &GemmContext, _: &MatI8, x: &MatI8, acc: &mut MatI32) {
                if ctx.component == Component::QkT && ctx.sequence == 3 {
                    assert_eq!(
                        acc.shape(),
                        (5, x.cols()),
                        "the hook sees the full rectangle"
                    );
                    acc[(self.0, self.1)] ^= 1 << 24;
                }
            }
            fn wants_checksums(&self) -> bool {
                false
            }
        }
        let (attn, x, _) = attention_and_input();
        let run = |hook: &mut dyn GemmHook| forward(&attn, &x, &mut empty_cache(&attn), hook);
        let clean = run(&mut NoopHook);
        // Row 1 sees positions 0..=1: cell (1, 4) is masked, cell (1, 0) is not.
        assert_eq!(run(&mut FlipScore(1, 4)), clean);
        assert_ne!(run(&mut FlipScore(1, 0)), clean);
    }
}
