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
//! There is one forward: a [`RowPartition`] groups the rows of the pass by the slots of a
//! [`BatchedKvCache`] (a solo sequence is the one group of a one-slot cache), and every
//! sequence with rows runs the same per-sequence core (`MultiHeadAttention::attend`). For a
//! sequence whose cache holds `T` rows after appending this chunk's `n` new ones, each
//! head runs exactly **one** score GEMM `Qc (n × d) · Kcᵀ (d × T)` and **one** context GEMM
//! `P'c (n × T) · Vc (T × d)` — the whole tiles the paper's systolic array executes (Fig. 4)
//! — directly on the INT8 codes the `Q`/`K`/`V` requantizers produced, with `Kcᵀ` and `Vc`
//! read as the cache stores them:
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
//!
//! # The probability path
//!
//! Between the two GEMMs, each query row's visible accumulators become `P'` codes in one
//! call, [`RowKernels::probability_codes`]: `(acc · q_scale) · k_scale`, the softmax of
//! [`crate::activation::softmax_in_place`] step for step (NaN-ignoring maximum, `exp(p −
//! max)`, a left fold from `+0.0`, one multiply by its inverse), `· v_scale`, then the row's
//! abs-max scale and its codes, the masked cells zeroed. Folding `v_scale[t]` into the
//! probability keeps the `SV` GEMM a plain integer product over the stored codes. The AVX2
//! tier runs that sequence in four vector passes over the row, its last partial vector
//! masked rather than scalar, with the same roundings as the portable tier.

use crate::batch::{BatchedKvCache, BatchedLayerCache};
use crate::component::Component;
use crate::quantized::{
    quantize_symmetric_rows_into, run_hooked_gemm_into, ForwardPass, HookedGemmScratch, OutputMode,
    QuantLinear, QuantizedInput, Rhs,
};
use crate::Result;
use realm_tensor::{MatF32, RowKernels, RowPartition};

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
    /// An attention layer of `num_heads` heads, quantized from its f32 projections `Q`,
    /// `K`, `V`, `O` in that order, each `(hidden, hidden)`. Each projection is quantized
    /// before the next is taken, so an iterator that draws lazily keeps one f32 matrix alive
    /// at a time.
    ///
    /// # Panics
    ///
    /// Panics if `projections` does not yield exactly four matrices, or if `num_heads` does
    /// not divide the projections' width.
    pub fn from_f32(num_heads: usize, projections: impl IntoIterator<Item = MatF32>) -> Self {
        let mut projections = projections.into_iter();
        let mut hidden = 0;
        let mut next = |mode| {
            let weight = projections.next().expect("too few attention projections");
            hidden = weight.cols();
            QuantLinear::from_f32(&weight, mode)
        };
        let int8 = OutputMode::RequantizedInt8;
        let (wq, wk, wv, wo) = (next(int8), next(int8), next(int8), next(OutputMode::Float));
        let extra = projections.next();
        assert!(extra.is_none(), "too many attention projections");
        assert!(
            hidden % num_heads == 0,
            "{num_heads} heads do not divide {hidden}"
        );
        Self {
            wq,
            wk,
            wv,
            wo,
            num_heads,
            head_dim: hidden / num_heads,
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
    /// project, append each group of `parts` to its slot of `cache`, attend per sequence,
    /// project out. The returned matrix is workspace-pooled.
    ///
    /// During prefill `x` holds a prompt (or one chunk of it) and the cache the chunks
    /// before it; during decode `x` holds one new token per sequence. `x` stacks every
    /// slot's rows in partition order: the `Q`/`K`/`V`/`O` projections each run as **one**
    /// GEMM over all of them, the score and context GEMMs per sequence and head over that
    /// sequence's own slot (each has its own resident length), and empty groups are
    /// skipped.
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
        cache: &mut BatchedKvCache,
        parts: &RowPartition,
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
                    let appended = cache.layer_mut(layer).append_batch(&k, &v, parts);
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
        let slots = cache.layer(layer);
        let attended = appended.and_then(|()| self.attend(&q, layer, slots, parts, pass));
        pass.ws.recycle_mat_f32(q);
        let context = attended?;
        let out = self.wo.forward(&context, Component::O, layer, pass);
        pass.ws.recycle_mat_f32(context);
        out
    }

    /// The attention core: for every group `g` of `parts` with query rows in `q` (the `Q`
    /// projection output, whose K/V rows are already appended to `slots`) and every head,
    /// one rectangular score GEMM and one context GEMM over slot `g`'s resident codes — see
    /// the [module documentation](self). Returns the workspace-pooled context matrix.
    fn attend(
        &self,
        q: &MatF32,
        layer: usize,
        slots: &BatchedLayerCache,
        parts: &RowPartition,
        pass: &mut ForwardPass<'_>,
    ) -> Result<MatF32> {
        let d = self.head_dim;
        let kernels = RowKernels::granted();
        let groups = || (0..parts.num_groups()).map(|g| (parts.range(g), slots.slot(g)));
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
                    let ctx = pass.next_ctx(Component::QkT, layer).for_sequence(g);
                    let keys = Rhs::Activation(cache.key_codes(h));
                    run_hooked_gemm_into(&q_h, keys, &ctx, pass, &mut gemm)?;
                    p_codes.resize_overwrite(chunk, len);
                    for (i, r) in rows.clone().enumerate() {
                        p_scales[i] = kernels.probability_codes(
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::Stage;
    use crate::config::ModelConfig;
    use crate::hooks::{GemmContext, GemmHook, GemmOrigin, NoopHook, RecordingHook};
    use realm_tensor::rng::SeededRng;
    use realm_tensor::{
        rng, ChecksummedGemm, EngineKind, GemmEngine, MatI32, MatI8, PackedMatI8, ReferenceEngine,
        Result as TensorResult, Workspace,
    };
    use std::ops::Range;

    /// The attention of `config` with `Q`/`K`/`V`/`O` drawn as the synthetic recipe draws
    /// them.
    fn drawn(config: &ModelConfig, r: &mut SeededRng) -> MultiHeadAttention {
        let h = config.hidden_size;
        let projections = (0..4).map(|_| rng::gaussian_matrix(r, h, h, 0.0, 0.02));
        MultiHeadAttention::from_f32(config.num_heads, projections)
    }

    fn attention_and_input() -> (MultiHeadAttention, MatF32, ModelConfig) {
        let config = ModelConfig::tiny_opt();
        let mut r = rng::seeded(17);
        let attn = drawn(&config, &mut r);
        let x = rng::gaussian_matrix(&mut r, 5, config.hidden_size, 0.0, 1.0);
        (attn, x, config)
    }

    /// An empty one-layer cache of `slots` slots: the attention under test is layer 0 of it.
    fn empty_cache(attn: &MultiHeadAttention, slots: usize) -> BatchedKvCache {
        BatchedKvCache::new(1, slots, attn.num_heads(), attn.head_dim())
    }

    /// One forward of `x` as layer 0 of a fresh pass, slot `g` of `cache` taking the next
    /// `lens[g]` rows.
    fn forward_on(
        attn: &MultiHeadAttention,
        x: &MatF32,
        stage: Stage,
        cache: &mut BatchedKvCache,
        lens: &[usize],
        engine: &dyn GemmEngine,
        hook: &mut dyn GemmHook,
    ) -> MatF32 {
        let (parts, mut ws) = (RowPartition::from_lens(lens), Workspace::new());
        let mut pass = ForwardPass::new(stage, engine, hook, &mut ws);
        attn.forward(x, 0, cache, &parts, &mut pass).unwrap()
    }

    /// Solo prefill forward of `x` into slot 0 of the one-slot `cache` on the oracle backend.
    fn forward(
        attn: &MultiHeadAttention,
        x: &MatF32,
        cache: &mut BatchedKvCache,
        hook: &mut dyn GemmHook,
    ) -> MatF32 {
        forward_on(
            attn,
            x,
            Stage::Prefill,
            cache,
            &[x.rows()],
            &ReferenceEngine,
            hook,
        )
    }

    #[test]
    #[should_panic(expected = "3 heads do not divide 8")]
    fn a_head_count_that_does_not_divide_the_width_is_rejected() {
        let _ = MultiHeadAttention::from_f32(3, (0..4).map(|_| MatF32::zeros(8, 8)));
    }

    #[test]
    #[should_panic(expected = "too few attention projections")]
    fn a_missing_projection_is_rejected() {
        let _ = MultiHeadAttention::from_f32(2, (0..3).map(|_| MatF32::zeros(8, 8)));
    }

    #[test]
    fn forward_produces_hidden_sized_output() {
        let (attn, x, config) = attention_and_input();
        let mut cache = empty_cache(&attn, 1);
        let y = forward(&attn, &x, &mut cache, &mut NoopHook);
        assert_eq!(y.shape(), (5, config.hidden_size));
        assert_eq!(cache.seq_len(0), 5);
        assert!(y.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn one_score_and_one_context_gemm_per_head_per_sequence_per_chunk() {
        let (attn, x, config) = attention_and_input();
        let (heads, hidden) = (attn.num_heads(), config.hidden_size as u64);
        let mut cache = empty_cache(&attn, 1);
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
        // One rule for every pass, solo included: the shared GEMMs are tagged
        // `BatchedRows`, each sequence's score and context GEMMs `Sequence(slot)`, and the
        // GEMMs are numbered in order.
        for c in &rec.calls {
            let expected = match c.component {
                Component::QkT | Component::Sv => GemmOrigin::Sequence(0),
                _ => GemmOrigin::BatchedRows,
            };
            assert_eq!(c.origin, expected, "{:?}", c.component);
        }
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

        let mut batch = empty_cache(&attn, 3);
        let mut rec = RecordingHook::new();
        forward_on(
            &attn,
            &x,
            Stage::Prefill,
            &mut batch,
            &[3, 0, 2],
            &ReferenceEngine,
            &mut rec,
        );
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
        let mut wrong_heads = BatchedKvCache::new(1, 1, attn.num_heads() + 1, attn.head_dim());
        for (x, cache) in [
            (&narrow, &mut empty_cache(&attn, 1)),
            (&x, &mut wrong_heads),
        ] {
            let (mut hook, mut ws) = (NoopHook, Workspace::new());
            let parts = RowPartition::from_lens(&[x.rows()]);
            let mut pass = ForwardPass::new(Stage::Prefill, &ReferenceEngine, &mut hook, &mut ws);
            assert!(attn.forward(x, 0, cache, &parts, &mut pass).is_err());
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
            let (mut cache, mut ws) = (empty_cache(&attn, 1), Workspace::new());
            let parts = RowPartition::from_lens(&[x.rows()]);
            let mut pass = ForwardPass::new(Stage::Prefill, &NoActivationGemms, hook, &mut ws);
            assert!(attn.forward(&x, 0, &mut cache, &parts, &mut pass).is_err());
            assert_eq!(ws.outstanding_buffers(), 0);
            assert_eq!(cache.seq_len(0), x.rows(), "it failed after the append");
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
            let mut batch = empty_cache(&attn, 2);
            let lead = neighbour.rows();
            let stacked = neighbour.vstack(&x.rows_slice(0, 3).unwrap()).unwrap();
            forward_on(
                &attn,
                &stacked,
                Stage::Prefill,
                &mut batch,
                &[lead, 3],
                &ReferenceEngine,
                &mut NoopHook,
            );
            let parts = RowPartition::from_lens(&[0, 1]);
            let (mut hook, mut ws) = (NoopHook, Workspace::new());
            let mut pass = ForwardPass::new(Stage::Decode, &ReferenceEngine, &mut hook, &mut ws);
            let token = x.rows_slice(3, 1).unwrap();
            attn.forward(&token, 0, &mut batch, &parts, &mut pass)
                .unwrap();
            ws.high_water_mark_bytes()
        };
        let alone = high_water_with(&MatF32::zeros(0, config.hidden_size));
        assert_eq!(high_water_with(&long), alone);
    }

    #[test]
    fn decode_step_attends_to_cached_prefix() {
        let (attn, x, config) = attention_and_input();
        let mut cache = empty_cache(&attn, 1);
        forward(&attn, &x, &mut cache, &mut NoopHook);
        assert_eq!(cache.seq_len(0), 5);
        let mut r = rng::seeded(99);
        let new = rng::gaussian_matrix(&mut r, 1, config.hidden_size, 0.0, 1.0);
        let y = forward_on(
            &attn,
            &new,
            Stage::Decode,
            &mut cache,
            &[1],
            &ReferenceEngine,
            &mut NoopHook,
        );
        assert_eq!(y.shape(), (1, config.hidden_size));
        assert_eq!(cache.seq_len(0), 6);
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
        // outputs nor the cache contents depend on chunk boundaries, batch neighbours or
        // the GEMM backend.
        let config = ModelConfig::tiny_opt();
        let mut r = rng::seeded(4);
        let base = drawn(&config, &mut r);
        let full = rng::gaussian_matrix(&mut r, 6, config.hidden_size, 0.0, 1.0);
        let neighbour = rng::gaussian_matrix(&mut r, 4, config.hidden_size, 0.0, 3.0);
        let mut cache_full = empty_cache(&base, 1);
        let y_full = forward(&base, &full, &mut cache_full, &mut NoopHook);

        for kind in [
            EngineKind::Reference,
            EngineKind::Simd,
            EngineKind::SimdParallel,
        ] {
            let engine = kind.build();
            for split in splits(full.rows()) {
                let label = format!("{kind}/{split:?}");
                let mut solo = empty_cache(&base, 1);
                let mut batch = empty_cache(&base, 2);
                for (step, rows) in split.iter().enumerate() {
                    let chunk = full.rows_slice(rows.start, rows.len()).unwrap();
                    let stage = if chunk.rows() == 1 && step > 0 {
                        Stage::Decode
                    } else {
                        Stage::Prefill
                    };
                    let y = forward_on(
                        &base,
                        &chunk,
                        stage,
                        &mut solo,
                        &[chunk.rows()],
                        engine.as_ref(),
                        &mut NoopHook,
                    );
                    // The same chunk in slot 1 of a batch whose slot 0 prefills a
                    // louder neighbour in the first step and idles afterwards.
                    let lead = if step == 0 { neighbour.rows() } else { 0 };
                    let stacked = neighbour.rows_slice(0, lead).unwrap().vstack(&chunk);
                    let y_batch = forward_on(
                        &base,
                        &stacked.unwrap(),
                        stage,
                        &mut batch,
                        &[lead, chunk.rows()],
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
                    cache_full.layer(0).slot(0),
                    "{label} batched cache"
                );
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
        let attn = drawn(&config, &mut r);
        let x = rng::gaussian_matrix(&mut r, 48, config.hidden_size, 0.0, 1.0);
        let (mut cache, parts) = (empty_cache(&attn, 1), RowPartition::from_lens(&[x.rows()]));
        let (mut hook, mut ws) = (NoopHook, Workspace::new());
        let mut pass = ForwardPass::new(Stage::Prefill, &ReferenceEngine, &mut hook, &mut ws);
        let mut project = |w: &QuantLinear| w.forward(&x, Component::Q, 0, &mut pass).unwrap();
        let (q, k, v) = (project(&attn.wq), project(&attn.wk), project(&attn.wv));

        cache.layer_mut(0).append_batch(&k, &v, &parts).unwrap();
        let context = attn
            .attend(&q, 0, cache.layer(0), &parts, &mut pass)
            .unwrap();

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
        let run = |hook: &mut dyn GemmHook| forward(&attn, &x, &mut empty_cache(&attn, 1), hook);
        let clean = run(&mut NoopHook);
        // Row 1 sees positions 0..=1: cell (1, 4) is masked, cell (1, 0) is not.
        assert_eq!(run(&mut FlipScore(1, 4)), clean);
        assert_ne!(run(&mut FlipScore(1, 0)), clean);
    }
}
