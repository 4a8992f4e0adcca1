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
//! Solo and batched forwards share one per-sequence core (`MultiHeadAttention::attend_ws`).
//! For a sequence whose cache holds `T` rows after appending this chunk's `n` new ones, each
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
use crate::batch::BatchedLayerCache;
use crate::component::{Component, Stage};
use crate::config::ModelConfig;
use crate::hooks::{GemmContext, GemmHook};
use crate::kv_cache::LayerCache;
use crate::quantized::{quantize_symmetric_rows_into, run_hooked_gemm_ws, OutputMode, QuantLinear};
use crate::weights;
use crate::Result;
use realm_tensor::rng::SeededRng;
use realm_tensor::{GemmEngine, MatF32, MatI8, QuantParams, RowPartition, Workspace};
use std::ops::Range;

/// Where a forward pass appends its new K/V rows and which store each query row group
/// reads: one sequence's cache, or the slots of a batch under a row partition.
enum KvTarget<'a> {
    Solo(&'a mut LayerCache),
    Batch(&'a mut BatchedLayerCache, &'a RowPartition),
}

impl KvTarget<'_> {
    fn append(&mut self, keys: &MatF32, values: &MatF32) -> Result<()> {
        match self {
            KvTarget::Solo(cache) => cache.append(keys, values),
            KvTarget::Batch(cache, parts) => cache.append_batch(keys, values, parts),
        }
    }

    fn num_groups(&self) -> usize {
        match self {
            KvTarget::Solo(_) => 1,
            KvTarget::Batch(cache, _) => cache.batch_size(),
        }
    }

    /// Group `g`'s query rows (of `rows` stacked rows) and the store they attend over.
    fn group(&self, g: usize, rows: usize) -> (Range<usize>, &LayerCache) {
        match self {
            KvTarget::Solo(cache) => (0..rows, cache),
            KvTarget::Batch(cache, parts) => (parts.range(g), cache.slot(g)),
        }
    }
}

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

    /// Routes this layer's projection GEMMs through the packed (default) or unpacked
    /// weight path — see [`QuantLinear::set_packing`]. The attention-internal `QKᵀ`/`SV`
    /// GEMMs multiply two activations and are unaffected.
    pub fn set_weight_packing(&mut self, enabled: bool) {
        self.wq.set_packing(enabled);
        self.wk.set_packing(enabled);
        self.wv.set_packing(enabled);
        self.wo.set_packing(enabled);
    }

    /// Shards (or, with `None`, un-shards) the four projection weights over a
    /// tensor-parallel rank group — see [`QuantLinear::set_tensor_parallel`]. The
    /// attention-internal `QKᵀ`/`SV` GEMMs multiply two activations and are unaffected.
    pub fn set_tensor_parallel(&mut self, group: Option<&std::sync::Arc<realm_tensor::TpGroup>>) {
        self.wq.set_tensor_parallel(group);
        self.wk.set_tensor_parallel(group);
        self.wv.set_tensor_parallel(group);
        self.wo.set_tensor_parallel(group);
    }

    /// Number of attention heads.
    pub fn num_heads(&self) -> usize {
        self.num_heads
    }

    /// Dimension of each head.
    pub fn head_dim(&self) -> usize {
        self.head_dim
    }

    /// Runs attention over `x` (shape `(new_tokens, hidden)`), reading and updating the
    /// layer's KV cache.
    ///
    /// During prefill `x` holds the whole prompt (or one chunk of it) and the cache holds
    /// the chunks before it; during decode `x` holds a single new token and the cache holds
    /// everything generated so far.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying GEMMs and cache operations.
    #[allow(clippy::too_many_arguments)] // mirrors the block-forward plumbing: ctx + engine + hook
    pub fn forward(
        &self,
        x: &MatF32,
        layer: usize,
        stage: Stage,
        cache: &mut LayerCache,
        sequence: &mut usize,
        engine: &dyn GemmEngine,
        hook: &mut dyn GemmHook,
    ) -> Result<MatF32> {
        let mut ws = Workspace::new();
        self.forward_ws(x, layer, stage, cache, sequence, engine, hook, &mut ws)
    }

    /// [`MultiHeadAttention::forward`] drawing every intermediate — projections, query and
    /// probability codes, the transposed key tile and the context matrix — from `ws`. The
    /// returned matrix is workspace-pooled; output is bit-identical.
    ///
    /// Processing a prompt in chunks of any size is bit-identical to processing it
    /// monolithically (see the [module documentation](self)): prefilling `n` tokens is the
    /// same arithmetic as `n` decode steps. This is the invariant
    /// `tests/chunked_parity.rs` proves end to end.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying GEMMs and cache operations.
    #[allow(clippy::too_many_arguments)] // mirrors the block-forward plumbing: ctx + engine + hook
    pub fn forward_ws(
        &self,
        x: &MatF32,
        layer: usize,
        stage: Stage,
        cache: &mut LayerCache,
        sequence: &mut usize,
        engine: &dyn GemmEngine,
        hook: &mut dyn GemmHook,
        ws: &mut Workspace,
    ) -> Result<MatF32> {
        let kv = KvTarget::Solo(cache);
        self.forward_over(x, kv, layer, stage, sequence, engine, hook, ws)
    }

    /// Runs attention over a batch-stacked `x` (shape `(sum_new_tokens, hidden)`, rows
    /// grouped by `parts`), reading and updating each sequence's slot of the layer cache.
    ///
    /// The `Q`/`K`/`V`/`O` projections each run as **one** batch-wide GEMM (per-row
    /// quantization keeps them bit-exact with per-sequence execution); the score and
    /// context GEMMs run per sequence and per head over that sequence's own slot, because
    /// each sequence has its own resident length. Empty groups (completed sequences in
    /// lockstep decode) are skipped.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying GEMMs and cache operations.
    #[allow(clippy::too_many_arguments)] // mirrors the block-forward plumbing: ctx + engine + hook
    pub fn forward_batch(
        &self,
        x: &MatF32,
        parts: &RowPartition,
        layer: usize,
        stage: Stage,
        cache: &mut BatchedLayerCache,
        sequence: &mut usize,
        engine: &dyn GemmEngine,
        hook: &mut dyn GemmHook,
    ) -> Result<MatF32> {
        let mut ws = Workspace::new();
        self.forward_batch_ws(
            x, parts, layer, stage, cache, sequence, engine, hook, &mut ws,
        )
    }

    /// [`MultiHeadAttention::forward_batch`] drawing every intermediate from `ws`. The
    /// returned matrix is workspace-pooled; output is bit-identical.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying GEMMs and cache operations.
    #[allow(clippy::too_many_arguments)] // mirrors the block-forward plumbing: ctx + engine + hook
    pub fn forward_batch_ws(
        &self,
        x: &MatF32,
        parts: &RowPartition,
        layer: usize,
        stage: Stage,
        cache: &mut BatchedLayerCache,
        sequence: &mut usize,
        engine: &dyn GemmEngine,
        hook: &mut dyn GemmHook,
        ws: &mut Workspace,
    ) -> Result<MatF32> {
        let kv = KvTarget::Batch(cache, parts);
        self.forward_over(x, kv, layer, stage, sequence, engine, hook, ws)
    }

    /// The one forward pass behind the solo and batched entry points: project, append the
    /// new K/V rows to `kv`, attend per sequence, project out.
    #[allow(clippy::too_many_arguments)] // internal splice of the public forwards
    fn forward_over(
        &self,
        x: &MatF32,
        mut kv: KvTarget<'_>,
        layer: usize,
        stage: Stage,
        sequence: &mut usize,
        engine: &dyn GemmEngine,
        hook: &mut dyn GemmHook,
        ws: &mut Workspace,
    ) -> Result<MatF32> {
        let batched = matches!(kv, KvTarget::Batch(..));
        // The shared projections' rows span the whole batch; attribution comes from the
        // partition announced through `on_batch_begin`.
        let shared_ctx = |component: Component, sequence: &mut usize| {
            let c = next_ctx(component, layer, stage, sequence);
            if batched {
                c.batched()
            } else {
                c
            }
        };

        let q = self
            .wq
            .forward_ws(x, engine, &shared_ctx(Component::Q, sequence), hook, ws)?;
        let appended = (|| {
            let k = self
                .wk
                .forward_ws(x, engine, &shared_ctx(Component::K, sequence), hook, ws)?;
            let v = self
                .wv
                .forward_ws(x, engine, &shared_ctx(Component::V, sequence), hook, ws);
            let appended = match v {
                Ok(v) => {
                    let appended = kv.append(&k, &v);
                    ws.recycle_mat_f32(v);
                    appended
                }
                Err(e) => Err(e),
            };
            ws.recycle_mat_f32(k);
            appended
        })();
        let attended = appended
            .and_then(|()| self.attend_ws(&q, &kv, layer, stage, sequence, engine, hook, ws));
        ws.recycle_mat_f32(q);
        let context = attended?;
        let out = self.wo.forward_ws(
            &context,
            engine,
            &shared_ctx(Component::O, sequence),
            hook,
            ws,
        );
        ws.recycle_mat_f32(context);
        out
    }

    /// The attention core: for every sequence of `kv` with query rows in `q` (the `Q`
    /// projection output, whose K/V rows are already appended) and every head, one
    /// rectangular score GEMM and one context GEMM over the sequence's resident codes —
    /// see the [module documentation](self). Returns the workspace-pooled context matrix.
    #[allow(clippy::too_many_arguments)] // internal splice of the forward pass
    fn attend_ws(
        &self,
        q: &MatF32,
        kv: &KvTarget<'_>,
        layer: usize,
        stage: Stage,
        sequence: &mut usize,
        engine: &dyn GemmEngine,
        hook: &mut dyn GemmHook,
        ws: &mut Workspace,
    ) -> Result<MatF32> {
        let d = self.head_dim;
        let groups = || (0..kv.num_groups()).map(|g| kv.group(g, q.rows()));
        // Scratch sized once for the largest (chunk, resident length) of the batch and
        // reused across heads and sequences.
        let max_chunk = groups().map(|(rows, _)| rows.len()).max().unwrap_or(0);
        let max_len = groups().map(|(_, cache)| cache.len()).max().unwrap_or(0);
        let mut q_codes = ws.take_mat_i8(q.rows(), q.cols());
        let mut q_scales = ws.take_vec_f32(q.rows());
        quantize_symmetric_rows_into(q, &mut q_codes, &mut q_scales);
        let inv_sqrt_d = 1.0 / (d as f32).sqrt();
        for s in q_scales.iter_mut() {
            *s *= inv_sqrt_d;
        }
        let mut q_h = ws.take_mat_i8(max_chunk, d);
        let mut k_t = ws.take_mat_i8(d, max_len);
        let mut p_codes = ws.take_mat_i8(max_chunk, max_len);
        let mut p_scales = ws.take_vec_f32(max_chunk);
        let mut probs = ws.take_vec_f32(max_len);
        let mut context = ws.take_mat_f32(q.rows(), self.num_heads * d);

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
                    transpose_into(cache.key_codes(h), &mut k_t);
                    let ctx = next_ctx(Component::QkT, layer, stage, sequence).for_sequence(g);
                    let scores = run_hooked_gemm_ws(&q_h, &k_t, engine, &ctx, hook, ws)?;
                    p_codes.resize_overwrite(chunk, len);
                    for (i, r) in rows.clone().enumerate() {
                        p_scales[i] = probability_codes(
                            &scores.row(i)[..=prior + i],
                            q_scales[r],
                            cache.key_scales(),
                            cache.value_scales(),
                            &mut probs,
                            p_codes.row_mut(i),
                        );
                    }
                    ws.recycle_mat_i32(scores);

                    let ctx = next_ctx(Component::Sv, layer, stage, sequence).for_sequence(g);
                    let values = cache.value_codes(h);
                    let summed = run_hooked_gemm_ws(&p_codes, values, engine, &ctx, hook, ws)?;
                    for (i, r) in rows.clone().enumerate() {
                        let out = &mut context.row_mut(r)[cols.clone()];
                        for (o, &acc) in out.iter_mut().zip(summed.row(i)) {
                            *o = acc as f32 * p_scales[i];
                        }
                    }
                    ws.recycle_mat_i32(summed);
                }
            }
            Ok(())
        })();
        ws.recycle_mat_i8(q_codes);
        ws.recycle_vec_f32(q_scales);
        ws.recycle_mat_i8(q_h);
        ws.recycle_mat_i8(k_t);
        ws.recycle_mat_i8(p_codes);
        ws.recycle_vec_f32(p_scales);
        ws.recycle_vec_f32(probs);
        match ran {
            Ok(()) => Ok(context),
            Err(e) => {
                ws.recycle_mat_f32(context);
                Err(e)
            }
        }
    }
}

/// The context of the next GEMM of the forward pass, advancing the pass-wide counter.
fn next_ctx(component: Component, layer: usize, stage: Stage, sequence: &mut usize) -> GemmContext {
    let ctx = GemmContext::new(component, layer, stage, *sequence);
    *sequence += 1;
    ctx
}

/// `out = codesᵀ`: the one INT8 transpose per (sequence, head, chunk) that turns the
/// row-appended key codes into the score GEMM's `(head_dim × T)` right operand.
fn transpose_into(codes: &MatI8, out: &mut MatI8) {
    let (rows, cols) = codes.shape();
    out.resize_overwrite(cols, rows);
    let dst = out.as_mut_slice();
    for (r, row) in codes.as_slice().chunks_exact(cols).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            dst[c * rows + r] = v;
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
    let mut abs_max = 0.0f32;
    for (p, &v_scale) in probs.iter_mut().zip(value_scales) {
        *p *= v_scale;
        abs_max = abs_max.max(*p);
    }
    let params = QuantParams::from_abs_max(abs_max);
    let (seen, masked) = codes.split_at_mut(visible);
    for (code, &p) in seen.iter_mut().zip(probs.iter()) {
        *code = params.quantize(p);
    }
    masked.fill(0);
    params.scale
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::{GemmOrigin, NoopHook, RecordingHook};
    use realm_tensor::{rng, EngineKind, MatI32, ReferenceEngine, TpGroup};
    use std::sync::Arc;

    fn attention_and_input() -> (MultiHeadAttention, MatF32, ModelConfig) {
        let config = ModelConfig::tiny_opt();
        let mut r = rng::seeded(17);
        let attn = MultiHeadAttention::new(&config, &mut r);
        let x = rng::gaussian_matrix(&mut r, 5, config.hidden_size, 0.0, 1.0);
        (attn, x, config)
    }

    fn empty_cache(attn: &MultiHeadAttention) -> LayerCache {
        LayerCache::new(0, attn.num_heads(), attn.head_dim(), 0)
    }

    /// Solo forward of `x` on the oracle backend.
    fn forward(
        attn: &MultiHeadAttention,
        x: &MatF32,
        cache: &mut LayerCache,
        hook: &mut dyn GemmHook,
    ) -> MatF32 {
        let stage = Stage::Prefill;
        attn.forward(x, 0, stage, cache, &mut 0, &ReferenceEngine, hook)
            .unwrap()
    }

    #[test]
    fn forward_produces_hidden_sized_output() {
        let (attn, x, config) = attention_and_input();
        let mut cache = empty_cache(&attn);
        let y = forward(&attn, &x, &mut cache, &mut NoopHook);
        assert_eq!(y.shape(), (5, config.hidden_size));
        assert_eq!(cache.len(), 5);
        assert!(y.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn one_score_and_one_context_gemm_per_head_per_sequence_per_chunk() {
        let (attn, x, config) = attention_and_input();
        let (heads, hidden) = (attn.num_heads(), config.hidden_size as u64);
        let mut cache = empty_cache(&attn);
        let mut seq = 0;
        let mut rec = RecordingHook::new();
        attn.forward(
            &x,
            3,
            Stage::Prefill,
            &mut cache,
            &mut seq,
            &ReferenceEngine,
            &mut rec,
        )
        .unwrap();
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
        assert!(rec.calls.iter().all(|c| c.layer == 3));
        // Sequence numbers are strictly increasing.
        assert!(rec.calls.windows(2).all(|w| w[0].sequence < w[1].sequence));

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

        let mut batch = BatchedLayerCache::new(0, 3, heads, attn.head_dim());
        let parts = RowPartition::from_lens(&[3, 0, 2]);
        let mut rec = RecordingHook::new();
        attn.forward_batch(
            &x,
            &parts,
            0,
            Stage::Prefill,
            &mut batch,
            &mut 0,
            &ReferenceEngine,
            &mut rec,
        )
        .unwrap();
        for component in [Component::QkT, Component::Sv] {
            for (g, expected) in [(0, heads), (1, 0), (2, heads)] {
                let seen = rec
                    .calls
                    .iter()
                    .filter(|c| c.component == component && c.origin == GemmOrigin::Sequence(g));
                assert_eq!(seen.count(), expected, "{component:?} of sequence {g}");
            }
        }
        assert_eq!(rec.count_for(Component::Q), 1);
        assert_eq!(rec.count(), 4 + 4 * heads);
    }

    #[test]
    fn decode_step_attends_to_cached_prefix() {
        let (attn, x, config) = attention_and_input();
        let mut cache = empty_cache(&attn);
        forward(&attn, &x, &mut cache, &mut NoopHook);
        assert_eq!(cache.len(), 5);
        let mut r = rng::seeded(99);
        let new = rng::gaussian_matrix(&mut r, 1, config.hidden_size, 0.0, 1.0);
        let y = attn
            .forward(
                &new,
                0,
                Stage::Decode,
                &mut cache,
                &mut 5,
                &ReferenceEngine,
                &mut NoopHook,
            )
            .unwrap();
        assert_eq!(y.shape(), (1, config.hidden_size));
        assert_eq!(cache.len(), 6);
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
                let engine = kind.build();
                let mut attn = base.clone();
                let group = (tp > 1).then(|| Arc::new(TpGroup::new(tp, Arc::clone(&engine))));
                attn.set_tensor_parallel(group.as_ref());
                for split in splits(full.rows()) {
                    let label = format!("{kind}/tp{tp}/{split:?}");
                    let mut solo = empty_cache(&attn);
                    let mut batch = BatchedLayerCache::new(0, 2, attn.num_heads(), attn.head_dim());
                    let mut seq = 0;
                    for (step, rows) in split.iter().enumerate() {
                        let chunk = full.rows_slice(rows.start, rows.len()).unwrap();
                        let stage = if chunk.rows() == 1 && step > 0 {
                            Stage::Decode
                        } else {
                            Stage::Prefill
                        };
                        let y = attn
                            .forward(
                                &chunk,
                                0,
                                stage,
                                &mut solo,
                                &mut seq,
                                engine.as_ref(),
                                &mut NoopHook,
                            )
                            .unwrap();
                        // The same chunk in slot 1 of a batch whose slot 0 prefills a
                        // louder neighbour in the first step and idles afterwards.
                        let lead = if step == 0 { neighbour.rows() } else { 0 };
                        let stacked = neighbour.rows_slice(0, lead).unwrap().vstack(&chunk);
                        let y_batch = attn
                            .forward_batch(
                                &stacked.unwrap(),
                                &RowPartition::from_lens(&[lead, chunk.rows()]),
                                0,
                                stage,
                                &mut batch,
                                &mut seq,
                                engine.as_ref(),
                                &mut NoopHook,
                            )
                            .unwrap();
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
                    assert_eq!(batch.slot(1), &cache_full, "{label} batched cache");
                }
            }
        }
    }

    #[test]
    fn context_error_against_f32_attention_is_no_larger_than_the_per_prefix_path() {
        // Same Q/K/V (the projections' requantized outputs), f32 causal softmax attention
        // as the reference, relative Frobenius error of the context matrix. The parent
        // commit's per-query-row path — which re-quantized the visible K/V prefix and the
        // q slice per tensor for every row — reads 0.006_02 on this seed; keeping the
        // requantizers' codes and scales as they are reads 0.002_40.
        const PER_PREFIX_PATH_ERROR: f64 = 0.006_02;
        let config = ModelConfig::llama_3_8b_proxy();
        let mut r = rng::seeded(2025);
        let attn = MultiHeadAttention::new(&config, &mut r);
        let x = rng::gaussian_matrix(&mut r, 48, config.hidden_size, 0.0, 1.0);
        let ctx = GemmContext::new(Component::Q, 0, Stage::Prefill, 0);
        let project = |w: &QuantLinear| {
            w.forward(&x, &ReferenceEngine, &ctx, &mut NoopHook)
                .unwrap()
        };
        let (q, k, v) = (project(&attn.wq), project(&attn.wk), project(&attn.wv));

        let mut cache = empty_cache(&attn);
        cache.append(&k, &v).unwrap();
        let mut ws = Workspace::new();
        let context = attn
            .attend_ws(
                &q,
                &KvTarget::Solo(&mut cache),
                0,
                Stage::Prefill,
                &mut 0,
                &ReferenceEngine,
                &mut NoopHook,
                &mut ws,
            )
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
        let run = |hook: &mut dyn GemmHook| forward(&attn, &x, &mut empty_cache(&attn), hook);
        let clean = run(&mut NoopHook);
        // Row 1 sees positions 0..=1: cell (1, 4) is masked, cell (1, 0) is not.
        assert_eq!(run(&mut FlipScore(1, 4)), clean);
        assert_ne!(run(&mut FlipScore(1, 0)), clean);
    }
}
