//! The full generative model: embedding, block stack, final normalization and LM head.
//!
//! Inference follows the paper's two-stage split:
//!
//! * [`Model::prefill`] consumes the whole prompt at once (batched GEMMs on the systolic
//!   array) and populates the KV cache;
//! * [`Model::decode_step_ws`] produces one token at a time, reusing the KV cache (mostly
//!   GEMV work in hardware, but numerically identical here).
//!
//! # One forward, seven entry points
//!
//! Every entry point validates its window and calls the one private forward routine (embed
//! → blocks → final norm → LM head) with a [`Stage`] and a [`KvTarget`]; the target alone
//! decides solo or batched (origin tags, partition announcement — see [`KvTarget`]). Every
//! quantized GEMM runs through the hook interface, so error injection and ABFT protection
//! see exactly the same computation whichever entry point issued it.
//!
//! | entry point | target | validates |
//! |---|---|---|
//! | [`Model::prefill`], [`Model::prefill_ws`] | `Solo`, fresh cache, window `0..len` | as `prefill_chunk_ws` |
//! | [`Model::prefill_chunk_ws`] | `Solo` | prompt ≤ context, window non-empty and inside the prompt, resident length = window start |
//! | [`Model::decode_step_ws`] | `Solo` | room for one more token |
//! | [`Model::prefill_batch`] | `Batch`, fresh cache, one whole-prompt chunk per slot | as `prefill_chunks_batch_ws` |
//! | [`Model::prefill_chunks_batch_ws`] | `Batch` | non-empty chunk list, slot in range and named once, then each window as above |
//! | [`Model::decode_step_batch_ws`] | `Batch` | one token slot per cache slot, room in every active slot |
//!
//! The forward routine itself checks the cache's layer count and the token ids.

use crate::batch::{BatchRequest, BatchedKvCache};
use crate::block::{Norm, TransformerBlock};
use crate::component::Stage;
use crate::config::ModelConfig;
use crate::hooks::GemmHook;
use crate::kv_cache::{KvCache, KvTarget};
use crate::quantized::ForwardPass;
use crate::weights::{self, Embedding, SyntheticLanguage};
use crate::{LlmError, Result};
use realm_tensor::rng;
use realm_tensor::{gemm, GemmEngine, MatF32, RowPartition, TpGroup, TpShardStats, Workspace};
use std::ops::Range;
use std::sync::Arc;

/// Default temperature applied to the synthetic model's logits.
///
/// The synthetic LM head separates the preferred successor from other tokens by a wide
/// margin; the temperature softens that margin so clean perplexity lands in a realistic range
/// instead of collapsing to 1.0 (see `weights` module documentation).
pub const DEFAULT_LOGIT_TEMPERATURE: f32 = 3.0;

/// Output of an autoregressive generation run.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationOutput {
    /// The generated tokens, in order.
    pub tokens: Vec<u32>,
    /// The greedy-decoded logit margin (top1 − top2) at each step; a crude confidence signal
    /// used by some evaluation tasks.
    pub margins: Vec<f32>,
}

/// One slot's prompt window in a batched chunked-prefill step
/// ([`Model::prefill_chunks_batch_ws`]).
#[derive(Debug, Clone)]
pub struct PrefillChunk<'a> {
    /// The full prompt the window is cut from.
    pub prompt: &'a [u32],
    /// The window of prompt positions this chunk advances; `range.start` must equal the
    /// slot's resident KV length.
    pub range: std::ops::Range<usize>,
    /// The batched-cache slot the chunk's KV rows append to.
    pub slot: usize,
}

impl<'a> PrefillChunk<'a> {
    /// The chunk that prefills all of `prompt` into the (empty) slot `slot`.
    pub fn whole(prompt: &'a [u32], slot: usize) -> Self {
        Self {
            prompt,
            range: 0..prompt.len(),
            slot,
        }
    }
}

/// The engine a model of `config` runs on: [`ModelConfig::engine`], built fresh and — for
/// `tp_degree > 1` — wrapped in a [`TpGroup`], which is returned a second time, typed.
fn build_engine(config: &ModelConfig) -> (Arc<dyn GemmEngine>, Option<Arc<TpGroup>>) {
    let engine = config.engine.build();
    if config.tp_degree <= 1 {
        return (engine, None);
    }
    let group = Arc::new(TpGroup::new(config.tp_degree, engine));
    (Arc::clone(&group) as Arc<dyn GemmEngine>, Some(group))
}

/// A synthetic quantized LLM.
#[derive(Debug, Clone)]
pub struct Model {
    config: ModelConfig,
    embedding: Embedding,
    language: SyntheticLanguage,
    blocks: Vec<TransformerBlock>,
    final_norm: Norm,
    lm_head: MatF32,
    logit_temperature: f32,
    engine: Arc<dyn GemmEngine>,
    tp: Option<Arc<TpGroup>>,
}

impl Model {
    /// Builds a model with synthetic weights derived deterministically from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::InvalidConfig`] if the configuration fails validation.
    pub fn new(config: &ModelConfig, seed: u64) -> Result<Self> {
        config.validate()?;
        let mut r = rng::seeded(rng::derive_seed(seed, MODEL_WEIGHT_STREAM));
        let language = SyntheticLanguage::new(config.vocab_size, seed);
        let embedding = weights::embedding(config, &mut r);
        let blocks = (0..config.num_layers)
            .map(|_| TransformerBlock::new(config, &mut r))
            .collect();
        let final_norm = Norm::new(config, &mut r);
        let lm_head = weights::lm_head(&embedding, &language);
        let (engine, tp) = build_engine(config);
        Ok(Self {
            config: config.clone(),
            embedding,
            language,
            blocks,
            final_norm,
            lm_head,
            logit_temperature: DEFAULT_LOGIT_TEMPERATURE,
            engine,
            tp,
        })
    }

    /// The GEMM execution backend every quantized GEMM of this model runs on.
    ///
    /// Selected by [`ModelConfig::engine`] at construction; all backends are bit-exact, so
    /// swapping it changes wall-clock speed, never a single logit. On a tensor-parallel
    /// model it is the [`TpGroup`] wrapping that backend, and reports the backend's name.
    pub fn engine(&self) -> &dyn GemmEngine {
        self.engine.as_ref()
    }

    /// Rebuilds the model's engine ([`ModelConfig::engine`]) and, for `degree > 1`, wraps
    /// it in a fresh [`TpGroup`] of `degree` shards, so every static-weight GEMM becomes a
    /// shard dispatch (`realm_tensor::tp`); `degree <= 1` restores the unsharded engine.
    /// Sharding is bit-exact: tokens, logits and ABFT checksum deviations are unchanged at
    /// any degree. `config().tp_degree` is updated to match (degree 0 is stored as 1).
    pub fn set_tensor_parallel(&mut self, degree: usize) {
        self.config.tp_degree = degree.max(1);
        (self.engine, self.tp) = build_engine(&self.config);
    }

    /// The tensor-parallel group the model's engine is, or `None` on the unsharded path.
    /// Exposes per-shard reliability stats ([`TpGroup::shard_stats`]) and the whole-shard
    /// fault hooks used by the injection and serving layers.
    pub fn tp_group(&self) -> Option<&Arc<TpGroup>> {
        self.tp.as_ref()
    }

    /// Per-shard reliability counters over every static-weight GEMM of the model (empty
    /// slice semantics: unsharded models report no shards). Convenience for
    /// [`TpGroup::shard_stats`].
    pub fn shard_stats(&self) -> Vec<TpShardStats> {
        self.tp.as_ref().map_or_else(Vec::new, |g| g.shard_stats())
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The synthetic language the model was constructed to predict.
    pub fn language(&self) -> &SyntheticLanguage {
        &self.language
    }

    /// Current logit temperature.
    pub fn logit_temperature(&self) -> f32 {
        self.logit_temperature
    }

    /// Overrides the logit temperature (useful for calibrating task difficulty).
    pub fn set_logit_temperature(&mut self, temperature: f32) {
        self.logit_temperature = temperature.max(1e-3);
    }

    /// Creates an empty KV cache sized for this model, with per-layer storage reserved for
    /// the full context window so steady-state decode appends never re-allocate.
    pub fn new_cache(&self) -> KvCache {
        let c = &self.config;
        KvCache::new(c.num_layers, c.num_heads, c.head_dim(), c.max_seq_len)
    }

    /// Creates an empty batched KV cache for `batch_size` sequences. Slots reserve nothing
    /// up front: a slot grows to its occupants' length and keeps that storage when it is
    /// released, so a serving loop stops allocating once its slots have warmed up.
    pub fn new_batched_cache(&self, batch_size: usize) -> BatchedKvCache {
        let c = &self.config;
        BatchedKvCache::new(c.num_layers, batch_size, c.num_heads, c.head_dim())
    }

    /// Embeds a token sequence into a `(tokens, hidden)` activation matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::TokenOutOfRange`] if any token exceeds the vocabulary and
    /// [`LlmError::InvalidSequence`] if the sequence is empty.
    pub fn embed(&self, tokens: &[u32]) -> Result<MatF32> {
        let mut out = MatF32::zeros(0, 0);
        self.embed_into(tokens, &mut out)?;
        Ok(out)
    }

    /// [`Model::embed`] into caller-provided (typically workspace-pooled) storage,
    /// reshaped in place.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Model::embed`].
    pub fn embed_into(&self, tokens: &[u32], out: &mut MatF32) -> Result<()> {
        if tokens.is_empty() {
            return Err(LlmError::InvalidSequence {
                detail: "cannot embed an empty token sequence".into(),
            });
        }
        for &t in tokens {
            if t as usize >= self.config.vocab_size {
                return Err(LlmError::TokenOutOfRange {
                    token: t,
                    vocab: self.config.vocab_size,
                });
            }
        }
        out.resize_overwrite(tokens.len(), self.config.hidden_size);
        for (r, &t) in tokens.iter().enumerate() {
            out.row_mut(r)
                .copy_from_slice(self.embedding.table.row(t as usize));
        }
        Ok(())
    }

    /// The one forward pass behind every entry point: embeds `tokens` (one row each), runs
    /// them through every block against `kv`, and returns one workspace-pooled logits row
    /// per token (final norm, LM head, temperature).
    ///
    /// `kv` alone decides solo or batched: a [`KvTarget::Batch`] announces its partition to
    /// the hook (once, before any GEMM) and tags the shared GEMMs
    /// [`BatchedRows`](crate::GemmOrigin::BatchedRows); a [`KvTarget::Solo`] announces
    /// nothing and tags everything `Sequence(0)`. With a batch target `tokens` stacks each
    /// slot's tokens in partition order.
    fn forward(
        &self,
        tokens: &[u32],
        stage: Stage,
        mut kv: KvTarget<'_>,
        hook: &mut dyn GemmHook,
        ws: &mut Workspace,
    ) -> Result<MatF32> {
        if kv.num_layers() != self.blocks.len() {
            return Err(invalid(format!(
                "the model has {} layers but the KV cache covers {}",
                self.blocks.len(),
                kv.num_layers()
            )));
        }
        if let KvTarget::Batch(_, parts) = &kv {
            hook.on_batch_begin(parts);
        }
        let mut x = ws.take_mat_f32(tokens.len(), self.config.hidden_size);
        if let Err(e) = self.embed_into(tokens, &mut x) {
            ws.recycle_mat_f32(x);
            return Err(e);
        }
        let engine = self.engine.as_ref();
        let mut pass = ForwardPass::new(stage, kv.shared_origin(), engine, hook, ws);
        for (layer, block) in self.blocks.iter().enumerate() {
            x = block.forward(x, layer, &mut kv, &mut pass)?;
        }

        let mut normed = ws.take_mat_f32(x.rows(), x.cols());
        self.final_norm.forward_into(&x, &mut normed);
        ws.recycle_mat_f32(x);
        let mut logits = ws.take_mat_f32(normed.rows(), self.lm_head.cols());
        let ran = gemm::gemm_f32_into(&normed, &self.lm_head, &mut logits);
        ws.recycle_mat_f32(normed);
        if let Err(e) = ran {
            ws.recycle_mat_f32(logits);
            return Err(e.into());
        }
        logits.scale_in_place(1.0 / self.logit_temperature);
        Ok(logits)
    }

    /// Checks one prefill window: `prompt` fits the context, `range` is a non-empty window
    /// of it, and the sequence's `resident` KV rows end exactly where the window starts.
    fn check_window(&self, prompt: &[u32], range: &Range<usize>, resident: usize) -> Result<()> {
        let max = self.config.max_seq_len;
        let (start, end, len) = (range.start, range.end, prompt.len());
        if len > max {
            Err(invalid(format!(
                "prompt of {len} tokens exceeds max_seq_len {max}"
            )))
        } else if range.is_empty() || end > len {
            Err(invalid(format!(
                "chunk {start}..{end} is empty or exceeds the {len}-token prompt"
            )))
        } else if resident != start {
            Err(invalid(format!(
                "chunk {start}..{end} needs exactly {start} resident tokens (got {resident})"
            )))
        } else {
            Ok(())
        }
    }

    /// Checks that a sequence holding `resident` KV rows has room for one more token.
    fn check_room(&self, resident: usize) -> Result<()> {
        let max = self.config.max_seq_len;
        if resident >= max {
            return Err(invalid(format!(
                "KV cache already holds {resident} tokens (max_seq_len {max})"
            )));
        }
        Ok(())
    }

    /// Runs the prefill stage over a prompt, returning per-position logits and the KV cache.
    ///
    /// Row `i` of the returned logits predicts the token at position `i + 1`, which is what
    /// perplexity evaluation needs.
    ///
    /// # Errors
    ///
    /// Returns an error for empty prompts, out-of-range tokens, prompts longer than the
    /// configured context, or internal shape mismatches.
    pub fn prefill(&self, prompt: &[u32], hook: &mut dyn GemmHook) -> Result<(MatF32, KvCache)> {
        self.prefill_ws(prompt, hook, &mut Workspace::new())
    }

    /// [`Model::prefill`] drawing every intermediate from `ws`: the whole prompt as one
    /// [`Model::prefill_chunk_ws`] window on a fresh [`Model::new_cache`]. The returned
    /// logits matrix is workspace-pooled (recycle it once consumed).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Model::prefill`].
    pub fn prefill_ws(
        &self,
        prompt: &[u32],
        hook: &mut dyn GemmHook,
        ws: &mut Workspace,
    ) -> Result<(MatF32, KvCache)> {
        let mut cache = self.new_cache();
        let logits = self.prefill_chunk_ws(prompt, 0..prompt.len(), hook, ws, &mut cache)?;
        Ok((logits, cache))
    }

    /// Runs one prefill **chunk** — the token window `range` of `prompt` — against a
    /// partially-filled cache, returning the chunk's per-position logits (workspace-pooled).
    ///
    /// The cache must hold exactly `range.start` resident tokens (the previously
    /// prefilled prefix). Chunked prefill is **bit-identical** to the monolithic
    /// [`Model::prefill`] at any chunk granularity on every backend and TP degree:
    /// activations are quantized per row, cached keys/values keep one scale per token row
    /// and every query row's scores are masked to its visible prefix of the cache, so no
    /// number in the forward pass depends on where the chunk boundaries fall
    /// (`tests/chunked_parity.rs`).
    ///
    /// # Errors
    ///
    /// Returns an error for an empty or out-of-bounds `range`, out-of-range tokens, a
    /// prompt longer than the configured context, or a cache whose layer count or
    /// resident length does not match `range.start`.
    pub fn prefill_chunk_ws(
        &self,
        prompt: &[u32],
        range: Range<usize>,
        hook: &mut dyn GemmHook,
        ws: &mut Workspace,
        cache: &mut KvCache,
    ) -> Result<MatF32> {
        self.check_window(prompt, &range, cache.seq_len())?;
        let kv = KvTarget::Solo(cache);
        self.forward(&prompt[range], Stage::Prefill, kv, hook, ws)
    }

    /// Advances several slots' chunked prefills in **one** batched forward: every chunk's
    /// rows are stacked into a single activation matrix (announced to the hook as one
    /// [`RowPartition`] with one group per slot), so the shared weight GEMMs — and their
    /// checksums — run once for the whole step instead of once per slot, and protectors
    /// attribute any detection in a chunk's rows to the right sequence and apply that
    /// sequence's protection scheme. This is the substrate of the serving layer's budgeted
    /// admission: a long prompt is advanced a budget-bounded window at a time between
    /// decode steps, and a wave of admissions costs one forward, not one per request.
    ///
    /// Per-row activation quantization and per-sequence attention over each slot's own
    /// resident codes make each chunk's rows independent of its batch neighbours, so every
    /// returned logits matrix (one per chunk, in `chunks` order, each an ordinary owned
    /// value) is bit-identical to advancing that sequence alone via
    /// [`Model::prefill_chunk_ws`].
    ///
    /// # Errors
    ///
    /// Returns an error for an empty chunk list, an out-of-range or duplicate slot, or any
    /// chunk failing the [`Model::prefill_chunk_ws`] validation against its slot.
    pub fn prefill_chunks_batch_ws(
        &self,
        chunks: &[PrefillChunk<'_>],
        cache: &mut BatchedKvCache,
        hook: &mut dyn GemmHook,
        ws: &mut Workspace,
    ) -> Result<Vec<MatF32>> {
        if chunks.is_empty() {
            return Err(invalid("cannot advance an empty chunk batch".into()));
        }
        let mut lens = vec![0usize; cache.batch_size()];
        for chunk in chunks {
            let slot = chunk.slot;
            if slot >= lens.len() {
                let slots = lens.len();
                return Err(invalid(format!(
                    "chunk targets slot {slot} of a {slots}-slot batched cache"
                )));
            }
            if lens[slot] != 0 {
                return Err(invalid(format!(
                    "slot {slot} appears twice in the chunk batch"
                )));
            }
            self.check_window(chunk.prompt, &chunk.range, cache.seq_len(slot))?;
            lens[slot] = chunk.range.len();
        }
        let parts = RowPartition::from_lens(&lens);
        // Activation rows must follow slot order (the partition's group order), not the
        // caller's chunk order.
        let mut by_slot: Vec<&PrefillChunk<'_>> = chunks.iter().collect();
        by_slot.sort_unstable_by_key(|c| c.slot);
        let stacked: Vec<u32> = by_slot
            .iter()
            .flat_map(|c| c.prompt[c.range.clone()].iter().copied())
            .collect();
        let kv = KvTarget::Batch(cache, &parts);
        let logits = self.forward(&stacked, Stage::Prefill, kv, hook, ws)?;
        let per_chunk = chunks
            .iter()
            .map(|c| {
                let range = parts.range(c.slot);
                logits
                    .rows_slice(range.start, range.len())
                    .map_err(Into::into)
            })
            .collect::<Result<Vec<_>>>();
        ws.recycle_mat_f32(logits);
        per_chunk
    }

    /// Runs one shared prefill over a ragged batch of prompts — prompt `i` whole, as one
    /// [`Model::prefill_chunks_batch_ws`] chunk into slot `i` of a fresh
    /// [`Model::new_batched_cache`] — returning per-sequence logits and the populated cache.
    ///
    /// Every shared component (`Q`/`K`/`V`/`O`, MLP) runs — and is checksummed/inspected —
    /// once per layer for the whole batch instead of once per sequence. Per-sequence logits
    /// are bit-identical to running [`Model::prefill`] on each prompt alone.
    ///
    /// # Errors
    ///
    /// Returns an error for an empty batch, empty prompts, out-of-range tokens, or prompts
    /// longer than the configured context.
    pub fn prefill_batch(
        &self,
        prompts: &[Vec<u32>],
        hook: &mut dyn GemmHook,
    ) -> Result<(Vec<MatF32>, BatchedKvCache)> {
        let mut cache = self.new_batched_cache(prompts.len());
        let chunks: Vec<PrefillChunk<'_>> = prompts
            .iter()
            .enumerate()
            .map(|(slot, prompt)| PrefillChunk::whole(prompt, slot))
            .collect();
        let mut ws = Workspace::new();
        let logits = self.prefill_chunks_batch_ws(&chunks, &mut cache, hook, &mut ws)?;
        Ok((logits, cache))
    }

    /// Runs one decode step for `token`, updating the KV cache, and returns the logits for
    /// the next token.
    ///
    /// Every intermediate is drawn from `ws` — with a long-lived workspace this is the
    /// allocation-free decode hot loop (`tests/zero_alloc.rs` proves zero heap allocations
    /// per step after warmup). The returned logits vector is workspace-pooled; recycle it
    /// with [`Workspace::recycle_vec_f32`] once consumed.
    ///
    /// # Errors
    ///
    /// Returns an error if the token is out of range or the context length is exceeded.
    pub fn decode_step_ws(
        &self,
        token: u32,
        cache: &mut KvCache,
        hook: &mut dyn GemmHook,
        ws: &mut Workspace,
    ) -> Result<Vec<f32>> {
        self.check_room(cache.seq_len())?;
        let logits = self.forward(&[token], Stage::Decode, KvTarget::Solo(cache), hook, ws)?;
        let mut row = ws.take_vec_f32(logits.cols());
        row.copy_from_slice(logits.row(0));
        ws.recycle_mat_f32(logits);
        Ok(row)
    }

    /// Runs one lockstep decode step for a batch — the per-token step of the
    /// continuous-batching serving loop: `tokens[i]` is the pending token of sequence `i`,
    /// or `None` for sequences that are idle or have completed (they contribute no rows).
    ///
    /// Returns the next-token logits per sequence (`None` for inactive sequences), each
    /// bit-identical to running [`Model::decode_step_ws`] on that sequence alone. Every
    /// activation intermediate is drawn from `ws` and each logits vector is workspace-pooled;
    /// recycle them with [`Workspace::recycle_vec_f32`] once consumed.
    ///
    /// # Errors
    ///
    /// Returns an error if `tokens` does not match the cache's batch size, a token is out
    /// of range, or an active sequence would exceed the context window.
    pub fn decode_step_batch_ws(
        &self,
        tokens: &[Option<u32>],
        cache: &mut BatchedKvCache,
        hook: &mut dyn GemmHook,
        ws: &mut Workspace,
    ) -> Result<Vec<Option<Vec<f32>>>> {
        if tokens.len() != cache.batch_size() {
            return Err(invalid(format!(
                "decode step has {} token slots but the cache serves {} sequences",
                tokens.len(),
                cache.batch_size()
            )));
        }
        let active: Vec<u32> = tokens.iter().filter_map(|t| *t).collect();
        if active.is_empty() {
            return Ok(vec![None; tokens.len()]);
        }
        for (i, token) in tokens.iter().enumerate() {
            if token.is_some() {
                self.check_room(cache.seq_len(i))?;
            }
        }
        let lens: Vec<usize> = tokens.iter().map(|t| usize::from(t.is_some())).collect();
        let parts = RowPartition::from_lens(&lens);
        let kv = KvTarget::Batch(cache, &parts);
        let logits = self.forward(&active, Stage::Decode, kv, hook, ws)?;
        let mut rows = 0..logits.rows();
        let out = tokens
            .iter()
            .map(|token| {
                let row = token.and_then(|_| rows.next())?;
                let mut seq_logits = ws.take_vec_f32(logits.cols());
                seq_logits.copy_from_slice(logits.row(row));
                Some(seq_logits)
            })
            .collect();
        ws.recycle_mat_f32(logits);
        Ok(out)
    }

    /// Batched greedy generation: ragged prompts share one prefill, then lockstep decode
    /// runs until every request has produced its own `max_new_tokens`.
    ///
    /// Each lockstep step stacks the pending token of every still-active sequence into one
    /// decode forward; a sequence that reaches its budget simply stops contributing rows
    /// (its batch index — and therefore per-sequence attribution — stays stable). Outputs
    /// come back in request order, token-identical to calling [`Model::generate`] once per
    /// request.
    ///
    /// # Example
    ///
    /// ```
    /// use realm_llm::batch::BatchRequest;
    /// use realm_llm::{config::ModelConfig, model::Model, NoopHook};
    ///
    /// # fn main() -> Result<(), realm_llm::LlmError> {
    /// let model = Model::new(&ModelConfig::tiny_opt(), 42)?;
    /// let requests = vec![
    ///     BatchRequest::new(vec![1, 5, 9], 4),
    ///     BatchRequest::new(vec![2, 7], 6),
    /// ];
    /// let outputs = model.generate_batch(&requests, &mut NoopHook)?;
    /// assert_eq!(outputs[0].tokens.len(), 4);
    /// assert_eq!(outputs[1].tokens.len(), 6);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns an error for an empty request list, empty prompts, out-of-range tokens, or
    /// any request whose prompt plus generation budget exceeds the model's context window.
    pub fn generate_batch(
        &self,
        requests: &[BatchRequest],
        hook: &mut dyn GemmHook,
    ) -> Result<Vec<GenerationOutput>> {
        let max_seq_len = self.config.max_seq_len;
        for (i, request) in requests.iter().enumerate() {
            if request.prompt.len() + request.max_new_tokens > max_seq_len {
                return Err(invalid(format!(
                    "request {i}: prompt ({}) plus generation ({}) exceeds max_seq_len \
                     {max_seq_len}",
                    request.prompt.len(),
                    request.max_new_tokens
                )));
            }
        }
        // One workspace for the whole run: the shared prefill warms the pools, every
        // lockstep decode step after that reuses them.
        let mut ws = Workspace::new();
        let mut cache = self.new_batched_cache(requests.len());
        let chunks: Vec<PrefillChunk<'_>> = requests
            .iter()
            .enumerate()
            .map(|(slot, r)| PrefillChunk::whole(&r.prompt, slot))
            .collect();
        let logits = self.prefill_chunks_batch_ws(&chunks, &mut cache, hook, &mut ws)?;
        let mut pending: Vec<(u32, f32)> = logits
            .iter()
            .map(|l| argmax_with_margin(l.row(l.rows() - 1)))
            .collect();
        let mut outputs: Vec<GenerationOutput> = requests
            .iter()
            .map(|r| GenerationOutput {
                tokens: Vec::with_capacity(r.max_new_tokens),
                margins: Vec::with_capacity(r.max_new_tokens),
            })
            .collect();
        loop {
            // Commit the pending token of every sequence still below its budget, mirroring
            // the single-sequence `generate` loop: push first, then decode only if more
            // tokens are needed.
            let step: Vec<Option<u32>> = outputs
                .iter_mut()
                .zip(requests)
                .zip(&pending)
                .map(|((out, request), &(next, margin))| {
                    if out.tokens.len() < request.max_new_tokens {
                        out.tokens.push(next);
                        out.margins.push(margin);
                    }
                    (out.tokens.len() < request.max_new_tokens).then_some(next)
                })
                .collect();
            if step.iter().all(Option::is_none) {
                return Ok(outputs);
            }
            let step_logits = self.decode_step_batch_ws(&step, &mut cache, hook, &mut ws)?;
            for (slot, logits) in pending.iter_mut().zip(step_logits) {
                if let Some(logits) = logits {
                    *slot = argmax_with_margin(&logits);
                    ws.recycle_vec_f32(logits);
                }
            }
            ws.reset();
        }
    }

    /// Greedy autoregressive generation: prefill the prompt, then generate `num_tokens`.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`Model::prefill`] and [`Model::decode_step_ws`]; also returns
    /// [`LlmError::InvalidSequence`] if the total length would exceed the context window.
    pub fn generate(
        &self,
        prompt: &[u32],
        num_tokens: usize,
        hook: &mut dyn GemmHook,
    ) -> Result<GenerationOutput> {
        if prompt.len() + num_tokens > self.config.max_seq_len {
            return Err(invalid(format!(
                "prompt ({}) plus generation ({num_tokens}) exceeds max_seq_len {}",
                prompt.len(),
                self.config.max_seq_len
            )));
        }
        // One workspace for the whole generation: the prefill warms the pools and every
        // decode step after that reuses them.
        let mut ws = Workspace::new();
        let (logits, mut cache) = self.prefill_ws(prompt, hook, &mut ws)?;
        let (mut next, mut margin) = argmax_with_margin(logits.row(logits.rows() - 1));
        ws.recycle_mat_f32(logits);
        let mut tokens = Vec::with_capacity(num_tokens);
        let mut margins = Vec::with_capacity(num_tokens);
        for _ in 0..num_tokens {
            tokens.push(next);
            margins.push(margin);
            if tokens.len() == num_tokens {
                break;
            }
            let step_logits = self.decode_step_ws(next, &mut cache, hook, &mut ws)?;
            let (n, m) = argmax_with_margin(&step_logits);
            ws.recycle_vec_f32(step_logits);
            ws.reset();
            next = n;
            margin = m;
        }
        Ok(GenerationOutput { tokens, margins })
    }

    /// Total number of multiply-accumulate operations the GEMMs of a monolithic prefill of
    /// `prompt_len` tokens execute — equal to what a [`crate::hooks::RecordingHook`] sums
    /// over [`Model::prefill`].
    ///
    /// Used by the energy model to translate a workload into systolic-array activity.
    pub fn prefill_macs(&self, prompt_len: usize) -> u64 {
        let (h, f) = (self.config.hidden_size as u64, self.config.ffn_size as u64);
        let m = prompt_len as u64;
        let attn_proj = 4 * m * h * h; // Q, K, V, O
                                       // Per head, QK^T is the full (m x d) * (d x m) rectangle — the causal mask is applied
                                       // after the GEMM — and SV the matching (m x m) * (m x d); over all heads each side
                                       // is m * m * hidden.
        let attn_scores = 2 * m * m * h;
        let mlp = match self.config.architecture {
            crate::Architecture::OptStyle => 2 * m * h * f,
            crate::Architecture::LlamaStyle => 3 * m * h * f,
        };
        (attn_proj + attn_scores + mlp) * self.config.num_layers as u64
    }
}

/// An [`LlmError::InvalidSequence`] carrying `detail`.
fn invalid(detail: String) -> LlmError {
    LlmError::InvalidSequence { detail }
}

/// Returns the index of the maximum logit and the margin to the runner-up.
pub fn argmax_with_margin(logits: &[f32]) -> (u32, f32) {
    let mut best = (0usize, f32::NEG_INFINITY);
    let mut second = f32::NEG_INFINITY;
    for (i, &v) in logits.iter().enumerate() {
        if v > best.1 {
            second = best.1;
            best = (i, v);
        } else if v > second {
            second = v;
        }
    }
    let margin = if second.is_finite() {
        best.1 - second
    } else {
        0.0
    };
    (best.0 as u32, margin)
}

/// Internal stream label separating weight generation from other seed-derived streams.
const MODEL_WEIGHT_STREAM: u64 = 0x004d_4f44_454c;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::{GemmContext, NoopHook, RecordingHook};
    use crate::Component;
    use realm_tensor::{MatI32, MatI8};

    #[test]
    fn model_builds_for_all_presets() {
        for config in [
            ModelConfig::tiny_opt(),
            ModelConfig::tiny_llama(),
            ModelConfig::opt_1_3b_proxy(),
        ] {
            let m = Model::new(&config, 1).unwrap();
            assert_eq!(m.config().name, config.name);
        }
    }

    #[test]
    fn model_is_deterministic_in_seed() {
        let config = ModelConfig::tiny_opt();
        let a = Model::new(&config, 5).unwrap();
        let b = Model::new(&config, 5).unwrap();
        let (la, _) = a.prefill(&[1, 2, 3], &mut NoopHook).unwrap();
        let (lb, _) = b.prefill(&[1, 2, 3], &mut NoopHook).unwrap();
        assert_eq!(la, lb);
    }

    #[test]
    fn embed_validates_tokens() {
        let m = Model::new(&ModelConfig::tiny_opt(), 0).unwrap();
        assert!(m.embed(&[]).is_err());
        assert!(m.embed(&[1000]).is_err());
        assert!(m.embed(&[0, 1, 2]).is_ok());
    }

    #[test]
    fn prefill_produces_one_logit_row_per_token() {
        let config = ModelConfig::tiny_opt();
        let m = Model::new(&config, 3).unwrap();
        let (logits, cache) = m.prefill(&[1, 2, 3, 4, 5], &mut NoopHook).unwrap();
        assert_eq!(logits.shape(), (5, config.vocab_size));
        assert_eq!(cache.seq_len(), 5);
        assert!(logits.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn prefill_rejects_overlong_prompt() {
        let config = ModelConfig::tiny_opt();
        let m = Model::new(&config, 3).unwrap();
        let prompt: Vec<u32> = (0..config.max_seq_len as u32 + 1).map(|t| t % 8).collect();
        assert!(m.prefill(&prompt, &mut NoopHook).is_err());
    }

    #[test]
    fn clean_model_predicts_successor_tokens() {
        let config = ModelConfig::tiny_opt();
        let m = Model::new(&config, 7).unwrap();
        let lang = m.language().clone();
        // Build a prompt that follows the synthetic language exactly.
        let mut prompt = vec![3u32];
        for _ in 0..10 {
            prompt.push(lang.successor(*prompt.last().unwrap()));
        }
        let (logits, _) = m.prefill(&prompt, &mut NoopHook).unwrap();
        let mut correct = 0;
        for i in 0..prompt.len() - 1 {
            let (pred, _) = argmax_with_margin(logits.row(i));
            if pred == prompt[i + 1] {
                correct += 1;
            }
        }
        assert!(
            correct as f32 / (prompt.len() - 1) as f32 > 0.6,
            "clean model should usually predict the successor ({correct}/{})",
            prompt.len() - 1
        );
    }

    #[test]
    fn generate_respects_requested_length_and_context() {
        let config = ModelConfig::tiny_opt();
        let m = Model::new(&config, 9).unwrap();
        let out = m.generate(&[1, 2, 3], 6, &mut NoopHook).unwrap();
        assert_eq!(out.tokens.len(), 6);
        assert_eq!(out.margins.len(), 6);
        assert!(out.tokens.iter().all(|&t| (t as usize) < config.vocab_size));
        let too_long = m.generate(&[0; 30], 10, &mut NoopHook);
        assert!(too_long.is_err());
    }

    #[test]
    fn decode_steps_use_decode_stage() {
        let config = ModelConfig::tiny_opt();
        let m = Model::new(&config, 9).unwrap();
        let (_, mut cache) = m.prefill(&[1, 2], &mut NoopHook).unwrap();
        let mut rec = RecordingHook::new();
        m.decode_step_ws(5, &mut cache, &mut rec, &mut Workspace::new())
            .unwrap();
        assert!(!rec.calls.is_empty());
        assert!(rec.calls.iter().all(|c| c.stage == Stage::Decode));
        assert_eq!(rec.count_for(Component::O), config.num_layers);
    }

    #[test]
    fn sharded_model_is_bit_exact_with_unsharded() {
        for config in [ModelConfig::tiny_opt(), ModelConfig::tiny_llama()] {
            let base = Model::new(&config, 11).unwrap();
            let mut sharded_cfg = config.clone();
            sharded_cfg.tp_degree = 3;
            let sharded = Model::new(&sharded_cfg, 11).unwrap();
            assert!(sharded.tp_group().is_some());
            let a = base.generate(&[1, 2, 3], 8, &mut NoopHook).unwrap();
            let b = sharded.generate(&[1, 2, 3], 8, &mut NoopHook).unwrap();
            assert_eq!(a, b, "{}", config.name);
        }
    }

    #[test]
    fn set_tensor_parallel_reshards_and_restores_in_place() {
        let config = ModelConfig::tiny_opt();
        let mut m = Model::new(&config, 4).unwrap();
        let clean = m.generate(&[2, 3], 6, &mut NoopHook).unwrap();
        m.set_tensor_parallel(4);
        assert_eq!(m.config().tp_degree, 4);
        assert_eq!(m.shard_stats().len(), 4);
        assert_eq!(m.generate(&[2, 3], 6, &mut NoopHook).unwrap(), clean);
        m.set_tensor_parallel(0);
        assert_eq!(m.config().tp_degree, 1);
        assert!(m.tp_group().is_none() && m.shard_stats().is_empty());
        assert_eq!(m.generate(&[2, 3], 6, &mut NoopHook).unwrap(), clean);
    }

    #[test]
    fn chunked_prefill_is_bit_exact_with_monolithic() {
        let config = ModelConfig::tiny_opt();
        let m = Model::new(&config, 21).unwrap();
        let prompt: Vec<u32> = (0..9u32).map(|t| (t * 3 + 1) % 16).collect();
        let (full, full_cache) = m.prefill(&prompt, &mut NoopHook).unwrap();
        for chunk in [1usize, 2, 4, 9] {
            let mut ws = Workspace::new();
            let mut cache = m.new_cache();
            let mut row = 0usize;
            let mut start = 0usize;
            while start < prompt.len() {
                let end = (start + chunk).min(prompt.len());
                let logits = m
                    .prefill_chunk_ws(&prompt, start..end, &mut NoopHook, &mut ws, &mut cache)
                    .unwrap();
                for r in 0..logits.rows() {
                    assert_eq!(
                        full.row(row),
                        logits.row(r),
                        "chunk size {chunk}, position {row}"
                    );
                    row += 1;
                }
                ws.recycle_mat_f32(logits);
                start = end;
            }
            assert_eq!(cache.seq_len(), prompt.len());
            assert_eq!(cache, full_cache, "chunk size {chunk}: cache contents");
        }
        // Validation: empty window, misaligned resident prefix, overlong prompt.
        let mut ws = Workspace::new();
        let mut cache = m.new_cache();
        assert!(m
            .prefill_chunk_ws(&prompt, 3..3, &mut NoopHook, &mut ws, &mut cache)
            .is_err());
        assert!(m
            .prefill_chunk_ws(&prompt, 2..4, &mut NoopHook, &mut ws, &mut cache)
            .is_err());
        let long = vec![0u32; config.max_seq_len + 1];
        assert!(m
            .prefill_chunk_ws(&long, 0..2, &mut NoopHook, &mut ws, &mut cache)
            .is_err());
    }

    #[test]
    fn chunked_slot_prefill_matches_solo_and_announces_the_slot() {
        /// Records every announced partition's per-slot row counts.
        #[derive(Default)]
        struct Announcements(Vec<Vec<usize>>);
        impl GemmHook for Announcements {
            fn on_gemm(&mut self, _: &GemmContext, _: &MatI8, _: &MatI8, _: &mut MatI32) {}
            fn on_batch_begin(&mut self, partition: &RowPartition) {
                self.0.push(partition.lens());
            }
        }
        let config = ModelConfig::tiny_opt();
        let m = Model::new(&config, 23).unwrap();
        let prompts = vec![vec![1u32, 2, 3], vec![4, 5]];
        let (_, mut batched) = m.prefill_batch(&prompts, &mut NoopHook).unwrap();
        batched.release_slot(1);

        let prompt: Vec<u32> = (0..7u32).map(|t| (t * 5 + 2) % 16).collect();
        let mut announced = Announcements::default();
        let (full, _) = m.prefill(&prompt, &mut announced).unwrap();
        assert!(announced.0.is_empty(), "a solo forward announces nothing");
        let mut ws = Workspace::new();
        let mut advance = |range: Range<usize>, slot, hook: &mut dyn GemmHook| {
            let prompt = &prompt;
            let chunk = [PrefillChunk {
                prompt,
                range,
                slot,
            }];
            m.prefill_chunks_batch_ws(&chunk, &mut batched, hook, &mut ws)
        };
        let mut row = 0usize;
        for range in [0..3usize, 3..4, 4..7] {
            let logits = advance(range, 1, &mut announced).unwrap().remove(0);
            for r in 0..logits.rows() {
                assert_eq!(full.row(row), logits.row(r), "position {row}");
                row += 1;
            }
        }
        assert_eq!(
            announced.0,
            [[0, 3], [0, 1], [0, 3]],
            "one partition per forward"
        );

        // Misaligned chunk, out-of-range slot, a slot named twice and an empty batch are
        // rejected.
        assert!(advance(0..2, 1, &mut NoopHook).is_err());
        assert!(advance(0..2, 9, &mut NoopHook).is_err());
        let twice = [
            PrefillChunk::whole(&prompt, 1),
            PrefillChunk::whole(&prompt, 1),
        ];
        batched.release_slot(1);
        assert!(m
            .prefill_chunks_batch_ws(&twice, &mut batched, &mut NoopHook, &mut ws)
            .is_err());
        assert!(m
            .prefill_chunks_batch_ws(&[], &mut batched, &mut NoopHook, &mut ws)
            .is_err());
        assert_eq!(batched.seq_len(0), 3, "the resident neighbour is untouched");
    }

    #[test]
    fn a_cache_of_the_wrong_depth_is_rejected_by_every_entry_point() {
        let m = Model::new(&ModelConfig::tiny_opt(), 3).unwrap();
        let (c, mut ws) = (m.config(), Workspace::new());
        let mut solo = KvCache::new(c.num_layers + 1, c.num_heads, c.head_dim(), 0);
        assert!(m
            .prefill_chunk_ws(&[1, 2], 0..2, &mut NoopHook, &mut ws, &mut solo)
            .is_err());
        assert!(m
            .decode_step_ws(1, &mut solo, &mut NoopHook, &mut ws)
            .is_err());
        let mut batched = BatchedKvCache::new(c.num_layers - 1, 1, c.num_heads, c.head_dim());
        let chunk = [PrefillChunk::whole(&[1, 2], 0)];
        assert!(m
            .prefill_chunks_batch_ws(&chunk, &mut batched, &mut NoopHook, &mut ws)
            .is_err());
        assert!(m
            .decode_step_batch_ws(&[Some(1)], &mut batched, &mut NoopHook, &mut ws)
            .is_err());
    }

    #[test]
    fn mac_models_equal_what_the_hooks_observe() {
        for config in [ModelConfig::tiny_opt(), ModelConfig::tiny_llama()] {
            let m = Model::new(&config, 0).unwrap();
            for len in [1usize, 4, 16] {
                let prompt: Vec<u32> = (0..len as u32).collect();
                let mut rec = RecordingHook::new();
                m.prefill(&prompt, &mut rec).unwrap();
                assert_eq!(
                    m.prefill_macs(len),
                    rec.total_macs,
                    "{} len {len}",
                    config.name
                );
            }
        }
    }

    #[test]
    fn generate_batch_respects_per_request_budgets() {
        let model = Model::new(&ModelConfig::tiny_opt(), 11).unwrap();
        let requests = vec![
            BatchRequest::new(vec![1, 2, 3], 5),
            BatchRequest::new(vec![4, 5], 2),
            BatchRequest::new(vec![6], 0),
        ];
        let outputs = model.generate_batch(&requests, &mut NoopHook).unwrap();
        assert_eq!(outputs[0].tokens.len(), 5);
        assert_eq!(outputs[1].tokens.len(), 2);
        assert!(outputs[2].tokens.is_empty());
    }

    #[test]
    fn generate_batch_rejects_over_budget_requests() {
        let model = Model::new(&ModelConfig::tiny_opt(), 11).unwrap();
        let max = model.config().max_seq_len;
        let requests = vec![BatchRequest::new(vec![0; max], 1)];
        assert!(model.generate_batch(&requests, &mut NoopHook).is_err());
    }

    #[test]
    fn argmax_with_margin_finds_top_two() {
        let (idx, margin) = argmax_with_margin(&[0.1, 3.0, 2.5, -1.0]);
        assert_eq!(idx, 1);
        assert!((margin - 0.5).abs() < 1e-6);
        let (idx, margin) = argmax_with_margin(&[7.0]);
        assert_eq!(idx, 0);
        assert_eq!(margin, 0.0);
    }
}
