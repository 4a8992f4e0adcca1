//! The full generative model: embedding, block stack, final normalization and LM head.
//!
//! Inference follows the paper's two-stage split:
//!
//! * [`Model::prefill`] consumes the whole prompt at once (batched GEMMs on the systolic
//!   array) and populates the KV cache;
//! * [`Model::decode_step_ws`] produces one token at a time, reusing the KV cache (mostly
//!   GEMV work in hardware, but numerically identical here).
//!
//! # One forward, six entry points
//!
//! Every entry point validates its window and calls the one private forward routine (embed
//! → blocks → final norm and LM head) with a [`Stage`], a [`BatchedKvCache`] and each
//! slot's tokens; the routine refills the cache's [`RowPartition`] of the pass's rows over
//! the slots and returns the logits of the rows the entry point reads (the table's last
//! column). A solo sequence is slot 0 of a one-slot cache, so
//! hooks see one rule for every pass: the forward announces its partition
//! ([`GemmHook::on_batch_begin`]) before any GEMM, every shared GEMM (`Q`/`K`/`V`/`O`, MLP)
//! is tagged [`GemmOrigin::BatchedRows`], and each sequence's `QKᵀ`/`SV` GEMMs are tagged
//! `Sequence(slot)`. Every quantized GEMM runs through the hook interface, so error
//! injection and ABFT protection see exactly the same computation whichever entry point
//! issued it.
//!
//! | entry point | cache | validates | logits |
//! |---|---|---|---|
//! | [`Model::prefill`], [`Model::prefill_ws`] | fresh, one slot, one whole-prompt chunk | as `prefill_chunks_batch_ws` | every row |
//! | [`Model::decode_step_ws`] | one slot | one slot, room for one more token | one row |
//! | [`Model::prefill_batch`] | fresh, one whole-prompt chunk per slot | as `prefill_chunks_batch_ws` | every row, per sequence |
//! | [`Model::prefill_chunks_batch_ws`] | any | non-empty chunk list, slot in range and named once; per chunk: prompt ≤ context, window non-empty and inside the prompt, resident length = window start | one row per chunk, its window's last |
//! | [`Model::decode_step_batch_ws`] | any | one token slot per cache slot, room in every active slot | one row per active sequence |
//!
//! The forward routine itself checks the cache's layer count and the token ids. The final
//! norm, LM head and temperature run on every row for the evaluation entry points, where
//! perplexity scores every position, and on the last row of each sequence otherwise. Both
//! work row by row, so a returned row is the same whichever other rows are computed.
//!
//! [`GemmOrigin::BatchedRows`]: crate::GemmOrigin::BatchedRows

use crate::batch::{BatchRequest, BatchedKvCache};
use crate::component::Stage;
use crate::config::ModelConfig;
use crate::hooks::GemmHook;
use crate::quantized::ForwardPass;
use crate::weights::{self, ModelWeights, SyntheticLanguage};
use crate::{LlmError, Result};
use realm_tensor::{GemmEngine, MatF32, RowKernels, RowPartition, Workspace};
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

/// The rows of a forward's final hidden state that the final norm, LM head and
/// temperature run on: the rows whose logits a caller reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HeadRows {
    /// Every row, one logits row per token: the evaluation entry points, where perplexity
    /// scores every position.
    Every,
    /// The last row of each non-empty partition group, in group order: the row that
    /// predicts the token after a chunk's window, and every row of a decode step.
    LastOfEachGroup,
}

/// A synthetic quantized LLM.
#[derive(Debug, Clone)]
pub struct Model {
    config: ModelConfig,
    weights: ModelWeights,
    logit_temperature: f32,
    engine: Arc<dyn GemmEngine>,
}

impl Model {
    /// Builds a model with synthetic weights derived deterministically from `seed` (see
    /// [`weights`] for the recipe).
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::InvalidConfig`] if the configuration fails validation.
    pub fn new(config: &ModelConfig, seed: u64) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            config: config.clone(),
            weights: weights::synthetic(config, seed),
            logit_temperature: DEFAULT_LOGIT_TEMPERATURE,
            engine: config.engine.build(),
        })
    }

    /// The GEMM execution backend every quantized GEMM of this model runs on.
    ///
    /// Selected by [`ModelConfig::engine`] at construction; all backends are bit-exact, so
    /// swapping it changes wall-clock speed, never a single logit.
    pub fn engine(&self) -> &dyn GemmEngine {
        self.engine.as_ref()
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The synthetic language the model was constructed to predict.
    pub fn language(&self) -> &SyntheticLanguage {
        &self.weights.language
    }

    /// Current logit temperature.
    pub fn logit_temperature(&self) -> f32 {
        self.logit_temperature
    }

    /// Overrides the logit temperature (useful for calibrating task difficulty).
    pub fn set_logit_temperature(&mut self, temperature: f32) {
        self.logit_temperature = temperature.max(1e-3);
    }

    /// Creates an empty KV cache for `batch_size` sequences. Slots reserve nothing
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
        if tokens.is_empty() {
            return Err(LlmError::InvalidSequence {
                detail: "cannot embed an empty token sequence".into(),
            });
        }
        let mut out = MatF32::zeros(tokens.len(), self.config.hidden_size);
        self.embed_rows(tokens.iter().copied(), &mut out)?;
        Ok(out)
    }

    /// Copies the embedding of the `i`-th of `tokens` into row `i` of `x`.
    fn embed_rows(&self, tokens: impl IntoIterator<Item = u32>, x: &mut MatF32) -> Result<()> {
        let vocab = self.config.vocab_size;
        for (row, token) in tokens.into_iter().enumerate() {
            if token as usize >= vocab {
                return Err(LlmError::TokenOutOfRange { token, vocab });
            }
            x.row_mut(row)
                .copy_from_slice(self.weights.embedding.row(token as usize));
        }
        Ok(())
    }

    /// The one forward pass behind every entry point: `slots` yields the tokens of each
    /// slot of `cache` in slot order, empty for a slot that sits the pass out. Refills the
    /// partition the cache kept from its previous pass, announces it to the hook, embeds
    /// the tokens into a workspace matrix, runs it through every block against `cache` and
    /// returns the workspace-pooled logits of the rows `rows` selects ([`Model::head`]). A
    /// warmed pass allocates nothing.
    fn forward<'t>(
        &self,
        slots: impl Iterator<Item = &'t [u32]> + Clone,
        stage: Stage,
        rows: HeadRows,
        cache: &mut BatchedKvCache,
        hook: &mut dyn GemmHook,
        ws: &mut Workspace,
    ) -> Result<MatF32> {
        if cache.num_layers() != self.weights.blocks.len() {
            return Err(invalid(format!(
                "the model has {} layers but the KV cache covers {}",
                self.weights.blocks.len(),
                cache.num_layers()
            )));
        }
        let mut parts = cache
            .step
            .take()
            .unwrap_or_else(|| RowPartition::from_lens(&[]));
        parts.refill(slots.clone().map(<[u32]>::len));
        let mut x = ws.take_mat_f32(parts.total_rows(), self.config.hidden_size);
        let logits = match self.embed_rows(slots.flatten().copied(), &mut x) {
            Ok(()) => {
                hook.on_batch_begin(&parts);
                let mut pass = ForwardPass::new(stage, self.engine.as_ref(), hook, ws);
                let mut layers = self.weights.blocks.iter().enumerate();
                let hidden = layers.try_fold(x, |x, (layer, block)| {
                    block.forward(x, layer, cache, &parts, &mut pass)
                });
                hidden.map(|x| self.head(x, &parts, rows, ws))
            }
            Err(e) => {
                ws.recycle_mat_f32(x);
                Err(e)
            }
        };
        cache.step = Some(parts);
        logits
    }

    /// Final norm, LM head and temperature on the rows of the final hidden state `x` that
    /// `rows` selects (`parts` partitions `x`'s rows): workspace-pooled logits, one row per
    /// selected row, in row order. Both the norm and the head work row by row, so a row's
    /// logits do not depend on which other rows are selected.
    fn head(
        &self,
        mut x: MatF32,
        parts: &RowPartition,
        rows: HeadRows,
        ws: &mut Workspace,
    ) -> MatF32 {
        if rows == HeadRows::LastOfEachGroup {
            let groups = (0..parts.num_groups()).filter(|&g| parts.len(g) > 0);
            let selected = groups.clone().count();
            // A decode step selects every row as it is; only multi-row groups need a copy.
            if selected < x.rows() {
                let mut last = ws.take_mat_f32(selected, x.cols());
                for (row, g) in groups.enumerate() {
                    last.row_mut(row)
                        .copy_from_slice(x.row(parts.range(g).end - 1));
                }
                ws.recycle_mat_f32(std::mem::replace(&mut x, last));
            }
        }
        let mut normed = ws.take_mat_f32(x.rows(), x.cols());
        self.weights.final_norm.forward_into(&x, &mut normed);
        ws.recycle_mat_f32(x);
        let mut logits = ws.take_mat_f32(normed.rows(), self.weights.lm_head.cols());
        let kernels = RowKernels::granted();
        for row in 0..normed.rows() {
            kernels.project_row(normed.row(row), &self.weights.lm_head, logits.row_mut(row));
        }
        ws.recycle_mat_f32(normed);
        logits.scale_in_place(1.0 / self.logit_temperature);
        logits
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

    /// Runs the prefill stage over a prompt, returning per-position logits and the KV cache:
    /// slot 0 of a one-slot [`BatchedKvCache`].
    ///
    /// Row `i` of the returned logits predicts the token at position `i + 1`, which is what
    /// perplexity evaluation needs.
    ///
    /// # Errors
    ///
    /// Returns an error for empty prompts, out-of-range tokens, prompts longer than the
    /// configured context, or internal shape mismatches.
    pub fn prefill(
        &self,
        prompt: &[u32],
        hook: &mut dyn GemmHook,
    ) -> Result<(MatF32, BatchedKvCache)> {
        self.prefill_ws(prompt, hook, &mut Workspace::new())
    }

    /// [`Model::prefill`] drawing every intermediate from `ws`: the whole prompt as one
    /// [`Model::prefill_chunks_batch_ws`] chunk into a fresh one-slot cache. The returned
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
    ) -> Result<(MatF32, BatchedKvCache)> {
        let mut cache = self.new_batched_cache(1);
        let chunk = [PrefillChunk::whole(prompt, 0)];
        let logits = self.prefill_stacked(&chunk, &mut cache, HeadRows::Every, hook, ws)?;
        Ok((logits, cache))
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
    /// Returns one workspace-pooled logits row per chunk, in `chunks` order (recycle each
    /// with [`Workspace::recycle_vec_f32`] once consumed): the row at the window's last
    /// position, which predicts the token after the window — for a prompt's final chunk,
    /// the request's first generated token. The final norm and LM head run on those rows
    /// only, as in [`Model::decode_step_batch_ws`]. Per-row activation quantization and
    /// per-sequence attention over each slot's own resident codes make each chunk's rows
    /// independent of its batch neighbours, so every returned row is bit-identical to
    /// advancing that sequence alone in a one-slot cache.
    ///
    /// Chunked prefill is **bit-identical** to the monolithic [`Model::prefill`] at any
    /// chunk granularity on every backend and TP degree: activations are quantized per row,
    /// cached keys/values keep one scale per token row and every query row's scores are
    /// masked to its visible prefix of the cache, so no number in the forward pass depends
    /// on where the chunk boundaries fall (`tests/chunked_parity.rs`): each returned row
    /// is the monolithic prefill's row at the window's last position.
    ///
    /// # Errors
    ///
    /// Returns an error for an empty chunk list, an out-of-range or duplicate slot, or a
    /// chunk whose prompt exceeds the configured context, whose window is empty or outside
    /// its prompt, or whose slot's resident length is not the window start; also for
    /// out-of-range tokens or a cache whose layer count does not match the model.
    pub fn prefill_chunks_batch_ws(
        &self,
        chunks: &[PrefillChunk<'_>],
        cache: &mut BatchedKvCache,
        hook: &mut dyn GemmHook,
        ws: &mut Workspace,
    ) -> Result<Vec<Vec<f32>>> {
        let rows = HeadRows::LastOfEachGroup;
        let logits = self.prefill_stacked(chunks, cache, rows, hook, ws)?;
        // One row per chunk, in slot order.
        let per_chunk = chunks
            .iter()
            .map(|c| {
                let row = chunks.iter().filter(|other| other.slot < c.slot).count();
                let mut out = ws.take_vec_f32(logits.cols());
                out.copy_from_slice(logits.row(row));
                out
            })
            .collect();
        ws.recycle_mat_f32(logits);
        Ok(per_chunk)
    }

    /// Validates `chunks` against `cache` and runs them as one prefill forward, returning
    /// the workspace-pooled logits of the rows `rows` selects, stacked in slot order.
    fn prefill_stacked(
        &self,
        chunks: &[PrefillChunk<'_>],
        cache: &mut BatchedKvCache,
        rows: HeadRows,
        hook: &mut dyn GemmHook,
        ws: &mut Workspace,
    ) -> Result<MatF32> {
        if chunks.is_empty() {
            return Err(invalid("cannot advance an empty chunk batch".into()));
        }
        let slots = cache.batch_size();
        for (i, chunk) in chunks.iter().enumerate() {
            let slot = chunk.slot;
            if slot >= slots {
                return Err(invalid(format!(
                    "chunk targets slot {slot} of a {slots}-slot batched cache"
                )));
            }
            if chunks[..i].iter().any(|other| other.slot == slot) {
                return Err(invalid(format!(
                    "slot {slot} appears twice in the chunk batch"
                )));
            }
            self.check_window(chunk.prompt, &chunk.range, cache.seq_len(slot))?;
        }
        // Activation rows follow slot order (the partition's group order), not the
        // caller's chunk order.
        let window = |slot| match chunks.iter().find(|c| c.slot == slot) {
            Some(chunk) => &chunk.prompt[chunk.range.clone()],
            None => &[],
        };
        let windows = (0..slots).map(window);
        self.forward(windows, Stage::Prefill, rows, cache, hook, ws)
    }

    /// Runs one shared prefill over a ragged batch of prompts — prompt `i` whole, as one
    /// [`Model::prefill_chunks_batch_ws`] chunk into slot `i` of a fresh
    /// [`Model::new_batched_cache`] — returning per-sequence logits (one row per position,
    /// as [`Model::prefill`] returns) and the populated cache.
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
        let rows = HeadRows::Every;
        let logits =
            self.prefill_stacked(&chunks, &mut cache, rows, hook, &mut Workspace::new())?;
        let mut start = 0;
        let per_sequence = prompts
            .iter()
            .map(|prompt| {
                let sequence = logits.rows_slice(start, prompt.len());
                start += prompt.len();
                sequence.map_err(Into::into)
            })
            .collect::<Result<Vec<_>>>()?;
        Ok((per_sequence, cache))
    }

    /// Runs one decode step for `token` on a one-slot cache (what [`Model::prefill`]
    /// returns), updating it, and returns the logits for the next token.
    ///
    /// Every intermediate is drawn from `ws` — with a long-lived workspace this is the
    /// allocation-free decode hot loop (`tests/zero_alloc.rs` proves zero heap allocations
    /// per step after warmup). The returned logits vector is workspace-pooled; recycle it
    /// with [`Workspace::recycle_vec_f32`] once consumed.
    ///
    /// # Errors
    ///
    /// Returns an error if the cache does not have exactly one slot, the token is out of
    /// range or the context length is exceeded.
    pub fn decode_step_ws(
        &self,
        token: u32,
        cache: &mut BatchedKvCache,
        hook: &mut dyn GemmHook,
        ws: &mut Workspace,
    ) -> Result<Vec<f32>> {
        if cache.batch_size() != 1 {
            return Err(invalid(format!(
                "a solo decode step needs a one-slot cache, not {} slots",
                cache.batch_size()
            )));
        }
        self.check_room(cache.seq_len(0))?;
        let rows = HeadRows::LastOfEachGroup;
        let slot = std::iter::once(std::slice::from_ref(&token));
        let logits = self.forward(slot, Stage::Decode, rows, cache, hook, ws)?;
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
        if tokens.iter().all(Option::is_none) {
            return Ok(vec![None; tokens.len()]);
        }
        for (i, token) in tokens.iter().enumerate() {
            if token.is_some() {
                self.check_room(cache.seq_len(i))?;
            }
        }
        let slots = tokens.iter().map(Option::as_slice);
        let rows = HeadRows::LastOfEachGroup;
        let logits = self.forward(slots, Stage::Decode, rows, cache, hook, ws)?;
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
            .into_iter()
            .map(|row| {
                let next = argmax_with_margin(&row);
                ws.recycle_vec_f32(row);
                next
            })
            .collect();
        let mut outputs: Vec<GenerationOutput> = requests
            .iter()
            .map(|r| GenerationOutput {
                tokens: Vec::with_capacity(r.max_new_tokens),
                margins: Vec::with_capacity(r.max_new_tokens),
            })
            .collect();
        loop {
            // Commit the pending token of every sequence still below its budget: push
            // first, then decode only if more tokens are needed.
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

    /// Greedy autoregressive generation: prefill the prompt, then generate `num_tokens` — a
    /// one-request [`Model::generate_batch`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Model::generate_batch`] for the one request.
    pub fn generate(
        &self,
        prompt: &[u32],
        num_tokens: usize,
        hook: &mut dyn GemmHook,
    ) -> Result<GenerationOutput> {
        let request = BatchRequest::new(prompt.to_vec(), num_tokens);
        Ok(self.generate_batch(&[request], hook)?.remove(0))
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
        assert_eq!((cache.batch_size(), cache.seq_len(0)), (1, 5));
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
    fn chunked_prefill_is_bit_exact_with_monolithic() {
        let config = ModelConfig::tiny_opt();
        let m = Model::new(&config, 21).unwrap();
        let prompt: Vec<u32> = (0..9u32).map(|t| (t * 3 + 1) % 16).collect();
        let (full, full_cache) = m.prefill(&prompt, &mut NoopHook).unwrap();
        let mut ws = Workspace::new();
        let mut advance = |prompt, range, cache: &mut BatchedKvCache| {
            let chunk = [PrefillChunk {
                prompt,
                range,
                slot: 0,
            }];
            m.prefill_chunks_batch_ws(&chunk, cache, &mut NoopHook, &mut ws)
        };
        // Each chunk's row is the monolithic row at its window's last position; at chunk
        // size 1 that is every position.
        for chunk in [1usize, 2, 4, 9] {
            let mut cache = m.new_batched_cache(1);
            let mut start = 0usize;
            while start < prompt.len() {
                let end = (start + chunk).min(prompt.len());
                let logits = advance(&prompt, start..end, &mut cache).unwrap().remove(0);
                let last = end - 1;
                assert_eq!(
                    full.row(last),
                    logits,
                    "chunk size {chunk}, position {last}"
                );
                start = end;
            }
            assert_eq!(cache.seq_len(0), prompt.len());
            assert_eq!(cache, full_cache, "chunk size {chunk}: cache contents");
        }
        // Validation: empty window, misaligned resident prefix, overlong prompt.
        let mut cache = m.new_batched_cache(1);
        assert!(advance(&prompt, 3..3, &mut cache).is_err());
        assert!(advance(&prompt, 2..4, &mut cache).is_err());
        let long = vec![0u32; config.max_seq_len + 1];
        assert!(advance(&long, 0..2, &mut cache).is_err());
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
        assert_eq!(announced.0, [[7]], "a solo forward is a batch of one");
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
        for range in [0..3usize, 3..4, 4..7] {
            let last = range.end - 1;
            let logits = advance(range, 1, &mut announced).unwrap().remove(0);
            assert_eq!(full.row(last), logits, "position {last}");
        }
        assert_eq!(
            announced.0[1..],
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
        let chunk = [PrefillChunk::whole(&[1, 2], 0)];
        for depth in [c.num_layers + 1, c.num_layers - 1] {
            let mut cache = BatchedKvCache::new(depth, 1, c.num_heads, c.head_dim());
            assert!(m
                .prefill_chunks_batch_ws(&chunk, &mut cache, &mut NoopHook, &mut ws)
                .is_err());
            assert!(m
                .decode_step_ws(1, &mut cache, &mut NoopHook, &mut ws)
                .is_err());
            assert!(m
                .decode_step_batch_ws(&[Some(1)], &mut cache, &mut NoopHook, &mut ws)
                .is_err());
        }
        // The solo decode step takes a one-slot cache only, and turns a wider one away
        // before any GEMM runs.
        let (_, mut two) = m
            .prefill_batch(&[vec![1, 2], vec![3]], &mut NoopHook)
            .unwrap();
        let mut rec = RecordingHook::new();
        let err = m
            .decode_step_ws(1, &mut two, &mut rec, &mut ws)
            .unwrap_err();
        assert!(err.to_string().contains("2 slots"), "{err}");
        assert!(rec.calls.is_empty());
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
