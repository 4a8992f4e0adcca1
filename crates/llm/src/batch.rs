//! Batched inference: ragged batches, per-slot KV storage, and the lockstep scheduler.
//!
//! The single-sequence forward path runs every prefill/decode GEMM once *per sequence*, so
//! ABFT checksum and detection cost scales with the number of sequences. The batched path
//! stacks all sequences' activations into one `(sum_tokens, hidden)` matrix and runs **one**
//! fused-checksum GEMM per shared component per layer (`Q`/`K`/`V`/`O` and the MLP), so
//! detection cost amortises across the batch — the regime the paper's energy-accuracy
//! tradeoff assumes. Only the attention-internal GEMMs (`QKᵀ`, `SV`) stay per-sequence —
//! one rectangular score GEMM and one context GEMM per (sequence, head) over that
//! sequence's own slot of the cache, because each sequence has its own resident length and
//! causal mask.
//!
//! Everything is bit-exact with the single-sequence path: activations are quantized with one
//! symmetric scale per row (see
//! [`quantize_symmetric_rows_into`](crate::quantized::quantize_symmetric_rows_into)) and
//! cached keys/values keep one scale per token row, so a
//! batched [`crate::Model::generate_batch`] produces token-identical output to running
//! [`crate::Model::generate`] once per sequence — the contract `tests/batched_parity.rs`
//! enforces on every GEMM backend.

use crate::kv_cache::{KvCache, LayerCache};
use crate::model::{argmax_with_margin, GenerationOutput, Model};
use crate::{GemmHook, LlmError, Result};
use realm_tensor::{MatF32, RowPartition, Workspace};

/// Per-layer KV storage for a whole batch: one [`LayerCache`] per sequence slot.
///
/// Each slot owns its own head-major INT8 storage, so appending, releasing and loading one
/// sequence never moves another's rows. Ragged lengths are the normal case — prompts
/// differ, and sequences complete at different lockstep steps.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchedLayerCache {
    layer: usize,
    slots: Vec<LayerCache>,
}

impl BatchedLayerCache {
    /// Creates empty storage for `batch_size` sequences of `num_heads` heads of `head_dim`
    /// channels at `layer`. Nothing is reserved: a slot grows with its occupant and keeps
    /// its storage across [`BatchedLayerCache::release_slot`], so it stops allocating once
    /// it has held a sequence as long as the ones it serves (reserving every slot's full
    /// context window up front measurably raised the serving process's peak RSS).
    pub fn new(layer: usize, batch_size: usize, num_heads: usize, head_dim: usize) -> Self {
        Self {
            layer,
            slots: (0..batch_size)
                .map(|_| LayerCache::new(layer, num_heads, head_dim, 0))
                .collect(),
        }
    }

    /// Number of sequences this cache serves.
    pub fn batch_size(&self) -> usize {
        self.slots.len()
    }

    /// Number of cached token positions for sequence `seq`.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range.
    pub fn seq_len(&self, seq: usize) -> usize {
        self.slots[seq].len()
    }

    /// Sequence `seq`'s store.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range.
    pub fn slot(&self, seq: usize) -> &LayerCache {
        &self.slots[seq]
    }

    /// Appends each sequence's new key/value rows (grouped by `parts`) in place to that
    /// sequence's slot. Sequences with an empty group (completed sequences during
    /// lockstep decode) are untouched.
    ///
    /// # Errors
    ///
    /// Returns an error naming this cache's layer index if the partition does not cover
    /// `keys`, or the shapes of `keys`/`values` disagree with each other or the slots.
    pub fn append_batch(
        &mut self,
        keys: &MatF32,
        values: &MatF32,
        parts: &RowPartition,
    ) -> Result<()> {
        if parts.num_groups() != self.slots.len() || parts.total_rows() != keys.rows() {
            return Err(LlmError::InvalidSequence {
                detail: format!(
                    "batched KV cache at layer {}: partition ({} groups, {} rows) does not \
                     match batch size {} and {} new rows",
                    self.layer,
                    parts.num_groups(),
                    parts.total_rows(),
                    self.slots.len(),
                    keys.rows()
                ),
            });
        }
        // Every slot has the same geometry, so a shape error surfaces at the first slot,
        // before any has grown.
        for (seq, slot) in self.slots.iter_mut().enumerate() {
            slot.append_rows(keys, values, parts.range(seq))?;
        }
        Ok(())
    }

    /// Frees sequence `seq`'s slot: its rows are dropped (the storage stays for the next
    /// occupant), so a new sequence can be loaded with
    /// [`BatchedLayerCache::load_slot`]. Releasing an already-empty slot is a no-op.
    ///
    /// This is the layer-level mechanism behind continuous batching: a completed sequence
    /// returns its slot immediately instead of holding it until the whole batch drains.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range.
    pub fn release_slot(&mut self, seq: usize) {
        self.slots[seq].clear();
    }

    /// Loads a sequence's `keys` and `values` (shape `(prompt_len, hidden)`) into the empty
    /// slot `seq`, quantizing per token row exactly as an append does.
    ///
    /// # Errors
    ///
    /// Returns an error naming this cache's layer index if the slot is still occupied, the
    /// rows are empty, or their shapes disagree with each other or the slot.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range.
    pub fn load_slot(&mut self, seq: usize, keys: &MatF32, values: &MatF32) -> Result<()> {
        let resident = self.slots[seq].len();
        if resident != 0 || keys.rows() == 0 {
            return Err(LlmError::InvalidSequence {
                detail: format!(
                    "batched KV cache at layer {}: cannot load {} rows into slot {seq} holding \
                     {resident} rows (the slot must be released and the sequence non-empty)",
                    self.layer,
                    keys.rows()
                ),
            });
        }
        self.slots[seq].append(keys, values)
    }
}

/// Batched KV cache covering every layer of the model.
///
/// Each of the `batch_size` *slots* holds one sequence's keys/values across all layers.
/// Slots are reusable: [`BatchedKvCache::release_slot`] frees a completed sequence's rows
/// and [`BatchedKvCache::admit`] copies a freshly prefilled sequence into the vacancy —
/// the mechanism the continuous-batching serving layer (`realm-serve`) is built on.
///
/// # Example
///
/// ```
/// use realm_llm::{config::ModelConfig, model::Model, NoopHook};
///
/// # fn main() -> Result<(), realm_llm::LlmError> {
/// let model = Model::new(&ModelConfig::tiny_opt(), 42)?;
/// let prompts = vec![vec![1, 2, 3], vec![4, 5]];
/// let (_, mut cache) = model.prefill_batch(&prompts, &mut NoopHook)?;
///
/// // Sequence 0 completes: recycle its slot for a new request.
/// cache.release_slot(0);
/// assert!(cache.is_slot_free(0));
/// let (_, solo) = model.prefill(&[7, 8, 9, 10], &mut NoopHook)?;
/// cache.admit(0, &solo)?;
/// assert_eq!(cache.seq_len(0), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BatchedKvCache {
    layers: Vec<BatchedLayerCache>,
    batch_size: usize,
}

impl BatchedKvCache {
    /// Creates an empty cache for `num_layers` layers serving `batch_size` sequences of
    /// `num_heads` heads of `head_dim` channels (see [`BatchedLayerCache::new`]).
    pub fn new(num_layers: usize, batch_size: usize, num_heads: usize, head_dim: usize) -> Self {
        Self {
            layers: (0..num_layers)
                .map(|layer| BatchedLayerCache::new(layer, batch_size, num_heads, head_dim))
                .collect(),
            batch_size,
        }
    }

    /// Number of layers the cache covers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Number of sequences the cache serves.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Cached token positions of sequence `seq` (identical across layers once populated).
    pub fn seq_len(&self, seq: usize) -> usize {
        self.layers.first().map_or(0, |l| l.seq_len(seq))
    }

    /// Accesses the storage of one layer.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn layer(&self, layer: usize) -> &BatchedLayerCache {
        &self.layers[layer]
    }

    /// Mutably accesses the storage of one layer.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn layer_mut(&mut self, layer: usize) -> &mut BatchedLayerCache {
        &mut self.layers[layer]
    }

    /// Returns `true` if slot `seq` holds no cached rows and can accept a new sequence.
    pub fn is_slot_free(&self, seq: usize) -> bool {
        self.seq_len(seq) == 0
    }

    /// Frees slot `seq` across every layer so a new sequence can be admitted into it.
    ///
    /// Releasing an already-free slot is a no-op. This is the primitive continuous batching
    /// is built on: completed sequences return their KV rows between lockstep decode steps
    /// instead of holding the slot until the whole batch drains.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range.
    pub fn release_slot(&mut self, seq: usize) {
        for layer in &mut self.layers {
            layer.release_slot(seq);
        }
    }

    /// Admits a freshly prefilled sequence into the free slot `seq`, copying the per-layer
    /// codes and scales of `solo` (a cache populated by [`crate::Model::prefill`]) verbatim.
    ///
    /// The copied rows are bit-identical to what a shared [`crate::Model::prefill_batch`]
    /// would have cached for the same prompt, so decode steps after admission produce the
    /// same tokens a solo [`crate::Model::generate`] run would — the slot-reuse parity
    /// contract of `tests/serve_continuous.rs`.
    ///
    /// # Errors
    ///
    /// Returns an error if the layer counts or head geometry disagree, `solo` is empty at
    /// any layer, or the slot is still occupied. On error the slot is left free (a partial
    /// admission is rolled back), so a failed admit never leaves it inconsistent across
    /// layers.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range.
    pub fn admit(&mut self, seq: usize, solo: &KvCache) -> Result<()> {
        self.admit_layers(seq, solo.num_layers(), solo.seq_len(), |l| solo.layer(l))
    }

    /// Admits sequence `source_seq` of another batched cache into the free slot `seq` —
    /// the batched-admission counterpart of [`BatchedKvCache::admit`], with the same
    /// verbatim copy, parity contract and rollback.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BatchedKvCache::admit`], on the source sequence.
    ///
    /// # Panics
    ///
    /// Panics if `seq` or `source_seq` is out of range.
    pub fn admit_from(
        &mut self,
        seq: usize,
        source: &BatchedKvCache,
        source_seq: usize,
    ) -> Result<()> {
        self.admit_layers(seq, source.num_layers(), source.seq_len(source_seq), |l| {
            source.layer(l).slot(source_seq)
        })
    }

    /// Copies `source_layers` per-layer stores (`incoming` tokens each) into slot `seq`.
    fn admit_layers<'a>(
        &mut self,
        seq: usize,
        source_layers: usize,
        incoming: usize,
        source: impl Fn(usize) -> &'a LayerCache,
    ) -> Result<()> {
        if source_layers != self.layers.len() {
            return Err(LlmError::InvalidSequence {
                detail: format!(
                    "cannot admit a {source_layers}-layer cache into slot {seq} of a {}-layer \
                     batched cache",
                    self.layers.len()
                ),
            });
        }
        if self.seq_len(seq) != 0 {
            return Err(LlmError::InvalidSequence {
                detail: format!(
                    "cannot admit a {incoming}-token sequence into slot {seq}: the slot still \
                     holds {} resident tokens; release it first",
                    self.seq_len(seq)
                ),
            });
        }
        for layer_idx in 0..self.layers.len() {
            let from = source(layer_idx);
            let copied = if from.is_empty() {
                Err(LlmError::InvalidSequence {
                    detail: format!(
                        "cannot admit an unprefilled sequence into slot {seq}: layer \
                         {layer_idx} of the source cache is empty (expected {incoming} \
                         resident rows)"
                    ),
                })
            } else {
                self.layers[layer_idx].slots[seq].copy_from(from)
            };
            if let Err(e) = copied {
                self.release_slot(seq);
                return Err(e);
            }
        }
        Ok(())
    }
}

/// One generation request handed to the [`BatchScheduler`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRequest {
    /// Prompt tokens (must be non-empty).
    pub prompt: Vec<u32>,
    /// Number of tokens to generate for this request.
    pub max_new_tokens: usize,
}

impl BatchRequest {
    /// Creates a request.
    pub fn new(prompt: Vec<u32>, max_new_tokens: usize) -> Self {
        Self {
            prompt,
            max_new_tokens,
        }
    }
}

/// Packs ragged prompts into one shared prefill, then drives lockstep decode with
/// per-sequence completion.
///
/// Each lockstep step stacks the pending token of every still-active sequence into one
/// decode forward; sequences that reach their requested length simply stop contributing rows
/// (their batch index — and therefore per-sequence attribution — stays stable). Output is
/// token-identical to running [`Model::generate`] once per request.
///
/// # Example
///
/// ```
/// use realm_llm::batch::{BatchRequest, BatchScheduler};
/// use realm_llm::{config::ModelConfig, model::Model, NoopHook};
///
/// # fn main() -> Result<(), realm_llm::LlmError> {
/// let model = Model::new(&ModelConfig::tiny_opt(), 42)?;
/// let requests = vec![
///     BatchRequest::new(vec![1, 5, 9], 4),
///     BatchRequest::new(vec![2, 7], 6),
/// ];
/// let outputs = BatchScheduler::new(&model).run(&requests, &mut NoopHook)?;
/// assert_eq!(outputs[0].tokens.len(), 4);
/// assert_eq!(outputs[1].tokens.len(), 6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BatchScheduler<'m> {
    model: &'m Model,
}

impl<'m> BatchScheduler<'m> {
    /// Creates a scheduler driving `model`.
    pub fn new(model: &'m Model) -> Self {
        Self { model }
    }

    /// Rejects any request whose prompt plus generation budget exceeds the context window.
    fn validate_requests(&self, requests: &[BatchRequest]) -> Result<()> {
        let max_seq_len = self.model.config().max_seq_len;
        for (i, request) in requests.iter().enumerate() {
            if request.prompt.len() + request.max_new_tokens > max_seq_len {
                return Err(LlmError::InvalidSequence {
                    detail: format!(
                        "request {i}: prompt ({}) plus generation ({}) exceeds max_seq_len \
                         {max_seq_len}",
                        request.prompt.len(),
                        request.max_new_tokens
                    ),
                });
            }
        }
        Ok(())
    }

    /// Runs every request to completion and returns one [`GenerationOutput`] per request,
    /// in request order.
    ///
    /// # Errors
    ///
    /// Returns an error for an empty request list, empty prompts, out-of-range tokens, or
    /// any request whose prompt plus generation budget exceeds the model's context window.
    pub fn run(
        &self,
        requests: &[BatchRequest],
        hook: &mut dyn GemmHook,
    ) -> Result<Vec<GenerationOutput>> {
        self.validate_requests(requests)?;
        // One workspace for the whole run: the shared prefill warms the pools, every
        // lockstep decode step after that reuses them.
        let mut ws = Workspace::new();
        let prompts: Vec<Vec<u32>> = requests.iter().map(|r| r.prompt.clone()).collect();
        let (logits, mut cache) = self.model.prefill_batch_ws(&prompts, hook, &mut ws)?;

        struct SeqState {
            tokens: Vec<u32>,
            margins: Vec<f32>,
            next: u32,
            margin: f32,
            target: usize,
        }
        let mut states: Vec<SeqState> = logits
            .iter()
            .zip(requests)
            .map(|(l, request)| {
                let (next, margin) = argmax_with_margin(l.row(l.rows() - 1));
                SeqState {
                    tokens: Vec::with_capacity(request.max_new_tokens),
                    margins: Vec::with_capacity(request.max_new_tokens),
                    next,
                    margin,
                    target: request.max_new_tokens,
                }
            })
            .collect();

        loop {
            // Commit the pending token of every sequence still below its target, mirroring
            // the single-sequence `generate` loop: push first, then decode only if more
            // tokens are needed.
            for state in states.iter_mut() {
                if state.tokens.len() < state.target {
                    state.tokens.push(state.next);
                    state.margins.push(state.margin);
                }
            }
            let step: Vec<Option<u32>> = states
                .iter()
                .map(|s| (s.tokens.len() < s.target).then_some(s.next))
                .collect();
            if step.iter().all(Option::is_none) {
                break;
            }
            let step_logits = self
                .model
                .decode_step_batch_ws(&step, &mut cache, hook, &mut ws)?;
            for (state, logits) in states.iter_mut().zip(step_logits) {
                if let Some(logits) = logits {
                    let (next, margin) = argmax_with_margin(&logits);
                    ws.recycle_vec_f32(logits);
                    state.next = next;
                    state.margin = margin;
                }
            }
            ws.reset();
        }
        Ok(states
            .into_iter()
            .map(|s| GenerationOutput {
                tokens: s.tokens,
                margins: s.margins,
            })
            .collect())
    }

    /// Runs every request through a **continuous-batching** window of at most `slots`
    /// concurrent sequences and returns one [`GenerationOutput`] per request, in request
    /// order.
    ///
    /// Unlike [`BatchScheduler::run`] — which keeps every completed sequence's batch slot
    /// empty until the whole batch drains — this loop releases a slot the moment its
    /// sequence reaches its generation budget ([`BatchedKvCache::release_slot`]) and admits
    /// the next queued request into it ([`BatchedKvCache::admit`]) between decode steps, so
    /// the batch stays full under sustained load. Admission order is FIFO.
    ///
    /// The first `slots` requests share one batched prefill; later admissions are prefilled
    /// solo and their KV rows copied into the freed slot. Either way every request's tokens
    /// are bit-identical to a solo [`Model::generate`] run — continuous batching changes
    /// throughput, never output.
    ///
    /// # Example
    ///
    /// ```
    /// use realm_llm::batch::{BatchRequest, BatchScheduler};
    /// use realm_llm::{config::ModelConfig, model::Model, NoopHook};
    ///
    /// # fn main() -> Result<(), realm_llm::LlmError> {
    /// let model = Model::new(&ModelConfig::tiny_opt(), 42)?;
    /// let requests = vec![
    ///     BatchRequest::new(vec![1, 5, 9], 2),
    ///     BatchRequest::new(vec![2, 7], 6),
    ///     BatchRequest::new(vec![3], 4),
    /// ];
    /// // A 2-slot window: request 2 is admitted as soon as a slot frees up.
    /// let outputs = BatchScheduler::new(&model).run_with_slots(&requests, 2, &mut NoopHook)?;
    /// assert_eq!(outputs[2].tokens.len(), 4);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Hooks and attribution
    ///
    /// Every forward — the shared initial prefill, each solo admission prefill and every
    /// lockstep decode step — runs through the one `hook`. A solo admission prefill is an
    /// ordinary single-sequence forward: its GEMMs are tagged
    /// [`GemmOrigin::Sequence`](crate::GemmOrigin)`(0)` and announce no partition, so a
    /// protector attributes them to index 0 regardless of which request is being admitted
    /// (and applies an index-0 per-sequence scheme, if one is installed). Callers that
    /// need per-request protection policies or per-request attribution across admissions
    /// should use `realm-serve`'s `ServeEngine`, which prefills each admission under its
    /// own protector.
    ///
    /// # Errors
    ///
    /// Returns an error for `slots == 0`, an empty request list, empty prompts,
    /// out-of-range tokens, or any request whose prompt plus generation budget exceeds the
    /// model's context window.
    pub fn run_with_slots(
        &self,
        requests: &[BatchRequest],
        slots: usize,
        hook: &mut dyn GemmHook,
    ) -> Result<Vec<GenerationOutput>> {
        if slots == 0 {
            return Err(LlmError::InvalidSequence {
                detail: "continuous batching needs at least one slot".into(),
            });
        }
        if requests.len() <= slots {
            // The window covers everything; the lockstep path is already optimal.
            return self.run(requests, hook);
        }
        self.validate_requests(requests)?;

        struct SlotState {
            request: usize,
            last: u32,
            tokens: Vec<u32>,
            margins: Vec<f32>,
            target: usize,
        }
        /// Builds a slot's state from its prefill logits, committing the first token
        /// immediately (mirroring the solo `generate` loop) unless the budget is zero.
        fn new_state(request: usize, target: usize, last_logits: &[f32]) -> SlotState {
            let (next, margin) = argmax_with_margin(last_logits);
            let mut state = SlotState {
                request,
                last: next,
                tokens: Vec::with_capacity(target),
                margins: Vec::with_capacity(target),
                target,
            };
            if target > 0 {
                state.tokens.push(next);
                state.margins.push(margin);
            }
            state
        }
        let mut outputs: Vec<Option<GenerationOutput>> =
            (0..requests.len()).map(|_| None).collect();
        let mut active: Vec<Option<SlotState>> = (0..slots).map(|_| None).collect();
        let mut next_request = slots;

        // Shared prefill for the initial window; the first token of each sequence is
        // committed immediately, mirroring the solo `generate` loop. One workspace serves
        // the whole continuous run: initial prefill, admission prefills, decode steps.
        let mut ws = Workspace::new();
        let prompts: Vec<Vec<u32>> = requests[..slots].iter().map(|r| r.prompt.clone()).collect();
        let (logits, mut cache) = self.model.prefill_batch_ws(&prompts, hook, &mut ws)?;
        for (slot, (l, request)) in logits.iter().zip(&requests[..slots]).enumerate() {
            active[slot] = Some(new_state(slot, request.max_new_tokens, l.row(l.rows() - 1)));
        }

        loop {
            // Retire completed sequences and refill their slots from the queue. A freshly
            // admitted request may itself complete at admission (budget 0 or 1), so keep
            // admitting until the slot genuinely holds an unfinished sequence. The body
            // mutates `active[slot]`, the shared cache and the queue cursor together, so an
            // index loop is clearer than fighting iter_mut borrows.
            #[allow(clippy::needless_range_loop)]
            for slot in 0..slots {
                loop {
                    if let Some(state) = &active[slot] {
                        if state.tokens.len() < state.target {
                            break;
                        }
                        let state = active[slot].take().expect("checked above");
                        outputs[state.request] = Some(GenerationOutput {
                            tokens: state.tokens,
                            margins: state.margins,
                        });
                        cache.release_slot(slot);
                    }
                    if next_request >= requests.len() {
                        break;
                    }
                    let request = &requests[next_request];
                    // Admission caches are copied into the slot and dropped: skip the
                    // full-context-window reservation `new_cache` makes for decode caches.
                    let config = self.model.config();
                    let mut solo_cache =
                        KvCache::new(config.num_layers, config.num_heads, config.head_dim(), 0);
                    let logits = self.model.prefill_ws_into(
                        &request.prompt,
                        hook,
                        &mut ws,
                        &mut solo_cache,
                    )?;
                    cache.admit(slot, &solo_cache)?;
                    active[slot] = Some(new_state(
                        next_request,
                        request.max_new_tokens,
                        logits.row(logits.rows() - 1),
                    ));
                    ws.recycle_mat_f32(logits);
                    next_request += 1;
                }
            }

            let step: Vec<Option<u32>> = active
                .iter()
                .map(|s| s.as_ref().map(|state| state.last))
                .collect();
            if step.iter().all(Option::is_none) {
                break;
            }
            let step_logits = self
                .model
                .decode_step_batch_ws(&step, &mut cache, hook, &mut ws)?;
            for (state, logits) in active.iter_mut().zip(step_logits) {
                if let (Some(state), Some(logits)) = (state, logits) {
                    let (next, margin) = argmax_with_margin(&logits);
                    ws.recycle_vec_f32(logits);
                    state.last = next;
                    state.tokens.push(next);
                    state.margins.push(margin);
                }
            }
            ws.reset();
        }
        Ok(outputs
            .into_iter()
            .map(|o| o.expect("every request was retired through its slot"))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::NoopHook;

    /// A solo store holding rows `rows` of `keys`/`values` — what a batch slot fed the same
    /// rows must equal.
    fn solo_rows(layer: usize, keys: &MatF32, values: &MatF32, rows: &[usize]) -> LayerCache {
        let mut solo = LayerCache::new(layer, 2, 2, 0);
        for &r in rows {
            solo.append_rows(keys, values, r..r + 1).unwrap();
        }
        solo
    }

    #[test]
    fn batched_layer_cache_appends_each_group_to_its_own_slot() {
        let mut cache = BatchedLayerCache::new(1, 3, 2, 2);
        let parts = RowPartition::from_lens(&[2, 1, 2]);
        let keys = MatF32::from_fn(5, 4, |r, c| (r * 4 + c) as f32 - 7.5);
        let values = keys.scale(10.0);
        cache.append_batch(&keys, &values, &parts).unwrap();
        assert_eq!(cache.slot(0), &solo_rows(1, &keys, &values, &[0, 1]));
        assert_eq!(cache.slot(1), &solo_rows(1, &keys, &values, &[2]));
        assert_eq!(cache.slot(2), &solo_rows(1, &keys, &values, &[3, 4]));

        // Second append with an empty group for the middle sequence.
        let parts2 = RowPartition::from_lens(&[1, 0, 1]);
        let keys2 = MatF32::from_fn(2, 4, |r, c| 100.0 + (r * 4 + c) as f32);
        let values2 = keys2.scale(10.0);
        cache.append_batch(&keys2, &values2, &parts2).unwrap();
        assert_eq!(
            [cache.seq_len(0), cache.seq_len(1), cache.seq_len(2)],
            [3, 1, 3]
        );
        let mut expected = solo_rows(1, &keys, &values, &[3, 4]);
        expected.append_rows(&keys2, &values2, 1..2).unwrap();
        assert_eq!(cache.slot(2), &expected);
    }

    #[test]
    fn batched_cache_errors_name_the_layer() {
        let mut cache = BatchedLayerCache::new(5, 2, 2, 2);
        let parts = RowPartition::from_lens(&[1, 1]);
        for (keys, values) in [
            (MatF32::zeros(2, 4), MatF32::zeros(3, 4)),
            (MatF32::zeros(3, 4), MatF32::zeros(3, 4)),
            (MatF32::zeros(2, 8), MatF32::zeros(2, 8)),
        ] {
            let err = cache.append_batch(&keys, &values, &parts).unwrap_err();
            assert!(err.to_string().contains("layer 5"), "{err}");
            assert_eq!(
                cache.seq_len(0) + cache.seq_len(1),
                0,
                "a failed append grows nothing"
            );
        }
        cache
            .append_batch(&MatF32::zeros(2, 4), &MatF32::zeros(2, 4), &parts)
            .unwrap();
    }

    #[test]
    fn batched_kv_cache_tracks_all_layers() {
        let cache = BatchedKvCache::new(3, 2, 2, 4);
        assert_eq!(cache.num_layers(), 3);
        assert_eq!(cache.batch_size(), 2);
        assert_eq!(cache.seq_len(0), 0);
        assert_eq!(cache.layer(2).batch_size(), 2);
    }

    #[test]
    fn a_released_and_reloaded_slot_holds_only_its_new_occupant() {
        let mut cache = BatchedLayerCache::new(0, 3, 2, 2);
        let parts = RowPartition::from_lens(&[2, 1, 2]);
        let keys = MatF32::from_fn(5, 4, |r, c| (r * 4 + c) as f32);
        cache.append_batch(&keys, &keys.scale(2.0), &parts).unwrap();
        let neighbours = (cache.slot(0).clone(), cache.slot(2).clone());

        cache.release_slot(1);
        assert_eq!(cache.seq_len(1), 0);
        cache.release_slot(1); // releasing a free slot is a no-op

        // Loading an occupied slot fails; the freed slot takes arbitrary f32 rows, each
        // quantized with its own token-row scale — and nothing of the previous occupant.
        let fresh = MatF32::from_fn(3, 4, |r, c| (r as f32 + 1.0) * (c as f32 - 1.5));
        assert!(cache.load_slot(0, &fresh, &fresh).is_err());
        cache.load_slot(1, &fresh, &fresh.scale(2.0)).unwrap();
        assert_eq!(
            cache.slot(1),
            &solo_rows(0, &fresh, &fresh.scale(2.0), &[0, 1, 2])
        );
        let scales = cache.slot(1).key_scales();
        assert!(scales[0] < scales[1] && scales[1] < scales[2]);
        assert_eq!(
            (cache.slot(0), cache.slot(2)),
            (&neighbours.0, &neighbours.1)
        );

        // Width mismatches and empty sequences are rejected and leave the slot free.
        cache.release_slot(1);
        assert!(cache
            .load_slot(1, &MatF32::zeros(2, 8), &MatF32::zeros(2, 8))
            .is_err());
        assert!(cache
            .load_slot(1, &MatF32::zeros(0, 4), &MatF32::zeros(0, 4))
            .is_err());
        assert_eq!(cache.seq_len(1), 0);
    }

    #[test]
    fn admit_copies_codes_and_scales_into_a_free_slot() {
        let model = Model::new(&ModelConfig::tiny_opt(), 11).unwrap();
        let prompts = vec![vec![1u32, 2, 3], vec![4, 5]];
        let (_, mut batched) = model.prefill_batch(&prompts, &mut NoopHook).unwrap();
        let (_, solo) = model.prefill(&[6, 7, 8, 9], &mut NoopHook).unwrap();

        // Occupied slots reject admission until released.
        assert!(batched.admit(0, &solo).is_err());
        assert!(!batched.is_slot_free(0));
        batched.release_slot(0);
        assert!(batched.is_slot_free(0));
        batched.admit(0, &solo).unwrap();
        assert_eq!(batched.seq_len(0), 4);

        // The admitted codes and scales are the solo cache's, which are what a shared
        // prefill would have cached; `admit_from` moves them on unchanged.
        let (_, reference) = model
            .prefill_batch(&[vec![6, 7, 8, 9], vec![4, 5]], &mut NoopHook)
            .unwrap();
        let mut onward = model.new_batched_cache(3);
        onward.admit_from(2, &batched, 0).unwrap();
        for layer in 0..batched.num_layers() {
            let admitted = batched.layer(layer).slot(0);
            assert_eq!(admitted, solo.layer(layer), "layer {layer}");
            assert_eq!(admitted, reference.layer(layer).slot(0), "layer {layer}");
            assert_eq!(admitted, onward.layer(layer).slot(2), "layer {layer}");

            // Loading the same rows as f32 (code · scale, what the projections emitted)
            // reproduces the codes exactly.
            let (heads, d) = (admitted.num_heads(), admitted.head_dim());
            let keys = MatF32::from_fn(admitted.len(), heads * d, |t, c| {
                admitted.key_codes(c / d)[(t, c % d)] as f32 * admitted.key_scales()[t]
            });
            let values = MatF32::from_fn(admitted.len(), heads * d, |t, c| {
                admitted.value_codes(c / d)[(t, c % d)] as f32 * admitted.value_scales()[t]
            });
            onward
                .layer_mut(layer)
                .load_slot(1, &keys, &values)
                .unwrap();
            let loaded = onward.layer(layer).slot(1);
            for h in 0..admitted.num_heads() {
                assert_eq!(loaded.key_codes(h), admitted.key_codes(h));
                assert_eq!(loaded.value_codes(h), admitted.value_codes(h));
            }
        }

        // Admitting an unprefilled cache or a layer-count mismatch is rejected.
        batched.release_slot(0);
        assert!(batched.admit(0, &model.new_cache()).is_err());
        assert!(batched.admit(0, &KvCache::new(1, 2, 16, 0)).is_err());

        // A partially populated solo cache fails *atomically*: earlier layers are rolled
        // back, so the slot stays free and a subsequent valid admission succeeds.
        let hidden = model.config().hidden_size;
        let mut partial = model.new_cache();
        partial
            .layer_mut(0)
            .append(&MatF32::zeros(2, hidden), &MatF32::zeros(2, hidden))
            .unwrap();
        assert!(batched.admit(0, &partial).is_err());
        for layer in 0..batched.num_layers() {
            assert_eq!(
                batched.layer(layer).seq_len(0),
                0,
                "failed admit must not leave rows behind at layer {layer}"
            );
        }
        batched.admit(0, &solo).unwrap();
        assert_eq!(batched.seq_len(0), 4);
    }

    #[test]
    fn admit_errors_name_the_slot_and_lengths() {
        let model = Model::new(&ModelConfig::tiny_opt(), 11).unwrap();
        let prompts = vec![vec![1u32, 2, 3], vec![4, 5]];
        let (_, mut batched) = model.prefill_batch(&prompts, &mut NoopHook).unwrap();
        let (_, solo) = model.prefill(&[6, 7, 8, 9], &mut NoopHook).unwrap();

        // Occupied slot: names the slot and both the resident and incoming lengths.
        let err = batched.admit(1, &solo).unwrap_err().to_string();
        assert!(err.contains("slot 1"), "{err}");
        assert!(err.contains("2 resident tokens"), "{err}");
        assert!(err.contains("4-token"), "{err}");

        // Layer-count mismatch: names the slot.
        batched.release_slot(1);
        let err = batched
            .admit(1, &KvCache::new(1, 2, 16, 0))
            .unwrap_err()
            .to_string();
        assert!(err.contains("slot 1"), "{err}");

        // Unprefilled solo cache: names the slot and the empty layer.
        let err = batched
            .admit(1, &model.new_cache())
            .unwrap_err()
            .to_string();
        assert!(err.contains("slot 1"), "{err}");
        assert!(err.contains("layer 0"), "{err}");

        // admit_from mirrors the same diagnostics.
        let (_, source) = model
            .prefill_batch(&[vec![9u32, 8], vec![7, 6, 5]], &mut NoopHook)
            .unwrap();
        let err = batched.admit_from(0, &source, 1).unwrap_err().to_string();
        assert!(err.contains("slot 0"), "{err}");
        assert!(err.contains("3 resident tokens"), "{err}");
        assert!(err.contains("3-token"), "{err}");
    }

    #[test]
    fn run_with_slots_matches_lockstep_outputs() {
        let model = Model::new(&ModelConfig::tiny_opt(), 11).unwrap();
        let requests = vec![
            BatchRequest::new(vec![1, 2, 3], 5),
            BatchRequest::new(vec![4, 5], 1),
            BatchRequest::new(vec![6], 3),
            BatchRequest::new(vec![7, 8, 9, 10], 0),
            BatchRequest::new(vec![2, 4], 4),
        ];
        let scheduler = BatchScheduler::new(&model);
        let lockstep = scheduler.run(&requests, &mut NoopHook).unwrap();
        for slots in [1, 2, 3, 5] {
            let continuous = scheduler
                .run_with_slots(&requests, slots, &mut NoopHook)
                .unwrap();
            assert_eq!(
                continuous, lockstep,
                "{slots}-slot continuous run diverged from lockstep"
            );
        }
        assert!(scheduler
            .run_with_slots(&requests, 0, &mut NoopHook)
            .is_err());
    }

    #[test]
    fn scheduler_respects_per_request_budgets() {
        let model = Model::new(&ModelConfig::tiny_opt(), 11).unwrap();
        let requests = vec![
            BatchRequest::new(vec![1, 2, 3], 5),
            BatchRequest::new(vec![4, 5], 2),
            BatchRequest::new(vec![6], 0),
        ];
        let outputs = BatchScheduler::new(&model)
            .run(&requests, &mut NoopHook)
            .unwrap();
        assert_eq!(outputs[0].tokens.len(), 5);
        assert_eq!(outputs[1].tokens.len(), 2);
        assert!(outputs[2].tokens.is_empty());
    }

    #[test]
    fn scheduler_rejects_over_budget_requests() {
        let model = Model::new(&ModelConfig::tiny_opt(), 11).unwrap();
        let max = model.config().max_seq_len;
        let requests = vec![BatchRequest::new(vec![0; max], 1)];
        assert!(BatchScheduler::new(&model)
            .run(&requests, &mut NoopHook)
            .is_err());
    }
}
