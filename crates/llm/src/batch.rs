//! Batched inference: ragged batches, per-slot KV storage, and the lockstep request type.
//!
//! [`BatchedKvCache`] is the model's one KV store. A solo sequence is slot 0 of a one-slot
//! cache, and run that way, one sequence at a time, every prefill/decode GEMM runs once *per
//! sequence*, so ABFT checksum and detection cost scales with the number of sequences. The
//! same forward over several slots takes all sequences' activations stacked into one
//! `(sum_tokens, hidden)` matrix and runs **one** fused-checksum GEMM per shared component
//! per layer (`Q`/`K`/`V`/`O` and the MLP), so detection cost amortises across the batch —
//! the regime the paper's energy-accuracy tradeoff assumes. Only the attention-internal GEMMs
//! (`QKᵀ`, `SV`) stay per-sequence — one rectangular score GEMM and one context GEMM per
//! (sequence, head) over that sequence's own slot of the cache, because each sequence has
//! its own resident length and causal mask.
//!
//! Everything is bit-exact with running each sequence alone: activations are quantized with
//! one symmetric scale per row (see
//! [`quantize_symmetric_rows_into`](crate::quantized::quantize_symmetric_rows_into)) and
//! cached keys/values keep one scale per token row, so a
//! batched [`crate::Model::generate_batch`] produces token-identical output to running
//! [`crate::Model::generate`] once per sequence — the contract `tests/batched_parity.rs`
//! enforces on every GEMM backend.

use crate::kv_cache::LayerCache;
use crate::{LlmError, Result};
use realm_tensor::{MatF32, RowPartition};

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
                .map(|_| LayerCache::new(layer, num_heads, head_dim))
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

/// The model's KV cache, covering every layer: one slot per sequence.
///
/// Each of the `batch_size` *slots* holds one sequence's keys/values across all layers; a
/// solo sequence ([`crate::Model::prefill`], [`crate::Model::decode_step_ws`]) is slot 0 of
/// a one-slot cache.
/// Slots are reusable: [`BatchedKvCache::release_slot`] frees a completed sequence's rows
/// and the next occupant prefills straight into the vacancy
/// ([`crate::Model::prefill_chunks_batch_ws`]) — the mechanism the continuous-batching serving
/// layer (`realm-serve`) is built on.
///
/// # Example
///
/// ```
/// use realm_llm::model::PrefillChunk;
/// use realm_llm::{config::ModelConfig, model::Model, NoopHook};
/// use realm_tensor::Workspace;
///
/// # fn main() -> Result<(), realm_llm::LlmError> {
/// let model = Model::new(&ModelConfig::tiny_opt(), 42)?;
/// let prompts = vec![vec![1, 2, 3], vec![4, 5]];
/// let (_, mut cache) = model.prefill_batch(&prompts, &mut NoopHook)?;
///
/// // Sequence 0 completes: recycle its slot for a new request.
/// cache.release_slot(0);
/// assert_eq!(cache.seq_len(0), 0);
/// let admitted = [PrefillChunk::whole(&[7, 8, 9, 10], 0)];
/// let mut ws = Workspace::new();
/// let rows = model.prefill_chunks_batch_ws(&admitted, &mut cache, &mut NoopHook, &mut ws)?;
/// assert_eq!((cache.seq_len(0), cache.seq_len(1)), (4, 2));
///
/// // One logits row per chunk: the one that predicts the token after its window.
/// assert_eq!(rows[0].len(), model.config().vocab_size);
/// rows.into_iter().for_each(|row| ws.recycle_vec_f32(row));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BatchedKvCache {
    layers: Vec<BatchedLayerCache>,
    batch_size: usize,
    /// The row partition of the latest forward, which the next one refills in place so a
    /// warmed step allocates none. Scratch, not contents: equality ignores it.
    pub(crate) step: Option<RowPartition>,
}

impl PartialEq for BatchedKvCache {
    fn eq(&self, other: &Self) -> bool {
        (self.batch_size, &self.layers) == (other.batch_size, &other.layers)
    }
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
            step: None,
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

    /// Frees slot `seq` across every layer so a new sequence can prefill into it.
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
}

/// One generation request of a [`crate::Model::generate_batch`] call.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::model::{Model, PrefillChunk};
    use crate::NoopHook;
    use realm_tensor::Workspace;

    /// A solo store holding rows `rows` of `keys`/`values` — what a batch slot fed the same
    /// rows must equal.
    fn solo_rows(layer: usize, keys: &MatF32, values: &MatF32, rows: &[usize]) -> LayerCache {
        let mut solo = LayerCache::new(layer, 2, 2);
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
    fn a_freed_slot_prefills_to_the_rows_a_solo_prefill_caches() {
        let model = Model::new(&ModelConfig::tiny_opt(), 11).unwrap();
        let prompts = vec![vec![1u32, 2, 3], vec![4, 5]];
        let (_, mut batched) = model.prefill_batch(&prompts, &mut NoopHook).unwrap();
        let neighbour = batched.clone();
        let newcomer = [6u32, 7, 8, 9];
        let (_, solo) = model.prefill(&newcomer, &mut NoopHook).unwrap();

        assert!(batched.seq_len(0) > 0);
        batched.release_slot(0);
        assert_eq!(batched.seq_len(0), 0);
        let (solo_logits, _) = model.prefill(&newcomer, &mut NoopHook).unwrap();
        let chunk = [PrefillChunk::whole(&newcomer, 0)];
        let rows = model
            .prefill_chunks_batch_ws(&chunk, &mut batched, &mut NoopHook, &mut Workspace::new())
            .unwrap();
        assert_eq!(rows, [solo_logits.row(newcomer.len() - 1)]);
        for layer in 0..batched.num_layers() {
            let admitted = batched.layer(layer).slot(0);
            assert_eq!(admitted, solo.layer(layer).slot(0), "layer {layer}");
            assert_eq!(
                batched.layer(layer).slot(1),
                neighbour.layer(layer).slot(1),
                "layer {layer}: the resident neighbour is untouched"
            );

            // Loading the same rows as f32 (code · scale, what the projections emitted)
            // reproduces the codes exactly.
            let (heads, d) = (admitted.num_heads(), admitted.head_dim());
            let keys = MatF32::from_fn(admitted.len(), heads * d, |t, c| {
                admitted.key_codes(c / d)[(c % d, t)] as f32 * admitted.key_scales()[t]
            });
            let values = MatF32::from_fn(admitted.len(), heads * d, |t, c| {
                admitted.value_codes(c / d)[(t, c % d)] as f32 * admitted.value_scales()[t]
            });
            let mut loaded = BatchedLayerCache::new(layer, 1, heads, d);
            loaded.load_slot(0, &keys, &values).unwrap();
            for h in 0..heads {
                assert_eq!(loaded.slot(0).key_codes(h), admitted.key_codes(h));
                assert_eq!(loaded.slot(0).value_codes(h), admitted.value_codes(h));
            }
        }
    }
}
