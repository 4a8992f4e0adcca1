//! Key/value cache for autoregressive decoding.
//!
//! The KV cache is the mechanism behind the paper's prefill-vs-decode asymmetry (Q2.1):
//! keys and values computed during prefill are reused by every later decode step, so an error
//! injected during prefill contaminates all subsequent token generations, while an error in a
//! single decode step only perturbs that step's small contribution to the cache.
//!
//! # Layout
//!
//! A [`LayerCache`] holds one sequence's keys and values at one layer exactly as the `K`/`V`
//! requantizer produced them — INT8 codes plus one f32 scale per token row — head-major, in
//! the layout the attention GEMMs consume:
//!
//! ```text
//! keys[h]      : MatI8  T × head_dim   row t = token t's codes for head h
//! values[h]    : MatI8  T × head_dim   the `SV` GEMM's right operand as stored
//! key_scales   : [f32; T]              real K[t][h·d + c] = keys[h][t][c] · key_scales[t]
//! value_scales : [f32; T]              real V[t][h·d + c] = values[h][t][c] · value_scales[t]
//! ```
//!
//! A row leaving a `RequantizedInt8` projection is `code · row_scale` with `|code| ≤ 127`
//! and at least one code on the ±127 rail (the robust p99 scale saturates everything at or
//! above the percentile), so the per-row abs-max quantizer run at append recovers the codes
//! exactly: nothing is quantized twice. Rows are appended in place and never rewritten,
//! widened or moved afterwards.
//!
//! # Solo or batched: the [`KvTarget`]
//!
//! A forward pass is told where its new K/V rows go — one sequence's [`KvCache`], or the
//! slots of a [`BatchedKvCache`] under a [`RowPartition`] — and that one argument is the
//! whole difference between a solo and a batched forward (see [`KvTarget`]).

use crate::batch::BatchedKvCache;
use crate::hooks::GemmOrigin;
use crate::{LlmError, Result};
use realm_tensor::{MatF32, MatI8, QuantParams, RowKernels, RowPartition};
use std::ops::Range;

/// One sequence's cached keys and values at one Transformer layer: per-head INT8 codes
/// plus one scale per token row (see the [module documentation](self) for the layout).
///
/// The cache remembers which layer it belongs to so shape-mismatch errors name the layer —
/// when a batched shape bug first bites at layer 3, "at layer 3" is the difference between a
/// one-glance diagnosis and bisecting the whole stack.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerCache {
    layer: usize,
    head_dim: usize,
    keys: Vec<MatI8>,
    values: Vec<MatI8>,
    key_scales: Vec<f32>,
    value_scales: Vec<f32>,
}

impl LayerCache {
    /// Creates an empty cache for `num_heads` heads of `head_dim` channels that reports
    /// `layer` in its error messages and reserves (without touching) storage for
    /// `capacity_rows` token positions — the allocation-free decode loop's way of keeping
    /// per-token cache growth off the allocator. A capacity of 0 reserves nothing.
    pub fn new(layer: usize, num_heads: usize, head_dim: usize, capacity_rows: usize) -> Self {
        let codes = || {
            (0..num_heads)
                .map(|_| {
                    let mut m = MatI8::zeros(0, head_dim);
                    m.reserve_rows(capacity_rows);
                    m
                })
                .collect()
        };
        Self {
            layer,
            head_dim,
            keys: codes(),
            values: codes(),
            key_scales: Vec::with_capacity(capacity_rows),
            value_scales: Vec::with_capacity(capacity_rows),
        }
    }

    /// The layer index this cache reports in error messages.
    pub fn layer(&self) -> usize {
        self.layer
    }

    /// Number of cached token positions.
    pub fn len(&self) -> usize {
        self.key_scales.len()
    }

    /// Returns `true` if nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of attention heads the rows are split over.
    pub fn num_heads(&self) -> usize {
        self.keys.len()
    }

    /// Channels per head.
    pub fn head_dim(&self) -> usize {
        self.head_dim
    }

    /// Head `head`'s key codes, shape `(len, head_dim)`.
    pub fn key_codes(&self, head: usize) -> &MatI8 {
        &self.keys[head]
    }

    /// Head `head`'s value codes, shape `(len, head_dim)` — the `SV` GEMM's right operand.
    pub fn value_codes(&self, head: usize) -> &MatI8 {
        &self.values[head]
    }

    /// One key scale per cached token row (shared by every head of that row).
    pub fn key_scales(&self) -> &[f32] {
        &self.key_scales
    }

    /// One value scale per cached token row (shared by every head of that row).
    pub fn value_scales(&self) -> &[f32] {
        &self.value_scales
    }

    /// Appends every row of `keys`/`values` (one per new token position).
    ///
    /// # Errors
    ///
    /// Same conditions as [`LayerCache::append_rows`].
    pub fn append(&mut self, keys: &MatF32, values: &MatF32) -> Result<()> {
        self.append_rows(keys, values, 0..keys.rows())
    }

    /// Appends rows `rows` of `keys`/`values`, quantizing each token row with its own
    /// symmetric abs-max scale and scattering the codes head-major. This is the single
    /// entry every f32 row takes into any KV store: solo appends, batched appends (one
    /// call per sequence's row group) and prefix loads all come through here.
    ///
    /// # Errors
    ///
    /// Returns an error naming this cache's layer index if `keys` and `values` have
    /// different shapes, their width is not `num_heads · head_dim`, or `rows` exceeds them.
    pub fn append_rows(
        &mut self,
        keys: &MatF32,
        values: &MatF32,
        rows: Range<usize>,
    ) -> Result<()> {
        let width = self.num_heads() * self.head_dim;
        if keys.shape() != values.shape() || keys.cols() != width || rows.end > keys.rows() {
            return Err(LlmError::InvalidSequence {
                detail: format!(
                    "KV cache at layer {}: cannot append rows {rows:?} of keys {:?} / values \
                     {:?} to {} heads of width {}",
                    self.layer,
                    keys.shape(),
                    values.shape(),
                    self.num_heads(),
                    self.head_dim
                ),
            });
        }
        append_quantized(&mut self.keys, &mut self.key_scales, keys, rows.clone());
        append_quantized(&mut self.values, &mut self.value_scales, values, rows);
        Ok(())
    }

    /// Drops every cached row, keeping the storage for the next occupant.
    pub fn clear(&mut self) {
        for codes in self.keys.iter_mut().chain(&mut self.values) {
            codes.resize_overwrite(0, self.head_dim);
        }
        self.key_scales.clear();
        self.value_scales.clear();
    }
}

/// Quantizes rows `rows` of `x` per token row and appends the codes to the per-head
/// matrices `heads` (row-append, in place) and the row scales to `scales`.
fn append_quantized(heads: &mut [MatI8], scales: &mut Vec<f32>, x: &MatF32, rows: Range<usize>) {
    let Some(head_dim) = heads.first().map(MatI8::cols) else {
        return;
    };
    let kernels = RowKernels::granted();
    let base = scales.len();
    for codes in heads.iter_mut() {
        codes.resize_overwrite(base + rows.len(), head_dim);
    }
    for (t, r) in (base..).zip(rows) {
        let row = x.row(r);
        let scale = QuantParams::from_abs_max(kernels.abs_max(row)).scale;
        scales.push(scale);
        for (codes, channels) in heads.iter_mut().zip(row.chunks_exact(head_dim)) {
            kernels.quantize_row(channels, scale, codes.row_mut(t));
        }
    }
}

/// KV cache covering every layer of the model.
#[derive(Debug, Clone, PartialEq)]
pub struct KvCache {
    layers: Vec<LayerCache>,
}

impl KvCache {
    /// Creates an empty cache for a model with `num_layers` layers of `num_heads` heads of
    /// `head_dim` channels, each layer reserving storage for `capacity_rows` token
    /// positions (see [`LayerCache::new`]). The model passes its context window here so
    /// steady-state decode never re-allocates the cache.
    pub fn new(num_layers: usize, num_heads: usize, head_dim: usize, capacity_rows: usize) -> Self {
        Self {
            layers: (0..num_layers)
                .map(|layer| LayerCache::new(layer, num_heads, head_dim, capacity_rows))
                .collect(),
        }
    }

    /// Number of layers the cache covers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Number of cached token positions (identical across layers once populated).
    pub fn seq_len(&self) -> usize {
        self.layers.first().map_or(0, LayerCache::len)
    }

    /// Accesses the cache of one layer.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn layer(&self, layer: usize) -> &LayerCache {
        &self.layers[layer]
    }

    /// Mutably accesses the cache of one layer.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn layer_mut(&mut self, layer: usize) -> &mut LayerCache {
        &mut self.layers[layer]
    }
}

/// Where a forward pass appends its new K/V rows and which store each query row group
/// attends over — and thereby whether the pass is a solo or a batched one. This is the only
/// thing the two differ in:
///
/// | target | shared GEMMs (`Q`/`K`/`V`/`O`, MLP) | `QKᵀ` / `SV` | partition |
/// |---|---|---|---|
/// | `Solo` | [`GemmOrigin::Sequence`]`(0)` | `Sequence(0)` | none announced |
/// | `Batch` | [`GemmOrigin::BatchedRows`] | `Sequence(slot)` per non-empty group | one `on_batch_begin` per forward |
///
/// Every number is the same either way (per-row quantization, per-token-row KV scales), so
/// a batch of one is the solo path with a different attribution tag.
#[derive(Debug)]
pub enum KvTarget<'a> {
    /// One sequence's cache: every row of the pass belongs to it.
    Solo(&'a mut KvCache),
    /// The slots of a batched cache: group `g` of the partition holds slot `g`'s rows
    /// (empty groups — idle or completed slots — are untouched).
    Batch(&'a mut BatchedKvCache, &'a RowPartition),
}

impl KvTarget<'_> {
    /// Number of layers the target's cache covers.
    pub(crate) fn num_layers(&self) -> usize {
        match self {
            KvTarget::Solo(cache) => cache.num_layers(),
            KvTarget::Batch(cache, _) => cache.num_layers(),
        }
    }

    /// The origin tag of the pass's shared GEMMs — what [`ForwardPass::new`] is given.
    ///
    /// [`ForwardPass::new`]: crate::quantized::ForwardPass::new
    pub fn shared_origin(&self) -> GemmOrigin {
        match self {
            KvTarget::Solo(_) => GemmOrigin::Sequence(0),
            KvTarget::Batch(..) => GemmOrigin::BatchedRows,
        }
    }

    /// Appends the pass's new `keys`/`values` rows at `layer`.
    pub(crate) fn append(&mut self, layer: usize, keys: &MatF32, values: &MatF32) -> Result<()> {
        match self {
            KvTarget::Solo(cache) => cache.layer_mut(layer).append(keys, values),
            KvTarget::Batch(cache, parts) => {
                cache.layer_mut(layer).append_batch(keys, values, parts)
            }
        }
    }

    /// Number of query row groups (sequences) of the pass.
    pub(crate) fn num_groups(&self) -> usize {
        match self {
            KvTarget::Solo(_) => 1,
            KvTarget::Batch(cache, _) => cache.batch_size(),
        }
    }

    /// Group `g`'s query rows (of `rows` stacked rows) and the store they attend over at
    /// `layer`.
    pub(crate) fn group(&self, layer: usize, g: usize, rows: usize) -> (Range<usize>, &LayerCache) {
        match self {
            KvTarget::Solo(cache) => (0..rows, cache.layer(layer)),
            KvTarget::Batch(cache, parts) => (parts.range(g), cache.layer(layer).slot(g)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cache_reports_zero_length() {
        let cache = KvCache::new(3, 2, 4, 0);
        assert_eq!(cache.num_layers(), 3);
        assert_eq!(cache.seq_len(), 0);
        assert!(cache.layer(0).is_empty());
        assert_eq!(cache.layer(0).key_codes(1).shape(), (0, 4));
    }

    #[test]
    fn append_quantizes_each_token_row_head_major() {
        let mut cache = LayerCache::new(0, 2, 4, 0);
        // Row r is (r+1)·CHANNELS: abs-max 9·(r+1) in the last channel, so the scales differ
        // per row while the codes (127·k/9, never a rounding tie) repeat.
        const CHANNELS: [f32; 8] = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 9.0];
        let k = MatF32::from_fn(4, 8, |r, c| (r + 1) as f32 * CHANNELS[c]);
        let v = k.scale(-0.5);
        cache.append(&k, &v).unwrap();
        cache
            .append(&MatF32::filled(1, 8, 3.0), &MatF32::filled(1, 8, 0.0))
            .unwrap();
        assert_eq!(cache.len(), 5);
        for r in 0..4 {
            let scale = 9.0 * (r + 1) as f32 / 127.0;
            assert_eq!(cache.key_scales()[r], scale);
            assert_eq!(cache.value_scales()[r], 0.5 * scale);
            for h in 0..2 {
                for c in 0..4 {
                    let code = (CHANNELS[h * 4 + c] * 127.0 / 9.0).round() as i8;
                    assert_eq!(cache.key_codes(h)[(r, c)], code, "row {r} head {h} col {c}");
                    assert_eq!(cache.value_codes(h)[(r, c)], -code);
                }
            }
        }
        assert_eq!(cache.key_codes(1).row(4), &[127; 4]);
        // An all-zero row takes the neutral scale and all-zero codes.
        assert_eq!(cache.value_scales()[4], 1.0);
        assert_eq!(cache.value_codes(0).row(4), &[0; 4]);
    }

    #[test]
    fn requantized_rows_are_recovered_code_exactly() {
        // Rows on an INT8 grid with a saturated code (what a `RequantizedInt8` projection
        // emits) come back as exactly the codes that produced them.
        let codes = MatI8::from_fn(3, 8, |r, c| match c {
            0 => 127,
            1 => -127,
            _ => ((r * 37 + c * 11) % 255) as i16 as i8,
        });
        let scales = [0.013_7f32, 2.5, 1e-4];
        let rows = MatF32::from_fn(3, 8, |r, c| codes[(r, c)] as f32 * scales[r]);
        let mut cache = LayerCache::new(0, 2, 4, 8);
        cache.append(&rows, &rows).unwrap();
        for (r, scale) in scales.iter().enumerate() {
            for h in 0..2 {
                assert_eq!(cache.key_codes(h).row(r), &codes.row(r)[h * 4..h * 4 + 4]);
            }
            assert!((cache.key_scales()[r] / scale - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn a_cleared_cache_refills_to_exactly_its_new_rows() {
        let k = MatF32::from_fn(3, 8, |r, c| (r as f32 - 1.0) * 0.3 + c as f32);
        let mut fresh = LayerCache::new(1, 2, 4, 16);
        fresh.append(&k, &k.scale(2.0)).unwrap();
        let mut reused = LayerCache::new(1, 2, 4, 0);
        reused
            .append(&MatF32::filled(5, 8, 9.0), &MatF32::filled(5, 8, 9.0))
            .unwrap();
        reused.clear();
        assert!(reused.is_empty());
        assert_eq!(reused.value_codes(1).shape(), (0, 4));
        reused.append(&k, &k.scale(2.0)).unwrap();
        assert_eq!(reused, fresh);
    }

    #[test]
    fn target_routes_rows_to_the_solo_cache_or_the_partitioned_slots() {
        let rows = MatF32::from_fn(3, 8, |r, c| (r * 8 + c) as f32 - 11.5);
        let mut solo = KvCache::new(2, 2, 4, 0);
        let mut target = KvTarget::Solo(&mut solo);
        assert_eq!((target.num_layers(), target.num_groups()), (2, 1));
        assert_eq!(target.shared_origin(), GemmOrigin::Sequence(0));
        target.append(1, &rows, &rows).unwrap();
        let (range, store) = target.group(1, 0, 3);
        assert_eq!((range, store.len()), (0..3, 3));
        assert_eq!(solo.layer(0).len(), 0, "only the addressed layer grows");

        let mut batch = BatchedKvCache::new(2, 3, 2, 4);
        let parts = RowPartition::from_lens(&[2, 0, 1]);
        let mut target = KvTarget::Batch(&mut batch, &parts);
        assert_eq!((target.num_layers(), target.num_groups()), (2, 3));
        assert_eq!(target.shared_origin(), GemmOrigin::BatchedRows);
        target.append(1, &rows, &rows).unwrap();
        for (g, rows_of_g) in [(0, 0..2), (1, 2..2), (2, 2..3)] {
            let (range, store) = target.group(1, g, 3);
            assert_eq!((range.clone(), store.len()), (rows_of_g, range.len()));
        }
        assert_eq!(
            batch.layer(1).slot(2).key_codes(0).row(0),
            solo.layer(1).key_codes(0).row(2)
        );
    }

    #[test]
    fn append_rejects_mismatched_shapes_and_names_the_layer() {
        let mut cache = KvCache::new(4, 2, 4, 0);
        for (k, v) in [
            (MatF32::zeros(2, 8), MatF32::zeros(3, 8)),
            (MatF32::zeros(1, 16), MatF32::zeros(1, 16)),
        ] {
            let err = cache.layer_mut(3).append(&k, &v).unwrap_err();
            assert!(err.to_string().contains("layer 3"), "{err}");
        }
        let rows = MatF32::zeros(2, 8);
        assert!(cache.layer_mut(3).append_rows(&rows, &rows, 1..3).is_err());
        cache.layer_mut(3).append(&rows, &rows).unwrap();
        assert_eq!(cache.layer(3).layer(), 3);
        assert_eq!(cache.layer(3).len(), 2);
        assert_eq!(cache.layer(1).len(), 0, "per-layer caches are independent");
    }
}
