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
//! keys[h]      : MatI8  head_dim × T   column t = token t's codes for head h: the `QKᵀ`
//!                                      GEMM's right operand `Kᵀ` as stored
//! values[h]    : MatI8  T × head_dim   the `SV` GEMM's right operand as stored
//! key_scales   : [f32; T]              real K[t][h·d + c] = keys[h][c][t] · key_scales[t]
//! value_scales : [f32; T]              real V[t][h·d + c] = values[h][t][c] · value_scales[t]
//! ```
//!
//! A row leaving a `RequantizedInt8` projection is `code · row_scale` with `|code| ≤ 127`
//! and at least one code on the ±127 rail (the robust p99 scale saturates everything at or
//! above the percentile), so the per-row abs-max quantizer run at append recovers the codes
//! exactly: nothing is quantized twice. Values are appended as rows, in place; keys widen
//! in place — each of a head's `head_dim` rows moves right to its new width (last row
//! first, so nothing unread is overwritten) and the new tokens' codes fill the new columns.
//! A widened store holds exactly the bytes a row-appended one would, and attention reads
//! both operands as they lie.
//!
//! # Solo or batched: one store
//!
//! Every KV row of the model lives in a [`LayerCache`]: the stores are the slots of a
//! [`BatchedKvCache`](crate::BatchedKvCache), and a solo sequence is slot 0 of a one-slot
//! cache. A forward pass appends each row group of its
//! [`RowPartition`](realm_tensor::RowPartition) to that group's slot, so a solo and a
//! batched forward differ in nothing but the partition.

use crate::{LlmError, Result};
use realm_tensor::{MatF32, MatI8, QuantParams, RowKernels};
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
    /// `layer` in its error messages. Nothing is reserved: the cache grows with its rows.
    pub fn new(layer: usize, num_heads: usize, head_dim: usize) -> Self {
        Self {
            layer,
            head_dim,
            keys: vec![MatI8::zeros(head_dim, 0); num_heads],
            values: vec![MatI8::zeros(0, head_dim); num_heads],
            key_scales: Vec::new(),
            value_scales: Vec::new(),
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

    /// Head `head`'s key codes transposed, shape `(head_dim, len)` — the `QKᵀ` GEMM's right
    /// operand.
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
    /// symmetric abs-max scale and scattering the codes head-major: keys as new columns,
    /// values as new rows. This is the single entry every f32 row takes into any KV store:
    /// solo appends, batched appends (one call per sequence's row group) and prefix loads
    /// all come through here.
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
        let kernels = RowKernels::granted();
        let (d, base) = (self.head_dim, self.len());
        for codes in &mut self.keys {
            widen(codes, base + rows.len());
        }
        for codes in &mut self.values {
            codes.resize_overwrite(base + rows.len(), d);
        }
        let scale_of = |row: &[f32]| QuantParams::from_abs_max(kernels.abs_max(row)).scale;
        // A key column is not contiguous, so its codes are quantized into `piece` a piece at
        // a time: the quantizer works element by element, so the pieces give the row's codes.
        let mut piece = [0i8; 64];
        for (t, r) in (base..).zip(rows) {
            let (k, v) = (keys.row(r), values.row(r));
            let (k_scale, v_scale) = (scale_of(k), scale_of(v));
            self.key_scales.push(k_scale);
            self.value_scales.push(v_scale);
            for (codes, channels) in self.values.iter_mut().zip(v.chunks_exact(d)) {
                kernels.quantize_row(channels, v_scale, codes.row_mut(t));
            }
            for (codes, channels) in self.keys.iter_mut().zip(k.chunks_exact(d)) {
                let width = codes.cols();
                let mut column = codes.as_mut_slice()[t..].iter_mut().step_by(width);
                for part in channels.chunks(piece.len()) {
                    let piece = &mut piece[..part.len()];
                    kernels.quantize_row(part, k_scale, piece);
                    // `piece` leads the zip, so its end never consumes a column cell.
                    for (&code, cell) in piece.iter().zip(&mut column) {
                        *cell = code;
                    }
                }
            }
        }
        Ok(())
    }

    /// Drops every cached row, keeping the storage for the next occupant.
    pub fn clear(&mut self) {
        for codes in &mut self.keys {
            codes.resize_overwrite(self.head_dim, 0);
        }
        for codes in &mut self.values {
            codes.resize_overwrite(0, self.head_dim);
        }
        self.key_scales.clear();
        self.value_scales.clear();
    }
}

/// Widens `codes` to `cols` columns in place, keeping every row's old codes at its start.
/// The new columns hold stale bytes until the caller writes them.
fn widen(codes: &mut MatI8, cols: usize) {
    let (rows, old) = codes.shape();
    codes.resize_overwrite(rows, cols);
    let data = codes.as_mut_slice();
    // Last row first: row `c` moves right, onto bytes already moved or never used.
    for c in (1..rows).rev() {
        data.copy_within(c * old..(c + 1) * old, c * cols);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cache_reports_zero_length() {
        let cache = LayerCache::new(2, 2, 4);
        assert_eq!(
            (cache.layer(), cache.num_heads(), cache.head_dim()),
            (2, 2, 4)
        );
        assert!(cache.is_empty());
        assert_eq!(cache.key_codes(1).shape(), (4, 0));
    }

    #[test]
    fn append_quantizes_each_token_row_head_major() {
        let mut cache = LayerCache::new(0, 2, 4);
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
                    assert_eq!(cache.key_codes(h)[(c, r)], code, "row {r} head {h} col {c}");
                    assert_eq!(cache.value_codes(h)[(r, c)], -code);
                }
            }
        }
        assert_eq!(key_column(&cache, 1, 4), [127; 4]);
        // An all-zero row takes the neutral scale and all-zero codes.
        assert_eq!(cache.value_scales()[4], 1.0);
        assert_eq!(cache.value_codes(0).row(4), &[0; 4]);

        // Appending in pieces widens the keys to the store one append builds, at a head width
        // that is not a power of two and spans more than one quantizer piece; each key
        // column holds the codes its value row got from one whole-row quantize.
        let (heads, d, t) = (3, 70, 7);
        let x = MatF32::from_fn(t, heads * d, |r, c| ((r * 31 + c * 17) % 97) as f32 - 48.5);
        let mut whole = LayerCache::new(0, heads, d);
        whole.append(&x, &x).unwrap();
        let mut pieces = LayerCache::new(0, heads, d);
        for rows in [0..1, 1..3, 3..t] {
            pieces.append_rows(&x, &x, rows).unwrap();
        }
        assert_eq!(pieces, whole);
        for h in 0..heads {
            assert_eq!(whole.key_codes(h).shape(), (d, t));
            for r in 0..t {
                assert_eq!(key_column(&whole, h, r), whole.value_codes(h).row(r));
            }
        }
    }

    /// Token `t`'s key codes for head `h`: column `t` of the stored `Kᵀ`.
    fn key_column(cache: &LayerCache, h: usize, t: usize) -> Vec<i8> {
        let keys = cache.key_codes(h);
        (0..keys.rows()).map(|c| keys[(c, t)]).collect()
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
        let mut cache = LayerCache::new(0, 2, 4);
        cache.append(&rows, &rows).unwrap();
        for (r, scale) in scales.iter().enumerate() {
            for h in 0..2 {
                assert_eq!(key_column(&cache, h, r), &codes.row(r)[h * 4..h * 4 + 4]);
            }
            assert!((cache.key_scales()[r] / scale - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn a_cleared_cache_refills_to_exactly_its_new_rows() {
        let k = MatF32::from_fn(3, 8, |r, c| (r as f32 - 1.0) * 0.3 + c as f32);
        let mut fresh = LayerCache::new(1, 2, 4);
        fresh.append(&k, &k.scale(2.0)).unwrap();
        let mut reused = LayerCache::new(1, 2, 4);
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
    fn append_rejects_mismatched_shapes_and_names_the_layer() {
        let mut cache = LayerCache::new(3, 2, 4);
        for (k, v) in [
            (MatF32::zeros(2, 8), MatF32::zeros(3, 8)),
            (MatF32::zeros(1, 16), MatF32::zeros(1, 16)),
        ] {
            let err = cache.append(&k, &v).unwrap_err();
            assert!(err.to_string().contains("layer 3"), "{err}");
        }
        let rows = MatF32::zeros(2, 8);
        assert!(cache.append_rows(&rows, &rows, 1..3).is_err());
        assert!(cache.is_empty(), "a rejected append grows nothing");
        cache.append(&rows, &rows).unwrap();
        assert_eq!(cache.len(), 2);
    }
}
