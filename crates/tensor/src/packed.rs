//! Pre-packed B-operand (weight) tiles for the decode-shape GEMM fast path.
//!
//! Every decode-step GEMM multiplies a skinny activation matrix against the same static
//! weight matrix, token after token. The unpacked SIMD microkernel re-derives its
//! interleaved register layout from the row-major weights on **every** call: two
//! `vpmovsxbw` widenings plus two `vpunpck` interleaves per 16-column depth pair, and a
//! cross-lane permute per tile retirement. [`PackedMatI8`] performs that data
//! rearrangement exactly once, at model load, storing the weight tiles in the byte order
//! the microkernel consumes:
//!
//! ```text
//! block 0 (output columns 0..16)                 block 1 (columns 16..32)   ...
//! ┌────────────────────────────────────────────┐
//! │ pair 0:  b[0][0] b[1][0] b[0][1] b[1][1] … │  32 bytes: depth pair (0,1),
//! │          b[0][15] b[1][15]                 │  columns interleaved in order
//! │ pair 1:  b[2][0] b[3][0] …                 │  32 bytes: depth pair (2,3)
//! │ ⋮                                          │
//! │ pair K/2−1                                 │
//! └────────────────────────────────────────────┘
//! ```
//!
//! One 32-byte load of a pair row plus two `vpmovsxbw` widenings yields the two
//! `(b[p][j], b[p+1][j])` i16-pair registers with the columns already in **linear** order
//! — the per-GEMM unpacks *and* the retirement permute disappear, at the same memory
//! bandwidth as the unpacked walk (the tiles stay i8; widening to i16 at pack time would
//! double the bytes streamed per GEMM, a loss for memory-bound GEMV shapes).
//!
//! The depth is zero-padded to an even count and the columns to a multiple of
//! [`PACK_BLOCK_COLS`], so kernels run whole blocks unconditionally; the padding lanes
//! multiply against zeros and the partial final block is retired through a stack tile.
//!
//! # Pack-time checksums
//!
//! Packing also precomputes the column sums `eᵀ·W` of the matrix ([`PackedMatI8::col_sums`]).
//! They serve as a pack-time integrity reference for the packed replica itself:
//! `realm-abft`'s `packed_weight_deviations` re-reduces the tiles
//! ([`PackedMatI8::tile_col_sums_into`]) and compares against the stored sums, detecting
//! corruption of the packed buffer — the stored-weight fault class — without touching the
//! row-major original.
//!
//! # Lifetime and ownership
//!
//! A `PackedMatI8` owns both representations: the row-major [`MatI8`]
//! ([`PackedMatI8::unpacked`], used by default-engine fallbacks, hook callbacks, the
//! portable tier and the vector tiers' `n mod 16` column tails) and the tile buffer. Both
//! are **load-time** allocations owned by the layer that packs its weights — never
//! [`crate::Workspace`] scratch — so the steady-state decode loop stays allocation-free
//! exactly as before (proven by `tests/zero_alloc.rs`).

use crate::MatI8;

/// Output columns per packed block — matches the SIMD register tile width
/// ([`crate::simd::SIMD_TILE_COLS`]).
pub const PACK_BLOCK_COLS: usize = 16;

/// Bytes per depth pair within one packed block: two interleaved i8 rows of
/// [`PACK_BLOCK_COLS`] columns.
pub const PACK_PAIR_BYTES: usize = 2 * PACK_BLOCK_COLS;

/// An INT8 matrix pre-packed as the B operand of the SIMD GEMM microkernels, with its
/// pack-time column checksums. See the module docs for the layout.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedMatI8 {
    unpacked: MatI8,
    tiles: Vec<i8>,
    padded_k: usize,
    col_sums: Vec<i64>,
}

impl PackedMatI8 {
    /// Packs a matrix, taking ownership of the row-major original (kept alongside the
    /// tiles for fallback paths and hook callbacks).
    pub fn from_mat(unpacked: MatI8) -> Self {
        let (k, n) = unpacked.shape();
        let padded_k = k + (k & 1);
        let blocks = n.div_ceil(PACK_BLOCK_COLS);
        let pairs = padded_k / 2;
        let mut tiles = vec![0i8; blocks * pairs * PACK_PAIR_BYTES];
        for blk in 0..blocks {
            let base = blk * pairs * PACK_PAIR_BYTES;
            for pair in 0..pairs {
                let p = 2 * pair;
                let row0 = unpacked.row(p);
                let row1 = (p + 1 < k).then(|| unpacked.row(p + 1));
                let chunk =
                    &mut tiles[base + pair * PACK_PAIR_BYTES..base + (pair + 1) * PACK_PAIR_BYTES];
                for lane in 0..PACK_BLOCK_COLS {
                    let j = blk * PACK_BLOCK_COLS + lane;
                    if j >= n {
                        break;
                    }
                    chunk[2 * lane] = row0[j];
                    chunk[2 * lane + 1] = row1.map_or(0, |r| r[j]);
                }
            }
        }
        let col_sums = crate::engine::operand_col_sums(&unpacked);
        Self {
            unpacked,
            tiles,
            padded_k,
            col_sums,
        }
    }

    /// Packs a copy of `b` (the borrowing counterpart of [`PackedMatI8::from_mat`]).
    pub fn pack(b: &MatI8) -> Self {
        Self::from_mat(b.clone())
    }

    /// The row-major original the tiles were derived from.
    pub fn unpacked(&self) -> &MatI8 {
        &self.unpacked
    }

    /// Rows of the logical matrix (the GEMM inner dimension `k`).
    pub fn rows(&self) -> usize {
        self.unpacked.rows()
    }

    /// Columns of the logical matrix (the GEMM output width `n`).
    pub fn cols(&self) -> usize {
        self.unpacked.cols()
    }

    /// Logical `(rows, cols)` shape.
    pub fn shape(&self) -> (usize, usize) {
        self.unpacked.shape()
    }

    /// The depth rounded up to an even pair count (odd `k` is padded with a zero row).
    pub fn padded_k(&self) -> usize {
        self.padded_k
    }

    /// Number of 16-column packed blocks (the last one may be column-padded).
    pub fn blocks(&self) -> usize {
        self.cols().div_ceil(PACK_BLOCK_COLS)
    }

    /// Bytes from the start of one block to the start of the next.
    pub fn block_stride(&self) -> usize {
        (self.padded_k / 2) * PACK_PAIR_BYTES
    }

    /// The interleaved tile buffer (see the module docs for the layout).
    pub fn tiles(&self) -> &[i8] {
        &self.tiles
    }

    /// Mutable access to the tile buffer, for fault-injection studies that corrupt the
    /// packed replica. Mutating tiles desynchronizes them from [`PackedMatI8::unpacked`]
    /// and from the pack-time [`PackedMatI8::col_sums`] — which is exactly what
    /// `realm-abft`'s packed-weight audit detects.
    pub fn tiles_mut(&mut self) -> &mut [i8] {
        &mut self.tiles
    }

    /// Pack-time column checksums `eᵀ·W` of the logical matrix, one entry per column.
    pub fn col_sums(&self) -> &[i64] {
        &self.col_sums
    }

    /// Recomputes the column sums `eᵀ·W` from the **tiles** (not the row-major original)
    /// into `out`. For an uncorrupted pack this equals [`PackedMatI8::col_sums`] exactly;
    /// any byte flipped in the packed buffer shows up as a deviation in its column.
    pub fn tile_col_sums_into(&self, out: &mut Vec<i64>) {
        let n = self.cols();
        out.clear();
        out.resize(n, 0);
        let stride = self.block_stride();
        let pairs = self.padded_k / 2;
        for blk in 0..self.blocks() {
            let jc = blk * PACK_BLOCK_COLS;
            let width = PACK_BLOCK_COLS.min(n - jc);
            let sums = &mut out[jc..jc + width];
            for pair in 0..pairs {
                let base = blk * stride + pair * PACK_PAIR_BYTES;
                let chunk = &self.tiles[base..base + PACK_PAIR_BYTES];
                for (s, lane) in sums.iter_mut().zip(chunk.chunks_exact(2)) {
                    *s += lane[0] as i64 + lane[1] as i64;
                }
            }
        }
    }
}

impl From<MatI8> for PackedMatI8 {
    fn from(m: MatI8) -> Self {
        Self::from_mat(m)
    }
}

impl From<&MatI8> for PackedMatI8 {
    fn from(m: &MatI8) -> Self {
        Self::pack(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;
    use rand::Rng;

    fn random_mat(seed: u64, k: usize, n: usize) -> MatI8 {
        let mut r = rng::seeded(seed);
        MatI8::from_fn(k, n, |_, _| r.gen_range(-128i16..=127) as i8)
    }

    #[test]
    fn layout_interleaves_depth_pairs_in_linear_column_order() {
        let b = random_mat(7, 6, 37);
        let pb = PackedMatI8::pack(&b);
        assert_eq!(pb.padded_k(), 6);
        assert_eq!(pb.blocks(), 3);
        assert_eq!(pb.block_stride(), 3 * PACK_PAIR_BYTES);
        for blk in 0..pb.blocks() {
            for pair in 0..pb.padded_k() / 2 {
                let base = blk * pb.block_stride() + pair * PACK_PAIR_BYTES;
                for lane in 0..PACK_BLOCK_COLS {
                    let j = blk * PACK_BLOCK_COLS + lane;
                    let (want0, want1) = if j < b.cols() {
                        (b[(2 * pair, j)], b[(2 * pair + 1, j)])
                    } else {
                        (0, 0)
                    };
                    assert_eq!(pb.tiles()[base + 2 * lane], want0, "blk {blk} pair {pair}");
                    assert_eq!(pb.tiles()[base + 2 * lane + 1], want1);
                }
            }
        }
    }

    #[test]
    fn odd_depth_pads_the_final_pair_with_zeros() {
        let b = random_mat(8, 5, 16);
        let pb = PackedMatI8::pack(&b);
        assert_eq!(pb.padded_k(), 6);
        let last_pair = &pb.tiles()[2 * PACK_PAIR_BYTES..3 * PACK_PAIR_BYTES];
        for lane in 0..PACK_BLOCK_COLS {
            assert_eq!(last_pair[2 * lane], b[(4, lane)]);
            assert_eq!(last_pair[2 * lane + 1], 0, "padded depth row must be zero");
        }
    }

    #[test]
    fn pack_time_col_sums_match_the_engine_definition() {
        let b = random_mat(9, 23, 31);
        let pb = PackedMatI8::pack(&b);
        assert_eq!(
            pb.col_sums(),
            crate::engine::operand_col_sums(&b).as_slice()
        );
        let mut from_tiles = Vec::new();
        pb.tile_col_sums_into(&mut from_tiles);
        assert_eq!(from_tiles.as_slice(), pb.col_sums());
    }

    #[test]
    fn tile_col_sums_expose_packed_buffer_corruption() {
        let b = random_mat(10, 8, 20);
        let mut pb = PackedMatI8::pack(&b);
        // Flip one byte in the second block (columns 16..20): exactly one column deviates.
        let victim = pb.block_stride() + 2; // block 1, pair 0, lane 1, depth row 0 => column 17
        pb.tiles_mut()[victim] = pb.tiles()[victim].wrapping_add(3);
        let mut from_tiles = Vec::new();
        pb.tile_col_sums_into(&mut from_tiles);
        for (j, (&t, &s)) in from_tiles.iter().zip(pb.col_sums()).enumerate() {
            if j == 17 {
                assert_eq!(t - s, 3);
            } else {
                assert_eq!(t, s, "column {j} must be untouched");
            }
        }
    }

    #[test]
    fn degenerate_shapes_pack_without_panicking() {
        for (k, n) in [(0, 0), (0, 5), (5, 0), (1, 1), (1, 16), (2, 17)] {
            let b = random_mat((k * 100 + n) as u64, k, n);
            let pb = PackedMatI8::pack(&b);
            assert_eq!(pb.shape(), (k, n));
            assert_eq!(pb.tiles().len(), pb.blocks() * pb.block_stride());
            assert_eq!(pb.col_sums().len(), n);
        }
    }
}
