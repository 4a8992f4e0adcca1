//! Pre-packed B-operand (weight) tiles for the packed GEMM fast path.
//!
//! Every decode-step and prefill GEMM multiplies an activation matrix against the same static
//! weight matrix, token after token. [`PackedMatI8`] rearranges the weights exactly once, at
//! model load, into the byte order every vector kernel consumes — the B-tile row format of
//! the AMX `tdpbssd` instruction, a *depth quad* per column:
//!
//! ```text
//! block 0 (output columns 0..16)                                   block 1 (16..32)  ...
//! ┌─────────────────────────────────────────────────────────────┐
//! │ quad 0:  b[0][0] b[1][0] b[2][0] b[3][0]  b[0][1] … b[3][15]  │  64 bytes: depths 0..4,
//! │                                                               │  4 per column, columns
//! │ quad 1:  b[4][0] b[5][0] b[6][0] b[7][0]  b[4][1] …           │  in linear order
//! │ ⋮                                                             │
//! │ quad K/4−1                                                    │
//! └─────────────────────────────────────────────────────────────┘
//! ```
//!
//! Sixteen consecutive quad rows of a block are one AMX B tile (16 depth quads × 16 columns,
//! loaded at stride 64), so the AMX tier streams a block with one `tileloadd` per 64 depths.
//! The AVX-512 and AVX2 tiers read the same rows: a quad row widened by `vpmovsxbw` holds
//! four depths per column as two `i16` pairs, so one broadcast activation quad feeds
//! `vpmaddwd` for two depth pairs at once, and the two `i32` lanes of a column are added at
//! retirement. One layout, one buffer: the tiles stay `i8`, at the bandwidth of the
//! row-major matrix.
//!
//! The depth is zero-padded to a multiple of 4 and the columns to a multiple of
//! [`PACK_BLOCK_COLS`], so kernels run whole quads and blocks unconditionally; the padding
//! lanes multiply against zeros. The AMX kernel multiplies a partial final block like any
//! other and stores only its live columns; the vector kernels leave it to the tiled routine.
//! A row-major operand the AMX kernel takes (attention's `Kᵀ` and `V`) is packed into this
//! same layout on the fly, a block pair at a time (`pack_pair_into`).
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
//! portable tier and the vector packed kernels' `n mod 16` column tails) and the tile
//! buffer. Both are **load-time** allocations owned by the layer that packs its weights — never
//! [`crate::Workspace`] scratch — so the steady-state decode loop stays allocation-free
//! exactly as before (proven by `tests/zero_alloc.rs`).

use crate::MatI8;

/// Output columns per packed block — matches the SIMD register tile width
/// ([`crate::simd::SIMD_TILE_COLS`]) and the column count of an AMX B tile.
pub const PACK_BLOCK_COLS: usize = 16;

/// Depth steps per quad: the four `i8` of one column that one `i32` lane of `tdpbssd`
/// (or two lanes of `vpmaddwd`) reduces.
pub const PACK_QUAD_DEPTH: usize = 4;

/// Bytes per depth quad within one packed block: [`PACK_BLOCK_COLS`] columns of
/// [`PACK_QUAD_DEPTH`] depths — one 64-byte row of an AMX B tile.
pub const PACK_QUAD_BYTES: usize = PACK_QUAD_DEPTH * PACK_BLOCK_COLS;

/// One quad row of a packed block, aligned to a cache line: a `tileloadd` row or a pair of
/// 32-byte vector loads never straddles two lines.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, align(64))]
struct QuadRow([i8; PACK_QUAD_BYTES]);

/// The bytes of `rows`, in order.
fn row_bytes(rows: &[QuadRow]) -> &[i8] {
    // SAFETY: `QuadRow` is `repr(C)` over `[i8; 64]` with no padding (its size equals its
    // alignment), so the rows are `64 · len` contiguous, initialised `i8`.
    unsafe { std::slice::from_raw_parts(rows.as_ptr().cast(), rows.len() * PACK_QUAD_BYTES) }
}

/// [`row_bytes`], mutably.
fn row_bytes_mut(rows: &mut [QuadRow]) -> &mut [i8] {
    // SAFETY: as in `row_bytes`; the borrow of `rows` is unique.
    unsafe {
        std::slice::from_raw_parts_mut(rows.as_mut_ptr().cast(), rows.len() * PACK_QUAD_BYTES)
    }
}

/// Offset of element `(p, j)` in the tile bytes of a pack whose blocks start
/// `block_stride` bytes apart: the one statement of the layout.
fn offset_in(block_stride: usize, p: usize, j: usize) -> usize {
    (j / PACK_BLOCK_COLS) * block_stride
        + (p / PACK_QUAD_DEPTH) * PACK_QUAD_BYTES
        + (j % PACK_BLOCK_COLS) * PACK_QUAD_DEPTH
        + p % PACK_QUAD_DEPTH
}

/// Packs blocks `blk` and `blk + 1` of the row-major `b` over the `quads` depth quads from
/// depth `d0` (a multiple of 4) into `dst` and returns those bytes: the layout of
/// [`PackedMatI8::tiles`] with the blocks `quads · PACK_QUAD_BYTES` bytes apart, block
/// `blk + 1`'s quad rows after block `blk`'s, zero past `b`'s last row and last column (a
/// block past them is all zeros). This is how the AMX kernel packs a row-major operand, a
/// block pair at a time, into its stack scratch.
///
/// # Panics
///
/// If `dst` is shorter than `2 · quads · PACK_QUAD_BYTES`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx2")]
pub(crate) fn pack_pair_into<'d>(
    b: &MatI8,
    blk: usize,
    d0: usize,
    quads: usize,
    dst: &'d mut [std::mem::MaybeUninit<i8>],
) -> &'d [i8] {
    use std::arch::x86_64::*;
    let bytes = &mut dst[..2 * quads * PACK_QUAD_BYTES];
    let (first, second) = bytes.split_at_mut(quads * PACK_QUAD_BYTES);
    let rows = first.chunks_exact_mut(PACK_QUAD_BYTES);
    for (q, (row0, row1)) in rows
        .zip(second.chunks_exact_mut(PACK_QUAD_BYTES))
        .enumerate()
    {
        let p = d0 + q * PACK_QUAD_DEPTH;
        let (r0, r1, r2, r3) = (
            pair_row(b, p, blk),
            pair_row(b, p + 1, blk),
            pair_row(b, p + 2, blk),
            pair_row(b, p + 3, blk),
        );
        let (t0, t1) = (_mm512_unpacklo_epi8(r0, r1), _mm512_unpackhi_epi8(r0, r1));
        let (t2, t3) = (_mm512_unpacklo_epi8(r2, r3), _mm512_unpackhi_epi8(r2, r3));
        // Per 128-bit lane (lane 0 block `blk`, lane 1 block `blk + 1`): the quads of
        // columns 0–3, 4–7, 8–11 and 12–15.
        let (q0, q1) = (_mm512_unpacklo_epi16(t0, t2), _mm512_unpackhi_epi16(t0, t2));
        let (q2, q3) = (_mm512_unpacklo_epi16(t1, t3), _mm512_unpackhi_epi16(t1, t3));
        // Block L's quad row is lane L of q0, q1, q2 and q3, in that order.
        let low = _mm512_shuffle_i64x2::<0x44>(q0, q1);
        let high = _mm512_shuffle_i64x2::<0x44>(q2, q3);
        // SAFETY: each destination row is 64 bytes.
        unsafe {
            let block0 = _mm512_shuffle_i64x2::<0x88>(low, high);
            _mm512_storeu_si512(row0.as_mut_ptr().cast(), block0);
            let block1 = _mm512_shuffle_i64x2::<0xDD>(low, high);
            _mm512_storeu_si512(row1.as_mut_ptr().cast(), block1);
        }
    }
    // SAFETY: every byte of `bytes` was written above, and `MaybeUninit<i8>` has the layout
    // of `i8`.
    unsafe { &*(bytes as *const [std::mem::MaybeUninit<i8>] as *const [i8]) }
}

/// Row `p` of `b` over the 32 columns of blocks `blk` and `blk + 1`, in the low two 128-bit
/// lanes; zero past the last row and column.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx2")]
fn pair_row(b: &MatI8, p: usize, blk: usize) -> std::arch::x86_64::__m512i {
    use std::arch::x86_64::*;
    if p >= b.rows() {
        return _mm512_setzero_si512();
    }
    let cols = &b.row(p)[blk * PACK_BLOCK_COLS..];
    if cols.len() >= 2 * PACK_BLOCK_COLS {
        // SAFETY: `cols` holds the 32 bytes loaded.
        return _mm512_zextsi256_si512(unsafe { _mm256_loadu_si256(cols.as_ptr().cast()) });
    }
    let mask = (1u64 << cols.len()) - 1;
    // SAFETY: `mask` selects bytes of `cols` only; the rest are neither read nor faulted.
    unsafe { _mm512_maskz_loadu_epi8(mask, cols.as_ptr()) }
}

/// An INT8 matrix pre-packed as the B operand of the SIMD GEMM kernels, with its pack-time
/// column checksums. See the module docs for the layout.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedMatI8 {
    unpacked: MatI8,
    tiles: Vec<QuadRow>,
    padded_k: usize,
    col_sums: Vec<i64>,
}

impl PackedMatI8 {
    /// Packs a matrix, taking ownership of the row-major original (kept alongside the
    /// tiles for fallback paths and hook callbacks).
    pub fn from_mat(unpacked: MatI8) -> Self {
        let (k, n) = unpacked.shape();
        let padded_k = k.next_multiple_of(PACK_QUAD_DEPTH);
        let quads = padded_k / PACK_QUAD_DEPTH;
        let mut tiles = vec![QuadRow([0; PACK_QUAD_BYTES]); n.div_ceil(PACK_BLOCK_COLS) * quads];
        let bytes = row_bytes_mut(&mut tiles);
        for p in 0..k {
            for (blk, cols) in unpacked.row(p).chunks(PACK_BLOCK_COLS).enumerate() {
                // Within a block, consecutive columns sit a quad's depth apart.
                let first = offset_in(quads * PACK_QUAD_BYTES, p, blk * PACK_BLOCK_COLS);
                let lanes = bytes[first..].iter_mut().step_by(PACK_QUAD_DEPTH);
                for (dst, &v) in lanes.zip(cols) {
                    *dst = v;
                }
            }
        }
        Self {
            col_sums: crate::engine::operand_col_sums(&unpacked),
            unpacked,
            tiles,
            padded_k,
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

    /// The depth rounded up to whole quads (a ragged `k` is padded with zero rows).
    pub fn padded_k(&self) -> usize {
        self.padded_k
    }

    /// Number of 16-column packed blocks (the last one may be column-padded).
    pub fn blocks(&self) -> usize {
        self.cols().div_ceil(PACK_BLOCK_COLS)
    }

    /// Bytes from the start of one block to the start of the next.
    pub fn block_stride(&self) -> usize {
        (self.padded_k / PACK_QUAD_DEPTH) * PACK_QUAD_BYTES
    }

    /// Offset in [`PackedMatI8::tiles`] of element `(p, j)` of the logical matrix (depth
    /// `p < padded_k`, column `j < 16 · blocks`), for code that audits or corrupts single
    /// tile bytes.
    pub fn tile_offset(&self, p: usize, j: usize) -> usize {
        offset_in(self.block_stride(), p, j)
    }

    /// The quad-tiled buffer (see the module docs for the layout), 64-byte aligned.
    pub fn tiles(&self) -> &[i8] {
        row_bytes(&self.tiles)
    }

    /// Mutable access to the tile buffer, for fault-injection studies that corrupt the
    /// packed replica. Mutating tiles desynchronizes them from [`PackedMatI8::unpacked`]
    /// and from the pack-time [`PackedMatI8::col_sums`] — which is exactly what
    /// `realm-abft`'s packed-weight audit detects.
    pub fn tiles_mut(&mut self) -> &mut [i8] {
        row_bytes_mut(&mut self.tiles)
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
        for blk in 0..self.blocks() {
            let jc = blk * PACK_BLOCK_COLS;
            let width = PACK_BLOCK_COLS.min(n - jc);
            let sums = &mut out[jc..jc + width];
            let block = &self.tiles()[blk * stride..(blk + 1) * stride];
            for quad in block.chunks_exact(PACK_QUAD_BYTES) {
                for (s, lane) in sums.iter_mut().zip(quad.chunks_exact(PACK_QUAD_DEPTH)) {
                    *s += lane.iter().map(|&v| i64::from(v)).sum::<i64>();
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
    fn layout_is_the_amx_b_tile_row_of_depth_quads_in_linear_column_order() {
        let b = random_mat(7, 10, 37);
        let pb = PackedMatI8::pack(&b);
        assert_eq!(pb.padded_k(), 12);
        assert_eq!(pb.blocks(), 3);
        assert_eq!(pb.block_stride(), 3 * PACK_QUAD_BYTES);
        for blk in 0..pb.blocks() {
            for quad in 0..pb.padded_k() / PACK_QUAD_DEPTH {
                let row = blk * pb.block_stride() + quad * PACK_QUAD_BYTES;
                for lane in 0..PACK_BLOCK_COLS {
                    for depth in 0..PACK_QUAD_DEPTH {
                        let (p, j) = (quad * PACK_QUAD_DEPTH + depth, blk * PACK_BLOCK_COLS + lane);
                        let want = if p < b.rows() && j < b.cols() {
                            b[(p, j)]
                        } else {
                            0
                        };
                        let at = row + lane * PACK_QUAD_DEPTH + depth;
                        assert_eq!(pb.tiles()[at], want, "blk {blk} quad {quad} lane {lane}");
                        assert_eq!(pb.tile_offset(p, j), at);
                    }
                }
            }
        }
    }

    #[test]
    fn ragged_depth_pads_the_final_quad_with_zeros() {
        let b = random_mat(8, 5, 16);
        let pb = PackedMatI8::pack(&b);
        assert_eq!(pb.padded_k(), 8);
        let last_quad = &pb.tiles()[PACK_QUAD_BYTES..2 * PACK_QUAD_BYTES];
        for (lane, column) in last_quad.chunks_exact(PACK_QUAD_DEPTH).enumerate() {
            assert_eq!(
                column,
                [b[(4, lane)], 0, 0, 0],
                "padded depth rows must be zero"
            );
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
        let victim = pb.tile_offset(5, 17);
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

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn pair_pack_writes_the_bytes_of_the_pack() {
        if !(is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512bw")) {
            return;
        }
        let zeros = [0i8; PACK_QUAD_BYTES];
        let mut dst = vec![std::mem::MaybeUninit::uninit(); 2 * 33 * PACK_QUAD_BYTES];
        // Ragged and whole depths and widths, a lone final block, depths from 0 and from a
        // chunk boundary, runs of quads ending short of, at and past the depth.
        for (seed, (k, n)) in (40..).zip([(1, 1), (5, 15), (64, 16), (65, 17), (67, 33), (130, 50)])
        {
            let b = random_mat(seed, k, n);
            let pb = PackedMatI8::pack(&b);
            let stride = pb.block_stride();
            for (d0, quads) in [(0, 1), (0, 16), (0, 33), (64, 16), (128, 1)] {
                for blk in (0..pb.blocks()).step_by(2) {
                    // SAFETY: the host has AVX-512F/BW (checked above).
                    let got = unsafe { pack_pair_into(&b, blk, d0, quads, &mut dst) };
                    let rows = got.chunks_exact(PACK_QUAD_BYTES);
                    for (i, row) in rows.enumerate() {
                        let (blk, quad) = (blk + i / quads, d0 / PACK_QUAD_DEPTH + i % quads);
                        let want = if blk < pb.blocks() && quad < pb.padded_k() / PACK_QUAD_DEPTH {
                            &pb.tiles()[blk * stride + quad * PACK_QUAD_BYTES..][..PACK_QUAD_BYTES]
                        } else {
                            &zeros
                        };
                        assert_eq!(row, want, "{k}x{n}: block {blk}, quad {quad}");
                    }
                }
            }
        }
    }

    #[test]
    fn degenerate_shapes_pack_without_panicking() {
        for (k, n) in [
            (0, 0),
            (0, 5),
            (5, 0),
            (1, 1),
            (1, 16),
            (2, 17),
            (3, 15),
            (4, 33),
        ] {
            let b = random_mat((k * 100 + n) as u64, k, n);
            let pb = PackedMatI8::pack(&b);
            assert_eq!(pb.shape(), (k, n));
            assert_eq!(pb.padded_k() % PACK_QUAD_DEPTH, 0);
            assert_eq!(pb.tiles().len(), pb.blocks() * pb.block_stride());
            assert_eq!(pb.tiles().as_ptr().align_offset(PACK_QUAD_BYTES), 0);
            assert_eq!(pb.col_sums().len(), n);
        }
    }
}
