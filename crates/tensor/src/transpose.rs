//! Matrix transposition: one blocked portable routine, and a vectorised one for INT8.
//!
//! Attention's score GEMM `Q · Kᵀ` needs the `head_dim × T` right operand dense and
//! row-major — hooks observe it, and recovery recomputes `w · x` from it — while the KV cache
//! appends key codes one `head_dim`-wide row per token. So every (sequence, head, chunk)
//! transposes that head's resident keys, an operation of the same order as the GEMM it
//! feeds; it has to cost a small fraction of it. [`Matrix::<i8>::transpose_into`] is that
//! transpose, behind the same runtime dispatch as the GEMM and row kernels ([`SimdTier`];
//! `REALM_FORCE_SCALAR` pins portable):
//!
//! * **AVX2** — 16 × 16 byte blocks through a four-stage unpack network (`vpunpck{l,h}bw`,
//!   `wd`, `dq`, `qdq`): 16 loads, 64 shuffles and 16 stores move 256 bytes. A ragged edge is
//!   one more block placed flush against it, overlapping its neighbour (the overlap is
//!   written twice with the same bytes), so no scalar tail exists for matrices of at least
//!   16 × 16.
//! * **portable** — the same 16 × 16 blocking in scalar code, contiguous on the write side;
//!   also what the AVX2 tier runs for matrices under 16 rows or columns.

use crate::simd::SimdTier;
use crate::{MatI8, Matrix};

/// Side of the square blocks both tiers walk.
const BLOCK: usize = 16;

impl Matrix<i8> {
    /// `out = selfᵀ`, reshaping `out` in place (its backing allocation is reused whenever the
    /// capacity suffices) and overwriting every element.
    pub fn transpose_into(&self, out: &mut MatI8) {
        transpose_with(SimdTier::detect(), self, out);
    }
}

/// [`Matrix::<i8>::transpose_into`] on at most `tier`, clamped to what the host grants.
fn transpose_with(tier: SimdTier, src: &MatI8, out: &mut MatI8) {
    let (rows, cols) = src.shape();
    out.resize_overwrite(cols, rows);
    #[cfg(target_arch = "x86_64")]
    if tier.min(SimdTier::detect()) >= SimdTier::Avx2 && rows >= BLOCK && cols >= BLOCK {
        // SAFETY: an accelerated tier is only granted when AVX2 was detected; both slices
        // hold `rows × cols` elements and both dimensions are at least one block.
        unsafe { avx2::transpose(src.as_slice(), rows, cols, out.as_mut_slice()) };
        return;
    }
    let _ = tier; // unused off x86-64
    transpose_blocked(src.as_slice(), rows, cols, out.as_mut_slice());
}

/// `dst = srcᵀ` for a row-major `rows × cols` `src`, block by block so that both the strided
/// reads and the contiguous writes of a block stay in cache.
///
/// # Panics
///
/// Panics if either slice does not hold `rows × cols` elements.
fn transpose_blocked<T: Copy>(src: &[T], rows: usize, cols: usize, dst: &mut [T]) {
    assert_eq!(src.len(), rows * cols, "source is not rows x cols");
    assert_eq!(dst.len(), rows * cols, "destination is not cols x rows");
    for r0 in (0..rows).step_by(BLOCK) {
        let r1 = (r0 + BLOCK).min(rows);
        for c0 in (0..cols).step_by(BLOCK) {
            for c in c0..(c0 + BLOCK).min(cols) {
                let dst_run = &mut dst[c * rows + r0..c * rows + r1];
                for (d, r) in dst_run.iter_mut().zip(r0..r1) {
                    *d = src[r * cols + c];
                }
            }
        }
    }
}

/// The AVX2 tier. Only reachable through [`transpose_with`]'s detection-guarded dispatch.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::BLOCK;
    use std::arch::x86_64::*;

    /// Block origins covering `0..len` (`len ≥ 16`): every multiple of 16 that fits a whole
    /// block, then one flush against the end if a remainder is left.
    fn block_starts(len: usize) -> impl Iterator<Item = usize> {
        let ragged = (!len.is_multiple_of(BLOCK)).then(|| len - BLOCK);
        (0..len / BLOCK).map(|i| i * BLOCK).chain(ragged)
    }

    /// # Safety
    ///
    /// Caller must ensure the CPU supports AVX2, `src.len() == dst.len() == rows * cols`
    /// and `rows >= 16`, `cols >= 16`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn transpose(src: &[i8], rows: usize, cols: usize, dst: &mut [i8]) {
        debug_assert!(rows >= BLOCK && cols >= BLOCK);
        debug_assert!(src.len() == rows * cols && dst.len() == rows * cols);
        for r0 in block_starts(rows) {
            for c0 in block_starts(cols) {
                // In bounds: `r0 + 16 <= rows` and `c0 + 16 <= cols`, so the block's last
                // source byte is at `(r0 + 15) * cols + c0 + 15 < rows * cols`, and its
                // last destination byte at `(c0 + 15) * rows + r0 + 15 < cols * rows`.
                block(
                    src.as_ptr().add(r0 * cols + c0),
                    cols,
                    dst.as_mut_ptr().add(c0 * rows + r0),
                    rows,
                );
            }
        }
    }

    /// Transposes the 16 × 16 byte block at `src` (row stride `src_stride`) into the one at
    /// `dst` (row stride `dst_stride`). Each unpack stage doubles the run of one source
    /// column held contiguously: 2 rows' worth after the byte stage, then 4, 8, 16.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 and that 16 rows of 16 bytes are readable at `src` and
    /// writable at `dst` under the given strides.
    #[target_feature(enable = "avx2")]
    unsafe fn block(src: *const i8, src_stride: usize, dst: *mut i8, dst_stride: usize) {
        let zero = _mm_setzero_si128();
        let mut rows = [zero; 16];
        for (i, row) in rows.iter_mut().enumerate() {
            *row = _mm_loadu_si128(src.add(i * src_stride) as *const __m128i);
        }
        // Bytes → row pairs: `pairs[i]` holds columns 0-7 of rows (2i, 2i+1), `pairs[8 + i]`
        // columns 8-15.
        let mut pairs = [zero; 16];
        for i in 0..8 {
            pairs[i] = _mm_unpacklo_epi8(rows[2 * i], rows[2 * i + 1]);
            pairs[8 + i] = _mm_unpackhi_epi8(rows[2 * i], rows[2 * i + 1]);
        }
        // Words → row quads: `quads[4g + i]` holds columns 4g..4g+4 of rows 4i..4i+4.
        let mut quads = [zero; 16];
        for i in 0..4 {
            quads[i] = _mm_unpacklo_epi16(pairs[2 * i], pairs[2 * i + 1]);
            quads[4 + i] = _mm_unpackhi_epi16(pairs[2 * i], pairs[2 * i + 1]);
            quads[8 + i] = _mm_unpacklo_epi16(pairs[8 + 2 * i], pairs[8 + 2 * i + 1]);
            quads[12 + i] = _mm_unpackhi_epi16(pairs[8 + 2 * i], pairs[8 + 2 * i + 1]);
        }
        for g in 0..4 {
            // Doublewords → row octets (columns 4g, 4g+1 in `lo`; 4g+2, 4g+3 in `hi`), then
            // quadwords → all 16 rows of one column per register.
            let top = (quads[4 * g], quads[4 * g + 1]);
            let bottom = (quads[4 * g + 2], quads[4 * g + 3]);
            let lo = (
                _mm_unpacklo_epi32(top.0, top.1),
                _mm_unpacklo_epi32(bottom.0, bottom.1),
            );
            let hi = (
                _mm_unpackhi_epi32(top.0, top.1),
                _mm_unpackhi_epi32(bottom.0, bottom.1),
            );
            let columns = [
                _mm_unpacklo_epi64(lo.0, lo.1),
                _mm_unpackhi_epi64(lo.0, lo.1),
                _mm_unpacklo_epi64(hi.0, hi.1),
                _mm_unpackhi_epi64(hi.0, hi.1),
            ];
            for (j, &column) in columns.iter().enumerate() {
                _mm_storeu_si128(dst.add((4 * g + j) * dst_stride) as *mut __m128i, column);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;
    use rand::Rng;

    fn naive<T: Copy>(m: &Matrix<T>) -> Matrix<T> {
        Matrix::from_fn(m.cols(), m.rows(), |r, c| m[(c, r)])
    }

    fn tiers() -> Vec<SimdTier> {
        let mut tiers = vec![SimdTier::Portable];
        if SimdTier::detect() > SimdTier::Portable {
            tiers.push(SimdTier::detect());
        }
        tiers
    }

    #[test]
    fn int8_transpose_matches_the_naive_double_loop_on_every_tier() {
        let mut r = rng::seeded(5);
        // Empty, a single row, around one block of rows at the head dimension, a full
        // context, smaller than a block both ways, and ragged both ways above one.
        for (rows, cols) in [
            (0, 32),
            (1, 32),
            (15, 32),
            (16, 32),
            (17, 32),
            (640, 32),
            (7, 5),
            (16, 16),
            (33, 47),
            (32, 1),
        ] {
            let src = MatI8::from_fn(rows, cols, |_, _| r.gen_range(-128i16..=127) as i8);
            let expected = naive(&src);
            for tier in tiers() {
                // A reused, larger, dirty destination: every element must be overwritten.
                let mut out = MatI8::filled(41, 53, 0x55);
                transpose_with(tier, &src, &mut out);
                assert_eq!(out, expected, "{rows}x{cols} on {tier:?}");
                let mut back = MatI8::zeros(0, 0);
                transpose_with(tier, &out, &mut back);
                assert_eq!(back, src, "{rows}x{cols} on {tier:?}: not an involution");
            }
            let mut out = MatI8::zeros(0, 0);
            src.transpose_into(&mut out);
            assert_eq!(out, expected, "{rows}x{cols} on the granted tier");
        }
    }
}
