//! SIMD i8 GEMM microkernel with fused ABFT checksums and runtime dispatch.
//!
//! The SIMD row kernel of [`crate::engine::KernelEngine`] is the fastest kernel in the
//! workspace where it is accelerated: an x86-64 AVX2 microkernel built on `core::arch`
//! intrinsics, selected at **runtime** via `is_x86_feature_detected!` so one binary runs
//! everywhere — hosts without AVX2 (or runs with the `REALM_FORCE_SCALAR=1` override) fall
//! back to a portable unrolled-chunk kernel with the identical loop structure. The engine
//! runs it inline (`simd`) or over work-stealing row chunks (`simd_parallel`), so batched
//! prefill and serving-scale GEMMs get the SIMD win on every core.
//!
//! # The microkernel
//!
//! The register tile is **4 rows × 16 columns**, accumulated in eight `i32×8` vector
//! registers across the full depth `k`. The depth dimension advances two rows of `B` at a
//! time (a *dot-product pair*):
//!
//! 1. 16 `i8` of `B[p]` and `B[p+1]` are widened to `i16` (`vpmovsxbw`) and interleaved
//!    (`vpunpcklwd`/`vpunpckhwd`) into column pairs `(B[p][j], B[p+1][j])`;
//! 2. the matching activation pair `(A[i][p], A[i][p+1])` is broadcast as a packed `i16`
//!    pair;
//! 3. `vpmaddwd` multiplies the `i16` pairs and adds each pair in `i32`:
//!    `A[i][p]·B[p][j] + A[i][p+1]·B[p+1][j]` — **exact** for every `i8` input, since each
//!    product is at most `128² = 16384` and the pair sum at most `2¹⁵`, far inside `i32`.
//!
//! An odd depth tail pairs the final `B` row with a zero vector, so `k` need not be a
//! multiple of the SIMD width; column tails (`n mod 16`) run through the portable kernel,
//! which is bit-identical (integer accumulation is order-invariant) — except in the skinny
//! pass below, which keeps them in the same registers.
//!
//! ## Why `vpmaddwd` and not the `vpmaddubsw` offset trick
//!
//! The classic i8 dot-product idiom multiplies **unsigned×signed** bytes with `vpmaddubsw`
//! after offsetting one operand by +128 and correcting afterwards. That idiom is *not*
//! exact over the full i8 range: `vpmaddubsw` saturates its `i16` pair sum, and with an
//! offset operand at 255 against weights at `i8::MIN` the true pair sum (−65280) is far
//! below `i16::MIN`, so saturation fires and the +128 correction cannot restore the lost
//! bits. Statistical ABFT admits no tolerance on the INT32 accumulator, so this backend
//! widens to `i16` first and pays one extra shuffle per `B` pair — bit-exact for
//! `i8::MIN` (and everything else) by construction, which `tests/backend_parity.rs` and
//! the adversarial suite in `tests/properties.rs` pin down.
//!
//! # Fused checksums, in-register
//!
//! The observed ABFT checksum `eᵀ·Y` is reduced **from the same registers that produced
//! `Y`**: as each row's final 16-column tile leaves its accumulator registers, its `i32`
//! lanes are widened (`vpmovsxdq`) and added onto four `i64×4` column-sum registers that
//! persist across the whole row loop of the column block — no second pass over the output.
//! The operand-side checksum `(eᵀ·W)·X` cannot ride the accumulator registers (its `i64`
//! weights exceed what AVX2 can multiply lane-wise), so it runs as a single row-major
//! streaming pass over `B` — the layout the scalar i64 multiply-add vectorizes and
//! prefetches best at, measurably faster than stripe-local walks on tall decode-shape
//! weights.
//!
//! # The skinny rule
//!
//! With at most [`SKINNY_MAX_ROWS`] rows the weights of that reduction are no longer `i64`:
//! `|eᵀ·W| ≤ 4·128` fits an `i16` lane, so the checksum row is one more row of the register
//! tile — an extra `vpmaddwd` on the depth pairs already widened for the multiply, `i32`
//! partials drained to `i64` often enough to stay exact — and the whole checksummed GEMM is
//! **one** stream over `B`. That holds for either operand kind, and decode is made of such
//! shapes: the linears (`m` = batch rows, packed `B`:
//! `SimdKernel::run_skinny_packed`) and attention's `QKᵀ`/`SV` (`m` = 1 per sequence and
//! head, row-major `B`: `SimdKernel::run_skinny_rows`; at `1 × 32 · 32 × 48` the separate
//! pass, its second call for the `n mod 16` tail columns and the zero-fills around them cost
//! 4.4× the multiply itself, the fused row 0.5×). The row-major pass has a portable and an
//! AVX2 tier; AVX-512 hosts run the AVX2 one, as for the unpacked tile.
//!
//! # Packed-B decode kernels
//!
//! Static weights go through [`crate::PackedMatI8`] and the `gemm_i8_packed*` entry
//! points: the depth-pair interleaving above is done **once at pack time**, so the packed
//! kernels replace load + 2×widen + 2×unpack (+ a retirement permute) per pair with one
//! 32-byte load + 2×widen, already in linear column order. Three tiers dispatch at
//! construction ([`SimdTier`]): portable, AVX2, and AVX-512 (which widens the whole
//! 32-byte pair row into one zmm register — see [`SimdTier::Avx512`]). For checksummed
//! GEMV/skinny-M shapes (`m ≤` [`SKINNY_MAX_ROWS`]) a dedicated kernel fuses the
//! *expected* checksum into the same register stream as the multiply, so a protected
//! decode step streams the weights exactly once.

use crate::engine::{accumulate_expected_panel, FusedChecksums};
use crate::packed::{PackedMatI8, PACK_BLOCK_COLS, PACK_PAIR_BYTES};
use crate::MatI8;
use std::sync::OnceLock;

/// Width (output columns) of the SIMD register tile.
pub const SIMD_TILE_COLS: usize = 16;
/// Height (output rows) of the SIMD register tile.
pub const SIMD_TILE_ROWS: usize = 4;
/// Maximum `m` handled by the dedicated GEMV/skinny-M packed kernel: the largest row
/// count whose activation column sums `eᵀ·X` are guaranteed to fit an `i16` lane
/// (`4·128 = 512`), which is what lets the expected checksum ride the multiply's
/// `vpmaddwd` stream.
pub const SKINNY_MAX_ROWS: usize = 4;

// The packed block width and the SIMD tile width must agree — the packed layout IS the
// kernels' consumption order.
const _: () = assert!(SIMD_TILE_COLS == PACK_BLOCK_COLS);

/// Environment variable that forces the portable fallback kernel even when the CPU
/// supports the AVX2 microkernel. Any non-empty value other than `0` counts as set; CI
/// uses it to keep both dispatch paths green on AVX2 runners.
pub const FORCE_SCALAR_ENV: &str = "REALM_FORCE_SCALAR";

fn force_scalar() -> bool {
    std::env::var_os(FORCE_SCALAR_ENV).is_some_and(|v| !v.is_empty() && v != "0")
}

#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2_available() -> bool {
    false
}

#[cfg(target_arch = "x86_64")]
fn avx512_available() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512bw")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx512_available() -> bool {
    false
}

/// Returns `true` when an accelerated microkernel will be dispatched: the host CPU
/// reports AVX2 and [`FORCE_SCALAR_ENV`] is not set.
pub fn simd_accelerated() -> bool {
    !force_scalar() && avx2_available()
}

/// Human-readable description of what the runtime dispatch selected, for benchmark and
/// example output (bench numbers are uninterpretable without knowing which path ran).
pub fn simd_dispatch_label() -> &'static str {
    if force_scalar() {
        "portable (REALM_FORCE_SCALAR set)"
    } else if avx512_available() {
        "avx512 (packed kernels; avx2 unpacked)"
    } else if avx2_available() {
        "avx2"
    } else {
        "portable (no AVX2 on this host)"
    }
}

/// The instruction-set tier the SIMD kernel dispatches, decided once at construction.
///
/// Ordered worst-to-best so a requested tier can be clamped to what the host supports
/// ([`crate::engine::KernelEngine::simd_with_tier`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdTier {
    /// The portable unrolled-chunk kernels (every host; pinned by [`FORCE_SCALAR_ENV`]).
    Portable,
    /// The AVX2 microkernels (16-wide i16 pair tiles).
    Avx2,
    /// AVX2 for the unpacked kernel plus AVX-512F/BW for the **packed** kernels, which
    /// widen a whole 32-byte packed pair row into one 32-lane i16 zmm register
    /// (`vpmovsxbw`) and retire two depth pairs per `vpmaddwd`. The unpacked kernel
    /// deliberately stays on the AVX2 tile: without pre-packing, feeding 512-bit
    /// registers needs extra cross-lane shuffles that eat the wider multiply, while the
    /// packed layout feeds them with plain loads — AVX-512 is applied exactly where the
    /// data layout lets it pay.
    Avx512,
}

impl SimdTier {
    /// The best tier the host grants: CPUID and [`FORCE_SCALAR_ENV`], resolved on first use
    /// and remembered for the life of the process, so the GEMM and row kernels share one
    /// answer and dispatching never reads the environment.
    pub fn detect() -> Self {
        static GRANTED: OnceLock<SimdTier> = OnceLock::new();
        *GRANTED.get_or_init(|| {
            if force_scalar() {
                SimdTier::Portable
            } else if avx512_available() {
                SimdTier::Avx512
            } else if avx2_available() {
                SimdTier::Avx2
            } else {
                SimdTier::Portable
            }
        })
    }

    /// Short label for reports (`"portable"`, `"avx2"`, `"avx512"`).
    pub fn label(self) -> &'static str {
        match self {
            SimdTier::Portable => "portable",
            SimdTier::Avx2 => "avx2",
            SimdTier::Avx512 => "avx512",
        }
    }
}

/// The SIMD row kernel behind [`crate::engine::KernelEngine::simd`]: the best of
/// AVX-512/AVX2/portable the CPU supports.
///
/// Dispatch is decided once at construction and carried by the value, so the per-GEMM hot
/// path never re-reads the environment or CPUID. The tier is private and only ever a
/// granted one ([`SimdKernel::with_tier`] clamps), which is what the `unsafe` dispatch
/// below relies on. All tiers are bit-identical to [`crate::engine::ReferenceEngine`] on
/// accumulators and fused checksums.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SimdKernel {
    tier: SimdTier,
}

impl SimdKernel {
    /// A kernel pinned to at most `tier`, clamped to what the host grants
    /// ([`SimdTier::detect`]).
    pub(crate) fn with_tier(tier: SimdTier) -> Self {
        Self {
            tier: tier.min(SimdTier::detect()),
        }
    }

    /// Microkernel pass over a contiguous row range `[row_start, row_end)` of `a`,
    /// accumulating into `out_band` (the matching band of the output, see
    /// `Kernel::run_rows` in [`crate::engine`] for the band contract). When `fused` is
    /// present the checksum reductions ride the pass: `eᵀ·Y` from the accumulator
    /// registers as each tile is finalised, `(eᵀ·W)·X` from the cache-hot `B` stripes.
    pub(crate) fn run_rows(
        &self,
        a: &MatI8,
        b: &MatI8,
        out_band: &mut [i32],
        row_start: usize,
        row_end: usize,
        fused: Option<FusedChecksums<'_>>,
    ) {
        let mut fused = fused;
        #[cfg(target_arch = "x86_64")]
        if self.tier >= SimdTier::Avx2 {
            // SAFETY: an accelerated tier is only granted when AVX2 was detected at
            // construction (the AVX-512 tier implies AVX2; see `SimdTier::detect`). The
            // unpacked kernel stays on the AVX2 tile at every accelerated tier — see
            // [`SimdTier::Avx512`] for why.
            unsafe { avx2::run_rows(a, b, out_band, row_start, row_end, &mut fused) };
            return;
        }
        portable::run_cols(a, b, out_band, row_start, row_end, 0, b.cols(), &mut fused);
    }

    /// Packed-B microkernel pass over rows `[row_start, row_end)` of `a`, accumulating
    /// into `out_band` (same band contract as [`SimdKernel::run_rows`]). The packed tiles
    /// are streamed in pre-interleaved depth-pair order, so the per-GEMM `vpunpck`
    /// interleaves and the retirement cross-lane permutes of the unpacked kernel vanish.
    /// When `observed` is present the output-side checksum `eᵀ·Y` rides the accumulator
    /// registers; the operand-side expected checksum is the caller's job (see
    /// [`SimdKernel::run_skinny_packed`] for the shape where it fuses too).
    pub(crate) fn run_rows_packed(
        &self,
        a: &MatI8,
        pb: &PackedMatI8,
        out_band: &mut [i32],
        row_start: usize,
        row_end: usize,
        observed: Option<&mut [i64]>,
    ) {
        #[cfg(target_arch = "x86_64")]
        {
            if self.tier >= SimdTier::Avx512 {
                // SAFETY: the AVX-512 tier is only granted when AVX-512F/BW (and AVX2)
                // were detected at construction.
                unsafe { packed_avx512::run_rows(a, pb, out_band, row_start, row_end, observed) };
                return;
            }
            if self.tier >= SimdTier::Avx2 {
                // SAFETY: the AVX2 tier is only granted when AVX2 was detected.
                unsafe { packed_avx2::run_rows(a, pb, out_band, row_start, row_end, observed) };
                return;
            }
        }
        packed_portable::run_rows(a, pb, out_band, row_start, row_end, observed);
    }

    /// The GEMV/skinny-M decode kernel: for `m ≤ SKINNY_MAX_ROWS` checksummed GEMMs, the
    /// operand-side expected checksum `(eᵀ·X)·W` fuses into the **same** streaming pass as
    /// the multiply — with so few rows, `eᵀ·X` fits an `i16` lane (`|Σ xᵢ| ≤ 4·128`), so
    /// the packed-B registers already loaded for the multiply feed one extra `vpmaddwd`
    /// per pair. That halves the memory traffic of a checksummed decode step: the unpacked
    /// path streams `W` twice (once for the multiply, once for the expected reduction),
    /// the skinny packed path streams it exactly once.
    ///
    /// Overflow bound: each fused partial is `|eᵀ·X[pair]| · |W| ≤ 2·512·128 = 2¹⁷`; the
    /// `i32` partials drain into `i64` every [`packed_portable::DRAIN_PAIRS`] pairs, and
    /// `8192 · 2¹⁷ = 2³⁰ < i32::MAX` — exact on every input, like everything else here.
    pub(crate) fn run_skinny_packed(
        &self,
        a: &MatI8,
        pb: &PackedMatI8,
        out_band: &mut [i32],
        etx: &[i64],
        expected: &mut [i64],
        observed: &mut [i64],
    ) {
        debug_assert!(a.rows() <= SKINNY_MAX_ROWS);
        #[cfg(target_arch = "x86_64")]
        {
            if self.tier >= SimdTier::Avx512 {
                // SAFETY: tier granted only with AVX-512F/BW + AVX2 detected.
                unsafe { packed_avx512::run_skinny(a, pb, out_band, etx, expected, observed) };
                return;
            }
            if self.tier >= SimdTier::Avx2 {
                // SAFETY: tier granted only with AVX2 detected.
                unsafe { packed_avx2::run_skinny(a, pb, out_band, etx, expected, observed) };
                return;
            }
        }
        packed_portable::run_skinny(a, pb, out_band, etx, expected, observed);
    }

    /// [`SimdKernel::run_skinny_packed`]'s twin for a row-major `B` — the activation ×
    /// activation GEMMs of attention (`QKᵀ`, `SV`) and recovery recomputation, whose right
    /// operand changes every call and so is never packed. One stream over `B`: each depth
    /// pair is widened and interleaved once and feeds the `m ≤ 4` activation rows **and**
    /// the checksum row `eᵀ·A` (same `i16` bound, same [`packed_portable::DRAIN_PAIRS`]
    /// drain), `eᵀ·Y` is reduced from the retiring registers, and the `n mod 16` tail
    /// columns run through the same registers instead of a second, scalar pass.
    ///
    /// Unlike every other kernel here it **overwrites** `out`, `expected` and `observed`
    /// (each cell is produced exactly once, over the full depth), so the caller shapes the
    /// destination without zero-filling it.
    pub(crate) fn run_skinny_rows(
        &self,
        a: &MatI8,
        b: &MatI8,
        out: &mut [i32],
        etw: &[i64],
        expected: &mut [i64],
        observed: &mut [i64],
    ) {
        let (m, n) = (a.rows(), b.cols());
        assert!(
            (1..=SKINNY_MAX_ROWS).contains(&m),
            "skinny pass over {m} rows"
        );
        assert_eq!(a.cols(), b.rows(), "operand depths differ");
        assert_eq!(etw.len(), a.cols(), "one checksum weight per depth step");
        assert_eq!(out.len(), m * n, "destination is not m x n");
        assert_eq!(
            (expected.len(), observed.len()),
            (n, n),
            "one checksum per column"
        );
        #[cfg(target_arch = "x86_64")]
        if self.tier >= SimdTier::Avx2 {
            // SAFETY: an accelerated tier is only granted when AVX2 was detected; the
            // shapes the kernel indexes by were asserted above.
            unsafe { avx2::run_skinny(a, b, out, etw, expected, observed) };
            return;
        }
        portable::run_skinny(a, b, out, etw, expected, observed);
    }
}

/// Portable unrolled-chunk fallback: the same 16-column blocks and depth-pair structure as
/// the AVX2 microkernel, in scalar `i32` arithmetic over a stack tile — no heap scratch,
/// so the zero-allocation decode contract holds on every host. The compiler's
/// autovectorizer gets clean slice-to-slice loops; even fully scalar the results are
/// bit-identical (exact integer accumulation is order-invariant).
mod portable {
    use super::{
        accumulate_expected_panel, FusedChecksums, MatI8, SIMD_TILE_COLS, SKINNY_MAX_ROWS,
    };

    /// Column-chunked kernel over rows `[row_start, row_end)` and columns
    /// `[col_start, col_end)`; also serves as the column-tail handler of the AVX2 path.
    #[allow(clippy::too_many_arguments)] // mirrors the band contract of `run_rows` kernels
    pub(super) fn run_cols(
        a: &MatI8,
        b: &MatI8,
        out_band: &mut [i32],
        row_start: usize,
        row_end: usize,
        col_start: usize,
        col_end: usize,
        fused: &mut Option<FusedChecksums<'_>>,
    ) {
        let k = a.cols();
        let n = b.cols();
        // Operand-side checksum over the whole column range in one row-major pass (see the
        // AVX2 kernel for why stripe-local walks are cache-hostile here).
        if let Some(FusedChecksums {
            etw,
            expected: Some(expected),
            ..
        }) = fused
        {
            accumulate_expected_panel(b, etw, expected, (0, k), (col_start, col_end));
        }
        let mut jc = col_start;
        while jc < col_end {
            let jc_end = (jc + SIMD_TILE_COLS).min(col_end);
            let width = jc_end - jc;
            for i in row_start..row_end {
                let a_row = a.row(i);
                let mut tile = [0i32; SIMD_TILE_COLS];
                let tile = &mut tile[..width];
                let mut p = 0;
                // Depth pairs, mirroring the `vpmaddwd` pairing of the AVX2 kernel.
                while p + 2 <= k {
                    let a0 = a_row[p] as i32;
                    let a1 = a_row[p + 1] as i32;
                    if (a0 | a1) != 0 {
                        let b0 = &b.row(p)[jc..jc_end];
                        let b1 = &b.row(p + 1)[jc..jc_end];
                        for ((t, &v0), &v1) in tile.iter_mut().zip(b0).zip(b1) {
                            *t += a0 * v0 as i32 + a1 * v1 as i32;
                        }
                    }
                    p += 2;
                }
                // Odd depth tail (the AVX2 kernel pairs it with a zero vector).
                if p < k {
                    let a0 = a_row[p] as i32;
                    if a0 != 0 {
                        for (t, &v0) in tile.iter_mut().zip(&b.row(p)[jc..jc_end]) {
                            *t += a0 * v0 as i32;
                        }
                    }
                }
                let band_row = (i - row_start) * n;
                let out_seg = &mut out_band[band_row + jc..band_row + jc_end];
                for (o, &t) in out_seg.iter_mut().zip(tile.iter()) {
                    *o += t;
                }
                // Output-side checksum from the freshly finalised tile values.
                if let Some(FusedChecksums { observed, .. }) = fused {
                    for (s, &v) in observed[jc..jc_end].iter_mut().zip(out_seg.iter()) {
                        *s += v as i64;
                    }
                }
            }
            jc = jc_end;
        }
    }

    /// The skinny fused pass (see [`super::SimdKernel::run_skinny_rows`]): per 16-column
    /// block, one walk down `B` feeds the `m ≤ 4` accumulator rows and the checksum row;
    /// every destination cell is assigned, not accumulated. The expected checksum is
    /// scalar `i64`, so no drain is needed — same exact value as the SIMD tiers.
    pub(super) fn run_skinny(
        a: &MatI8,
        b: &MatI8,
        out: &mut [i32],
        etw: &[i64],
        expected: &mut [i64],
        observed: &mut [i64],
    ) {
        let m = a.rows();
        let n = b.cols();
        let mut jc = 0;
        while jc < n {
            let jc_end = (jc + SIMD_TILE_COLS).min(n);
            let width = jc_end - jc;
            let mut acc = [[0i32; SIMD_TILE_COLS]; SKINNY_MAX_ROWS];
            let mut exp = [0i64; SIMD_TILE_COLS];
            for (p, &weight) in etw.iter().enumerate() {
                let b_seg = &b.row(p)[jc..jc_end];
                if weight != 0 {
                    for (e, &bv) in exp.iter_mut().zip(b_seg) {
                        *e += weight * bv as i64;
                    }
                }
                for (r, row_acc) in acc.iter_mut().take(m).enumerate() {
                    let a_rp = a.row(r)[p] as i32;
                    if a_rp != 0 {
                        for (t, &bv) in row_acc.iter_mut().zip(b_seg) {
                            *t += a_rp * bv as i32;
                        }
                    }
                }
            }
            expected[jc..jc_end].copy_from_slice(&exp[..width]);
            let mut obs = [0i64; SIMD_TILE_COLS];
            for (r, row_acc) in acc.iter().take(m).enumerate() {
                out[r * n + jc..r * n + jc_end].copy_from_slice(&row_acc[..width]);
                for (s, &v) in obs.iter_mut().zip(row_acc) {
                    *s += v as i64;
                }
            }
            observed[jc..jc_end].copy_from_slice(&obs[..width]);
            jc = jc_end;
        }
    }
}

/// The AVX2 microkernel. Every function carries `#[target_feature(enable = "avx2")]` and
/// is only reachable through [`SimdKernel::run_rows`]'s detection-guarded dispatch.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::packed_avx2::{drain, pair_weights};
    use super::packed_portable::DRAIN_PAIRS;
    use super::{
        accumulate_expected_panel, portable, FusedChecksums, MatI8, SIMD_TILE_COLS, SIMD_TILE_ROWS,
    };
    use std::arch::x86_64::*;

    /// SIMD-width microkernel over full 16-column blocks; the `n mod 16` column tail and
    /// its checksum shares run through the bit-identical portable kernel.
    ///
    /// # Safety
    ///
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn run_rows(
        a: &MatI8,
        b: &MatI8,
        out_band: &mut [i32],
        row_start: usize,
        row_end: usize,
        fused: &mut Option<FusedChecksums<'_>>,
    ) {
        let k = a.cols();
        let n = b.cols();
        let n_simd = n - n % SIMD_TILE_COLS;
        // Operand-side checksum `(eᵀ·W)·X` over the SIMD-width columns, as one row-major
        // streaming pass over `B`. Unlike the output side this reduction cannot ride the
        // accumulator registers (AVX2 has no 64-bit lane multiply and `eᵀ·W` weights
        // exceed i32), and walking it in 16-column stripes re-streams `B` with a
        // cache-hostile access pattern — full contiguous rows are what the i64
        // multiply-add vectorizes and prefetches best at.
        if let Some(FusedChecksums {
            etw,
            expected: Some(expected),
            ..
        }) = fused
        {
            accumulate_expected_panel(b, etw, expected, (0, k), (0, n_simd));
        }
        let mut jc = 0;
        while jc < n_simd {
            let observed = fused
                .as_mut()
                .map(|f| &mut f.observed[jc..jc + SIMD_TILE_COLS]);
            col_block(a, b, out_band, row_start, row_end, jc, observed);
            jc += SIMD_TILE_COLS;
        }
        if n_simd < n {
            portable::run_cols(a, b, out_band, row_start, row_end, n_simd, n, fused);
        }
    }

    /// One 16-column block over all rows of the band. The observed-checksum column sums
    /// live in four `i64×4` registers across the entire row loop and are added onto
    /// `observed` exactly once at the end — the output-side checksum never re-reads `Y`.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 and `jc + 16 <= b.cols()`.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)] // mirrors the band contract of `run_rows` kernels
    unsafe fn col_block(
        a: &MatI8,
        b: &MatI8,
        out_band: &mut [i32],
        row_start: usize,
        row_end: usize,
        jc: usize,
        observed: Option<&mut [i64]>,
    ) {
        let mut obs = [_mm256_setzero_si256(); 4];
        let track = observed.is_some();
        let mut i = row_start;
        while i + SIMD_TILE_ROWS <= row_end {
            if track {
                tile::<SIMD_TILE_ROWS, true>(a, b, out_band, row_start, i, jc, &mut obs);
            } else {
                tile::<SIMD_TILE_ROWS, false>(a, b, out_band, row_start, i, jc, &mut obs);
            }
            i += SIMD_TILE_ROWS;
        }
        macro_rules! row_tail {
            ($r:literal) => {
                if track {
                    tile::<$r, true>(a, b, out_band, row_start, i, jc, &mut obs)
                } else {
                    tile::<$r, false>(a, b, out_band, row_start, i, jc, &mut obs)
                }
            };
        }
        match row_end - i {
            1 => row_tail!(1),
            2 => row_tail!(2),
            3 => row_tail!(3),
            _ => {}
        }
        if let Some(observed) = observed {
            let mut lanes = [0i64; SIMD_TILE_COLS];
            for (q, &vec) in obs.iter().enumerate() {
                _mm256_storeu_si256(lanes.as_mut_ptr().add(4 * q) as *mut __m256i, vec);
            }
            for (s, &v) in observed.iter_mut().zip(&lanes) {
                *s += v;
            }
        }
    }

    /// An `R × 16` register tile accumulated over the full depth in eight (at `R = 4`)
    /// `i32×8` registers, two depth steps per `vpmaddwd`. When `FUSED`, each row's final
    /// tile is widened lane-wise (`vpmovsxdq`) into the block's observed-checksum
    /// registers before the accumulators are retired — the "reduce from the same
    /// registers" half of the fused-checksum contract.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2, `i + R <= a.rows()` and `jc + 16 <= b.cols()`.
    #[target_feature(enable = "avx2")]
    unsafe fn tile<const R: usize, const FUSED: bool>(
        a: &MatI8,
        b: &MatI8,
        out_band: &mut [i32],
        row_start: usize,
        i: usize,
        jc: usize,
        obs: &mut [__m256i; 4],
    ) {
        let k = a.cols();
        let n = b.cols();
        let zero = _mm256_setzero_si256();
        let mut acc_lo = [zero; R];
        let mut acc_hi = [zero; R];
        let a_rows: [&[i8]; R] = std::array::from_fn(|r| a.row(i + r));
        let mut p = 0;
        while p + 2 <= k {
            // Widen two B rows to i16 and interleave into (B[p][j], B[p+1][j]) pairs.
            // The unpacks stay within 128-bit lanes, so the accumulator lanes carry the
            // columns in the fixed order {0-3, 8-11} / {4-7, 12-15}; one cross-lane
            // permute at retirement restores linear order.
            let b0 = load_extend(b.row(p).as_ptr().add(jc));
            let b1 = load_extend(b.row(p + 1).as_ptr().add(jc));
            let pairs_lo = _mm256_unpacklo_epi16(b0, b1);
            let pairs_hi = _mm256_unpackhi_epi16(b0, b1);
            for r in 0..R {
                let w = pair_weights(a_rows[r][p] as i16, a_rows[r][p + 1] as i16);
                acc_lo[r] = _mm256_add_epi32(acc_lo[r], _mm256_madd_epi16(pairs_lo, w));
                acc_hi[r] = _mm256_add_epi32(acc_hi[r], _mm256_madd_epi16(pairs_hi, w));
            }
            p += 2;
        }
        if p < k {
            // Odd depth tail: pair the last B row with zeros so the same madd runs.
            let b0 = load_extend(b.row(p).as_ptr().add(jc));
            let pairs_lo = _mm256_unpacklo_epi16(b0, zero);
            let pairs_hi = _mm256_unpackhi_epi16(b0, zero);
            for r in 0..R {
                let w = pair_weights(a_rows[r][p] as i16, 0);
                acc_lo[r] = _mm256_add_epi32(acc_lo[r], _mm256_madd_epi16(pairs_lo, w));
                acc_hi[r] = _mm256_add_epi32(acc_hi[r], _mm256_madd_epi16(pairs_hi, w));
            }
        }
        for r in 0..R {
            let (res0, res1) = linear_order(acc_lo[r], acc_hi[r]);
            let band_row = (i + r - row_start) * n;
            let out_ptr = out_band.as_mut_ptr().add(band_row + jc);
            let final0 = _mm256_add_epi32(_mm256_loadu_si256(out_ptr as *const __m256i), res0);
            let final1 =
                _mm256_add_epi32(_mm256_loadu_si256(out_ptr.add(8) as *const __m256i), res1);
            _mm256_storeu_si256(out_ptr as *mut __m256i, final0);
            _mm256_storeu_si256(out_ptr.add(8) as *mut __m256i, final1);
            if FUSED {
                // eᵀ·Y share of this row, straight from the retiring registers.
                obs[0] = _mm256_add_epi64(
                    obs[0],
                    _mm256_cvtepi32_epi64(_mm256_castsi256_si128(final0)),
                );
                obs[1] = _mm256_add_epi64(
                    obs[1],
                    _mm256_cvtepi32_epi64(_mm256_extracti128_si256(final0, 1)),
                );
                obs[2] = _mm256_add_epi64(
                    obs[2],
                    _mm256_cvtepi32_epi64(_mm256_castsi256_si128(final1)),
                );
                obs[3] = _mm256_add_epi64(
                    obs[3],
                    _mm256_cvtepi32_epi64(_mm256_extracti128_si256(final1, 1)),
                );
            }
        }
    }

    /// 16 `i8` loaded and sign-extended to 16 `i16` lanes.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 and that `ptr..ptr+16` is in bounds.
    #[target_feature(enable = "avx2")]
    unsafe fn load_extend(ptr: *const i8) -> __m256i {
        _mm256_cvtepi8_epi16(_mm_loadu_si128(ptr as *const __m128i))
    }

    /// The skinny fused pass (see [`super::SimdKernel::run_skinny_rows`]).
    ///
    /// # Safety
    ///
    /// Caller must ensure the CPU supports AVX2, `1 <= a.rows() <= 4`,
    /// `a.cols() == b.rows() == etw.len()`, `out.len() == a.rows() * b.cols()` and
    /// `expected.len() == observed.len() == b.cols()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn run_skinny(
        a: &MatI8,
        b: &MatI8,
        out: &mut [i32],
        etw: &[i64],
        expected: &mut [i64],
        observed: &mut [i64],
    ) {
        match a.rows() {
            1 => skinny::<1>(a, b, out, etw, expected, observed),
            2 => skinny::<2>(a, b, out, etw, expected, observed),
            3 => skinny::<3>(a, b, out, etw, expected, observed),
            _ => skinny::<4>(a, b, out, etw, expected, observed),
        }
    }

    /// All `R` rows plus the checksum row `eᵀ·A` as one register tile per 16-column block,
    /// over the full depth. A partial final block runs through the same registers: its
    /// loads read 16 bytes wherever that stays inside `B` (the lanes past the row's end
    /// hold the next row's bytes and are never stored) and a zero-padded stack copy for
    /// the last rows, where it would not.
    ///
    /// # Safety
    ///
    /// As [`run_skinny`], with `a.rows() == R`.
    #[target_feature(enable = "avx2")]
    unsafe fn skinny<const R: usize>(
        a: &MatI8,
        b: &MatI8,
        out: &mut [i32],
        etw: &[i64],
        expected: &mut [i64],
        observed: &mut [i64],
    ) {
        let k = a.cols();
        let n = b.cols();
        let zero = _mm256_setzero_si256();
        let a_rows: [&[i8]; R] = std::array::from_fn(|r| a.row(r));
        let b_all = b.as_slice();
        let mut jc = 0;
        while jc < n {
            let width = (n - jc).min(SIMD_TILE_COLS);
            let mut acc_lo = [zero; R];
            let mut acc_hi = [zero; R];
            let mut exp32_lo = zero;
            let mut exp32_hi = zero;
            let mut exp64 = [zero; 4];
            let mut since_drain = 0usize;
            let mut p = 0;
            while p < k {
                // The same widen-and-interleave as `tile`; an odd depth tail pairs the
                // last B row (and the last weights) with zeros.
                let paired = p + 1 < k;
                let b0 = load_cols(b_all, p * n + jc, width);
                let b1 = if paired {
                    load_cols(b_all, (p + 1) * n + jc, width)
                } else {
                    zero
                };
                let pairs_lo = _mm256_unpacklo_epi16(b0, b1);
                let pairs_hi = _mm256_unpackhi_epi16(b0, b1);
                for r in 0..R {
                    let a1 = if paired { a_rows[r][p + 1] } else { 0 };
                    let w = pair_weights(a_rows[r][p] as i16, a1 as i16);
                    acc_lo[r] = _mm256_add_epi32(acc_lo[r], _mm256_madd_epi16(pairs_lo, w));
                    acc_hi[r] = _mm256_add_epi32(acc_hi[r], _mm256_madd_epi16(pairs_hi, w));
                }
                // The checksum row: with m ≤ 4 the column sums of A fit an i16 lane.
                let e1 = if paired { etw[p + 1] } else { 0 };
                let ew = pair_weights(etw[p] as i16, e1 as i16);
                exp32_lo = _mm256_add_epi32(exp32_lo, _mm256_madd_epi16(pairs_lo, ew));
                exp32_hi = _mm256_add_epi32(exp32_hi, _mm256_madd_epi16(pairs_hi, ew));
                since_drain += 1;
                if since_drain == DRAIN_PAIRS {
                    drain_linear(&mut exp32_lo, &mut exp32_hi, &mut exp64);
                    since_drain = 0;
                }
                p += 2;
            }
            drain_linear(&mut exp32_lo, &mut exp32_hi, &mut exp64);
            store_i64x4_lanes(&exp64, &mut expected[jc..jc + width]);
            let mut obs = [zero; 4];
            for r in 0..R {
                let (mut res0, mut res1) = linear_order(acc_lo[r], acc_hi[r]);
                let row = &mut out[r * n + jc..r * n + jc + width];
                if width == SIMD_TILE_COLS {
                    _mm256_storeu_si256(row.as_mut_ptr() as *mut __m256i, res0);
                    _mm256_storeu_si256(row.as_mut_ptr().add(8) as *mut __m256i, res1);
                } else {
                    let mut lanes = [0i32; SIMD_TILE_COLS];
                    _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, res0);
                    _mm256_storeu_si256(lanes.as_mut_ptr().add(8) as *mut __m256i, res1);
                    row.copy_from_slice(&lanes[..width]);
                }
                // eᵀ·Y share of this row, straight from the retiring registers.
                drain(&mut res0, &mut res1, &mut obs);
            }
            store_i64x4_lanes(&obs, &mut observed[jc..jc + width]);
            jc += width;
        }
    }

    /// 16 `i8` of `b_all` starting at `at`, of which the first `width` are wanted,
    /// sign-extended to `i16` lanes.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 and `at + width <= b_all.len()`, `width <= 16`.
    #[target_feature(enable = "avx2")]
    unsafe fn load_cols(b_all: &[i8], at: usize, width: usize) -> __m256i {
        if at + SIMD_TILE_COLS <= b_all.len() {
            return load_extend(b_all.as_ptr().add(at));
        }
        let mut padded = [0i8; SIMD_TILE_COLS];
        padded[..width].copy_from_slice(&b_all[at..at + width]);
        load_extend(padded.as_ptr())
    }

    /// Restores linear column order from the unpack order of the interleaved tile:
    /// `lo = {0-3 | 8-11}`, `hi = {4-7 | 12-15}` → `(0-7, 8-15)`.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn linear_order(lo: __m256i, hi: __m256i) -> (__m256i, __m256i) {
        (
            _mm256_permute2x128_si256(lo, hi, 0x20),
            _mm256_permute2x128_si256(lo, hi, 0x31),
        )
    }

    /// [`drain`] for partials held in the interleaved tile's unpack order.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn drain_linear(
        exp32_lo: &mut __m256i,
        exp32_hi: &mut __m256i,
        exp64: &mut [__m256i; 4],
    ) {
        let (mut res0, mut res1) = linear_order(*exp32_lo, *exp32_hi);
        drain(&mut res0, &mut res1, exp64);
        *exp32_lo = _mm256_setzero_si256();
        *exp32_hi = _mm256_setzero_si256();
    }

    /// Stores the first `sums.len()` of four `i64×4` registers' 16 lanes.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 and `sums.len() <= 16`.
    #[target_feature(enable = "avx2")]
    unsafe fn store_i64x4_lanes(regs: &[__m256i; 4], sums: &mut [i64]) {
        let mut lanes = [0i64; SIMD_TILE_COLS];
        for (q, &vec) in regs.iter().enumerate() {
            _mm256_storeu_si256(lanes.as_mut_ptr().add(4 * q) as *mut __m256i, vec);
        }
        sums.copy_from_slice(&lanes[..sums.len()]);
    }
}

/// Portable packed-B kernels: the same pre-interleaved depth-pair walk as the SIMD packed
/// kernels, in scalar arithmetic over a stack tile. Also the partial-final-block handler
/// for the SIMD tiers — the packed buffer pads every block to 16 columns (the padded
/// lanes multiply against zero bytes), but the output matrix does not, so the scalar
/// kernel writes exactly the `n mod 16` live columns.
mod packed_portable {
    use super::{MatI8, PackedMatI8, PACK_BLOCK_COLS, PACK_PAIR_BYTES, SKINNY_MAX_ROWS};

    /// Pairs accumulated in `i32` before the fused expected checksum of the SIMD skinny
    /// kernels drains to `i64`: each pair partial is bounded by `2·512·128 = 2¹⁷`, so
    /// `8192 · 2¹⁷ = 2³⁰` keeps the `i32` partials exact.
    pub(super) const DRAIN_PAIRS: usize = 8192;

    pub(super) fn run_rows(
        a: &MatI8,
        pb: &PackedMatI8,
        out_band: &mut [i32],
        row_start: usize,
        row_end: usize,
        mut observed: Option<&mut [i64]>,
    ) {
        for blk in 0..pb.blocks() {
            run_block(a, pb, out_band, row_start, row_end, blk, &mut observed);
        }
    }

    /// One (possibly partial) 16-column block over the row band.
    pub(super) fn run_block(
        a: &MatI8,
        pb: &PackedMatI8,
        out_band: &mut [i32],
        row_start: usize,
        row_end: usize,
        blk: usize,
        observed: &mut Option<&mut [i64]>,
    ) {
        let k = a.cols();
        let n = pb.cols();
        let jc = blk * PACK_BLOCK_COLS;
        let jc_end = (jc + PACK_BLOCK_COLS).min(n);
        let width = jc_end - jc;
        let pairs = pb.padded_k() / 2;
        let tiles = &pb.tiles()[blk * pb.block_stride()..];
        for i in row_start..row_end {
            let a_row = a.row(i);
            let mut tile = [0i32; PACK_BLOCK_COLS];
            let tile = &mut tile[..width];
            for p in 0..pairs {
                let a0 = a_row[2 * p] as i32;
                let a1 = if 2 * p + 1 < k {
                    a_row[2 * p + 1] as i32
                } else {
                    0
                };
                if (a0 | a1) == 0 {
                    continue;
                }
                let chunk = &tiles[p * PACK_PAIR_BYTES..(p + 1) * PACK_PAIR_BYTES];
                for (lane, t) in tile.iter_mut().enumerate() {
                    *t += a0 * chunk[2 * lane] as i32 + a1 * chunk[2 * lane + 1] as i32;
                }
            }
            let band_row = (i - row_start) * n;
            let out_seg = &mut out_band[band_row + jc..band_row + jc_end];
            for (o, &t) in out_seg.iter_mut().zip(tile.iter()) {
                *o += t;
            }
            if let Some(observed) = observed.as_deref_mut() {
                for (s, &v) in observed[jc..jc_end].iter_mut().zip(out_seg.iter()) {
                    *s += v as i64;
                }
            }
        }
    }

    pub(super) fn run_skinny(
        a: &MatI8,
        pb: &PackedMatI8,
        out_band: &mut [i32],
        etx: &[i64],
        expected: &mut [i64],
        observed: &mut [i64],
    ) {
        for blk in 0..pb.blocks() {
            run_skinny_block(a, pb, out_band, blk, etx, expected, observed);
        }
    }

    /// One (possibly partial) block of the skinny kernel: multiply, expected and observed
    /// checksums all accumulated in the same walk over the packed pairs — the portable
    /// mirror of the single-stream contract of the SIMD skinny kernels (scalar `i64`
    /// expected, so no drain is needed; same exact value either way).
    pub(super) fn run_skinny_block(
        a: &MatI8,
        pb: &PackedMatI8,
        out_band: &mut [i32],
        blk: usize,
        etx: &[i64],
        expected: &mut [i64],
        observed: &mut [i64],
    ) {
        let m = a.rows();
        debug_assert!(m <= SKINNY_MAX_ROWS);
        let k = a.cols();
        let n = pb.cols();
        let jc = blk * PACK_BLOCK_COLS;
        let jc_end = (jc + PACK_BLOCK_COLS).min(n);
        let width = jc_end - jc;
        let pairs = pb.padded_k() / 2;
        let tiles = &pb.tiles()[blk * pb.block_stride()..];
        let mut acc = [[0i32; PACK_BLOCK_COLS]; SKINNY_MAX_ROWS];
        let mut exp = [0i64; PACK_BLOCK_COLS];
        for p in 0..pairs {
            let chunk = &tiles[p * PACK_PAIR_BYTES..(p + 1) * PACK_PAIR_BYTES];
            let odd_tail = 2 * p + 1 >= k;
            let e0 = etx[2 * p];
            let e1 = if odd_tail { 0 } else { etx[2 * p + 1] };
            if (e0 | e1) != 0 {
                for (lane, e) in exp[..width].iter_mut().enumerate() {
                    *e += e0 * chunk[2 * lane] as i64 + e1 * chunk[2 * lane + 1] as i64;
                }
            }
            for (r, row_acc) in acc.iter_mut().take(m).enumerate() {
                let a_row = a.row(r);
                let a0 = a_row[2 * p] as i32;
                let a1 = if odd_tail { 0 } else { a_row[2 * p + 1] as i32 };
                if (a0 | a1) == 0 {
                    continue;
                }
                for (lane, t) in row_acc[..width].iter_mut().enumerate() {
                    *t += a0 * chunk[2 * lane] as i32 + a1 * chunk[2 * lane + 1] as i32;
                }
            }
        }
        for (e, &v) in expected[jc..jc_end].iter_mut().zip(exp.iter()) {
            *e += v;
        }
        for (r, row_acc) in acc.iter().take(m).enumerate() {
            let band_row = r * n;
            let out_seg = &mut out_band[band_row + jc..band_row + jc_end];
            for (o, &t) in out_seg.iter_mut().zip(row_acc[..width].iter()) {
                *o += t;
            }
            for (s, &v) in observed[jc..jc_end].iter_mut().zip(out_seg.iter()) {
                *s += v as i64;
            }
        }
    }
}

/// The AVX2 tier of the packed kernels. The pack-time interleaving turns each depth
/// pair's inner step into one 32-byte load plus two `vpmovsxbw` widenings — the
/// `vpunpck` interleaves and the retirement cross-lane permutes of the unpacked kernel
/// are gone, and the accumulator registers hold columns in linear order throughout.
#[cfg(target_arch = "x86_64")]
mod packed_avx2 {
    use super::{
        packed_portable, MatI8, PackedMatI8, PACK_BLOCK_COLS, PACK_PAIR_BYTES, SIMD_TILE_ROWS,
    };
    use std::arch::x86_64::*;

    /// Packed-B microkernel over full 16-column blocks; a partial final block runs
    /// through the bit-identical portable packed kernel.
    ///
    /// # Safety
    ///
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn run_rows(
        a: &MatI8,
        pb: &PackedMatI8,
        out_band: &mut [i32],
        row_start: usize,
        row_end: usize,
        mut observed: Option<&mut [i64]>,
    ) {
        let n = pb.cols();
        let full_blocks = n / PACK_BLOCK_COLS;
        for blk in 0..full_blocks {
            let jc = blk * PACK_BLOCK_COLS;
            let obs = observed
                .as_deref_mut()
                .map(|o| &mut o[jc..jc + PACK_BLOCK_COLS]);
            col_block(a, pb, out_band, row_start, row_end, blk, obs);
        }
        if full_blocks < pb.blocks() {
            packed_portable::run_block(
                a,
                pb,
                out_band,
                row_start,
                row_end,
                full_blocks,
                &mut observed,
            );
        }
    }

    /// One full 16-column block over all rows of the band; same observed-checksum
    /// register discipline as the unpacked `col_block`.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 and that block `blk` is full-width.
    #[target_feature(enable = "avx2")]
    unsafe fn col_block(
        a: &MatI8,
        pb: &PackedMatI8,
        out_band: &mut [i32],
        row_start: usize,
        row_end: usize,
        blk: usize,
        observed: Option<&mut [i64]>,
    ) {
        let mut obs = [_mm256_setzero_si256(); 4];
        let track = observed.is_some();
        let mut i = row_start;
        while i + SIMD_TILE_ROWS <= row_end {
            if track {
                tile::<SIMD_TILE_ROWS, true>(a, pb, out_band, row_start, i, blk, &mut obs);
            } else {
                tile::<SIMD_TILE_ROWS, false>(a, pb, out_band, row_start, i, blk, &mut obs);
            }
            i += SIMD_TILE_ROWS;
        }
        macro_rules! row_tail {
            ($r:literal) => {
                if track {
                    tile::<$r, true>(a, pb, out_band, row_start, i, blk, &mut obs)
                } else {
                    tile::<$r, false>(a, pb, out_band, row_start, i, blk, &mut obs)
                }
            };
        }
        match row_end - i {
            1 => row_tail!(1),
            2 => row_tail!(2),
            3 => row_tail!(3),
            _ => {}
        }
        if let Some(observed) = observed {
            add_i64x4_lanes(&obs, observed);
        }
    }

    /// An `R × 16` register tile over the packed pairs of block `blk`: the pair registers
    /// come out of `load_pair` already in linear column order, so retirement stores the
    /// accumulators directly — no permutes.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2, `i + R <= a.rows()` and block `blk` full-width.
    #[target_feature(enable = "avx2")]
    unsafe fn tile<const R: usize, const FUSED: bool>(
        a: &MatI8,
        pb: &PackedMatI8,
        out_band: &mut [i32],
        row_start: usize,
        i: usize,
        blk: usize,
        obs: &mut [__m256i; 4],
    ) {
        let k = a.cols();
        let n = pb.cols();
        let pairs = pb.padded_k() / 2;
        let tiles = pb.tiles().as_ptr().add(blk * pb.block_stride());
        let zero = _mm256_setzero_si256();
        let mut acc_lo = [zero; R];
        let mut acc_hi = [zero; R];
        let a_rows: [&[i8]; R] = std::array::from_fn(|r| a.row(i + r));
        for p in 0..pairs {
            let (pairs_lo, pairs_hi) = load_pair(tiles.add(p * PACK_PAIR_BYTES));
            let odd_tail = 2 * p + 1 >= k;
            for r in 0..R {
                let a0 = a_rows[r][2 * p] as i16;
                let a1 = if odd_tail {
                    0
                } else {
                    a_rows[r][2 * p + 1] as i16
                };
                let w = pair_weights(a0, a1);
                acc_lo[r] = _mm256_add_epi32(acc_lo[r], _mm256_madd_epi16(pairs_lo, w));
                acc_hi[r] = _mm256_add_epi32(acc_hi[r], _mm256_madd_epi16(pairs_hi, w));
            }
        }
        let jc = blk * PACK_BLOCK_COLS;
        for r in 0..R {
            let band_row = (i + r - row_start) * n;
            retire_row::<FUSED>(
                out_band.as_mut_ptr().add(band_row + jc),
                acc_lo[r],
                acc_hi[r],
                obs,
            );
        }
    }

    /// The GEMV/skinny-M packed kernel: all `m ≤ 4` rows in one register tile, with the
    /// expected checksum fused into the same pair stream (see
    /// [`super::SimdKernel::run_skinny_packed`]) — `i32` `vpmaddwd` partials drained into
    /// `i64` registers every [`packed_portable::DRAIN_PAIRS`] pairs.
    ///
    /// # Safety
    ///
    /// Caller must ensure the CPU supports AVX2 and `1 <= a.rows() <= 4`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn run_skinny(
        a: &MatI8,
        pb: &PackedMatI8,
        out_band: &mut [i32],
        etx: &[i64],
        expected: &mut [i64],
        observed: &mut [i64],
    ) {
        let full_blocks = pb.cols() / PACK_BLOCK_COLS;
        for blk in 0..full_blocks {
            match a.rows() {
                1 => skinny_block::<1>(a, pb, out_band, blk, etx, expected, observed),
                2 => skinny_block::<2>(a, pb, out_band, blk, etx, expected, observed),
                3 => skinny_block::<3>(a, pb, out_band, blk, etx, expected, observed),
                _ => skinny_block::<4>(a, pb, out_band, blk, etx, expected, observed),
            }
        }
        if full_blocks < pb.blocks() {
            packed_portable::run_skinny_block(
                a,
                pb,
                out_band,
                full_blocks,
                etx,
                expected,
                observed,
            );
        }
    }

    /// # Safety
    ///
    /// Caller must ensure AVX2, `a.rows() == R` and block `blk` full-width.
    #[target_feature(enable = "avx2")]
    unsafe fn skinny_block<const R: usize>(
        a: &MatI8,
        pb: &PackedMatI8,
        out_band: &mut [i32],
        blk: usize,
        etx: &[i64],
        expected: &mut [i64],
        observed: &mut [i64],
    ) {
        let k = a.cols();
        let n = pb.cols();
        let pairs = pb.padded_k() / 2;
        let tiles = pb.tiles().as_ptr().add(blk * pb.block_stride());
        let zero = _mm256_setzero_si256();
        let mut acc_lo = [zero; R];
        let mut acc_hi = [zero; R];
        let mut exp32_lo = zero;
        let mut exp32_hi = zero;
        let mut exp64 = [zero; 4];
        let a_rows: [&[i8]; R] = std::array::from_fn(|r| a.row(r));
        let mut since_drain = 0usize;
        for p in 0..pairs {
            let (pairs_lo, pairs_hi) = load_pair(tiles.add(p * PACK_PAIR_BYTES));
            let odd_tail = 2 * p + 1 >= k;
            for r in 0..R {
                let a0 = a_rows[r][2 * p] as i16;
                let a1 = if odd_tail {
                    0
                } else {
                    a_rows[r][2 * p + 1] as i16
                };
                let w = pair_weights(a0, a1);
                acc_lo[r] = _mm256_add_epi32(acc_lo[r], _mm256_madd_epi16(pairs_lo, w));
                acc_hi[r] = _mm256_add_epi32(acc_hi[r], _mm256_madd_epi16(pairs_hi, w));
            }
            // Fused expected share: with m ≤ 4 the activation column sums eᵀ·X fit an
            // i16 lane, so the already-loaded pair registers feed one extra vpmaddwd.
            let e0 = etx[2 * p] as i16;
            let e1 = if odd_tail { 0 } else { etx[2 * p + 1] as i16 };
            let ew = pair_weights(e0, e1);
            exp32_lo = _mm256_add_epi32(exp32_lo, _mm256_madd_epi16(pairs_lo, ew));
            exp32_hi = _mm256_add_epi32(exp32_hi, _mm256_madd_epi16(pairs_hi, ew));
            since_drain += 1;
            if since_drain == packed_portable::DRAIN_PAIRS {
                drain(&mut exp32_lo, &mut exp32_hi, &mut exp64);
                since_drain = 0;
            }
        }
        drain(&mut exp32_lo, &mut exp32_hi, &mut exp64);
        let jc = blk * PACK_BLOCK_COLS;
        add_i64x4_lanes(&exp64, &mut expected[jc..jc + PACK_BLOCK_COLS]);
        let mut obs = [zero; 4];
        for (r, (&lo, &hi)) in acc_lo.iter().zip(acc_hi.iter()).enumerate() {
            retire_row::<true>(out_band.as_mut_ptr().add(r * n + jc), lo, hi, &mut obs);
        }
        add_i64x4_lanes(&obs, &mut observed[jc..jc + PACK_BLOCK_COLS]);
    }

    /// Widens the `i32` expected partials into the `i64` accumulator registers and
    /// resets them — the drain that keeps the fused expected exact at any depth.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn drain(
        exp32_lo: &mut __m256i,
        exp32_hi: &mut __m256i,
        exp64: &mut [__m256i; 4],
    ) {
        exp64[0] = _mm256_add_epi64(
            exp64[0],
            _mm256_cvtepi32_epi64(_mm256_castsi256_si128(*exp32_lo)),
        );
        exp64[1] = _mm256_add_epi64(
            exp64[1],
            _mm256_cvtepi32_epi64(_mm256_extracti128_si256(*exp32_lo, 1)),
        );
        exp64[2] = _mm256_add_epi64(
            exp64[2],
            _mm256_cvtepi32_epi64(_mm256_castsi256_si128(*exp32_hi)),
        );
        exp64[3] = _mm256_add_epi64(
            exp64[3],
            _mm256_cvtepi32_epi64(_mm256_extracti128_si256(*exp32_hi, 1)),
        );
        *exp32_lo = _mm256_setzero_si256();
        *exp32_hi = _mm256_setzero_si256();
    }

    /// One 32-byte packed pair row → two `i16` pair registers in linear column order
    /// (lanes `(B[p][j], B[p+1][j])` for `j = 0..8` and `8..16`).
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 and `ptr..ptr+32` in bounds.
    #[target_feature(enable = "avx2")]
    unsafe fn load_pair(ptr: *const i8) -> (__m256i, __m256i) {
        let raw = _mm256_loadu_si256(ptr as *const __m256i);
        (
            _mm256_cvtepi8_epi16(_mm256_castsi256_si128(raw)),
            _mm256_cvtepi8_epi16(_mm256_extracti128_si256(raw, 1)),
        )
    }

    /// Adds `acc_lo`/`acc_hi` (linear column order) onto 16 output columns at `out_ptr`
    /// and, when `FUSED`, folds the finalised values into the observed-checksum
    /// registers.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 and `out_ptr..out_ptr+16` in bounds.
    #[target_feature(enable = "avx2")]
    unsafe fn retire_row<const FUSED: bool>(
        out_ptr: *mut i32,
        acc_lo: __m256i,
        acc_hi: __m256i,
        obs: &mut [__m256i; 4],
    ) {
        let final0 = _mm256_add_epi32(_mm256_loadu_si256(out_ptr as *const __m256i), acc_lo);
        let final1 = _mm256_add_epi32(_mm256_loadu_si256(out_ptr.add(8) as *const __m256i), acc_hi);
        _mm256_storeu_si256(out_ptr as *mut __m256i, final0);
        _mm256_storeu_si256(out_ptr.add(8) as *mut __m256i, final1);
        if FUSED {
            obs[0] = _mm256_add_epi64(
                obs[0],
                _mm256_cvtepi32_epi64(_mm256_castsi256_si128(final0)),
            );
            obs[1] = _mm256_add_epi64(
                obs[1],
                _mm256_cvtepi32_epi64(_mm256_extracti128_si256(final0, 1)),
            );
            obs[2] = _mm256_add_epi64(
                obs[2],
                _mm256_cvtepi32_epi64(_mm256_castsi256_si128(final1)),
            );
            obs[3] = _mm256_add_epi64(
                obs[3],
                _mm256_cvtepi32_epi64(_mm256_extracti128_si256(final1, 1)),
            );
        }
    }

    /// Stores four `i64×4` registers and adds their lanes onto a 16-entry slice.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 and `sums.len() == 16`.
    #[target_feature(enable = "avx2")]
    unsafe fn add_i64x4_lanes(regs: &[__m256i; 4], sums: &mut [i64]) {
        let mut lanes = [0i64; PACK_BLOCK_COLS];
        for (q, &vec) in regs.iter().enumerate() {
            _mm256_storeu_si256(lanes.as_mut_ptr().add(4 * q) as *mut __m256i, vec);
        }
        for (s, &v) in sums.iter_mut().zip(&lanes) {
            *s += v;
        }
    }

    /// A value pair broadcast as packed `i16` pairs for `vpmaddwd` (activations, or the
    /// `eᵀ·X` sums of the skinny kernel — both fit `i16` by construction).
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn pair_weights(v0: i16, v1: i16) -> __m256i {
        let packed = ((v1 as u16 as u32) << 16) | (v0 as u16 as u32);
        _mm256_set1_epi32(packed as i32)
    }
}

/// The AVX-512 tier of the packed kernels: one 32-byte packed pair row widens into a full
/// 32-lane `i16` zmm register (`vpmovsxbw`), so a single `vpmaddwd` retires an entire
/// depth pair for all 16 columns — half the multiply count of the AVX2 tile, fed by plain
/// loads thanks to the pack-time interleaving. Requires AVX-512F (arithmetic/converts) +
/// AVX-512BW (`vpmaddwd` on zmm); only reachable when [`super::SimdTier::Avx512`] was
/// granted at construction. VNNI's `vpdpbusd` was considered and rejected: it consumes
/// depth **quads**, which conflicts with the pair interleaving the AVX2 tier shares —
/// reconstructing quads would reintroduce the per-GEMM shuffles packing exists to remove
/// (and its unsigned×signed form needs a `128·colsum` correction besides).
#[cfg(target_arch = "x86_64")]
mod packed_avx512 {
    use super::{
        packed_portable, MatI8, PackedMatI8, PACK_BLOCK_COLS, PACK_PAIR_BYTES, SIMD_TILE_ROWS,
    };
    use std::arch::x86_64::*;

    /// Packed-B microkernel over full 16-column blocks; a partial final block runs
    /// through the bit-identical portable packed kernel.
    ///
    /// # Safety
    ///
    /// Caller must ensure the CPU supports AVX-512F, AVX-512BW and AVX2.
    #[target_feature(enable = "avx512f,avx512bw,avx2")]
    pub(super) unsafe fn run_rows(
        a: &MatI8,
        pb: &PackedMatI8,
        out_band: &mut [i32],
        row_start: usize,
        row_end: usize,
        mut observed: Option<&mut [i64]>,
    ) {
        let n = pb.cols();
        let full_blocks = n / PACK_BLOCK_COLS;
        for blk in 0..full_blocks {
            let jc = blk * PACK_BLOCK_COLS;
            let obs = observed
                .as_deref_mut()
                .map(|o| &mut o[jc..jc + PACK_BLOCK_COLS]);
            col_block(a, pb, out_band, row_start, row_end, blk, obs);
        }
        if full_blocks < pb.blocks() {
            packed_portable::run_block(
                a,
                pb,
                out_band,
                row_start,
                row_end,
                full_blocks,
                &mut observed,
            );
        }
    }

    /// One full 16-column block over all rows of the band; the observed column sums live
    /// in two `i64×8` zmm registers across the entire row loop.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX-512F/BW + AVX2 and that block `blk` is full-width.
    #[target_feature(enable = "avx512f,avx512bw,avx2")]
    unsafe fn col_block(
        a: &MatI8,
        pb: &PackedMatI8,
        out_band: &mut [i32],
        row_start: usize,
        row_end: usize,
        blk: usize,
        observed: Option<&mut [i64]>,
    ) {
        let mut obs = [_mm512_setzero_si512(); 2];
        let track = observed.is_some();
        let mut i = row_start;
        while i + SIMD_TILE_ROWS <= row_end {
            if track {
                tile::<SIMD_TILE_ROWS, true>(a, pb, out_band, row_start, i, blk, &mut obs);
            } else {
                tile::<SIMD_TILE_ROWS, false>(a, pb, out_band, row_start, i, blk, &mut obs);
            }
            i += SIMD_TILE_ROWS;
        }
        macro_rules! row_tail {
            ($r:literal) => {
                if track {
                    tile::<$r, true>(a, pb, out_band, row_start, i, blk, &mut obs)
                } else {
                    tile::<$r, false>(a, pb, out_band, row_start, i, blk, &mut obs)
                }
            };
        }
        match row_end - i {
            1 => row_tail!(1),
            2 => row_tail!(2),
            3 => row_tail!(3),
            _ => {}
        }
        if let Some(observed) = observed {
            add_i64x8_lanes(&obs, observed);
        }
    }

    /// An `R × 16` register tile: one `i32×16` zmm accumulator per row, one `vpmaddwd`
    /// per row per depth pair.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX-512F/BW + AVX2, `i + R <= a.rows()` and block `blk`
    /// full-width.
    #[target_feature(enable = "avx512f,avx512bw,avx2")]
    unsafe fn tile<const R: usize, const FUSED: bool>(
        a: &MatI8,
        pb: &PackedMatI8,
        out_band: &mut [i32],
        row_start: usize,
        i: usize,
        blk: usize,
        obs: &mut [__m512i; 2],
    ) {
        let k = a.cols();
        let n = pb.cols();
        let pairs = pb.padded_k() / 2;
        let tiles = pb.tiles().as_ptr().add(blk * pb.block_stride());
        let mut acc = [_mm512_setzero_si512(); R];
        let a_rows: [&[i8]; R] = std::array::from_fn(|r| a.row(i + r));
        for p in 0..pairs {
            let pair_row = load_pair(tiles.add(p * PACK_PAIR_BYTES));
            let odd_tail = 2 * p + 1 >= k;
            for r in 0..R {
                let a0 = a_rows[r][2 * p] as i16;
                let a1 = if odd_tail {
                    0
                } else {
                    a_rows[r][2 * p + 1] as i16
                };
                acc[r] =
                    _mm512_add_epi32(acc[r], _mm512_madd_epi16(pair_row, pair_weights(a0, a1)));
            }
        }
        let jc = blk * PACK_BLOCK_COLS;
        for (r, &row_acc) in acc.iter().enumerate() {
            let band_row = (i + r - row_start) * n;
            retire_row::<FUSED>(out_band.as_mut_ptr().add(band_row + jc), row_acc, obs);
        }
    }

    /// The GEMV/skinny-M packed kernel at the AVX-512 tier; same structure and drain
    /// bound as the AVX2 version, with the expected partials in one `i32×16` zmm.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX-512F/BW + AVX2 and `1 <= a.rows() <= 4`.
    #[target_feature(enable = "avx512f,avx512bw,avx2")]
    pub(super) unsafe fn run_skinny(
        a: &MatI8,
        pb: &PackedMatI8,
        out_band: &mut [i32],
        etx: &[i64],
        expected: &mut [i64],
        observed: &mut [i64],
    ) {
        let full_blocks = pb.cols() / PACK_BLOCK_COLS;
        for blk in 0..full_blocks {
            match a.rows() {
                1 => skinny_block::<1>(a, pb, out_band, blk, etx, expected, observed),
                2 => skinny_block::<2>(a, pb, out_band, blk, etx, expected, observed),
                3 => skinny_block::<3>(a, pb, out_band, blk, etx, expected, observed),
                _ => skinny_block::<4>(a, pb, out_band, blk, etx, expected, observed),
            }
        }
        if full_blocks < pb.blocks() {
            packed_portable::run_skinny_block(
                a,
                pb,
                out_band,
                full_blocks,
                etx,
                expected,
                observed,
            );
        }
    }

    /// # Safety
    ///
    /// Caller must ensure AVX-512F/BW + AVX2, `a.rows() == R` and block `blk` full-width.
    #[target_feature(enable = "avx512f,avx512bw,avx2")]
    unsafe fn skinny_block<const R: usize>(
        a: &MatI8,
        pb: &PackedMatI8,
        out_band: &mut [i32],
        blk: usize,
        etx: &[i64],
        expected: &mut [i64],
        observed: &mut [i64],
    ) {
        let k = a.cols();
        let n = pb.cols();
        let pairs = pb.padded_k() / 2;
        let tiles = pb.tiles().as_ptr().add(blk * pb.block_stride());
        let mut acc = [_mm512_setzero_si512(); R];
        let mut exp32 = _mm512_setzero_si512();
        let mut exp64 = [_mm512_setzero_si512(); 2];
        let a_rows: [&[i8]; R] = std::array::from_fn(|r| a.row(r));
        let mut since_drain = 0usize;
        for p in 0..pairs {
            let pair_row = load_pair(tiles.add(p * PACK_PAIR_BYTES));
            let odd_tail = 2 * p + 1 >= k;
            for r in 0..R {
                let a0 = a_rows[r][2 * p] as i16;
                let a1 = if odd_tail {
                    0
                } else {
                    a_rows[r][2 * p + 1] as i16
                };
                acc[r] =
                    _mm512_add_epi32(acc[r], _mm512_madd_epi16(pair_row, pair_weights(a0, a1)));
            }
            let e0 = etx[2 * p] as i16;
            let e1 = if odd_tail { 0 } else { etx[2 * p + 1] as i16 };
            exp32 = _mm512_add_epi32(exp32, _mm512_madd_epi16(pair_row, pair_weights(e0, e1)));
            since_drain += 1;
            if since_drain == packed_portable::DRAIN_PAIRS {
                drain(&mut exp32, &mut exp64);
                since_drain = 0;
            }
        }
        drain(&mut exp32, &mut exp64);
        let jc = blk * PACK_BLOCK_COLS;
        add_i64x8_lanes(&exp64, &mut expected[jc..jc + PACK_BLOCK_COLS]);
        let mut obs = [_mm512_setzero_si512(); 2];
        for (r, &row_acc) in acc.iter().enumerate() {
            retire_row::<true>(out_band.as_mut_ptr().add(r * n + jc), row_acc, &mut obs);
        }
        add_i64x8_lanes(&obs, &mut observed[jc..jc + PACK_BLOCK_COLS]);
    }

    /// Widens the `i32` expected partials into the `i64` accumulators and resets them.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX-512F.
    #[target_feature(enable = "avx512f,avx512bw,avx2")]
    unsafe fn drain(exp32: &mut __m512i, exp64: &mut [__m512i; 2]) {
        exp64[0] = _mm512_add_epi64(
            exp64[0],
            _mm512_cvtepi32_epi64(_mm512_castsi512_si256(*exp32)),
        );
        exp64[1] = _mm512_add_epi64(
            exp64[1],
            _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64(*exp32, 1)),
        );
        *exp32 = _mm512_setzero_si512();
    }

    /// One 32-byte packed pair row → 32 `i16` lanes in one zmm register, in linear
    /// column-pair order.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX-512F/BW + AVX2 and `ptr..ptr+32` in bounds.
    #[target_feature(enable = "avx512f,avx512bw,avx2")]
    unsafe fn load_pair(ptr: *const i8) -> __m512i {
        _mm512_cvtepi8_epi16(_mm256_loadu_si256(ptr as *const __m256i))
    }

    /// Adds a finalised `i32×16` accumulator onto 16 output columns at `out_ptr` and,
    /// when `FUSED`, folds the stored values into the observed-checksum registers.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX-512F and `out_ptr..out_ptr+16` in bounds.
    #[target_feature(enable = "avx512f,avx512bw,avx2")]
    unsafe fn retire_row<const FUSED: bool>(
        out_ptr: *mut i32,
        acc: __m512i,
        obs: &mut [__m512i; 2],
    ) {
        let finalv = _mm512_add_epi32(_mm512_loadu_epi32(out_ptr), acc);
        _mm512_storeu_epi32(out_ptr, finalv);
        if FUSED {
            obs[0] = _mm512_add_epi64(
                obs[0],
                _mm512_cvtepi32_epi64(_mm512_castsi512_si256(finalv)),
            );
            obs[1] = _mm512_add_epi64(
                obs[1],
                _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64(finalv, 1)),
            );
        }
    }

    /// Stores two `i64×8` registers and adds their lanes onto a 16-entry slice.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX-512F and `sums.len() == 16`.
    #[target_feature(enable = "avx512f,avx512bw,avx2")]
    unsafe fn add_i64x8_lanes(regs: &[__m512i; 2], sums: &mut [i64]) {
        let mut lanes = [0i64; PACK_BLOCK_COLS];
        _mm512_storeu_epi64(lanes.as_mut_ptr(), regs[0]);
        _mm512_storeu_epi64(lanes.as_mut_ptr().add(8), regs[1]);
        for (s, &v) in sums.iter_mut().zip(&lanes) {
            *s += v;
        }
    }

    /// A value pair broadcast as packed `i16` pairs across all 16 `i32` lanes.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX-512F.
    #[target_feature(enable = "avx512f,avx512bw,avx2")]
    unsafe fn pair_weights(v0: i16, v1: i16) -> __m512i {
        let packed = ((v1 as u16 as u32) << 16) | (v0 as u16 as u32);
        _mm512_set1_epi32(packed as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ChecksummedGemm, GemmEngine, KernelEngine, ReferenceEngine};
    use crate::{rng, MatI32};
    use rand::Rng;

    fn random_pair(seed: u64, m: usize, k: usize, n: usize) -> (MatI8, MatI8) {
        let mut r = rng::seeded(seed);
        let a = MatI8::from_fn(m, k, |_, _| r.gen_range(-128i16..=127) as i8);
        let b = MatI8::from_fn(k, n, |_, _| r.gen_range(-128i16..=127) as i8);
        (a, b)
    }

    fn simd_engines() -> Vec<Box<dyn GemmEngine>> {
        vec![
            Box::new(KernelEngine::simd()),
            Box::new(KernelEngine::simd_with_tier(SimdTier::Portable)),
            Box::new(KernelEngine::simd().pooled()),
            Box::new(KernelEngine::simd_with_tier(SimdTier::Portable).pooled()),
            Box::new(KernelEngine::simd().with_workers(3)),
        ]
    }

    #[test]
    fn simd_matches_reference_across_ragged_shapes() {
        // Shapes chosen to hit every dispatch edge: depth tails (odd k), column tails
        // (n mod 16), row tails (m mod 4), degenerate vectors, and a parallel-size GEMM.
        for (seed, (m, k, n)) in [
            (1, (1, 1, 1)),
            (2, (4, 2, 16)),
            (3, (5, 3, 17)),
            (4, (7, 65, 31)),
            (5, (3, 16, 48)),
            (6, (1, 301, 1)),
            (7, (130, 64, 96)),
        ]
        .into_iter()
        {
            let (a, b) = random_pair(seed, m, k, n);
            let oracle = ReferenceEngine
                .gemm_i8_checksummed_two_pass(&a, &b)
                .unwrap();
            for engine in simd_engines() {
                let fused = engine.gemm_i8_checksummed(&a, &b).unwrap();
                assert_eq!(fused.acc(), oracle.acc(), "{} {m}x{k}x{n}", engine.name());
                assert_eq!(
                    fused.expected(),
                    oracle.expected(),
                    "{} {m}x{k}x{n}",
                    engine.name()
                );
                assert_eq!(
                    fused.observed(),
                    oracle.observed(),
                    "{} {m}x{k}x{n}",
                    engine.name()
                );
                assert_eq!(
                    engine.gemm_i8(&a, &b).unwrap(),
                    *oracle.acc(),
                    "{} plain {m}x{k}x{n}",
                    engine.name()
                );
            }
        }
    }

    #[test]
    fn simd_is_exact_at_the_int8_rails() {
        // The i8::MIN × i8::MIN corner is exactly where the pmaddubsw offset trick
        // saturates; the widening kernel must stay exact there.
        for &(m, k, n) in &[(4, 64, 32), (3, 33, 17), (1, 127, 16)] {
            for fill in [(-128i8, -128i8), (127, 127), (-128, 127), (127, -128)] {
                let a = MatI8::filled(m, k, fill.0);
                let b = MatI8::filled(k, n, fill.1);
                let oracle = ReferenceEngine
                    .gemm_i8_checksummed_two_pass(&a, &b)
                    .unwrap();
                for engine in simd_engines() {
                    let fused = engine.gemm_i8_checksummed(&a, &b).unwrap();
                    assert_eq!(fused.acc(), oracle.acc(), "{} {fill:?}", engine.name());
                    assert_eq!(fused.expected(), oracle.expected(), "{}", engine.name());
                    assert_eq!(fused.observed(), oracle.observed(), "{}", engine.name());
                }
            }
        }
    }

    #[test]
    fn into_paths_accumulate_nothing_stale_from_reused_destinations() {
        let (a1, b1) = random_pair(40, 9, 20, 33);
        let (a2, b2) = random_pair(41, 3, 7, 5);
        for engine in simd_engines() {
            let mut out = MatI32::zeros(0, 0);
            let mut dest = ChecksummedGemm::empty();
            let mut etw = Vec::new();
            // Large shape first, then a smaller one into the same buffers: any stale
            // carry-over (missed reset) shows up immediately.
            engine.gemm_i8_into(&a1, &b1, &mut out).unwrap();
            engine.gemm_i8_into(&a2, &b2, &mut out).unwrap();
            assert_eq!(
                out,
                ReferenceEngine.gemm_i8(&a2, &b2).unwrap(),
                "{}",
                engine.name()
            );
            engine
                .gemm_i8_checksummed_into(&a1, &b1, &mut dest, &mut etw)
                .unwrap();
            engine
                .gemm_i8_checksummed_into(&a2, &b2, &mut dest, &mut etw)
                .unwrap();
            let oracle = ReferenceEngine
                .gemm_i8_checksummed_two_pass(&a2, &b2)
                .unwrap();
            assert_eq!(dest.acc(), oracle.acc(), "{}", engine.name());
            assert_eq!(dest.expected(), oracle.expected(), "{}", engine.name());
            assert_eq!(dest.observed(), oracle.observed(), "{}", engine.name());
        }
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let a = MatI8::zeros(2, 3);
        let b = MatI8::zeros(4, 2);
        for engine in simd_engines() {
            assert!(engine.gemm_i8(&a, &b).is_err(), "{}", engine.name());
            assert!(
                engine.gemm_i8_checksummed(&a, &b).is_err(),
                "{}",
                engine.name()
            );
        }
    }

    #[test]
    fn dispatch_label_is_consistent_with_detection() {
        // Can't mutate the environment safely in-process; just pin the invariants.
        let detected = SimdKernel::with_tier(SimdTier::detect());
        assert_eq!(detected.tier != SimdTier::Portable, simd_accelerated());
        assert!(!simd_dispatch_label().is_empty());
    }

    #[test]
    fn with_tier_clamps_to_host_support() {
        assert_eq!(
            SimdKernel::with_tier(SimdTier::Portable).tier,
            SimdTier::Portable
        );
        assert_eq!(
            SimdKernel::with_tier(SimdTier::Avx512).tier,
            SimdTier::detect()
        );
        assert!(SimdTier::Portable < SimdTier::Avx2 && SimdTier::Avx2 < SimdTier::Avx512);
    }

    /// Every tier the host grants, by name; unsupported tiers are skipped (the engine
    /// clamps them down to an already-listed tier).
    fn tiered_engines() -> Vec<(String, Box<dyn GemmEngine>)> {
        let mut engines: Vec<(String, Box<dyn GemmEngine>)> = vec![
            (
                "simd-portable".into(),
                Box::new(KernelEngine::simd_with_tier(SimdTier::Portable)),
            ),
            (
                "parallel-portable".into(),
                Box::new(KernelEngine::simd_with_tier(SimdTier::Portable).pooled()),
            ),
            (
                "parallel-auto".into(),
                Box::new(KernelEngine::simd().with_workers(3)),
            ),
        ];
        for tier in [SimdTier::Avx2, SimdTier::Avx512] {
            if SimdKernel::with_tier(tier).tier == tier {
                let engine = KernelEngine::simd_with_tier(tier);
                engines.push((format!("simd-{}", tier.label()), Box::new(engine)));
            }
        }
        engines
    }

    #[test]
    fn packed_paths_match_reference_across_tiers_and_shapes() {
        // Skinny shapes (m ≤ 4) exercise the fused-expected GEMV kernel, m ≥ 5 the
        // generic packed kernel, odd k the zero-padded final pair, ragged n the
        // portable partial-block handler, and the deep shape the i32→i64 expected
        // drain (k/2 > DRAIN_PAIRS needs k > 16384).
        for (seed, (m, k, n)) in [
            (11, (1, 1, 1)),
            (12, (1, 64, 48)),
            (13, (2, 63, 17)),
            (14, (4, 33, 16)),
            (15, (5, 48, 31)),
            (16, (9, 7, 130)),
            (17, (130, 64, 96)),
            (18, (2, 16500, 16)),
        ]
        .into_iter()
        {
            let (a, b) = random_pair(seed, m, k, n);
            let pb = PackedMatI8::pack(&b);
            let oracle = ReferenceEngine
                .gemm_i8_checksummed_two_pass(&a, &b)
                .unwrap();
            for (name, engine) in tiered_engines() {
                let mut out = MatI32::zeros(0, 0);
                engine.gemm_i8_packed_into(&a, &pb, &mut out).unwrap();
                assert_eq!(&out, oracle.acc(), "{name} {m}x{k}x{n}");
                let mut dest = ChecksummedGemm::empty();
                let mut etw = Vec::new();
                engine
                    .gemm_i8_packed_checksummed_into(&a, &pb, &mut dest, &mut etw)
                    .unwrap();
                assert_eq!(dest.acc(), oracle.acc(), "{name} {m}x{k}x{n}");
                assert_eq!(dest.expected(), oracle.expected(), "{name} {m}x{k}x{n}");
                assert_eq!(dest.observed(), oracle.observed(), "{name} {m}x{k}x{n}");
            }
        }
    }

    fn assert_matches_oracle(name: &str, label: &str, a: &MatI8, b: &MatI8, got: &ChecksummedGemm) {
        let reference = ReferenceEngine.gemm_i8_checksummed(a, b).unwrap();
        let two_pass = ReferenceEngine.gemm_i8_checksummed_two_pass(a, b).unwrap();
        for oracle in [&reference, &two_pass] {
            assert_eq!(got.acc(), oracle.acc(), "{name} {label}");
            assert_eq!(got.expected(), oracle.expected(), "{name} {label}");
            assert_eq!(got.observed(), oracle.observed(), "{name} {label}");
        }
        assert_eq!(got.msd(), 0, "{name} {label}");
    }

    #[test]
    fn skinny_row_major_pass_matches_reference_on_every_tier_and_shape() {
        // m = 1..=4 is the skinny pass, m = 5 pins the hand-over to the tile kernel; the
        // depths cover a lone row, one pair, odd/even/odd around the head dimension and a
        // hidden-sized depth; the widths cover tail-only, one block exactly, block + tail,
        // and many blocks with and without a tail.
        let mut seed = 100;
        for m in 1..=SKINNY_MAX_ROWS + 1 {
            for k in [1, 2, 31, 32, 33, 640] {
                for n in [1, 15, 16, 17, 32, 50, 640] {
                    seed += 1;
                    let (a, b) = random_pair(seed, m, k, n);
                    for (name, engine) in tiered_engines() {
                        let got = engine.gemm_i8_checksummed(&a, &b).unwrap();
                        assert_matches_oracle(&name, &format!("{m}x{k}x{n}"), &a, &b, &got);
                    }
                }
            }
        }
    }

    #[test]
    fn skinny_row_major_pass_is_exact_on_the_rails_zero_rows_and_past_the_drain() {
        let mut r = rng::seeded(77);
        let mut cases: Vec<(String, MatI8, MatI8)> = Vec::new();
        for (m, k, n) in [(1, 33, 17), (3, 32, 50), (4, 64, 16)] {
            for (fa, fb) in [(-128i8, -128i8), (127, 127), (-128, 127), (127, -128)] {
                let label = format!("{m}x{k}x{n} filled {fa}/{fb}");
                cases.push((label, MatI8::filled(m, k, fa), MatI8::filled(k, n, fb)));
            }
            // All-zero activation rows (a masked-out query), all-zero B rows, and both.
            let (mut a, mut b) = random_pair(r.gen(), m, k, n);
            a.row_mut(m - 1).fill(0);
            b.row_mut(k / 2).fill(0);
            cases.push((format!("{m}x{k}x{n} zero rows"), a, b.clone()));
            cases.push((format!("{m}x{k}x{n} zero a"), MatI8::zeros(m, k), b));
        }
        // Deep enough (k / 2 > DRAIN_PAIRS) that the i32 checksum partials drain mid-way,
        // with every product at the bound the drain period was derived from.
        cases.push((
            "4x16500x17 rails".into(),
            MatI8::filled(4, 16500, -128),
            MatI8::filled(16500, 17, -128),
        ));
        let (a, b) = random_pair(78, 2, 16500, 33);
        cases.push(("2x16500x33".into(), a, b));
        for (label, a, b) in &cases {
            for (name, engine) in tiered_engines() {
                let got = engine.gemm_i8_checksummed(a, b).unwrap();
                assert_matches_oracle(&name, label, a, b, &got);
            }
        }
    }

    #[test]
    fn skinny_row_major_pass_leaves_nothing_stale_in_a_reused_larger_bundle() {
        // The skinny pass assigns instead of accumulating and is handed an unzeroed
        // destination: run it into a bundle a larger, differently shaped GEMM just filled.
        let (big_a, big_b) = random_pair(90, 9, 40, 70);
        for (name, engine) in tiered_engines() {
            let mut dest = ChecksummedGemm::empty();
            let mut etw = Vec::new();
            for (seed, (m, k, n)) in [(1, 32, 50), (4, 7, 5), (2, 33, 16), (3, 1, 31)]
                .into_iter()
                .enumerate()
            {
                engine
                    .gemm_i8_checksummed_into(&big_a, &big_b, &mut dest, &mut etw)
                    .unwrap();
                // A mutated (stale) bundle must come back fresh as well.
                dest.acc_mut()[(0, 0)] ^= 1 << 20;
                let (a, b) = random_pair(91 + seed as u64, m, k, n);
                engine
                    .gemm_i8_checksummed_into(&a, &b, &mut dest, &mut etw)
                    .unwrap();
                assert_matches_oracle(&name, &format!("{m}x{k}x{n} after 9x40x70"), &a, &b, &dest);
                assert_eq!(dest.acc().shape(), (m, n));
            }
        }
    }

    #[test]
    fn packed_shape_mismatch_is_rejected() {
        let a = MatI8::zeros(2, 3);
        let pb = PackedMatI8::pack(&MatI8::zeros(4, 2));
        for (name, engine) in tiered_engines() {
            let mut out = MatI32::zeros(0, 0);
            assert!(
                engine.gemm_i8_packed_into(&a, &pb, &mut out).is_err(),
                "{name}"
            );
            let mut dest = ChecksummedGemm::empty();
            let mut etw = Vec::new();
            assert!(
                engine
                    .gemm_i8_packed_checksummed_into(&a, &pb, &mut dest, &mut etw)
                    .is_err(),
                "{name}"
            );
        }
    }
}
