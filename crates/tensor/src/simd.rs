//! SIMD i8 GEMM microkernel with fused ABFT checksums and runtime dispatch.
//!
//! The row kernel of [`crate::engine::KernelEngine`]: an x86-64 AVX2 microkernel built on
//! `core::arch` intrinsics, selected at **runtime** via `is_x86_feature_detected!` so one
//! binary runs everywhere — hosts without AVX2 (or runs with the `REALM_FORCE_SCALAR=1`
//! override) run the portable tier, which is the workspace's one scalar i8 GEMM routine
//! besides the [`crate::gemm`] oracle: a cache-tiled loop over `64 × 256` panels of `B`
//! (`tiled`, below). The engine runs the kernel inline (`simd`) or over work-stealing row
//! chunks (`simd_parallel`), so batched prefill and serving-scale GEMMs use every core.
//!
//! # The tiled routine
//!
//! Loop order is column panel → depth panel → row → depth → column, so each `64 × 256`
//! panel of `B` (16 KiB of `i8`) and each accumulator row segment stay cache-resident for a
//! whole panel's worth of work. Depth advances four rows of `B` at a time: the four rows are
//! widened to `i32` once into a stack scratch and every accumulator row folds them in with a
//! pure-`i32` multiply-add the compiler unrolls and vectorises. Fused checksums fold in while
//! the data is hot: `(eᵀ·W)·X` from each widened `B` panel, `eᵀ·Y` from each finalised
//! output segment. Besides being the portable tier, it takes every column range the vector
//! tiers leave over — the `n mod 16` tail of the row-major and the packed tiles.
//!
//! # The microkernel
//!
//! The register tile is **4 rows × 16 columns**, accumulated in `i32` vector registers. The
//! depth dimension advances two rows of `B` at a time (a *dot-product pair*):
//!
//! 1. the pair's 16 column pairs `(B[p][j], B[p+1][j])` become `i16` lanes — one packed
//!    32-byte load widened by `vpmovsxbw`, or two row-major loads widened and interleaved
//!    (`vpunpcklwd`/`vpunpckhwd`);
//! 2. the activation pair `(A[i][p], A[i][p+1])` is **one `i32` lane in memory**, broadcast
//!    by a single `vpbroadcastd`: before its tiles run, a *row panel* of `A` is widened to
//!    `i16` once into a stack buffer (`WIDE_LANES` lanes, 32 KiB — no heap, no
//!    thread-local), each row zero-padded to an even depth, so an odd depth needs no branch:
//!    its missing partner multiplies as zero;
//! 3. `vpmaddwd` multiplies the `i16` pairs and adds each pair in `i32`:
//!    `A[i][p]·B[p][j] + A[i][p+1]·B[p+1][j]` — **exact** for every `i8` input, since each
//!    product is at most `128² = 16384` and the pair sum at most `2¹⁵`, far inside `i32`.
//!
//! A panel is as many whole tiles as fit the buffer beside its checksum row, and at most one
//! checksum band (`BAND_ROWS`); the tiles of a panel sweep every full 16-column block of
//! `B` before the next panel is widened. A depth longer than a panel row holds
//! (`CHUNK_PAIRS` pairs) is cut into chunks whose tiles add onto the output. Column tails
//! (`n mod 16`) run through the tiled routine, which is bit-identical (integer accumulation
//! is order-invariant) — except in the row-major skinny pass below, which keeps them in the
//! same registers.
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
//! lanes are widened (`vpmovsxdq`) and added onto `i64` column-sum registers that persist
//! across the panel's row loop of the column block — no second pass over the output.
//!
//! The operand-side checksum `(eᵀ·W)·X` rides the **same pair stream** as a *checksum row*.
//! The column sums of at most `BAND_ROWS` rows fit an `i16` lane (`|Σ| ≤ 256·128 = 2¹⁵`),
//! so the widening pass writes the panel's sums `eᵀ·A` after its rows as one more row of
//! `i16` pairs, and the panel's first tile multiplies it against the pair registers its
//! activation rows already use: one more `vpmaddwd` per pair, `i32` partials drained to
//! `i64` every `DRAIN_PAIRS` pairs. Every panel of every pass carries its checksum row —
//! a row chunk of a sharded GEMM over its own rows, its partial sums added at join. The
//! operand checksum `eᵀ·W` itself falls out of the widening pass: the checksum rows, added
//! up. Only the portable tier and the `n mod 16` tails reduce `(eᵀ·W)·X` in scalar `i64`
//! (`accumulate_expected_panel`) — the tails from the `eᵀ·W` the panels just produced, the
//! portable tier from its rows' column sums, reduced first.
//!
//! # The skinny rule
//!
//! The checksum row works for any band of at most `BAND_ROWS` rows. With at most
//! [`SKINNY_MAX_ROWS`] rows a whole GEMM is **one** register tile, so its rows and its
//! checksum row make the checksummed GEMM one stream over `B`. Decode is made of such
//! shapes: the linears (`m` = batch rows, packed `B`) take the ordinary packed pass, whose
//! single panel is that tile; attention's `QKᵀ`/`SV` (`m` = 1 per sequence and head,
//! row-major `B`) take `SimdKernel::run_skinny_rows`, which also runs the `n mod 16` tail
//! columns through the same registers and assigns every destination cell (at
//! `1 × 32 · 32 × 48` a separate expected pass, its second call for the tail columns and the
//! zero-fills around them cost 4.4× the multiply itself, the fused row 0.5×). The skinny
//! pass exists at the AVX2 tier (AVX-512 hosts run it too, as for the unpacked tile); the
//! portable tier has none and runs these shapes through the tiled routine, whose panel
//! pass computes the expected checksum.
//!
//! # Packed-B kernels
//!
//! Static weights go through [`crate::PackedMatI8`] and the `gemm_i8_packed*` entry
//! points: the depth-pair interleaving above is done **once at pack time**, so the packed
//! kernels replace load + 2×widen + 2×unpack (+ a retirement permute) per pair with one
//! 32-byte load + 2×widen, already in linear column order. Three tiers dispatch at
//! construction ([`SimdTier`]): portable (the tiled routine over the row-major original the
//! pack carries), AVX2, and AVX-512 (which widens the whole 32-byte pair row into one zmm
//! register — see [`SimdTier::Avx512`]).

use crate::engine::{accumulate_expected_panel, add_operand_col_sums, FusedChecksums, Operand};
use crate::packed::PACK_BLOCK_COLS;
use crate::MatI8;
#[cfg(target_arch = "x86_64")]
use std::mem::MaybeUninit;
use std::ops::Range;
use std::sync::OnceLock;

/// Width (output columns) of the SIMD register tile.
pub const SIMD_TILE_COLS: usize = 16;
/// Height (output rows) of the SIMD register tile.
pub const SIMD_TILE_ROWS: usize = 4;
/// Maximum `m` of the row-major skinny pass (`SimdKernel::run_skinny_rows`): one register
/// tile, whose rows and checksum row stream `B` once, tail columns included.
pub const SKINNY_MAX_ROWS: usize = SIMD_TILE_ROWS;

// The packed block width and the SIMD tile width must agree — the packed layout IS the
// kernels' consumption order.
const _: () = assert!(SIMD_TILE_COLS == PACK_BLOCK_COLS);

/// Depth (rows of `B`) of a panel of the tiled routine: `64 × 256` i8 elements = 16 KiB,
/// resident in L1 on any modern core.
const PANEL_DEPTH: usize = 64;
/// Width (columns of `B`) of a panel of the tiled routine.
const PANEL_WIDTH: usize = 256;

/// Rows of `A` whose column sums are guaranteed to fit an `i16` lane
/// (`256 · 128 = 2¹⁵`): the height of one checksum band.
#[cfg(target_arch = "x86_64")]
const BAND_ROWS: usize = 256;

/// `i16` lanes of the stack buffer a row panel is widened into (32 KiB). Taller panels carry
/// fewer checksum rows: at the serving model's prefill shapes (128 rows, depth 160–448) the
/// checksummed packed GEMM cost 10%, 7% and 5% over the plain one with 8, 16 and 32 KiB on
/// the 2-core AVX-512 host, at equal plain throughput.
#[cfg(target_arch = "x86_64")]
const WIDE_LANES: usize = 16384;

/// Depth pairs of one widened chunk: enough lanes remain for a full register tile plus the
/// checksum row at any depth, so a panel always holds at least one tile.
#[cfg(target_arch = "x86_64")]
const CHUNK_PAIRS: usize = WIDE_LANES / 2 / (SIMD_TILE_ROWS + 1);

/// Pairs accumulated in `i32` before a checksum row drains to `i64`: one pair's partial is
/// at most `2 · 2¹⁵ · 2⁷ = 2²³`, so `128 · 2²³ = 2³⁰` keeps the `i32` partials exact.
#[cfg(target_arch = "x86_64")]
const DRAIN_PAIRS: usize = 128;

/// Environment variable that forces the portable tier even when the CPU supports the AVX2
/// microkernel. Any non-empty value other than `0` counts as set; CI uses it to keep both
/// dispatch paths green on AVX2 runners.
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

/// Human-readable description of the tier the runtime dispatch granted
/// ([`SimdTier::detect`]), for benchmark and example output (bench numbers are
/// uninterpretable without knowing which path ran).
pub fn simd_dispatch_label() -> &'static str {
    match SimdTier::detect() {
        SimdTier::Avx512 => "avx512 (packed kernels; avx2 unpacked)",
        SimdTier::Avx2 => "avx2",
        // A host with AVX2 runs the portable tier only when it was forced to.
        SimdTier::Portable if avx2_available() => "portable (REALM_FORCE_SCALAR set)",
        SimdTier::Portable => "portable (no AVX2 on this host)",
    }
}

/// The instruction-set tier the SIMD kernel dispatches, decided once at construction.
///
/// Ordered worst-to-best so a requested tier can be clamped to what the host supports
/// ([`crate::engine::KernelEngine::simd_with_tier`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdTier {
    /// The tiled scalar routine (every host; pinned by [`FORCE_SCALAR_ENV`]).
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

    /// Whether this tier has the row-major skinny pass ([`SimdKernel::run_skinny_rows`]):
    /// AVX2 and up. The portable tier runs those shapes through the tiled routine like any
    /// other.
    pub(crate) fn has_skinny_passes(&self) -> bool {
        self.tier >= SimdTier::Avx2
    }

    /// Kernel pass over a contiguous row range `[row_start, row_end)` of `a`, accumulating
    /// into `out_band` — the matching rows of the output, band-local and contiguous
    /// (`(row_end - row_start) × n`), so parallel shards can own disjoint `split_at_mut`
    /// bands of one output allocation. When `fused` is present the checksum reductions ride
    /// the pass: on the vector tiers `eᵀ·Y` from the accumulator registers as each tile is
    /// finalised and `(eᵀ·W)·X` as the checksum row of the pair stream (see the module
    /// documentation); on the portable tier both from the cache-hot panels of the tiled
    /// routine.
    ///
    /// A packed `B` is streamed in its pre-interleaved depth-pair order on the vector tiers
    /// (no per-GEMM `vpunpck` interleaves, no retirement permutes); the portable tier
    /// multiplies the row-major original the pack carries.
    pub(crate) fn run_rows(
        &self,
        a: &MatI8,
        b: Operand<'_>,
        out_band: &mut [i32],
        row_start: usize,
        row_end: usize,
        fused: Option<FusedChecksums<'_>>,
    ) {
        let n = b.row_major().cols();
        let mut fused = fused;
        #[cfg(target_arch = "x86_64")]
        if self.tier >= SimdTier::Avx2 {
            // SAFETY: an accelerated tier is only granted when AVX2 was detected at
            // construction (the AVX-512 tier implies AVX2; see `SimdTier::detect`).
            unsafe { self.run_blocks(a, b, out_band, row_start..row_end, fused.as_mut()) };
            let blocks_end = n - n % SIMD_TILE_COLS;
            if blocks_end < n {
                let b = b.row_major();
                tiled(a, b, out_band, row_start, row_end, blocks_end..n, fused);
            }
            return;
        }
        // The tiled routine weights its panels by the rows' `eᵀ·W`, so it is reduced first.
        if let Some(FusedChecksums { etw, .. }) = fused.as_mut() {
            add_operand_col_sums(a, row_start..row_end, etw);
        }
        tiled(a, b.row_major(), out_band, row_start, row_end, 0..n, fused);
    }

    /// The vector tiers' share of [`SimdKernel::run_rows`]: every full 16-column block of
    /// rows `rows`, panel by panel and depth chunk by depth chunk. With `fused`, every panel
    /// carries its checksum row: the widening adds the rows' `eᵀ·W` onto `fused.etw`, the
    /// checksum rows their `(eᵀ·W)·X` over those blocks onto `fused.expected`, and the
    /// retiring tiles their `eᵀ·Y` onto `fused.observed`.
    ///
    /// # Safety
    ///
    /// `self.tier` must be at least [`SimdTier::Avx2`].
    #[cfg(target_arch = "x86_64")]
    unsafe fn run_blocks(
        &self,
        a: &MatI8,
        b: Operand<'_>,
        out_band: &mut [i32],
        rows: Range<usize>,
        fused: Option<&mut FusedChecksums<'_>>,
    ) {
        let k = a.cols();
        let n = b.row_major().cols();
        let pairs = k.div_ceil(2);
        let (mut etw, mut expected, mut observed) = match fused {
            Some(f) => (
                Some(&mut *f.etw),
                Some(&mut *f.expected),
                Some(&mut *f.observed),
            ),
            None => (None, None, None),
        };
        let mut wide = WideLanes::new();
        for chunk in depth_chunks(k) {
            let last = chunk.end == pairs;
            let height = panel_height(chunk.len());
            for start in rows.clone().step_by(height) {
                let panel_rows = start..(start + height).min(rows.end);
                let out = &mut out_band
                    [(panel_rows.start - rows.start) * n..(panel_rows.end - rows.start) * n];
                let panel = widen(a, panel_rows, chunk.clone(), etw.as_deref_mut(), &mut wide);
                let observed = observed.as_deref_mut().filter(|_| last);
                self.panel_pass(&panel, b, out, observed, expected.as_deref_mut());
            }
        }
    }

    /// One widened panel against every full block of `b` (see the kernels' `panel`).
    ///
    /// # Safety
    ///
    /// `self.tier` must be at least [`SimdTier::Avx2`].
    #[cfg(target_arch = "x86_64")]
    unsafe fn panel_pass(
        &self,
        panel: &Panel<'_>,
        b: Operand<'_>,
        out: &mut [i32],
        observed: Option<&mut [i64]>,
        expected: Option<&mut [i64]>,
    ) {
        match b {
            // The unpacked kernel stays on the AVX2 tile at every accelerated tier — see
            // [`SimdTier::Avx512`] for why.
            Operand::RowMajor(b) => avx2::panel(panel, b, out, observed, expected),
            Operand::Packed(pb) if self.tier >= SimdTier::Avx512 => {
                packed_avx512::panel(panel, pb, out, observed, expected)
            }
            Operand::Packed(pb) => packed_avx2::panel(panel, pb, out, observed, expected),
        }
    }

    /// The skinny pass for a row-major `B` — the activation × activation GEMMs of attention
    /// (`QKᵀ`, `SV`) and recovery recomputation, whose right operand changes every call and
    /// so is never packed. One stream over `B`: each depth pair is widened and interleaved
    /// once and feeds the `m ≤ 4` activation rows **and** the checksum row `eᵀ·A`, `eᵀ·Y` is
    /// reduced from the retiring registers, and the `n mod 16` tail columns run through the
    /// same registers instead of a second, scalar pass. `etw` (zeroed) receives `eᵀ·A` from
    /// the widening pass.
    ///
    /// Unlike every other kernel here it **overwrites** `out`, `expected` and `observed`
    /// (the first depth chunk assigns, later ones add), so the caller shapes the destination
    /// without zero-filling it.
    ///
    /// # Panics
    ///
    /// Panics at the portable tier ([`SimdKernel::has_skinny_passes`]) or on shapes that
    /// disagree.
    pub(crate) fn run_skinny_rows(
        &self,
        a: &MatI8,
        b: &MatI8,
        out: &mut [i32],
        etw: &mut [i64],
        expected: &mut [i64],
        observed: &mut [i64],
    ) {
        assert_skinny_shapes(a, b.shape(), out, etw, expected, observed);
        #[cfg(target_arch = "x86_64")]
        if self.tier >= SimdTier::Avx2 {
            let (m, k) = a.shape();
            let pairs = k.div_ceil(2);
            let mut wide = WideLanes::new();
            for chunk in depth_chunks(k) {
                let (first, last) = (chunk.start == 0, chunk.end == pairs);
                let panel = widen(a, 0..m, chunk, Some(&mut *etw), &mut wide);
                // SAFETY: an accelerated tier is only granted when AVX2 was detected; the
                // shapes the kernel indexes by were asserted above.
                unsafe { avx2::run_skinny(&panel, b, out, expected, observed, first, last) };
            }
            return;
        }
        unreachable!("no skinny pass at the {} tier", self.tier.label());
    }
}

/// The preconditions of the skinny pass (`(k, n)` is the shape of `B`), which the vector
/// kernel indexes by without bounds checks.
fn assert_skinny_shapes(
    a: &MatI8,
    (k, n): (usize, usize),
    out: &[i32],
    etw: &[i64],
    expected: &[i64],
    observed: &[i64],
) {
    let m = a.rows();
    assert!(
        (1..=SKINNY_MAX_ROWS).contains(&m),
        "skinny pass over {m} rows"
    );
    assert_eq!(a.cols(), k, "operand depths differ");
    assert_eq!(etw.len(), k, "one checksum weight per depth step");
    assert_eq!(out.len(), m * n, "destination is not m x n");
    assert_eq!(
        (expected.len(), observed.len()),
        (n, n),
        "one checksum per column"
    );
}

/// The stack buffer a row panel is widened into, cache-line aligned so that no pair lane
/// straddles a line. Left uninitialised: [`widen`] writes every lane a kernel reads.
#[cfg(target_arch = "x86_64")]
#[repr(C, align(64))]
struct WideLanes([MaybeUninit<i16>; WIDE_LANES]);

#[cfg(target_arch = "x86_64")]
impl WideLanes {
    fn new() -> Self {
        Self([const { MaybeUninit::uninit() }; WIDE_LANES])
    }
}

/// One depth chunk of a row panel of `A`, widened for the vector kernels: `rows` activation
/// rows of `2·pairs.len()` `i16` lanes each, then — when `sums` — the panel's checksum row.
/// Depth pair `q` of a row is the `i32` lane `q` of [`Panel::pair_lanes`], which the
/// kernels broadcast straight from memory.
#[cfg(target_arch = "x86_64")]
struct Panel<'w> {
    lanes: &'w [MaybeUninit<i16>],
    rows: usize,
    sums: bool,
    /// The chunk's depth pairs, as pair indices into `A`'s columns (and `B`'s rows).
    pairs: Range<usize>,
}

#[cfg(target_arch = "x86_64")]
impl Panel<'_> {
    /// Row `r`'s depth pairs as `i32` lanes; `r == self.rows` is the checksum row.
    fn pair_lanes(&self, r: usize) -> *const i32 {
        let width = 2 * self.pairs.len();
        self.lanes.as_ptr().wrapping_add(r * width).cast()
    }
}

/// The depth pairs of a `k`-deep GEMM in chunks of at most `CHUNK_PAIRS` — one empty
/// chunk when `k == 0`, so every pass still runs once.
#[cfg(target_arch = "x86_64")]
fn depth_chunks(k: usize) -> impl Iterator<Item = Range<usize>> {
    let pairs = k.div_ceil(2);
    (0..pairs.max(1))
        .step_by(CHUNK_PAIRS)
        .map(move |start| start..(start + CHUNK_PAIRS).min(pairs))
}

/// Activation rows of a panel `pairs` depth pairs deep: as many whole register tiles as fit
/// the buffer beside the checksum row, within one checksum band.
#[cfg(target_arch = "x86_64")]
fn panel_height(pairs: usize) -> usize {
    let fit = WIDE_LANES / (2 * pairs).max(1) - 1;
    (fit - fit % SIMD_TILE_ROWS).min(BAND_ROWS)
}

/// Widens rows `rows` of `a` (at most `BAND_ROWS`) over the depth pairs `pairs` into
/// `wide`, each row zero-padded to `2·pairs.len()` lanes. With `etw`, the rows' column sums
/// follow them as the checksum row, accumulated while the rows are copied, and are added
/// onto `etw` — the operand checksum `eᵀ·W` falls out of the widening pass.
#[cfg(target_arch = "x86_64")]
fn widen<'w>(
    a: &MatI8,
    rows: Range<usize>,
    pairs: Range<usize>,
    etw: Option<&mut [i64]>,
    wide: &'w mut WideLanes,
) -> Panel<'w> {
    debug_assert!(rows.len() <= BAND_ROWS, "a checksum row sums one band");
    let width = 2 * pairs.len();
    let depth = 2 * pairs.start..(2 * pairs.end).min(a.cols());
    let (act, rest) = wide.0.split_at_mut(rows.len() * width);
    let mut total = etw.is_some().then(|| init_lanes(&mut rest[..width], &[]));
    for (dst, i) in act.chunks_exact_mut(width.max(1)).zip(rows.clone()) {
        let row = init_lanes(dst, &a.row(i)[depth.clone()]);
        if let Some(total) = total.as_deref_mut() {
            for (s, &v) in total.iter_mut().zip(row.iter()) {
                *s += v;
            }
        }
    }
    let sums = total.is_some();
    if let (Some(etw), Some(total)) = (etw, total) {
        // An odd depth's padding lane falls off the end.
        for (e, &s) in etw[depth.start..].iter_mut().zip(total.iter()) {
            *e += i64::from(s);
        }
    }
    Panel {
        lanes: &wide.0,
        rows: rows.len(),
        sums,
        pairs,
    }
}

/// Writes `src` widened to `i16` into the head of `dst` and zeros into the rest, returning
/// `dst` as plain lanes.
#[cfg(target_arch = "x86_64")]
fn init_lanes<'d>(dst: &'d mut [MaybeUninit<i16>], src: &[i8]) -> &'d mut [i16] {
    let (head, pad) = dst.split_at_mut(src.len());
    for (d, &v) in head.iter_mut().zip(src) {
        d.write(i16::from(v));
    }
    for d in pad {
        d.write(0);
    }
    // SAFETY: every lane of `dst` was written above, and `MaybeUninit<i16>` has the layout
    // of `i16`.
    unsafe { &mut *(dst as *mut [MaybeUninit<i16>] as *mut [i16]) }
}

/// Calls `$tile::<R, CHECK>(args…)` for a runtime row count `$rows` and checksum flag
/// `$check`.
#[cfg(target_arch = "x86_64")]
macro_rules! dispatch_tile {
    ($rows:expr, $check:expr, $tile:ident($($arg:expr),* $(,)?)) => {
        match ($rows, $check) {
            (4, false) => $tile::<4, false>($($arg),*),
            (4, true) => $tile::<4, true>($($arg),*),
            (3, false) => $tile::<3, false>($($arg),*),
            (3, true) => $tile::<3, true>($($arg),*),
            (2, false) => $tile::<2, false>($($arg),*),
            (2, true) => $tile::<2, true>($($arg),*),
            (1, false) => $tile::<1, false>($($arg),*),
            (1, true) => $tile::<1, true>($($arg),*),
            _ => unreachable!("a tile has 1..=4 rows"),
        }
    };
}

/// The tiled routine (see the module documentation): `a[row_start..row_end] × b[.., cols]`
/// accumulated into `out_band` (band contract of [`SimdKernel::run_rows`]) — the portable
/// tier, and the column tail of every vector tier. The widening scratch is a stack array,
/// so the allocation-free decode contract holds here too, and a depth quad whose four
/// activations are all zero is skipped per row.
///
/// When `fused` is present (its `etw` already the rows' `eᵀ·W`), the checksum reductions
/// cover `cols` only: `(eᵀ·W)·X` from each widened `B` panel and `eᵀ·Y` from each finalised
/// output panel.
fn tiled(
    a: &MatI8,
    b: &MatI8,
    out_band: &mut [i32],
    row_start: usize,
    row_end: usize,
    cols: Range<usize>,
    mut fused: Option<FusedChecksums<'_>>,
) {
    let k = a.cols();
    let n = b.cols();
    debug_assert_eq!(out_band.len(), (row_end - row_start) * n);
    let mut widened = [0i32; 4 * PANEL_WIDTH];
    let mut jc = cols.start;
    while jc < cols.end {
        let jc_end = (jc + PANEL_WIDTH).min(cols.end);
        let width = jc_end - jc;
        let mut pc = 0;
        while pc < k {
            let pc_end = (pc + PANEL_DEPTH).min(k);
            let mut p = pc;
            // Quad depth steps over widened B rows.
            while p + 4 <= pc_end {
                {
                    let (w0, rest) = widened.split_at_mut(width);
                    let (w1, rest) = rest.split_at_mut(width);
                    let (w2, w3) = rest.split_at_mut(width);
                    for (q, wq) in [w0, w1, w2, w3].into_iter().enumerate() {
                        for (wv, &bv) in wq.iter_mut().zip(&b.row(p + q)[jc..jc_end]) {
                            *wv = bv as i32;
                        }
                    }
                }
                let (w0, rest) = widened.split_at(width);
                let (w1, rest) = rest.split_at(width);
                let (w2, rest) = rest.split_at(width);
                let w3 = &rest[..width];
                for i in row_start..row_end {
                    let a_row = a.row(i);
                    let a0 = a_row[p] as i32;
                    let a1 = a_row[p + 1] as i32;
                    let a2 = a_row[p + 2] as i32;
                    let a3 = a_row[p + 3] as i32;
                    if a0 | a1 | a2 | a3 == 0 {
                        continue;
                    }
                    let band_row = (i - row_start) * n;
                    let out_seg = &mut out_band[band_row + jc..band_row + jc_end];
                    for ((((o, &v0), &v1), &v2), &v3) in
                        out_seg.iter_mut().zip(w0).zip(w1).zip(w2).zip(w3)
                    {
                        *o += a0 * v0 + a1 * v1 + a2 * v2 + a3 * v3;
                    }
                }
                p += 4;
            }
            // Depth remainder (panel depth not a multiple of 4).
            while p < pc_end {
                let b_seg = &b.row(p)[jc..jc_end];
                for i in row_start..row_end {
                    let a_ip = a.row(i)[p] as i32;
                    if a_ip == 0 {
                        continue;
                    }
                    let band_row = (i - row_start) * n;
                    let out_seg = &mut out_band[band_row + jc..band_row + jc_end];
                    for (o, &bv) in out_seg.iter_mut().zip(b_seg) {
                        *o += a_ip * bv as i32;
                    }
                }
                p += 1;
            }
            // The checksum row of the augmented GEMM: fold this panel's share of
            // `(eᵀ·W)·X` in while the `B` panel is still cache-hot from the multiply,
            // instead of re-streaming the whole matrix afterwards.
            if let Some(FusedChecksums { etw, expected, .. }) = fused.as_mut() {
                accumulate_expected_panel(b, etw, expected, (pc, pc_end), (jc, jc_end));
            }
            pc = pc_end;
        }
        // All depth panels done: the output segment [row_start..row_end) × [jc..jc_end)
        // is final, so fold it into eᵀ·Y while it is still warm.
        if let Some(FusedChecksums { observed, .. }) = fused.as_mut() {
            for i in row_start..row_end {
                let band_row = (i - row_start) * n;
                let out_seg = &out_band[band_row + jc..band_row + jc_end];
                for (s, &v) in observed[jc..jc_end].iter_mut().zip(out_seg) {
                    *s += v as i64;
                }
            }
        }
        jc = jc_end;
    }
}

/// The AVX2 row-major microkernel. Every function carries `#[target_feature(enable =
/// "avx2")]` and is only reachable through [`SimdKernel`]'s detection-guarded dispatch.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::packed_avx2::{drain, retire_row, store_i64x4_lanes};
    use super::{MatI8, Panel, DRAIN_PAIRS, SIMD_TILE_COLS, SIMD_TILE_ROWS};
    use std::arch::x86_64::*;

    /// One widened panel against every full 16-column block of `b`: its tiles (the first
    /// carrying the checksum row when the panel has one) retire onto `out`, the panel-local
    /// rows of the output, folding `eᵀ·Y` into `observed` when present; the checksum row's
    /// share lands in `expected`. The caller hands the `n mod 16` tail to the tiled routine.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2, `panel.pairs` within `b`'s row pairs, `out` holding
    /// `panel.rows` rows of `b.cols()`, and `expected` present when `panel.sums`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn panel(
        panel: &Panel<'_>,
        b: &MatI8,
        out: &mut [i32],
        mut observed: Option<&mut [i64]>,
        mut expected: Option<&mut [i64]>,
    ) {
        let zero = _mm256_setzero_si256();
        let n = b.cols();
        for jc in (0..n - n % SIMD_TILE_COLS).step_by(SIMD_TILE_COLS) {
            let mut obs = observed.is_some().then_some([zero; 4]);
            let mut exp = [zero; 4];
            for i in (0..panel.rows).step_by(SIMD_TILE_ROWS) {
                let rows = (panel.rows - i).min(SIMD_TILE_ROWS);
                let sinks = (&mut *out, obs.as_mut(), &mut exp);
                let check = panel.sums && i == 0;
                dispatch_tile!(rows, check, tile(panel, i, b, jc, sinks));
            }
            if let (Some(observed), Some(obs)) = (observed.as_deref_mut(), &obs) {
                store_i64x4_lanes(obs, &mut observed[jc..jc + SIMD_TILE_COLS], false);
            }
            if let (true, Some(expected)) = (panel.sums, expected.as_deref_mut()) {
                store_i64x4_lanes(&exp, &mut expected[jc..jc + SIMD_TILE_COLS], false);
            }
        }
    }

    /// An `R × 16` register tile over the panel's depth chunk, accumulated in `2R` `i32×8`
    /// registers, two depth steps per `vpmaddwd`; with `CHECK`, the checksum row rides the
    /// same pair registers into `exp64`. Each row's final tile is added onto `out` and, with
    /// `obs` present, widened lane-wise (`vpmovsxdq`) into the block's observed-checksum
    /// registers — the "reduce from the same registers" half of the fused-checksum contract.
    ///
    /// # Safety
    ///
    /// As [`panel`], with rows `i..i + R` of the panel and `jc + 16 <= b.cols()`.
    #[target_feature(enable = "avx2")]
    unsafe fn tile<const R: usize, const CHECK: bool>(
        panel: &Panel<'_>,
        i: usize,
        b: &MatI8,
        jc: usize,
        (out, mut obs, exp64): (&mut [i32], Option<&mut [__m256i; 4]>, &mut [__m256i; 4]),
    ) {
        let (k, n) = b.shape();
        let base = b.as_slice().as_ptr().add(jc);
        let rows: [*const i32; R] = std::array::from_fn(|r| panel.pair_lanes(i + r));
        let sums = panel.pair_lanes(panel.rows);
        let zero = _mm256_setzero_si256();
        let mut acc_lo = [zero; R];
        let mut acc_hi = [zero; R];
        let pairs = panel.pairs.len();
        let mut q = 0;
        while q < pairs {
            let end = if CHECK {
                (q + DRAIN_PAIRS).min(pairs)
            } else {
                pairs
            };
            let (mut exp_lo, mut exp_hi) = (zero, zero);
            for pair in q..end {
                // Widen two B rows to i16 and interleave into (B[p][j], B[p+1][j]) pairs. The
                // unpacks stay within 128-bit lanes, so the accumulator lanes carry the
                // columns in the fixed order {0-3, 8-11} / {4-7, 12-15}; one cross-lane
                // permute at retirement restores linear order. An odd depth's padding pair
                // repeats the last B row against a zero activation.
                let p = 2 * (panel.pairs.start + pair);
                let b0 = load_extend(base.add(p * n));
                let b1 = load_extend(base.add((p + 1).min(k - 1) * n));
                let pairs_lo = _mm256_unpacklo_epi16(b0, b1);
                let pairs_hi = _mm256_unpackhi_epi16(b0, b1);
                for r in 0..R {
                    let x = _mm256_set1_epi32(rows[r].add(pair).read());
                    acc_lo[r] = _mm256_add_epi32(acc_lo[r], _mm256_madd_epi16(pairs_lo, x));
                    acc_hi[r] = _mm256_add_epi32(acc_hi[r], _mm256_madd_epi16(pairs_hi, x));
                }
                if CHECK {
                    let e = _mm256_set1_epi32(sums.add(pair).read());
                    exp_lo = _mm256_add_epi32(exp_lo, _mm256_madd_epi16(pairs_lo, e));
                    exp_hi = _mm256_add_epi32(exp_hi, _mm256_madd_epi16(pairs_hi, e));
                }
            }
            if CHECK {
                drain_linear(&mut exp_lo, &mut exp_hi, exp64);
            }
            q = end;
        }
        for r in 0..R {
            let (res0, res1) = linear_order(acc_lo[r], acc_hi[r]);
            let row = &mut out[(i + r) * n + jc..][..SIMD_TILE_COLS];
            retire_row(row, res0, res1, obs.as_deref_mut());
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

    /// The skinny fused pass over one depth chunk (see
    /// [`super::SimdKernel::run_skinny_rows`]): the first chunk assigns `out` and
    /// `expected`, later ones add; the last assigns `observed` from the final outputs.
    ///
    /// # Safety
    ///
    /// Caller must ensure the CPU supports AVX2, a panel of `1..=4` rows plus its checksum
    /// row over pairs of `b`'s rows, `out.len() == panel.rows * b.cols()` and
    /// `expected.len() == observed.len() == b.cols()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn run_skinny(
        panel: &Panel<'_>,
        b: &MatI8,
        out: &mut [i32],
        expected: &mut [i64],
        observed: &mut [i64],
        first: bool,
        last: bool,
    ) {
        let sinks = (out, expected, observed);
        match panel.rows {
            1 => skinny::<1>(panel, b, sinks, first, last),
            2 => skinny::<2>(panel, b, sinks, first, last),
            3 => skinny::<3>(panel, b, sinks, first, last),
            _ => skinny::<4>(panel, b, sinks, first, last),
        }
    }

    /// All `R` rows plus the checksum row as one register tile per 16-column block. A
    /// partial final block runs through the same registers: its loads read 16 bytes wherever
    /// that stays inside `B` (the lanes past the row's end hold the next row's bytes and are
    /// never stored) and a zero-padded stack copy for the last rows, where it would not.
    ///
    /// # Safety
    ///
    /// As [`run_skinny`], with `panel.rows == R`.
    #[target_feature(enable = "avx2")]
    unsafe fn skinny<const R: usize>(
        panel: &Panel<'_>,
        b: &MatI8,
        (out, expected, observed): (&mut [i32], &mut [i64], &mut [i64]),
        first: bool,
        last: bool,
    ) {
        let (k, n) = b.shape();
        let zero = _mm256_setzero_si256();
        let rows: [*const i32; R] = std::array::from_fn(|r| panel.pair_lanes(r));
        let sums = panel.pair_lanes(R);
        let b_all = b.as_slice();
        let pairs = panel.pairs.len();
        let mut jc = 0;
        while jc < n {
            let width = (n - jc).min(SIMD_TILE_COLS);
            let mut acc_lo = [zero; R];
            let mut acc_hi = [zero; R];
            let mut exp64 = [zero; 4];
            let mut q = 0;
            while q < pairs {
                let end = (q + DRAIN_PAIRS).min(pairs);
                let (mut exp_lo, mut exp_hi) = (zero, zero);
                for pair in q..end {
                    // The same widen-and-interleave (and odd-depth padding) as `tile`.
                    let p = 2 * (panel.pairs.start + pair);
                    let b0 = load_cols(b_all, p * n + jc, width);
                    let b1 = load_cols(b_all, (p + 1).min(k - 1) * n + jc, width);
                    let pairs_lo = _mm256_unpacklo_epi16(b0, b1);
                    let pairs_hi = _mm256_unpackhi_epi16(b0, b1);
                    for r in 0..R {
                        let x = _mm256_set1_epi32(rows[r].add(pair).read());
                        acc_lo[r] = _mm256_add_epi32(acc_lo[r], _mm256_madd_epi16(pairs_lo, x));
                        acc_hi[r] = _mm256_add_epi32(acc_hi[r], _mm256_madd_epi16(pairs_hi, x));
                    }
                    let e = _mm256_set1_epi32(sums.add(pair).read());
                    exp_lo = _mm256_add_epi32(exp_lo, _mm256_madd_epi16(pairs_lo, e));
                    exp_hi = _mm256_add_epi32(exp_hi, _mm256_madd_epi16(pairs_hi, e));
                }
                drain_linear(&mut exp_lo, &mut exp_hi, &mut exp64);
                q = end;
            }
            store_i64x4_lanes(&exp64, &mut expected[jc..jc + width], first);
            let mut obs = [zero; 4];
            for r in 0..R {
                let (res0, res1) = linear_order(acc_lo[r], acc_hi[r]);
                let row = &mut out[r * n + jc..r * n + jc + width];
                let (mut final0, mut final1) = retire_lanes(row, res0, res1, first);
                // eᵀ·Y share of this row, straight from the retiring registers.
                drain(&mut final0, &mut final1, &mut obs);
            }
            if last {
                store_i64x4_lanes(&obs, &mut observed[jc..jc + width], true);
            }
            jc += width;
        }
    }

    /// Writes (`assign`) or adds a retiring row's 16 lanes in linear order onto the first
    /// `row.len()` of them, returning the row's final 16 lanes.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 and `row.len() <= 16`.
    #[target_feature(enable = "avx2")]
    unsafe fn retire_lanes(
        row: &mut [i32],
        res0: __m256i,
        res1: __m256i,
        assign: bool,
    ) -> (__m256i, __m256i) {
        let mut lanes = [0i32; SIMD_TILE_COLS];
        let whole = row.len() == SIMD_TILE_COLS;
        if !whole {
            lanes[..row.len()].copy_from_slice(row);
        }
        let dst = if whole {
            row.as_mut_ptr()
        } else {
            lanes.as_mut_ptr()
        };
        let (mut final0, mut final1) = (res0, res1);
        if !assign {
            final0 = _mm256_add_epi32(final0, _mm256_loadu_si256(dst as *const __m256i));
            final1 = _mm256_add_epi32(final1, _mm256_loadu_si256(dst.add(8) as *const __m256i));
        }
        _mm256_storeu_si256(dst as *mut __m256i, final0);
        _mm256_storeu_si256(dst.add(8) as *mut __m256i, final1);
        if !whole {
            row.copy_from_slice(&lanes[..row.len()]);
        }
        (final0, final1)
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
}

/// The AVX2 tier of the packed kernels. The pack-time interleaving turns each depth
/// pair's inner step into one 32-byte load plus two `vpmovsxbw` widenings — the
/// `vpunpck` interleaves and the retirement cross-lane permutes of the unpacked kernel
/// are gone, and the accumulator registers hold columns in linear order throughout.
#[cfg(target_arch = "x86_64")]
mod packed_avx2 {
    use super::{Panel, DRAIN_PAIRS, PACK_BLOCK_COLS, SIMD_TILE_ROWS};
    use crate::packed::{PackedMatI8, PACK_PAIR_BYTES};
    use std::arch::x86_64::*;

    /// One widened panel against every full 16-column block of `pb` — the packed twin of
    /// the row-major `panel`, with the same sinks. The caller hands a partial final block to
    /// the tiled routine.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2, `panel.pairs` within `pb`'s pairs, `out` holding
    /// `panel.rows` rows of `pb.cols()`, and `expected` present when `panel.sums`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn panel(
        panel: &Panel<'_>,
        pb: &PackedMatI8,
        out: &mut [i32],
        mut observed: Option<&mut [i64]>,
        mut expected: Option<&mut [i64]>,
    ) {
        let zero = _mm256_setzero_si256();
        for blk in 0..pb.cols() / PACK_BLOCK_COLS {
            let jc = blk * PACK_BLOCK_COLS;
            let tiles = pb
                .tiles()
                .as_ptr()
                .add(blk * pb.block_stride() + panel.pairs.start * PACK_PAIR_BYTES);
            let mut obs = observed.is_some().then_some([zero; 4]);
            let mut exp = [zero; 4];
            for i in (0..panel.rows).step_by(SIMD_TILE_ROWS) {
                let rows = (panel.rows - i).min(SIMD_TILE_ROWS);
                let sinks = (&mut *out, obs.as_mut(), &mut exp);
                let check = panel.sums && i == 0;
                dispatch_tile!(rows, check, tile(panel, i, tiles, pb.cols(), jc, sinks));
            }
            if let (Some(observed), Some(obs)) = (observed.as_deref_mut(), &obs) {
                store_i64x4_lanes(obs, &mut observed[jc..jc + PACK_BLOCK_COLS], false);
            }
            if let (true, Some(expected)) = (panel.sums, expected.as_deref_mut()) {
                store_i64x4_lanes(&exp, &mut expected[jc..jc + PACK_BLOCK_COLS], false);
            }
        }
    }

    /// An `R × 16` register tile over the packed pairs at `tiles`: the pair registers come
    /// out of `load_pair` already in linear column order, so retirement stores the
    /// accumulators directly — no permutes. With `CHECK` the checksum row rides the same
    /// pair registers into `exp64`.
    ///
    /// # Safety
    ///
    /// As [`panel`], with rows `i..i + R` of the panel and `tiles` at the chunk's first pair
    /// of a full block.
    #[target_feature(enable = "avx2")]
    unsafe fn tile<const R: usize, const CHECK: bool>(
        panel: &Panel<'_>,
        i: usize,
        tiles: *const i8,
        n: usize,
        jc: usize,
        (out, mut obs, exp64): (&mut [i32], Option<&mut [__m256i; 4]>, &mut [__m256i; 4]),
    ) {
        let rows: [*const i32; R] = std::array::from_fn(|r| panel.pair_lanes(i + r));
        let sums = panel.pair_lanes(panel.rows);
        let zero = _mm256_setzero_si256();
        let mut acc_lo = [zero; R];
        let mut acc_hi = [zero; R];
        let pairs = panel.pairs.len();
        let mut q = 0;
        while q < pairs {
            let end = if CHECK {
                (q + DRAIN_PAIRS).min(pairs)
            } else {
                pairs
            };
            let (mut exp_lo, mut exp_hi) = (zero, zero);
            for pair in q..end {
                let (pairs_lo, pairs_hi) = load_pair(tiles.add(pair * PACK_PAIR_BYTES));
                for r in 0..R {
                    let x = _mm256_set1_epi32(rows[r].add(pair).read());
                    acc_lo[r] = _mm256_add_epi32(acc_lo[r], _mm256_madd_epi16(pairs_lo, x));
                    acc_hi[r] = _mm256_add_epi32(acc_hi[r], _mm256_madd_epi16(pairs_hi, x));
                }
                if CHECK {
                    let e = _mm256_set1_epi32(sums.add(pair).read());
                    exp_lo = _mm256_add_epi32(exp_lo, _mm256_madd_epi16(pairs_lo, e));
                    exp_hi = _mm256_add_epi32(exp_hi, _mm256_madd_epi16(pairs_hi, e));
                }
            }
            if CHECK {
                drain(&mut exp_lo, &mut exp_hi, exp64);
            }
            q = end;
        }
        for r in 0..R {
            let row = &mut out[(i + r) * n + jc..][..PACK_BLOCK_COLS];
            retire_row(row, acc_lo[r], acc_hi[r], obs.as_deref_mut());
        }
    }

    /// Widens the `i32` partials of a 16-column row (linear order) into the `i64`
    /// accumulator registers and resets them — the drain that keeps a checksum row exact at
    /// any depth, and the fold of a finalised row into `eᵀ·Y`.
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

    /// Adds `acc_lo`/`acc_hi` (linear column order) onto the 16 columns of `row` and, when
    /// `obs` is present, folds the finalised values into the observed-checksum registers.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 and `row.len() == 16`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn retire_row(
        row: &mut [i32],
        acc_lo: __m256i,
        acc_hi: __m256i,
        obs: Option<&mut [__m256i; 4]>,
    ) {
        let out_ptr = row.as_mut_ptr();
        let mut final0 = _mm256_add_epi32(_mm256_loadu_si256(out_ptr as *const __m256i), acc_lo);
        let mut final1 =
            _mm256_add_epi32(_mm256_loadu_si256(out_ptr.add(8) as *const __m256i), acc_hi);
        _mm256_storeu_si256(out_ptr as *mut __m256i, final0);
        _mm256_storeu_si256(out_ptr.add(8) as *mut __m256i, final1);
        if let Some(obs) = obs {
            drain(&mut final0, &mut final1, obs);
        }
    }

    /// Stores (`assign`) or adds the first `sums.len()` of four `i64×4` registers' 16 lanes.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 and `sums.len() <= 16`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn store_i64x4_lanes(regs: &[__m256i; 4], sums: &mut [i64], assign: bool) {
        let mut lanes = [0i64; PACK_BLOCK_COLS];
        for (q, &vec) in regs.iter().enumerate() {
            _mm256_storeu_si256(lanes.as_mut_ptr().add(4 * q) as *mut __m256i, vec);
        }
        for (s, &v) in sums.iter_mut().zip(&lanes) {
            *s = if assign { v } else { *s + v };
        }
    }
}

/// The AVX-512 tier of the packed kernels: one 32-byte packed pair row widens into a full
/// 32-lane `i16` zmm register (`vpmovsxbw`), so a single `vpmaddwd` retires an entire
/// depth pair for all 16 columns — half the multiply count of the AVX2 tile, fed by plain
/// loads thanks to the pack-time interleaving. Requires AVX-512F (arithmetic/converts) +
/// AVX-512BW (`vpmaddwd` on zmm); only reachable when [`super::SimdTier::Avx512`] was
/// granted at construction.
///
/// VNNI was considered twice and rejected. `vpdpbusd` consumes depth **quads**, which
/// conflicts with the pair interleaving the AVX2 tier shares — reconstructing quads would
/// reintroduce the per-GEMM shuffles packing exists to remove (and its unsigned×signed form
/// needs a `128·colsum` correction besides). `vpdpwssd` keeps the pairs and fuses the
/// multiply with the accumulate, but at this 4-row tile it measured *slower* — 57–69 vs
/// 69–76 GMAC/s over the serving model's seven block shapes at 4, 12 and 128 rows, in the
/// same probe on the 2-core AVX-512 host — because each row's single accumulator then
/// serialises on the fused instruction's latency, where `vpmaddwd` + `vpaddd` leaves the
/// multiplies independent.
#[cfg(target_arch = "x86_64")]
mod packed_avx512 {
    use super::{Panel, DRAIN_PAIRS, PACK_BLOCK_COLS, SIMD_TILE_ROWS};
    use crate::packed::{PackedMatI8, PACK_PAIR_BYTES};
    use std::arch::x86_64::*;

    /// The AVX-512 twin of the AVX2 packed `panel`: the observed and expected column sums
    /// of a block live in two `i64×8` zmm registers each.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX-512F/BW + AVX2, `panel.pairs` within `pb`'s pairs, `out`
    /// holding `panel.rows` rows of `pb.cols()`, and `expected` present when `panel.sums`.
    #[target_feature(enable = "avx512f,avx512bw,avx2")]
    pub(super) unsafe fn panel(
        panel: &Panel<'_>,
        pb: &PackedMatI8,
        out: &mut [i32],
        mut observed: Option<&mut [i64]>,
        mut expected: Option<&mut [i64]>,
    ) {
        let zero = _mm512_setzero_si512();
        for blk in 0..pb.cols() / PACK_BLOCK_COLS {
            let jc = blk * PACK_BLOCK_COLS;
            let tiles = pb
                .tiles()
                .as_ptr()
                .add(blk * pb.block_stride() + panel.pairs.start * PACK_PAIR_BYTES);
            let mut obs = observed.is_some().then_some([zero; 2]);
            let mut exp = [zero; 2];
            for i in (0..panel.rows).step_by(SIMD_TILE_ROWS) {
                let rows = (panel.rows - i).min(SIMD_TILE_ROWS);
                let sinks = (&mut *out, obs.as_mut(), &mut exp);
                let check = panel.sums && i == 0;
                dispatch_tile!(rows, check, tile(panel, i, tiles, pb.cols(), jc, sinks));
            }
            if let (Some(observed), Some(obs)) = (observed.as_deref_mut(), &obs) {
                add_i64x8_lanes(obs, &mut observed[jc..jc + PACK_BLOCK_COLS]);
            }
            if let (true, Some(expected)) = (panel.sums, expected.as_deref_mut()) {
                add_i64x8_lanes(&exp, &mut expected[jc..jc + PACK_BLOCK_COLS]);
            }
        }
    }

    /// An `R × 16` register tile: one `i32×16` zmm accumulator per row, one `vpmaddwd`
    /// per row per depth pair — and, with `CHECK`, one more for the checksum row.
    ///
    /// # Safety
    ///
    /// As [`panel`], with rows `i..i + R` of the panel and `tiles` at the chunk's first pair
    /// of a full block.
    #[target_feature(enable = "avx512f,avx512bw,avx2")]
    unsafe fn tile<const R: usize, const CHECK: bool>(
        panel: &Panel<'_>,
        i: usize,
        tiles: *const i8,
        n: usize,
        jc: usize,
        (out, mut obs, exp64): (&mut [i32], Option<&mut [__m512i; 2]>, &mut [__m512i; 2]),
    ) {
        let rows: [*const i32; R] = std::array::from_fn(|r| panel.pair_lanes(i + r));
        let sums = panel.pair_lanes(panel.rows);
        let mut acc = [_mm512_setzero_si512(); R];
        let pairs = panel.pairs.len();
        let mut q = 0;
        while q < pairs {
            let end = if CHECK {
                (q + DRAIN_PAIRS).min(pairs)
            } else {
                pairs
            };
            let mut exp32 = _mm512_setzero_si512();
            for pair in q..end {
                let pair_row = load_pair(tiles.add(pair * PACK_PAIR_BYTES));
                for r in 0..R {
                    let x = _mm512_set1_epi32(rows[r].add(pair).read());
                    acc[r] = _mm512_add_epi32(acc[r], _mm512_madd_epi16(pair_row, x));
                }
                if CHECK {
                    let e = _mm512_set1_epi32(sums.add(pair).read());
                    exp32 = _mm512_add_epi32(exp32, _mm512_madd_epi16(pair_row, e));
                }
            }
            if CHECK {
                drain(exp32, exp64);
            }
            q = end;
        }
        for (r, &row_acc) in acc.iter().enumerate() {
            let row = &mut out[(i + r) * n + jc..][..PACK_BLOCK_COLS];
            retire_row(row, row_acc, obs.as_deref_mut());
        }
    }

    /// Widens 16 `i32` lanes into the two `i64×8` accumulators — the checksum row's drain
    /// and the fold of a finalised row into `eᵀ·Y`.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX-512F.
    #[target_feature(enable = "avx512f,avx512bw,avx2")]
    unsafe fn drain(lanes: __m512i, sums: &mut [__m512i; 2]) {
        sums[0] = _mm512_add_epi64(
            sums[0],
            _mm512_cvtepi32_epi64(_mm512_castsi512_si256(lanes)),
        );
        sums[1] = _mm512_add_epi64(
            sums[1],
            _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64(lanes, 1)),
        );
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

    /// Adds a finalised `i32×16` accumulator onto the 16 columns of `row` and, when `obs`
    /// is present, folds the stored values into the observed-checksum registers.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX-512F and `row.len() == 16`.
    #[target_feature(enable = "avx512f,avx512bw,avx2")]
    unsafe fn retire_row(row: &mut [i32], acc: __m512i, obs: Option<&mut [__m512i; 2]>) {
        let out_ptr = row.as_mut_ptr();
        let finalv = _mm512_add_epi32(_mm512_loadu_epi32(out_ptr), acc);
        _mm512_storeu_epi32(out_ptr, finalv);
        if let Some(obs) = obs {
            drain(finalv, obs);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ChecksummedGemm, GemmEngine, KernelEngine, ReferenceEngine};
    use crate::{rng, MatI32, PackedMatI8};
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
        // (n mod 16), row tails (m mod 4), degenerate vectors, a parallel-size GEMM, and
        // ragged depth and width panels of the tiled routine (k > 64, n > 256).
        for (seed, (m, k, n)) in [
            (1, (1, 1, 1)),
            (2, (4, 2, 16)),
            (3, (5, 3, 17)),
            (4, (7, 65, 31)),
            (5, (3, 16, 48)),
            (6, (1, 301, 1)),
            (7, (130, 64, 96)),
            (8, (6, 133, 275)),
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
        let detected = SimdTier::detect();
        assert!(
            simd_dispatch_label().starts_with(detected.label()),
            "{} names another tier than {detected:?}",
            simd_dispatch_label()
        );
        assert_eq!(SimdKernel::with_tier(detected).tier, detected);
        assert_eq!(
            SimdKernel::with_tier(detected).has_skinny_passes(),
            detected >= SimdTier::Avx2
        );
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
        // Skinny shapes (m ≤ 4) make one tile carrying the checksum row, m ≥ 5 several, odd
        // k the zero-padded final pair, ragged n the hand-over of the partial block to the
        // tiled routine, and the deep shape the i32→i64 checksum drains and several depth
        // chunks (k > 2·CHUNK_PAIRS).
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
        // Deep enough that the i32 checksum partials drain many times and the depth runs in
        // several widened chunks (later ones add onto what the first assigned).
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

    /// Asserts every tier-pinned engine matches the oracle on `a × b`, row-major and packed,
    /// plain and checksummed.
    fn assert_checksum_row_matches_oracle(label: &str, a: &MatI8, b: &MatI8) {
        let oracle = ReferenceEngine.gemm_i8_checksummed_two_pass(a, b).unwrap();
        let pb = PackedMatI8::pack(b);
        for (name, engine) in tiered_engines() {
            assert_eq!(
                engine.gemm_i8(a, b).unwrap(),
                *oracle.acc(),
                "{name} {label}"
            );
            let mut out = MatI32::zeros(0, 0);
            engine.gemm_i8_packed_into(a, &pb, &mut out).unwrap();
            assert_eq!(&out, oracle.acc(), "{name} packed {label}");
            let row_major = engine.gemm_i8_checksummed(a, b).unwrap();
            let mut packed = ChecksummedGemm::empty();
            let mut etw = Vec::new();
            engine
                .gemm_i8_packed_checksummed_into(a, &pb, &mut packed, &mut etw)
                .unwrap();
            assert_eq!(
                etw,
                crate::engine::operand_col_sums(a),
                "{name} eᵀ·W {label}"
            );
            for (kind, got) in [("row-major", &row_major), ("packed", &packed)] {
                assert_eq!(got.acc(), oracle.acc(), "{name} {kind} {label}");
                assert_eq!(got.expected(), oracle.expected(), "{name} {kind} {label}");
                assert_eq!(got.observed(), oracle.observed(), "{name} {kind} {label}");
            }
        }
    }

    #[test]
    fn checksum_row_matches_reference_across_bands_depth_chunks_and_odd_depths() {
        // m = 5 is the smallest GEMM of several tiles; 128 splits into panels; 256 is one
        // full checksum band; 257 and 300 need two (and the pooled engines split the larger
        // shapes into row chunks whose partial checksums add up at join). The depths are odd
        // (the zero-padded final pair), past `CHUNK_PAIRS` (several widened chunks, later
        // ones adding onto the first) or both; the widths run whole blocks only, which the
        // checksum row covers alone, or leave a tail.
        let past_cap = 2 * CHUNK_PAIRS + 3;
        for (seed, (m, k, n)) in [
            (300, (5, 33, 48)),
            (301, (5, past_cap, 32)),
            (302, (128, 161, 64)),
            (303, (128, 96, 35)),
            (304, (256, 62, 48)),
            (305, (257, 47, 33)),
            (306, (300, 21, 16)),
            (307, (12, past_cap, 17)),
            (308, (260, past_cap, 16)),
        ] {
            let (a, b) = random_pair(seed, m, k, n);
            assert_checksum_row_matches_oracle(&format!("{m}x{k}x{n}"), &a, &b);
        }
    }

    #[test]
    fn checksum_row_is_exact_on_an_i8_min_band() {
        // A full band of i8::MIN activations makes every lane of its checksum row exactly
        // i16::MIN; against i8::MIN / i8::MAX weights each pair partial sits at the bound the
        // drain period was derived from. Shallow enough (k ≤ 62) for one 256-row panel —
        // the inline pass rides it — and deep enough (k = 601, and past `CHUNK_PAIRS`) for
        // drains and several depth chunks.
        let past_cap = 2 * CHUNK_PAIRS + 1;
        for (m, k, n) in [
            (256, 62, 48),
            (256, 601, 32),
            (257, 61, 17),
            (256, past_cap, 16),
        ] {
            for fill in [i8::MIN, i8::MAX] {
                let a = MatI8::filled(m, k, i8::MIN);
                let b = MatI8::filled(k, n, fill);
                assert_checksum_row_matches_oracle(&format!("{m}x{k}x{n} B = {fill}"), &a, &b);
            }
        }
    }
}
