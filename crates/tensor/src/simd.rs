//! SIMD i8 GEMM microkernel with fused ABFT checksums and runtime dispatch.
//!
//! The row kernel of [`crate::engine::KernelEngine`]: x86-64 AVX2 and AVX-512 microkernels
//! built on `core::arch` intrinsics and an AMX-INT8 tile kernel in inline `asm!`, selected
//! at **runtime** ([`SimdTier::detect`]) so one binary runs everywhere — hosts without AVX2
//! (or runs with the `REALM_FORCE_SCALAR=1` override) run the portable tier, which is the
//! workspace's one scalar i8 GEMM routine besides the [`crate::gemm`] oracle: a cache-tiled
//! loop over `64 × 256` panels of `B` (`tiled`, below). The engine runs the kernel inline
//! (`simd`) or over work-stealing row chunks (`simd_parallel`), so batched prefill and
//! serving-scale GEMMs use every core.
//!
//! # The tiled routine
//!
//! Loop order is column panel → depth panel → row → depth → column, so each `64 × 256`
//! panel of `B` (16 KiB of `i8`) and each accumulator row segment stay cache-resident for a
//! whole panel's worth of work. Depth advances four rows of `B` at a time: the four rows are
//! widened to `i32` once into a stack scratch and every accumulator row folds them in with a
//! pure-`i32` multiply-add the compiler unrolls and vectorises. Fused checksums fold in while
//! the data is hot: `(eᵀ·W)·X` from each widened `B` panel, `eᵀ·Y` from each finalised
//! output segment. Besides being the portable tier, it takes the `n mod 16` column tail of
//! the vector packed kernels, which no model shape has: every hidden and ffn size is a
//! multiple of 16 (the AMX kernel retires a partial block itself).
//!
//! # The microkernel
//!
//! The register tile is **4 rows × 16 columns**, accumulated in `i32` vector registers. The
//! depth dimension advances two rows of `B` at a time (a *dot-product pair*):
//!
//! 1. the pair's 16 column pairs `(B[p][j], B[p+1][j])` become `i16` lanes — two row-major
//!    loads widened and interleaved (`vpunpcklwd`/`vpunpckhwd`);
//! 2. the activation pair `(A[i][p], A[i][p+1])` is **one `i32` lane in memory**, broadcast
//!    by a single `vpbroadcastd`: before its tiles run, a *row panel* of `A` is widened to
//!    `i16` once into a stack buffer (`WIDE_LANES` lanes, 32 KiB — no heap, no
//!    thread-local), each row zero-padded to whole depth quads, so a ragged depth needs no
//!    branch: its missing partners multiply as zero;
//! 3. `vpmaddwd` multiplies the `i16` pairs and adds each pair in `i32`:
//!    `A[i][p]·B[p][j] + A[i][p+1]·B[p+1][j]` — **exact** for every `i8` input, since each
//!    product is at most `128² = 16384` and the pair sum at most `2¹⁵`, far inside `i32`.
//!
//! A panel is as many whole tiles as fit the buffer beside its checksum row, and at most one
//! checksum band (`BAND_ROWS`); the tiles of a panel sweep every 16-column block of `B`
//! before the next panel is widened. A depth longer than a panel row holds (`CHUNK_PAIRS`
//! pairs) is cut into chunks whose tiles add onto the output. At decode shapes (`m ≤ 4`) a
//! panel is one tile, so its rows and its checksum row stream `B` once.
//!
//! This tile is the row-major kernel at every accelerated tier and row count, except for the
//! GEMMs the AMX tier takes from its crossover on (see below). A
//! partial final block (`n mod 16` columns) runs through the same registers: its loads read
//! 16 bytes wherever that stays inside `B` (the lanes past the row's end hold the next row's
//! bytes and are never stored) and a zero-padded stack copy for the last rows, where it
//! would not, and its rows retire through a stack copy.
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
//! up. Only the portable tier and the vector packed kernels' `n mod 16` tails reduce
//! `(eᵀ·W)·X` in scalar `i64` (`accumulate_expected_panel`) — the tails from the `eᵀ·W` the
//! panels just produced, the portable tier from its rows' column sums, reduced first.
//!
//! # Packed-B kernels and the tile unit
//!
//! Static weights go through [`crate::PackedMatI8`] and the `gemm_i8_packed*` entry
//! points. The pack stores each 16-column block as 64-byte rows of **depth quads** (16
//! columns × 4 depths), the B-tile row of the AMX `tdpbssd` instruction, and every tier
//! reads that one layout ([`SimdTier`], decided at construction):
//!
//! - **portable** multiplies the row-major original the pack carries (the tiled routine);
//! - **AVX2** and **AVX-512** widen a quad row (`vpmovsxbw`, no shuffles) into `i16`
//!   registers holding four depths per column, broadcast the activation *quad* — one `i64`
//!   lane of the widened panel — and `vpmaddwd` them: each column's two `i32` lanes (depth
//!   pairs `0,1` and `2,3`) are added once, when the tile retires. The checksum row rides
//!   the quads the same way, drained every `DRAIN_QUADS` quads;
//! - **AMX** loads 16 quad rows of a block in place as one B tile and multiplies it on the
//!   tile unit against 16-row tiles of activations laid out in a stack panel, every column
//!   included, for every GEMM past the crossover (`amx_takes`: at least `AMX_MIN_ROWS`
//!   rows and `AMX_MIN_MACS` multiply-accumulates; smaller ones run the AVX-512 kernel).
//!   The expected checksum rides as two *digit rows* under each 128-row band — its column
//!   sums split exactly into base-128 `i8` digits — and `eᵀ·Y` is reduced from each stored
//!   C tile (see the `amx` module).
//!
//! The AMX tier takes a row-major `B` (attention's `Kᵀ` and `V`, recovery) by the same rule:
//! the kernel packs each block pair's depth quads itself, once per depth chunk, into a
//! bounded stack scratch before the row tiles run, so hooks and the KV cache keep the
//! row-major operand. Below the crossover a row-major `B` stays on the AVX2 tile.

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
/// checksum row at any depth, so a panel always holds at least one tile. Even, so that every
/// chunk but the last covers whole depth quads of a packed `B`.
#[cfg(target_arch = "x86_64")]
const CHUNK_PAIRS: usize = (WIDE_LANES / 2 / (SIMD_TILE_ROWS + 1)) & !1;

/// Pairs accumulated in `i32` before a checksum row drains to `i64`: one pair's partial is
/// at most `2 · 2¹⁵ · 2⁷ = 2²³`, so `128 · 2²³ = 2³⁰` keeps the `i32` partials exact.
#[cfg(target_arch = "x86_64")]
const DRAIN_PAIRS: usize = 128;

/// Quads accumulated before a packed kernel's checksum row drains: each `i32` lane takes
/// one pair partial per quad, so `64 · 2²³ = 2²⁹`, and the two lanes of a column still add
/// up exactly (`2³⁰`) when they are folded at the drain.
#[cfg(target_arch = "x86_64")]
const DRAIN_QUADS: usize = 64;

/// Rows (`m`) from which the AMX tier takes a GEMM (with [`AMX_MIN_MACS`]); thinner ones
/// stay on the AVX-512 packed kernel or the AVX2 tile. Below it the tile unit has too little
/// to multiply per byte of weights it loads: over one decode step's 57 checksummed packed
/// GEMMs of the serving model (weights cycling through the caches as in serving), the
/// 2-core AMX host took 222 and 198 µs at `m` = 1 and 2 on AMX against 183 and 184 µs on
/// AVX-512, and 206, 210 and 255 µs at `m` = 3, 4 and 8 against 218, 259 and 467 µs.
#[cfg(target_arch = "x86_64")]
const AMX_MIN_ROWS: usize = 3;

/// Multiply-accumulates (`m·k·n`) from which the AMX tier takes a GEMM, packed or row-major:
/// below it the tile unit's fixed cost per call (tile configuration, laying out the panel,
/// packing a row-major `B`) outweighs its multiply. A row-major `B`, plain, the AVX2 tile
/// against the tile unit, best of 30 × 200 calls on one core of the 2-core AMX host (ranges
/// over repeated runs on a shared machine):
///
/// | `m × k × n`     | AVX2 tile      | AMX           |
/// |-----------------|----------------|---------------|
/// | 3 × 32 × 16     | 0.12–0.22 µs   | 0.72–0.98 µs  |
/// | 16 × 32 × 32    | 0.60–1.03 µs   | 0.82–1.18 µs  |
/// | 24 × 32 × 32    | 0.95–1.52 µs   | 1.00–1.35 µs  |
/// | 32 × 32 × 32    | 1.20–2.06 µs   | 1.03–1.43 µs  |
/// | 128 × 32 × 128  | 17.4–24.9 µs   | 6.4–9.3 µs    |
///
/// Packed GEMMs cross over no earlier (3 × 32 × 16: 0.10–0.16 µs on the AVX-512 kernel,
/// 0.35–1.3 µs on AMX). The row-major pack is paid per call, so a few rows against a wide
/// operand still lose on the tile unit past the crossover (4 × 32 × 256: 1.6–1.9 µs against
/// 2.7–2.8 µs) — a prefill's last short chunk, by at most about a microsecond.
#[cfg(target_arch = "x86_64")]
const AMX_MIN_MACS: usize = 32 * 32 * 32;

/// Whether the AMX tier runs an `m × k × n` kernel pass on the tile unit: one rule for a
/// packed and a row-major `B`. `m` is the pass's rows — a pooled engine's row chunk, not
/// the whole GEMM — since the tile unit's fixed cost, a row-major pack included, is paid
/// per pass.
#[cfg(target_arch = "x86_64")]
fn amx_takes(m: usize, k: usize, n: usize) -> bool {
    m >= AMX_MIN_ROWS && m * k * n >= AMX_MIN_MACS
}

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

/// What the CPU and the kernel say about the AMX-INT8 tile unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AmxGrant {
    /// CPUID reports no AMX-TILE/AMX-INT8, or the OS does not manage tile state.
    Absent,
    /// CPUID offered AMX but `arch_prctl(ARCH_REQ_XCOMP_PERM)` refused the tile data.
    Refused,
    /// The process may use the tile registers.
    Granted,
}

/// Asks once per process whether the tile unit may be used: CPUID leaf 7 (EDX bit 24
/// AMX-TILE, bit 25 AMX-INT8), the OS's tile state in XCR0 (bits 17 and 18), then Linux's
/// permission request for the tile data, which is process-wide, so every thread the
/// engines spawn inherits it. (`is_x86_feature_detected!("amx-int8")` is unstable.)
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn amx_grant() -> AmxGrant {
    static GRANT: OnceLock<AmxGrant> = OnceLock::new();
    *GRANT.get_or_init(|| {
        use std::arch::x86_64::__cpuid_count;
        const TILE_STATE: u64 = (1 << 17) | (1 << 18);
        const SYS_ARCH_PRCTL: i64 = 158;
        const ARCH_REQ_XCOMP_PERM: u64 = 0x1023;
        const XFEATURE_XTILEDATA: u64 = 18;
        let offered = __cpuid_count(0, 0).eax >= 7
            && __cpuid_count(7, 0).edx & (0b11 << 24) == 0b11 << 24
            && __cpuid_count(1, 0).ecx & (1 << 27) != 0
            && {
                let (lo, hi): (u32, u32);
                // SAFETY: CPUID.1:ECX.OSXSAVE (checked just above) makes XGETBV available;
                // reading XCR0 has no side effects.
                unsafe {
                    std::arch::asm!("xgetbv", in("ecx") 0, out("eax") lo, out("edx") hi,
                        options(nomem, nostack, preserves_flags));
                }
                ((u64::from(hi) << 32) | u64::from(lo)) & TILE_STATE == TILE_STATE
            };
        if !offered {
            return AmxGrant::Absent;
        }
        let ret: i64;
        // SAFETY: `arch_prctl(ARCH_REQ_XCOMP_PERM, XFEATURE_XTILEDATA)` only extends this
        // process's permitted xsave state; it reads and writes no user memory. The syscall
        // instruction clobbers rcx and r11, declared below.
        unsafe {
            std::arch::asm!("syscall",
                inlateout("rax") SYS_ARCH_PRCTL => ret,
                in("rdi") ARCH_REQ_XCOMP_PERM,
                in("rsi") XFEATURE_XTILEDATA,
                lateout("rcx") _, lateout("r11") _,
                options(nostack));
        }
        if ret == 0 {
            AmxGrant::Granted
        } else {
            AmxGrant::Refused
        }
    })
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
fn amx_grant() -> AmxGrant {
    AmxGrant::Absent
}

/// Human-readable description of the tier the runtime dispatch granted
/// ([`SimdTier::detect`]), for benchmark and example output (bench numbers are
/// uninterpretable without knowing which path ran).
pub fn simd_dispatch_label() -> &'static str {
    match SimdTier::detect() {
        SimdTier::Amx => "amx (from the crossover; avx512 packed, avx2 unpacked below)",
        // `detect` asked for the tile data before it settled on AVX-512.
        SimdTier::Avx512 if amx_grant() == AmxGrant::Refused => {
            "avx512 (packed kernels; avx2 unpacked; amx offered, arch_prctl refused)"
        }
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
    /// The AVX2 tile for a row-major `B` (every row count, tail columns included) plus
    /// AVX-512F/BW for the **packed** kernels, which widen a whole 64-byte packed quad row
    /// into two 32-lane i16 zmm registers (`vpmovsxbw`) and retire two depth pairs of 16
    /// columns per pair of `vpmaddwd`. The row-major kernel deliberately stays on the AVX2
    /// tile: without pre-packing, feeding 512-bit registers needs extra cross-lane shuffles
    /// that eat the wider multiply, while the packed layout feeds them with plain loads —
    /// AVX-512 is applied exactly where the data layout lets it pay.
    Avx512,
    /// AVX-512 plus the AMX-INT8 tile unit for every GEMM past the crossover (at least three
    /// rows and `32 · 32 · 32` multiply-accumulates), packed or row-major, every column
    /// included; smaller ones stay on the AVX-512 packed kernel and the AVX2 tile. `tdpbssd`
    /// multiplies 16-row tiles of activations against 16 × 64 tiles of `B`: the packed
    /// weights are stored in its B-tile order, and a row-major `B` is packed into it on the
    /// fly, per block pair, in a 32 KiB stack scratch. Granted when CPUID reports AMX-TILE
    /// and AMX-INT8, the OS manages tile state, and the kernel grants the process the tile
    /// data.
    Amx,
}

impl SimdTier {
    /// Every tier, worst to best — the list the parity suites pin one by one.
    pub const ALL: [SimdTier; 4] = [
        SimdTier::Portable,
        SimdTier::Avx2,
        SimdTier::Avx512,
        SimdTier::Amx,
    ];

    /// The best tier the host grants: CPUID, the AMX permission request and
    /// [`FORCE_SCALAR_ENV`], resolved on first use and remembered for the life of the
    /// process, so the GEMM and row kernels share one answer and dispatching never reads
    /// the environment.
    pub fn detect() -> Self {
        static GRANTED: OnceLock<SimdTier> = OnceLock::new();
        *GRANTED.get_or_init(|| {
            if force_scalar() {
                SimdTier::Portable
            } else if avx512_available() && amx_grant() == AmxGrant::Granted {
                SimdTier::Amx
            } else if avx512_available() {
                SimdTier::Avx512
            } else if avx2_available() {
                SimdTier::Avx2
            } else {
                SimdTier::Portable
            }
        })
    }

    /// Short label for reports (`"portable"`, `"avx2"`, `"avx512"`, `"amx"`).
    pub fn label(self) -> &'static str {
        match self {
            SimdTier::Portable => "portable",
            SimdTier::Avx2 => "avx2",
            SimdTier::Avx512 => "avx512",
            SimdTier::Amx => "amx",
        }
    }
}

/// The SIMD row kernel behind [`crate::engine::KernelEngine::simd`]: the best of
/// AMX/AVX-512/AVX2/portable the CPU supports.
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

    /// Kernel pass over a contiguous row range `[row_start, row_end)` of `a`, accumulating
    /// into `out_band` — the matching rows of the output, band-local and contiguous
    /// (`(row_end - row_start) × n`), so parallel shards can own disjoint `split_at_mut`
    /// bands of one output allocation. When `fused` is present the checksum reductions ride
    /// the pass: on the vector tiers `eᵀ·Y` from the accumulator registers as each tile is
    /// finalised and `(eᵀ·W)·X` as the checksum row of the pair stream (see the module
    /// documentation); on the portable tier both from the cache-hot panels of the tiled
    /// routine.
    ///
    /// On the AMX tier a pass the tile unit takes ([`amx_takes`], by the pass's own rows)
    /// runs there whole, packed or row-major, every column included. Otherwise a row-major
    /// `B` runs the AVX2 tile at every accelerated tier, every column included, and a packed
    /// `B` is streamed as widened quad rows and hands its `n mod 16` tail to the tiled
    /// routine; the portable tier multiplies the row-major original the pack carries.
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
            let rows = row_start..row_end;
            let sinks = match fused.as_mut() {
                Some(f) => (
                    Some(&mut *f.etw),
                    Some(&mut *f.expected),
                    Some(&mut *f.observed),
                ),
                None => (None, None, None),
            };
            // The rows of this pass, not of the GEMM: a pooled engine's row chunk that is
            // too thin for the tile unit would pay its fixed cost (and repack a row-major
            // `B`) once per chunk.
            if self.tier >= SimdTier::Amx && amx_takes(rows.len(), a.cols(), n) {
                // SAFETY: the AMX tier is only granted with AVX-512 and the tile-data
                // permission (`SimdTier::detect`); `KernelEngine` checked the shapes.
                unsafe { amx::run(a, b, out_band, rows, sinks) };
                return;
            }
            // SAFETY: an accelerated tier is only granted when AVX2 was detected at
            // construction (the better tiers imply AVX2; see `SimdTier::detect`).
            unsafe { self.run_blocks(a, b, out_band, rows, sinks) };
            let blocks_end = n - n % SIMD_TILE_COLS;
            if let (Operand::Packed(pb), true) = (b, blocks_end < n) {
                let b = pb.unpacked();
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

    /// The vector tiers' share of [`SimdKernel::run_rows`]: every 16-column block of rows
    /// `rows` (a packed `B`'s full blocks only), panel by panel and depth chunk by depth
    /// chunk. With `fused`, every panel carries its checksum row: the widening adds the
    /// rows' `eᵀ·W` onto `fused.etw`, the checksum rows their `(eᵀ·W)·X` over those blocks
    /// onto `fused.expected`, and the retiring tiles their `eᵀ·Y` onto `fused.observed`.
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
        (mut etw, mut expected, mut observed): Sinks<'_>,
    ) {
        let k = a.cols();
        let n = b.row_major().cols();
        let pairs = k.div_ceil(2);
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

    /// One widened panel against the blocks of `b` (see the kernels' `panel`).
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
            // Off the AMX route the row-major kernel stays on the AVX2 tile — see
            // [`SimdTier::Avx512`] for why.
            Operand::RowMajor(b) => avx2::panel(panel, b, out, observed, expected),
            Operand::Packed(pb) if self.tier >= SimdTier::Avx512 => {
                packed_avx512::panel(panel, pb, out, observed, expected)
            }
            Operand::Packed(pb) => packed_avx2::panel(panel, pb, out, observed, expected),
        }
    }
}

/// The fused-checksum sinks of one kernel pass, split out of [`FusedChecksums`]: `etw`,
/// `expected`, `observed`.
#[cfg(target_arch = "x86_64")]
type Sinks<'s> = (
    Option<&'s mut [i64]>,
    Option<&'s mut [i64]>,
    Option<&'s mut [i64]>,
);

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
/// rows of [`Panel::width`] `i16` lanes each, then — when `sums` — the panel's checksum row.
/// Depth pair `q` of a row is the `i32` lane `q` of [`Panel::pair_lanes`] and depth quad
/// `q` the `i64` lane `q` of [`Panel::quad_lanes`], which the kernels broadcast straight
/// from memory.
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
    /// Lanes per row: the chunk's pairs rounded up to whole quads, zero-padded.
    fn width(&self) -> usize {
        2 * self.pairs.len().next_multiple_of(2)
    }

    /// Row `r`'s depth pairs as `i32` lanes; `r == self.rows` is the checksum row.
    fn pair_lanes(&self, r: usize) -> *const i32 {
        self.lanes.as_ptr().wrapping_add(r * self.width()).cast()
    }

    /// Row `r`'s depth quads as `i64` lanes (8-byte aligned: the buffer is, and so is every
    /// row, being whole quads wide).
    fn quad_lanes(&self, r: usize) -> *const i64 {
        self.pair_lanes(r).cast()
    }

    /// The chunk's depth quads, as quad indices into a packed `B` (a chunk starts on a
    /// quad: [`CHUNK_PAIRS`] is even).
    fn quads(&self) -> Range<usize> {
        self.pairs.start / 2..self.pairs.end.div_ceil(2)
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
    let fit = WIDE_LANES / (2 * pairs.next_multiple_of(2)).max(1) - 1;
    (fit - fit % SIMD_TILE_ROWS).min(BAND_ROWS)
}

/// Widens rows `rows` of `a` (at most `BAND_ROWS`) over the depth pairs `pairs` into
/// `wide`, each row zero-padded to whole quads ([`Panel::width`]). With `etw`, the rows'
/// column sums follow them as the checksum row, accumulated while the rows are copied, and
/// are added onto `etw` — the operand checksum `eᵀ·W` falls out of the widening pass.
#[cfg(target_arch = "x86_64")]
fn widen<'w>(
    a: &MatI8,
    rows: Range<usize>,
    pairs: Range<usize>,
    etw: Option<&mut [i64]>,
    wide: &'w mut WideLanes,
) -> Panel<'w> {
    debug_assert!(rows.len() <= BAND_ROWS, "a checksum row sums one band");
    let width = 2 * pairs.len().next_multiple_of(2);
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

/// Writes `src` converted to `T` (`i16` widening, or an `i8` copy) into the head of `dst`
/// and zeros into the rest, returning `dst` as plain lanes.
#[cfg(target_arch = "x86_64")]
fn init_lanes<'d, T: From<i8> + Default>(dst: &'d mut [MaybeUninit<T>], src: &[i8]) -> &'d mut [T] {
    let (head, pad) = dst.split_at_mut(src.len());
    for (d, &v) in head.iter_mut().zip(src) {
        d.write(T::from(v));
    }
    for d in pad {
        d.write(T::default());
    }
    // SAFETY: every lane of `dst` was written above, and `MaybeUninit<T>` has the layout
    // of `T`.
    unsafe { &mut *(dst as *mut [MaybeUninit<T>] as *mut [T]) }
}

#[cfg(test)]
thread_local! {
    /// Calls of the tiled routine made by this thread.
    pub(crate) static TILED_PASSES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Calls of the AMX kernel made by this thread.
    pub(crate) static AMX_PASSES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Calls `$tile::<R, CHECK>(args…)` — or `$tile::<R, CHECK, $more>(args…)` — for a runtime
/// row count `$rows` and checksum flag `$check`.
#[cfg(target_arch = "x86_64")]
macro_rules! dispatch_tile {
    ($rows:expr, $check:expr, $tile:ident $(<$more:tt>)? ($($arg:expr),* $(,)?)) => {
        match ($rows, $check) {
            (4, false) => $tile::<4, false $(, $more)?>($($arg),*),
            (4, true) => $tile::<4, true $(, $more)?>($($arg),*),
            (3, false) => $tile::<3, false $(, $more)?>($($arg),*),
            (3, true) => $tile::<3, true $(, $more)?>($($arg),*),
            (2, false) => $tile::<2, false $(, $more)?>($($arg),*),
            (2, true) => $tile::<2, true $(, $more)?>($($arg),*),
            (1, false) => $tile::<1, false $(, $more)?>($($arg),*),
            (1, true) => $tile::<1, true $(, $more)?>($($arg),*),
            _ => unreachable!("a tile has 1..=4 rows"),
        }
    };
}

/// The tiled routine (see the module documentation): `a[row_start..row_end] × b[.., cols]`
/// accumulated into `out_band` (band contract of [`SimdKernel::run_rows`]) — the portable
/// tier, and the packed kernels' column tail. The widening scratch is a stack array,
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
    #[cfg(test)]
    TILED_PASSES.with(|passes| passes.set(passes.get() + 1));
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
    use std::ops::Range;

    /// One widened panel against every 16-column block of `b`, a partial final block
    /// included (see [`block`]).
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
        let n = b.cols();
        let blocks_end = n - n % SIMD_TILE_COLS;
        for jc in (0..blocks_end).step_by(SIMD_TILE_COLS) {
            let sinks = (observed.as_deref_mut(), expected.as_deref_mut());
            block::<true>(panel, b, jc..jc + SIMD_TILE_COLS, out, sinks);
        }
        if blocks_end < n {
            block::<false>(panel, b, blocks_end..n, out, (observed, expected));
        }
    }

    /// The panel's tiles over the columns `cols` — a whole block (`FULL`) or the partial
    /// final one — the first carrying the checksum row when the panel has one. They retire
    /// onto `out`, the panel-local rows of the output, folding `eᵀ·Y` into `observed` when
    /// present; the checksum row's share lands in `expected`. Whole and partial blocks are
    /// separate instances, so the whole blocks' loop carries none of the partial one's
    /// branches.
    ///
    /// # Safety
    ///
    /// As [`panel`], with `cols` one block of `b`'s columns.
    #[target_feature(enable = "avx2")]
    unsafe fn block<const FULL: bool>(
        panel: &Panel<'_>,
        b: &MatI8,
        cols: Range<usize>,
        out: &mut [i32],
        (observed, expected): (Option<&mut [i64]>, Option<&mut [i64]>),
    ) {
        let zero = _mm256_setzero_si256();
        let mut obs = observed.is_some().then_some([zero; 4]);
        let mut exp = [zero; 4];
        for i in (0..panel.rows).step_by(SIMD_TILE_ROWS) {
            let rows = (panel.rows - i).min(SIMD_TILE_ROWS);
            let sinks = (&mut *out, obs.as_mut(), &mut exp);
            let check = panel.sums && i == 0;
            dispatch_tile!(rows, check, tile<FULL>(panel, i, b, cols.clone(), sinks));
        }
        if let (Some(observed), Some(obs)) = (observed, &obs) {
            store_i64x4_lanes(obs, &mut observed[cols.clone()], false);
        }
        if let (true, Some(expected)) = (panel.sums, expected) {
            store_i64x4_lanes(&exp, &mut expected[cols], false);
        }
    }

    /// An `R × 16` register tile over the panel's depth chunk and the columns `cols` (at
    /// most 16), accumulated in `2R` `i32×8` registers, two depth steps per `vpmaddwd`; with
    /// `CHECK`, the checksum row rides the same pair registers into `exp64`. Each row's
    /// final tile is added onto `out` and, with `obs` present, widened lane-wise
    /// (`vpmovsxdq`) into the block's observed-checksum registers — the "reduce from the
    /// same registers" half of the fused-checksum contract. A whole block (`FULL`) loads
    /// and retires in place; a partial one loads through [`load_cols`] and retires through
    /// a stack copy, and its lanes past the last column, which carry products of bytes past
    /// it, are never stored.
    ///
    /// # Safety
    ///
    /// As [`panel`], with rows `i..i + R` of the panel and `cols` within `b.cols()`.
    #[target_feature(enable = "avx2")]
    unsafe fn tile<const R: usize, const CHECK: bool, const FULL: bool>(
        panel: &Panel<'_>,
        i: usize,
        b: &MatI8,
        cols: Range<usize>,
        (out, mut obs, exp64): (&mut [i32], Option<&mut [__m256i; 4]>, &mut [__m256i; 4]),
    ) {
        let (k, n) = b.shape();
        let b_all = b.as_slice();
        let base = b_all.as_ptr();
        let rows: [*const i32; R] = std::array::from_fn(|r| panel.pair_lanes(i + r));
        let sums = panel.pair_lanes(panel.rows);
        let zero = _mm256_setzero_si256();
        let mut acc_lo = [zero; R];
        let mut acc_hi = [zero; R];
        let pairs = panel.pairs.len();
        let width = if FULL { SIMD_TILE_COLS } else { cols.len() };
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
                let (at0, at1) = (p * n + cols.start, (p + 1).min(k - 1) * n + cols.start);
                let (b0, b1) = if FULL {
                    (load_extend(base.add(at0)), load_extend(base.add(at1)))
                } else {
                    (load_cols(b_all, at0, width), load_cols(b_all, at1, width))
                };
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
            let row = &mut out[(i + r) * n + cols.start..][..width];
            if FULL {
                retire_row(row, res0, res1, obs.as_deref_mut());
            } else {
                retire_partial(row, res0, res1, obs.as_deref_mut());
            }
        }
    }

    /// [`retire_row`] onto the first `row.len()` (fewer than 16) columns, through a stack
    /// copy.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 and `row.len() <= 16`.
    #[target_feature(enable = "avx2")]
    unsafe fn retire_partial(
        row: &mut [i32],
        res0: __m256i,
        res1: __m256i,
        obs: Option<&mut [__m256i; 4]>,
    ) {
        let width = row.len();
        let mut lanes = [0i32; SIMD_TILE_COLS];
        lanes[..width].copy_from_slice(row);
        retire_row(&mut lanes, res0, res1, obs);
        row.copy_from_slice(&lanes[..width]);
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

    /// 16 `i8` of `b_all` starting at `at`, of which the first `width` are wanted,
    /// sign-extended to `i16` lanes: loaded in place wherever 16 bytes stay inside `b_all`,
    /// else from a zero-padded stack copy (the last rows of a partial block).
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 and `at + width <= b_all.len()`, `width <= 16`.
    #[target_feature(enable = "avx2")]
    unsafe fn load_cols(b_all: &[i8], at: usize, width: usize) -> __m256i {
        if at + SIMD_TILE_COLS <= b_all.len() {
            return load_extend(b_all.as_ptr().add(at));
        }
        load_padded(b_all, at, width)
    }

    /// [`load_cols`]'s zero-padded copy, out of line so that the loop around it keeps its
    /// registers.
    ///
    /// # Safety
    ///
    /// As [`load_cols`].
    #[target_feature(enable = "avx2")]
    #[cold]
    #[inline(never)]
    unsafe fn load_padded(b_all: &[i8], at: usize, width: usize) -> __m256i {
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

/// The AVX2 tier of the packed kernels. A 16-column block runs as two 8-column halves, one
/// after the other, so that the tile's accumulators, the checksum row's and the loaded
/// quads fit the 16 ymm registers: each quad step loads the half's 32 bytes of the 64-byte
/// quad row, widens them into two `i16` registers (columns `0–3` and `4–7` of the half, four
/// depths each) and multiplies both against one broadcast activation quad. A column's two
/// `i32` lanes (depth pairs `0,1` and `2,3` of every quad) are folded at retirement — no
/// shuffles in the loop.
#[cfg(target_arch = "x86_64")]
mod packed_avx2 {
    use super::{Panel, DRAIN_QUADS, PACK_BLOCK_COLS, SIMD_TILE_ROWS};
    use crate::packed::{PackedMatI8, PACK_QUAD_BYTES};
    use std::arch::x86_64::*;

    /// Columns of one half block.
    const HALF_COLS: usize = PACK_BLOCK_COLS / 2;

    /// One widened panel against every full 16-column block of `pb` — the packed twin of
    /// the row-major `panel`, with the same sinks. The caller hands a partial final block to
    /// the tiled routine.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2, `panel.quads()` within `pb`'s quads, `out` holding
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
            let quads = pb
                .tiles()
                .as_ptr()
                .add(blk * pb.block_stride() + panel.quads().start * PACK_QUAD_BYTES);
            let mut obs = observed.is_some().then_some([zero; 4]);
            let mut exp = [zero; 4];
            for i in (0..panel.rows).step_by(SIMD_TILE_ROWS) {
                let rows = (panel.rows - i).min(SIMD_TILE_ROWS);
                let sinks = (&mut *out, obs.as_mut(), &mut exp);
                let check = panel.sums && i == 0;
                dispatch_tile!(rows, check, tile(panel, i, quads, pb.cols(), jc, sinks));
            }
            if let (Some(observed), Some(obs)) = (observed.as_deref_mut(), &obs) {
                store_i64x4_lanes(obs, &mut observed[jc..jc + PACK_BLOCK_COLS], false);
            }
            if let (true, Some(expected)) = (panel.sums, expected.as_deref_mut()) {
                store_i64x4_lanes(&exp, &mut expected[jc..jc + PACK_BLOCK_COLS], false);
            }
        }
    }

    /// An `R × 16` register tile over the quad rows at `quads`, one 8-column half after the
    /// other: per half, two `i32×8` accumulators per row, each lane one column's depth pair
    /// sum, folded into linear column order at retirement. With `CHECK` the checksum row
    /// rides the same quad registers into `exp64`.
    ///
    /// # Safety
    ///
    /// As [`panel`], with rows `i..i + R` of the panel and `quads` at the chunk's first quad
    /// of a full block.
    #[target_feature(enable = "avx2")]
    unsafe fn tile<const R: usize, const CHECK: bool>(
        panel: &Panel<'_>,
        i: usize,
        quads: *const i8,
        n: usize,
        jc: usize,
        (out, obs, exp64): (&mut [i32], Option<&mut [__m256i; 4]>, &mut [__m256i; 4]),
    ) {
        let rows: [*const i64; R] = std::array::from_fn(|r| panel.quad_lanes(i + r));
        let sums = panel.quad_lanes(panel.rows);
        let count = panel.quads().len();
        let (exp_lo, exp_hi) = exp64.split_at_mut(2);
        let (obs_lo, obs_hi) = match obs {
            Some(obs) => {
                let (lo, hi) = obs.split_at_mut(2);
                (Some(lo), Some(hi))
            }
            None => (None, None),
        };
        let out = &mut out[i * n + jc..];
        half::<R, CHECK>(rows, sums, count, quads, n, (out, obs_lo, exp_lo));
        let quads = quads.add(PACK_QUAD_BYTES / 2);
        half::<R, CHECK>(
            rows,
            sums,
            count,
            quads,
            n,
            (&mut out[HALF_COLS..], obs_hi, exp_hi),
        );
    }

    /// One 8-column half of [`tile`]: `out` at the half's first column of the tile's
    /// first row, the sinks the half's two registers.
    ///
    /// # Safety
    ///
    /// As [`tile`].
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn half<const R: usize, const CHECK: bool>(
        rows: [*const i64; R],
        sums: *const i64,
        count: usize,
        quads: *const i8,
        n: usize,
        (out, obs, exp64): (&mut [i32], Option<&mut [__m256i]>, &mut [__m256i]),
    ) {
        let zero = _mm256_setzero_si256();
        let mut acc = [[zero; 2]; R];
        let mut q = 0;
        while q < count {
            let end = if CHECK {
                (q + DRAIN_QUADS).min(count)
            } else {
                count
            };
            let mut exp32 = [zero; 2];
            for quad in q..end {
                let raw = _mm256_loadu_si256(quads.add(quad * PACK_QUAD_BYTES) as *const __m256i);
                let lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(raw));
                let hi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(raw, 1));
                for r in 0..R {
                    let x = _mm256_set1_epi64x(rows[r].add(quad).read());
                    acc[r][0] = _mm256_add_epi32(acc[r][0], _mm256_madd_epi16(lo, x));
                    acc[r][1] = _mm256_add_epi32(acc[r][1], _mm256_madd_epi16(hi, x));
                }
                if CHECK {
                    let e = _mm256_set1_epi64x(sums.add(quad).read());
                    exp32[0] = _mm256_add_epi32(exp32[0], _mm256_madd_epi16(lo, e));
                    exp32[1] = _mm256_add_epi32(exp32[1], _mm256_madd_epi16(hi, e));
                }
            }
            if CHECK {
                widen8(fold(exp32[0], exp32[1]), exp64);
            }
            q = end;
        }
        // The tile's share of `eᵀ·Y` is gathered in registers and added once.
        let mut sums = obs.is_some().then_some([zero; 2]);
        for (r, [lo, hi]) in acc.into_iter().enumerate() {
            let sums = sums.as_mut().map(|s| &mut s[..]);
            retire8(&mut out[r * n..][..HALF_COLS], fold(lo, hi), sums);
        }
        if let (Some(obs), Some(sums)) = (obs, sums) {
            obs[0] = _mm256_add_epi64(obs[0], sums[0]);
            obs[1] = _mm256_add_epi64(obs[1], sums[1]);
        }
    }

    /// Adds the two `i32` lanes of each column: `a` holds columns `0–3` and `b` columns
    /// `4–7` of a half block as lane pairs; the result is the 8 columns in linear order.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn fold(a: __m256i, b: __m256i) -> __m256i {
        // hadd works within 128-bit lanes: {c0 c1 c4 c5 | c2 c3 c6 c7}.
        _mm256_permute4x64_epi64(_mm256_hadd_epi32(a, b), 0b11_01_10_00)
    }

    /// Widens 8 `i32` lanes (linear column order) and adds them onto the two `i64×4`
    /// registers `sums[0..2]` — the drain that keeps a checksum row exact at any depth, and
    /// the fold of a finalised row into `eᵀ·Y`.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 and `sums.len() >= 2`.
    #[target_feature(enable = "avx2")]
    unsafe fn widen8(v: __m256i, sums: &mut [__m256i]) {
        let lo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(v));
        let hi = _mm256_cvtepi32_epi64(_mm256_extracti128_si256(v, 1));
        sums[0] = _mm256_add_epi64(sums[0], lo);
        sums[1] = _mm256_add_epi64(sums[1], hi);
    }

    /// [`widen8`] for a 16-column row held as two registers (linear order) onto four
    /// `i64×4` registers, resetting the partials.
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
        widen8(*exp32_lo, &mut exp64[..2]);
        widen8(*exp32_hi, &mut exp64[2..]);
        *exp32_lo = _mm256_setzero_si256();
        *exp32_hi = _mm256_setzero_si256();
    }

    /// Adds `v` onto the 8 columns of `row` and, when `obs` is present, folds the finalised
    /// values into its two observed-checksum registers.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2, `row.len() == 8` and `obs` at least two registers long.
    #[target_feature(enable = "avx2")]
    unsafe fn retire8(row: &mut [i32], v: __m256i, obs: Option<&mut [__m256i]>) {
        let out_ptr = row.as_mut_ptr() as *mut __m256i;
        let finalv = _mm256_add_epi32(_mm256_loadu_si256(out_ptr), v);
        _mm256_storeu_si256(out_ptr, finalv);
        if let Some(obs) = obs {
            widen8(finalv, obs);
        }
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
        let (row_lo, row_hi) = row.split_at_mut(PACK_BLOCK_COLS / 2);
        let (obs_lo, obs_hi) = match obs {
            Some(obs) => {
                let (lo, hi) = obs.split_at_mut(2);
                (Some(lo), Some(hi))
            }
            None => (None, None),
        };
        retire8(row_lo, acc_lo, obs_lo);
        retire8(row_hi, acc_hi, obs_hi);
    }

    /// Stores (`assign`) or adds the first `sums.len()` of the `i64×4` registers' lanes.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 and `sums.len() <= 4 * regs.len() <= 16`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn store_i64x4_lanes(regs: &[__m256i], sums: &mut [i64], assign: bool) {
        let mut lanes = [0i64; PACK_BLOCK_COLS];
        for (q, &vec) in regs.iter().enumerate() {
            _mm256_storeu_si256(lanes.as_mut_ptr().add(4 * q) as *mut __m256i, vec);
        }
        for (s, &v) in sums.iter_mut().zip(&lanes) {
            *s = if assign { v } else { *s + v };
        }
    }
}

/// The AVX-512 tier of the packed kernels: one 64-byte quad row widens into two 32-lane
/// `i16` zmm registers (`vpmovsxbw` from memory, columns `0–7` and `8–15` with four depths
/// each), and one broadcast activation quad multiplies both — two `vpmaddwd` retire four
/// depth steps of all 16 columns, fed by plain loads thanks to the pack-time layout. A
/// column's two `i32` lanes are folded at retirement. Requires AVX-512F (arithmetic,
/// converts, `vpermt2d`) + AVX-512BW (`vpmaddwd` on zmm); only reachable when
/// [`super::SimdTier::Avx512`] or better was granted at construction.
///
/// VNNI was considered and rejected. `vpdpbusd` is unsigned × signed and needs a
/// `128·colsum` correction besides (the saturation hazard of the `vpmaddubsw` idiom, in
/// another guise). `vpdpwssd` fuses the multiply with the accumulate, but at this 4-row tile
/// it measured *slower* — 57–69 vs 69–76 GMAC/s over the serving model's seven block shapes
/// at 4, 12 and 128 rows, in the same probe on the 2-core AVX-512 host — because each row's
/// accumulator then serialises on the fused instruction's latency, where `vpmaddwd` +
/// `vpaddd` leaves the multiplies independent. Hosts with AMX multiply the same quads on
/// the tile unit instead ([`super::amx`]).
#[cfg(target_arch = "x86_64")]
mod packed_avx512 {
    use super::{Panel, DRAIN_QUADS, PACK_BLOCK_COLS, SIMD_TILE_ROWS};
    use crate::packed::{PackedMatI8, PACK_QUAD_BYTES};
    use std::arch::x86_64::*;

    /// The AVX-512 twin of the AVX2 packed `panel`, over whole 16-column blocks: the
    /// observed and expected column sums of a block live in two `i64×8` zmm registers each.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX-512F/BW + AVX2, `panel.quads()` within `pb`'s quads, `out`
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
            let quads = pb
                .tiles()
                .as_ptr()
                .add(blk * pb.block_stride() + panel.quads().start * PACK_QUAD_BYTES);
            let mut obs = observed.is_some().then_some([zero; 2]);
            let mut exp = [zero; 2];
            for i in (0..panel.rows).step_by(SIMD_TILE_ROWS) {
                let rows = (panel.rows - i).min(SIMD_TILE_ROWS);
                let sinks = (&mut *out, obs.as_mut(), &mut exp);
                let check = panel.sums && i == 0;
                dispatch_tile!(rows, check, tile(panel, i, quads, pb.cols(), jc, sinks));
            }
            if let (Some(observed), Some(obs)) = (observed.as_deref_mut(), &obs) {
                add_i64x8_lanes(obs, &mut observed[jc..jc + PACK_BLOCK_COLS]);
            }
            if let (true, Some(expected)) = (panel.sums, expected.as_deref_mut()) {
                add_i64x8_lanes(&exp, &mut expected[jc..jc + PACK_BLOCK_COLS]);
            }
        }
    }

    /// An `R × 16` register tile: two `i32×16` zmm accumulators per row (columns `0–7` and
    /// `8–15`, one lane per column and depth pair), two `vpmaddwd` per row per quad — and,
    /// with `CHECK`, two more for the checksum row.
    ///
    /// # Safety
    ///
    /// As [`panel`], with rows `i..i + R` of the panel and `quads` at the chunk's first quad
    /// of a full block.
    #[target_feature(enable = "avx512f,avx512bw,avx2")]
    unsafe fn tile<const R: usize, const CHECK: bool>(
        panel: &Panel<'_>,
        i: usize,
        quads: *const i8,
        n: usize,
        jc: usize,
        (out, mut obs, exp64): (&mut [i32], Option<&mut [__m512i; 2]>, &mut [__m512i; 2]),
    ) {
        let rows: [*const i64; R] = std::array::from_fn(|r| panel.quad_lanes(i + r));
        let sums = panel.quad_lanes(panel.rows);
        let zero = _mm512_setzero_si512();
        let mut acc = [[zero; 2]; R];
        let count = panel.quads().len();
        let mut q = 0;
        while q < count {
            let end = if CHECK {
                (q + DRAIN_QUADS).min(count)
            } else {
                count
            };
            let mut exp32 = [zero; 2];
            for quad in q..end {
                let row = quads.add(quad * PACK_QUAD_BYTES);
                let lo = _mm512_cvtepi8_epi16(_mm256_loadu_si256(row as *const __m256i));
                let hi = _mm512_cvtepi8_epi16(_mm256_loadu_si256(row.add(32) as *const __m256i));
                for r in 0..R {
                    let x = _mm512_set1_epi64(rows[r].add(quad).read());
                    acc[r][0] = _mm512_add_epi32(acc[r][0], _mm512_madd_epi16(lo, x));
                    acc[r][1] = _mm512_add_epi32(acc[r][1], _mm512_madd_epi16(hi, x));
                }
                if CHECK {
                    let e = _mm512_set1_epi64(sums.add(quad).read());
                    exp32[0] = _mm512_add_epi32(exp32[0], _mm512_madd_epi16(lo, e));
                    exp32[1] = _mm512_add_epi32(exp32[1], _mm512_madd_epi16(hi, e));
                }
            }
            if CHECK {
                drain(fold(exp32[0], exp32[1]), exp64);
            }
            q = end;
        }
        for (r, [lo, hi]) in acc.into_iter().enumerate() {
            let row = &mut out[(i + r) * n + jc..][..PACK_BLOCK_COLS];
            retire_row(row, fold(lo, hi), obs.as_deref_mut());
        }
    }

    /// Adds the two `i32` lanes of each column: `a` holds columns `0–7` and `b` columns
    /// `8–15` as lane pairs; the result is the 16 columns in linear order.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX-512F.
    #[target_feature(enable = "avx512f,avx512bw,avx2")]
    unsafe fn fold(a: __m512i, b: __m512i) -> __m512i {
        // Lane j of the pair (a, b) is index j of the concatenation a ++ b.
        let even = _mm512_set_epi32(30, 28, 26, 24, 22, 20, 18, 16, 14, 12, 10, 8, 6, 4, 2, 0);
        let odd = _mm512_set_epi32(31, 29, 27, 25, 23, 21, 19, 17, 15, 13, 11, 9, 7, 5, 3, 1);
        _mm512_add_epi32(
            _mm512_permutex2var_epi32(a, even, b),
            _mm512_permutex2var_epi32(a, odd, b),
        )
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

    /// Adds a finalised `i32×16` row onto the 16 columns of `row` and, when `obs` is
    /// present, folds the stored values into the observed-checksum registers.
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

/// The AMX tier: the CPU's own systolic array, for a packed `B` and a row-major one alike.
/// `tdpbssd` multiplies a 16 × 64 `i8` tile of activations against a 16 × 64 tile of `B` —
/// 16 depth quads of 16 columns — into a 16 × 16 `i32` tile. A packed block's quad rows are
/// that B tile already, loaded in place at stride 64; a row-major `B` (attention's `Kᵀ` and
/// `V`) is packed on the fly: before the row tiles of a block pair run, the pair's depth
/// quads are interleaved four rows at a time into a 32 KiB stack scratch (`PairTiles`) by
/// [`crate::packed::pack_pair_into`], in the pack's own layout, zero-padded past the last
/// depth and the last column, and every row tile of the band reuses them. The activations
/// of a band of at most 128 rows (`BAND_ROWS`) are laid out once per depth chunk in a
/// 64 KiB stack panel, rows zero-padded to whole 64-depth steps and the band to whole
/// 16-row tiles; the output is swept in groups of two row tiles × two column blocks (four C
/// tiles, two A and two B tiles: the eight tile registers). Every
/// block is multiplied on the tile unit, a partial final one (`n mod 16` columns) against
/// zero-padded columns: its C tiles retire only their live columns, through masked stores.
///
/// The fused checksums stay exact and in the pass. The band's column sums `eᵀ·X` lie in
/// `128 · [−128, 127]`, so each splits exactly into two `i8` digits, `s = 128·hi + lo`;
/// the two digit rows follow the band's activations in the panel, and
/// `(eᵀ·X)·W = 128·(hi·W) + lo·W` falls out of the same `tdpbssd`s — free when the band's
/// last row tile has two rows to spare (a band of up to 14 rows: every decode shape), one
/// more row tile per band otherwise. `eᵀ·Y` is reduced from each stored C tile while it is in L1, and
/// `eᵀ·W` is the band's column sums, added up.
///
/// Every call configures the tiles on entry (`ldtilecfg`) and releases them on exit
/// (`tilerelease`), so no tile state crosses a call or a worker thread.
#[cfg(target_arch = "x86_64")]
mod amx {
    use super::{init_lanes, Sinks};
    use crate::engine::Operand;
    use crate::packed::{
        pack_pair_into, PackedMatI8, PACK_BLOCK_COLS, PACK_QUAD_BYTES, PACK_QUAD_DEPTH,
    };
    use crate::MatI8;
    use std::arch::asm;
    use std::arch::x86_64::*;
    use std::mem::MaybeUninit;
    use std::ops::Range;

    /// Rows of every tile, and columns of a C tile.
    const TILE_ROWS: usize = 16;
    /// Bytes of one tile row: 64 activation depths of A, one quad row of B, 16 `i32` of C.
    const TILE_ROW_BYTES: usize = 64;
    /// Bytes of one tile.
    const TILE_BYTES: usize = TILE_ROWS * TILE_ROW_BYTES;
    /// Depth one `tdpbssd` reduces: an A row of 64 `i8` against 16 quad rows of B.
    const STEP_DEPTH: usize = TILE_ROW_BYTES;
    /// Activation rows of one checksum band: their column sums lie in `128 · [−128, 127]`,
    /// the range of two base-128 `i8` digits.
    const BAND_ROWS: usize = 128;
    /// The digit rows (`hi`, then `lo`) that follow a band's activations.
    const DIGIT_ROWS: usize = 2;
    /// The `hi` digit row's weight, `128 = 2^DIGIT_SHIFT`.
    const DIGIT_SHIFT: u32 = 7;
    /// Bytes of the stack panel the activations are laid out in: a full band with its digit
    /// rows (nine row tiles) at the serving model's widest depth, 448, in one chunk.
    const PANEL_BYTES: usize = 1 << 16;
    /// Depth of the deepest chunk (a panel of one row tile).
    const MAX_CHUNK_DEPTH: usize = PANEL_BYTES / TILE_ROWS;
    /// 64-depth steps of a row-major `B`'s depth chunk, whose block pair is packed into
    /// [`PairTiles`]: 1024 depths (32 KiB of scratch), past the serving model's 640-token
    /// context, so there the panel's own limit sets the chunks. Deeper operands take several.
    const PAIR_STEPS: usize = 16;

    // A B tile is 16 quad rows of one packed block.
    const _: () = assert!(TILE_ROW_BYTES == PACK_QUAD_BYTES && TILE_ROWS == PACK_BLOCK_COLS);
    const _: () = assert!(STEP_DEPTH == TILE_ROWS * PACK_QUAD_DEPTH);

    /// The `ldtilecfg` operand: palette 1, then per tile register its bytes per row and rows.
    #[repr(C, align(64))]
    struct TileConfig {
        palette: u8,
        start_row: u8,
        reserved: [u8; 14],
        colsb: [u16; 16],
        rows: [u8; 16],
    }

    /// The activation panel, uninitialised: [`lay_out`] writes every byte a tile reads.
    #[repr(C, align(64))]
    struct PanelBytes([MaybeUninit<i8>; PANEL_BYTES]);

    /// A C tile stored for retirement: 16 rows of 16 `i32`.
    #[repr(C, align(64))]
    struct CTile([[i32; TILE_ROWS]; TILE_ROWS]);

    /// A B tile copied out of the packed buffer, zero-padded, where loading it in place
    /// would read past the buffer's end. Uninitialised until [`b_tile`] fills it.
    #[repr(C, align(64))]
    struct BTile([MaybeUninit<i8>; TILE_BYTES]);

    /// The B tiles of a row-major block pair over one depth chunk, block after block.
    /// Uninitialised until [`pack_pair_into`] fills them.
    #[repr(C, align(64))]
    struct PairTiles([MaybeUninit<i8>; 2 * PAIR_STEPS * TILE_BYTES]);

    /// The stack scratch of one call besides the panel: the stored C tiles of a group
    /// (`tmm` register `i` in slot `i`, written by `tilestored` before they are read) and
    /// one B spill per block of a group.
    struct Scratch {
        c: [MaybeUninit<CTile>; 4],
        spill: [BTile; 2],
    }

    /// Where a GEMM's B tiles come from: a packed `B`, or a row-major one whose block pairs
    /// are packed into [`PairTiles`] before their row tiles run.
    enum Source<'b> {
        Packed(&'b PackedMatI8),
        RowMajor(&'b MatI8, &'b mut PairTiles),
    }

    /// The B tiles of blocks `blocks` of a `B` `n` columns wide over one depth chunk, in
    /// [`PackedMatI8`] order: `bytes` starts at block `blocks.start`'s quad row at the
    /// chunk's first depth, and each block lies `stride` bytes after the one before. A whole
    /// pack, or one packed pair of a row-major `B`.
    struct BlockTiles<'q> {
        bytes: &'q [i8],
        stride: usize,
        blocks: Range<usize>,
        n: usize,
    }

    /// A band laid out in the panel: `height` rows (whole row tiles) of `width` bytes
    /// (whole 64-depth steps), the first `band_rows` of them activations.
    struct Laid<'p> {
        lanes: &'p [i8],
        width: usize,
        height: usize,
        band_rows: usize,
    }

    /// `a[rows] × b` onto `out_band` (band contract of `SimdKernel::run_rows`), every
    /// column; with the sinks, the rows' `eᵀ·W` onto `etw`, their `(eᵀ·W)·X` onto `expected`
    /// and their `eᵀ·Y` onto `observed`.
    ///
    /// # Safety
    ///
    /// Caller must ensure the AMX tier was granted (AVX-512F/BW, AMX-TILE/INT8 and the
    /// tile-data permission), `a.cols() == b.rows()`, `rows` within `a`, `out_band` holding
    /// `rows.len()` rows of `b.cols()`, and the sinks `a.cols()`, `b.cols()` and `b.cols()`
    /// long, `expected` present when `etw` is.
    #[target_feature(enable = "avx512f,avx512bw,avx2")]
    pub(super) unsafe fn run(
        a: &MatI8,
        b: Operand<'_>,
        out_band: &mut [i32],
        rows: Range<usize>,
        sinks: Sinks<'_>,
    ) {
        #[cfg(test)]
        super::AMX_PASSES.with(|passes| passes.set(passes.get() + 1));
        match b {
            Operand::Packed(pb) => run_with(a, Source::Packed(pb), out_band, rows, sinks),
            Operand::RowMajor(b) => run_row_major(a, b, out_band, rows, sinks),
        }
    }

    /// [`run`] for a row-major `b`, in a frame of its own: a packed GEMM's stack never holds
    /// the pair scratch.
    ///
    /// # Safety
    ///
    /// As [`run`].
    #[target_feature(enable = "avx512f,avx512bw,avx2")]
    #[inline(never)]
    unsafe fn run_row_major(
        a: &MatI8,
        b: &MatI8,
        out_band: &mut [i32],
        rows: Range<usize>,
        sinks: Sinks<'_>,
    ) {
        let mut pair = PairTiles([MaybeUninit::uninit(); 2 * PAIR_STEPS * TILE_BYTES]);
        run_with(a, Source::RowMajor(b, &mut pair), out_band, rows, sinks);
    }

    /// [`run`] over the B tiles of `source`: one body for both operand forms, so that its
    /// helpers keep a single call site each and inline.
    ///
    /// # Safety
    ///
    /// As [`run`].
    #[target_feature(enable = "avx512f,avx512bw,avx2")]
    #[inline(never)]
    unsafe fn run_with(
        a: &MatI8,
        mut source: Source<'_>,
        out_band: &mut [i32],
        rows: Range<usize>,
        (mut etw, mut expected, mut observed): Sinks<'_>,
    ) {
        let k = a.cols();
        let n = match source {
            Source::Packed(pb) => pb.cols(),
            Source::RowMajor(b, _) => b.cols(),
        };
        let blocks = n.div_ceil(PACK_BLOCK_COLS);
        // A packed `B` is multiplied whole, a row-major one a pair of blocks at a time, each
        // packed into the pair scratch, whose size bounds its depth chunks.
        let (group, max_steps) = match source {
            Source::Packed(_) => (blocks.max(1), usize::MAX),
            Source::RowMajor(..) => (2, PAIR_STEPS),
        };
        let digits = if etw.is_some() { DIGIT_ROWS } else { 0 };
        let tiles_used = n > 0 && !rows.is_empty();
        if tiles_used {
            configure();
        }
        let mut panel = PanelBytes([const { MaybeUninit::uninit() }; PANEL_BYTES]);
        let mut scratch = Scratch {
            c: [const { MaybeUninit::uninit() }; 4],
            spill: [const { BTile([MaybeUninit::uninit(); TILE_BYTES]) }; 2],
        };
        let mut sums = [const { MaybeUninit::uninit() }; MAX_CHUNK_DEPTH];
        for start in rows.clone().step_by(BAND_ROWS) {
            let band = start..(start + BAND_ROWS).min(rows.end);
            let height = (band.len() + digits).next_multiple_of(TILE_ROWS);
            let chunk = (PANEL_BYTES / height / STEP_DEPTH).min(max_steps) * STEP_DEPTH;
            for d0 in (0..k.max(1)).step_by(chunk) {
                let depth = d0..(d0 + chunk).min(k);
                let width = depth.len().next_multiple_of(STEP_DEPTH).max(STEP_DEPTH);
                let etw = etw.as_deref_mut();
                let laid = lay_out(
                    a,
                    &band,
                    depth.clone(),
                    (width, height),
                    etw,
                    &mut panel,
                    &mut sums,
                );
                if tiles_used {
                    let out =
                        &mut out_band[(band.start - rows.start) * n..(band.end - rows.start) * n];
                    let mut observed = observed.as_deref_mut().filter(|_| depth.end == k);
                    let mut expected = expected.as_deref_mut().filter(|_| digits > 0);
                    for blk in (0..blocks).step_by(group) {
                        let tiles = match &mut source {
                            Source::Packed(pb) => BlockTiles {
                                bytes: &pb.tiles()[pb.tile_offset(d0, 0)..],
                                stride: pb.block_stride(),
                                blocks: 0..blocks,
                                n,
                            },
                            Source::RowMajor(b, pair) => {
                                let quads = width / PACK_QUAD_DEPTH;
                                BlockTiles {
                                    bytes: pack_pair_into(b, blk, d0, quads, &mut pair.0),
                                    stride: quads * PACK_QUAD_BYTES,
                                    blocks: blk..(blk + 2).min(blocks),
                                    n,
                                }
                            }
                        };
                        let sinks = (observed.as_deref_mut(), expected.as_deref_mut());
                        multiply(&laid, tiles, out, sinks, &mut scratch);
                    }
                }
            }
        }
        if tiles_used {
            release();
        }
    }

    /// Lays out rows `band` of `a` over `depth` in `panel`: `height` rows of `width` bytes,
    /// the activations zero-padded, then — with `etw` — the band's `hi` and `lo` digit rows,
    /// then zero rows. The band's column sums are added onto `etw`.
    #[target_feature(enable = "avx512f,avx512bw,avx2")]
    fn lay_out<'p>(
        a: &MatI8,
        band: &Range<usize>,
        depth: Range<usize>,
        (width, height): (usize, usize),
        etw: Option<&mut [i64]>,
        panel: &'p mut PanelBytes,
        sums: &mut [MaybeUninit<i16>; MAX_CHUNK_DEPTH],
    ) -> Laid<'p> {
        let bytes = &mut panel.0[..height * width];
        let mut rows = bytes.chunks_exact_mut(width);
        let mut total = etw.is_some().then(|| init_lanes(&mut sums[..width], &[]));
        // The band first: `zip` must not draw a row it will not use.
        for (i, dst) in band.clone().zip(rows.by_ref()) {
            let row = init_lanes(dst, &a.row(i)[depth.clone()]);
            if let Some(total) = total.as_deref_mut() {
                for (s, &v) in total.iter_mut().zip(row.iter()) {
                    *s += i16::from(v);
                }
            }
        }
        if let (Some(etw), Some(total)) = (etw, total) {
            // s = 128·hi + lo with hi = s >> 7 in [−128, 127] and lo = s & 127 in [0, 127].
            let hi = init_lanes::<i8>(rows.next().expect("a band's tiles hold its digits"), &[]);
            for (d, &s) in hi.iter_mut().zip(total.iter()) {
                *d = (s >> DIGIT_SHIFT) as i8;
            }
            let lo = init_lanes::<i8>(rows.next().expect("a band's tiles hold its digits"), &[]);
            for (d, &s) in lo.iter_mut().zip(total.iter()) {
                *d = (s & 127) as i8;
            }
            for (e, &s) in etw[depth].iter_mut().zip(total.iter()) {
                *e += i64::from(s);
            }
        }
        for dst in rows {
            init_lanes::<i8>(dst, &[]);
        }
        Laid {
            // SAFETY: every byte of `bytes` was written above, and `MaybeUninit<i8>` has
            // the layout of `i8`.
            lanes: unsafe { &*(bytes as *const [MaybeUninit<i8>] as *const [i8]) },
            width,
            height,
            band_rows: band.len(),
        }
    }

    /// The panel's tiles against the blocks of `tiles` (over the panel's depth chunk), added
    /// onto `out` (the band's rows); the C tile rows past the band carry its digit rows into
    /// `expected`, and `observed` (present on a band's last chunk) takes the final rows.
    ///
    /// # Safety
    ///
    /// Caller must ensure the tiles are configured, `lanes` is `height × width` with both
    /// whole tiles, `out` holds `band_rows` rows of `n`, and the sinks are `n` long.
    #[target_feature(enable = "avx512f,avx512bw,avx2")]
    unsafe fn multiply(
        &Laid {
            lanes,
            width,
            height,
            band_rows,
        }: &Laid<'_>,
        BlockTiles {
            bytes,
            stride,
            blocks,
            n,
        }: BlockTiles<'_>,
        out: &mut [i32],
        (mut observed, mut expected): (Option<&mut [i64]>, Option<&mut [i64]>),
        Scratch { c, spill }: &mut Scratch,
    ) {
        let row_tiles = height / TILE_ROWS;
        let steps = width / STEP_DEPTH;
        let a_tile =
            |t: usize, step: usize| lanes[t * TILE_ROWS * width + step * STEP_DEPTH..].as_ptr();
        for blk in blocks.clone().step_by(2) {
            let cols = (blocks.end - blk).min(2);
            let at = (blk - blocks.start) * stride;
            for t in (0..row_tiles).step_by(2) {
                let tiles = (row_tiles - t).min(2);
                zero_c();
                // A lone last block is multiplied into both columns of the group; the
                // second copy is never retired.
                for step in 0..steps {
                    let at = at + step * TILE_BYTES;
                    let [s0, s1] = spill;
                    let b0 = b_tile(bytes, at, s0);
                    let b1 = b_tile(bytes, at + (cols - 1) * stride, s1);
                    match tiles {
                        2 => step_2x2(a_tile(t, step), a_tile(t + 1, step), width, b0, b1),
                        _ => step_1x2(a_tile(t, step), width, b0, b1),
                    }
                }
                store_c(c, tiles);
                for (slot, tile) in c[..2 * tiles].iter().enumerate() {
                    let (dt, dc) = (slot / 2, slot % 2);
                    if dc < cols {
                        // SAFETY: `store_c` just stored the group's slots.
                        let tile = unsafe { tile.assume_init_ref() };
                        let cols = (blk + dc) * PACK_BLOCK_COLS..n;
                        let sinks = (observed.as_deref_mut(), expected.as_deref_mut());
                        let first = (t + dt) * TILE_ROWS;
                        if cols.len() >= PACK_BLOCK_COLS {
                            retire::<true>(tile, first, band_rows, cols, out, sinks);
                        } else {
                            retire_partial(tile, first, band_rows, cols, out, sinks);
                        }
                    }
                }
            }
        }
    }

    /// Adds C tile rows `first..first + 16` of the panel onto rows `cols.end` wide, at the 16
    /// columns from `cols.start` (for a partial final block, not `WHOLE`, those before
    /// `cols.end`): band rows onto `out` (and, finalised, onto `observed`), the digit rows
    /// onto `expected`. A partial block's lanes past `cols.end`, products of zero padding,
    /// are neither loaded nor stored; a whole block takes no masks, which measured a few
    /// percent on a 4-row GEMM.
    #[target_feature(enable = "avx512f,avx512bw,avx2")]
    fn retire<const WHOLE: bool>(
        tile: &CTile,
        first: usize,
        band_rows: usize,
        Range { start: jc, end: n }: Range<usize>,
        out: &mut [i32],
        (observed, expected): (Option<&mut [i64]>, Option<&mut [i64]>),
    ) {
        let live = band_rows.saturating_sub(first).min(TILE_ROWS);
        let cols = jc..if WHOLE { jc + PACK_BLOCK_COLS } else { n };
        let mask = lane_mask(cols.len()) as __mmask16;
        let rows = out[first.min(band_rows) * n..].chunks_exact_mut(n);
        let mut sums = [_mm512_setzero_si512(); 2];
        for (lanes, row) in tile.0[..live].iter().zip(rows) {
            let row = &mut row[cols.clone()];
            // SAFETY: `lanes` is 16 `i32`, and so is a whole block's `row`; a partial one's
            // lanes are the ones `mask` selects.
            let y = unsafe {
                let c = _mm512_loadu_epi32(lanes.as_ptr());
                if WHOLE {
                    let y = _mm512_add_epi32(_mm512_loadu_epi32(row.as_ptr()), c);
                    _mm512_storeu_epi32(row.as_mut_ptr(), y);
                    y
                } else {
                    let y = _mm512_add_epi32(_mm512_maskz_loadu_epi32(mask, row.as_ptr()), c);
                    _mm512_mask_storeu_epi32(row.as_mut_ptr(), mask, y);
                    y
                }
            };
            let [lo, hi] = widen(y);
            sums = [_mm512_add_epi64(sums[0], lo), _mm512_add_epi64(sums[1], hi)];
        }
        if let Some(observed) = observed {
            add_i64x16::<WHOLE>(&mut observed[cols.clone()], sums);
        }
        let Some(expected) = expected else { return };
        let digits = (first + live).max(band_rows)..band_rows + DIGIT_ROWS;
        for r in digits.start..digits.end.min(first + TILE_ROWS) {
            // SAFETY: a C tile row is 16 `i32`.
            let [lo, hi] = widen(unsafe { _mm512_loadu_epi32(tile.0[r - first].as_ptr()) });
            let [lo, hi] = if r == band_rows {
                [
                    _mm512_slli_epi64::<DIGIT_SHIFT>(lo),
                    _mm512_slli_epi64::<DIGIT_SHIFT>(hi),
                ]
            } else {
                [lo, hi]
            };
            add_i64x16::<WHOLE>(&mut expected[cols.clone()], [lo, hi]);
        }
    }

    /// [`retire`] for a partial final block, out of line: inlined beside the whole blocks'
    /// retirement, it measured a few percent on a 4-row GEMM.
    #[target_feature(enable = "avx512f,avx512bw,avx2")]
    #[inline(never)]
    fn retire_partial(
        tile: &CTile,
        first: usize,
        band_rows: usize,
        cols: Range<usize>,
        out: &mut [i32],
        sinks: (Option<&mut [i64]>, Option<&mut [i64]>),
    ) {
        retire::<false>(tile, first, band_rows, cols, out, sinks);
    }

    /// The 16 `i32` lanes of `v` sign-extended to two `i64×8` registers.
    #[target_feature(enable = "avx512f,avx512bw,avx2")]
    fn widen(v: __m512i) -> [__m512i; 2] {
        [
            _mm512_cvtepi32_epi64(_mm512_castsi512_si256(v)),
            _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64::<1>(v)),
        ]
    }

    /// Adds the first `sums.len()` lanes of two `i64×8` registers onto `sums`: all 16 when
    /// `WHOLE`, through masks otherwise.
    #[target_feature(enable = "avx512f,avx512bw,avx2")]
    fn add_i64x16<const WHOLE: bool>(sums: &mut [i64], [lo, hi]: [__m512i; 2]) {
        if WHOLE {
            let sums = &mut sums[..PACK_BLOCK_COLS];
            // SAFETY: `sums` is 16 `i64`, two registers' worth.
            unsafe {
                let at = sums.as_mut_ptr();
                _mm512_storeu_epi64(at, _mm512_add_epi64(_mm512_loadu_epi64(at), lo));
                let at = at.add(8);
                _mm512_storeu_epi64(at, _mm512_add_epi64(_mm512_loadu_epi64(at), hi));
            }
            return;
        }
        for (half, reg) in sums.chunks_mut(8).zip([lo, hi]) {
            let mask = lane_mask(half.len()) as __mmask8;
            // SAFETY: `mask` selects the lanes of `half`.
            unsafe {
                let at = half.as_mut_ptr();
                let sum = _mm512_add_epi64(_mm512_maskz_loadu_epi64(mask, at), reg);
                _mm512_mask_storeu_epi64(at, mask, sum);
            }
        }
    }

    /// A mask of the first `lanes` (at most 32) lanes.
    fn lane_mask(lanes: usize) -> u32 {
        ((1u64 << lanes) - 1) as u32
    }

    /// The B tile `at` bytes into `bytes`: 16 quad rows in place, or — where they would run
    /// past the buffer — the rows that exist, copied into `spill` and zero-padded. (Rows past
    /// a block's last quad belong to the next block; they meet the panel's zero padding.)
    fn b_tile(bytes: &[i8], at: usize, spill: &mut BTile) -> *const i8 {
        let at = at.min(bytes.len());
        if bytes.len() - at >= TILE_BYTES {
            return bytes[at..].as_ptr();
        }
        init_lanes(&mut spill.0, &bytes[at..]).as_ptr()
    }

    /// Loads the tile configuration: eight tiles of 16 rows × 64 bytes — the C tiles of a
    /// group of row tiles × blocks in `tmm0..=3`, row-major over the group (a 2 × 2 group
    /// is (0,0), (0,1), (1,0), (1,1)); A in `tmm4`/`tmm5`; B in `tmm6`/`tmm7`.
    ///
    /// # Safety
    ///
    /// Caller must ensure the AMX tier was granted.
    unsafe fn configure() {
        let mut config = TileConfig {
            palette: 1,
            start_row: 0,
            reserved: [0; 14],
            colsb: [0; 16],
            rows: [0; 16],
        };
        config.colsb[..8].fill(TILE_ROW_BYTES as u16);
        config.rows[..8].fill(TILE_ROWS as u8);
        // SAFETY: the caller guarantees AMX; `config` is a valid 64-byte palette-1
        // configuration, read by the instruction and not kept.
        unsafe { asm!("ldtilecfg [{}]", in(reg) &config, options(nostack, preserves_flags)) };
    }

    /// Returns the tile registers to their initial state.
    ///
    /// # Safety
    ///
    /// Caller must ensure the AMX tier was granted.
    unsafe fn release() {
        // SAFETY: the caller guarantees AMX; `tilerelease` touches no memory.
        unsafe { asm!("tilerelease", options(nostack, preserves_flags)) };
    }

    /// Zeroes the four C tiles.
    ///
    /// # Safety
    ///
    /// Caller must ensure the tiles are configured.
    unsafe fn zero_c() {
        // SAFETY: the caller guarantees configured tiles; `tilezero` touches no memory.
        unsafe {
            asm!(
                "tilezero tmm0",
                "tilezero tmm1",
                "tilezero tmm2",
                "tilezero tmm3",
                options(nostack, preserves_flags)
            )
        };
    }

    /// Stores the C tiles of a group of `tiles` row tiles, `tmm0..2·tiles`, into the slots
    /// of `c` with the same index.
    ///
    /// # Safety
    ///
    /// Caller must ensure the tiles are configured.
    unsafe fn store_c(c: &mut [MaybeUninit<CTile>; 4], tiles: usize) {
        let s = TILE_ROW_BYTES;
        let [c0, c1, c2, c3] = c.each_mut().map(|c| c.as_mut_ptr());
        // SAFETY: the caller guarantees configured tiles; each store writes 16 rows of 64
        // bytes at stride 64, exactly one `CTile`, borrowed mutably here.
        unsafe {
            asm!(
                "tilestored [{c0} + {s}*1], tmm0",
                "tilestored [{c1} + {s}*1], tmm1",
                c0 = in(reg) c0, c1 = in(reg) c1, s = in(reg) s,
                options(nostack, preserves_flags)
            );
            if tiles == 2 {
                asm!(
                    "tilestored [{c2} + {s}*1], tmm2",
                    "tilestored [{c3} + {s}*1], tmm3",
                    c2 = in(reg) c2, c3 = in(reg) c3, s = in(reg) s,
                    options(nostack, preserves_flags)
                );
            }
        }
    }

    /// One 64-depth step of a 2 × 2 group: `tmm0..=3 += [a0; a1] · [b0, b1]`.
    ///
    /// # Safety
    ///
    /// Caller must ensure the tiles are configured, 16 rows of 64 bytes readable at `a0`
    /// and `a1` (stride `sa`) and at `b0` and `b1` (stride 64).
    unsafe fn step_2x2(a0: *const i8, a1: *const i8, sa: usize, b0: *const i8, b1: *const i8) {
        // SAFETY: as the caller guarantees; the loads read only the tiles described.
        unsafe {
            asm!(
                "tileloadd tmm4, [{a0} + {sa}*1]",
                "tileloadd tmm5, [{a1} + {sa}*1]",
                "tileloadd tmm6, [{b0} + {sb}*1]",
                "tileloadd tmm7, [{b1} + {sb}*1]",
                "tdpbssd tmm0, tmm4, tmm6",
                "tdpbssd tmm1, tmm4, tmm7",
                "tdpbssd tmm2, tmm5, tmm6",
                "tdpbssd tmm3, tmm5, tmm7",
                a0 = in(reg) a0, a1 = in(reg) a1, b0 = in(reg) b0, b1 = in(reg) b1,
                sa = in(reg) sa, sb = in(reg) PACK_QUAD_BYTES,
                options(nostack, preserves_flags)
            )
        };
    }

    /// [`step_2x2`] for a group of one row tile and two blocks (`tmm0`, `tmm1`).
    ///
    /// # Safety
    ///
    /// As [`step_2x2`], without `a1`.
    unsafe fn step_1x2(a0: *const i8, sa: usize, b0: *const i8, b1: *const i8) {
        // SAFETY: as the caller guarantees; the loads read only the tiles described.
        unsafe {
            asm!(
                "tileloadd tmm4, [{a0} + {sa}*1]",
                "tileloadd tmm6, [{b0} + {sb}*1]",
                "tileloadd tmm7, [{b1} + {sb}*1]",
                "tdpbssd tmm0, tmm4, tmm6",
                "tdpbssd tmm1, tmm4, tmm7",
                a0 = in(reg) a0, b0 = in(reg) b0, b1 = in(reg) b1,
                sa = in(reg) sa, sb = in(reg) PACK_QUAD_BYTES,
                options(nostack, preserves_flags)
            )
        };
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

    /// Every tier, inline and pooled, and the detected tier over three workers.
    fn simd_engines() -> Vec<Box<dyn GemmEngine>> {
        let mut engines: Vec<Box<dyn GemmEngine>> = Vec::new();
        for tier in SimdTier::ALL {
            engines.push(Box::new(KernelEngine::simd_with_tier(tier)));
            engines.push(Box::new(KernelEngine::simd_with_tier(tier).pooled()));
        }
        engines.push(Box::new(KernelEngine::simd().with_workers(3)));
        engines
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
    }

    #[test]
    fn with_tier_clamps_to_host_support() {
        assert_eq!(
            SimdKernel::with_tier(SimdTier::Portable).tier,
            SimdTier::Portable
        );
        let best = SimdTier::ALL[SimdTier::ALL.len() - 1];
        assert_eq!(SimdKernel::with_tier(best).tier, SimdTier::detect());
        assert!(
            SimdTier::ALL.windows(2).all(|w| w[0] < w[1]),
            "ALL runs worst to best"
        );
    }

    /// Every tier the host grants, inline and over three workers, by name; unsupported
    /// tiers are skipped (the engine clamps them down to an already-listed tier).
    fn tiered_engines() -> Vec<(String, Box<dyn GemmEngine>)> {
        let mut engines: Vec<(String, Box<dyn GemmEngine>)> = Vec::new();
        for tier in SimdTier::ALL {
            if SimdKernel::with_tier(tier).tier == tier {
                let engine = KernelEngine::simd_with_tier(tier);
                engines.push((format!("simd-{}", tier.label()), Box::new(engine)));
                let pooled = engine.with_workers(3);
                engines.push((format!("parallel-{}", tier.label()), Box::new(pooled)));
            }
        }
        engines
    }

    #[test]
    fn packed_paths_match_reference_across_tiers_and_shapes() {
        // Skinny shapes (m ≤ 4) make one tile carrying the checksum row, m ≥ 5 several, odd
        // k the zero-padded final pair, ragged n the hand-over of the partial block to the
        // tiled routine — or, on the AMX route (the last shape), its masked retirement — and
        // the deep shape the i32→i64 checksum drains and several depth chunks
        // (k > 2·CHUNK_PAIRS).
        for (seed, (m, k, n)) in [
            (11, (1, 1, 1)),
            (12, (1, 64, 48)),
            (13, (2, 63, 17)),
            (14, (4, 33, 16)),
            (15, (5, 48, 31)),
            (16, (9, 7, 130)),
            (17, (130, 64, 96)),
            (18, (2, 16500, 16)),
            (19, (130, 65, 97)),
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

    #[test]
    fn row_major_tile_matches_reference_on_every_tier_shape_and_destination() {
        // The row-major kernels' parity table: the AVX2 tile and, from the AMX crossover
        // (`amx_takes`), the tile unit with its on-the-fly pack. m = 1..=4 is one register
        // tile, 5 and 8 add a second, 16 and 17 fill and spill an AMX row tile, 31..=33 and
        // the depth and width around 32 straddle the crossover (32 × 32 × 32), 63..=65
        // straddle a whole number of tiles, 127..=130 the edge of a 128-row AMX band, and 257
        // crosses a checksum band. The depths cover a lone row, one pair, odd/even/odd around
        // the head dimension and one AMX step, a resident length, and one depth past a
        // row-major AMX chunk (`PAIR_STEPS`); the widths cover tail-only, one block exactly,
        // block ± 1, two blocks ± 1, block + tail, and many blocks. The serving model's full
        // context, 640, runs as the depth of `SV` and the width of `QKᵀ`: as a width it
        // crosses the tiled routine's column panel (`PANEL_WIDTH`) and packs 20 block pairs
        // per depth chunk on the tile unit, as a depth it takes a full band two depth chunks
        // (448 + 192).
        let mut cases: Vec<(String, MatI8, MatI8)> = Vec::new();
        let mut seed = 100;
        let past_pair_chunk = 1025;
        let rows = [
            1, 2, 3, 4, 5, 8, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 130, 257,
        ];
        let depths = [1, 2, 31, 32, 33, 63, 64, 65, 224];
        let widths = [1, 15, 16, 17, 31, 32, 33, 50, 224];
        let shapes = depths.iter().flat_map(|&k| widths.map(|n| (k, n)));
        // The deep depth against a partial block, with and without a whole one before it,
        // and the full context.
        let shapes = shapes.chain([(past_pair_chunk, 15), (past_pair_chunk, 33)]);
        let context = 640;
        let shapes = shapes.chain([
            (context, 1),
            (context, 17),
            (context, 32),
            (context, 224),
            (1, context),
            (32, context),
            (224, context),
        ]);
        for (k, n) in shapes {
            for m in rows {
                seed += 1;
                let (a, b) = random_pair(seed, m, k, n);
                cases.push((format!("{m}x{k}x{n}"), a, b));
            }
        }
        // The INT8 rails (a band of i8::MIN rows makes its checksum row i16::MIN), all-zero
        // activation rows (a masked-out query), all-zero B rows, and both.
        let mut r = rng::seeded(77);
        for (m, k, n) in [
            (1, 33, 17),
            (3, 32, 50),
            (4, 64, 16),
            (31, 32, 32),
            (32, 32, 32),
            (17, 65, 33),
            (65, 33, 17),
            (130, 224, 31),
            (129, past_pair_chunk, 15),
            (257, 32, 50),
        ] {
            for (fa, fb) in [(-128i8, -128i8), (127, 127), (-128, 127), (127, -128)] {
                let label = format!("{m}x{k}x{n} filled {fa}/{fb}");
                cases.push((label, MatI8::filled(m, k, fa), MatI8::filled(k, n, fb)));
            }
            let (mut a, mut b) = random_pair(r.gen(), m, k, n);
            a.row_mut(m - 1).fill(0);
            b.row_mut(k / 2).fill(0);
            cases.push((format!("{m}x{k}x{n} zero rows"), a, b.clone()));
            cases.push((format!("{m}x{k}x{n} zero a"), MatI8::zeros(m, k), b));
        }
        // Deep enough that the i32 checksum partials drain many times and the depth runs in
        // several widened chunks (later ones add onto the first).
        cases.push((
            "4x16500x17 rails".into(),
            MatI8::filled(4, 16500, -128),
            MatI8::filled(16500, 17, -128),
        ));
        let (a, b) = random_pair(78, 2, 16500, 33);
        cases.push(("2x16500x33".into(), a, b));
        for (label, a, b) in &cases {
            let ((m, k), n) = (a.shape(), b.cols());
            let reference = ReferenceEngine.gemm_i8_checksummed(a, b).unwrap();
            let two_pass = ReferenceEngine.gemm_i8_checksummed_two_pass(a, b).unwrap();
            assert_eq!(reference, two_pass, "{label}");
            for (name, engine) in tiered_engines() {
                // A fresh destination, then a larger one holding stale values (its observed
                // checksum marked stale too): both must come back exactly the oracle.
                let mut stale = ChecksummedGemm::from_parts(
                    MatI32::filled(m + 3, n + 5, 0x5a5a),
                    vec![7; n + 5],
                    vec![-3; n + 5],
                );
                stale.acc_mut()[(0, 0)] ^= 1 << 20;
                let destinations = [
                    (
                        "fresh",
                        MatI32::zeros(0, 0),
                        ChecksummedGemm::empty(),
                        Vec::new(),
                    ),
                    (
                        "stale",
                        MatI32::filled(m + 3, n + 5, -9),
                        stale,
                        vec![11; k + 2],
                    ),
                ];
                for (dest_label, mut out, mut dest, mut etw) in destinations {
                    let label = format!("{label} into a {dest_label} destination");
                    engine.gemm_i8_into(a, b, &mut out).unwrap();
                    assert_eq!(&out, reference.acc(), "{name} plain {label}");
                    engine
                        .gemm_i8_checksummed_into(a, b, &mut dest, &mut etw)
                        .unwrap();
                    assert_eq!(dest, reference, "{name} {label}");
                    assert_eq!(dest.msd(), 0, "{name} {label}");
                    assert_eq!(
                        etw,
                        crate::engine::operand_col_sums(a),
                        "{name} eᵀ·W {label}"
                    );
                }
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
        // The AMX route: rows around the crossover (32 × 32 × 32), a row tile and a 128-row
        // band; depths around one 64-depth step, a resident length, the full context and one
        // past a row-major chunk (`PAIR_STEPS`); widths leaving a partial block, which a
        // packed `B` now retires in registers too, and the full context past a column panel.
        // Random, then at the INT8 rails.
        let rows = [3, 31, 32, 33, 16, 17, 127, 128, 129, 130, 128, 129];
        let depths = [224, 32, 32, 31, 1025, 63, 65, 33, 1, 64, 640, 32];
        let widths = [33, 32, 32, 17, 15, 224, 1, 224, 31, 16, 32, 641];
        for (seed, ((m, k), n)) in (309..).zip(rows.into_iter().zip(depths).zip(widths)) {
            let (a, b) = random_pair(seed, m, k, n);
            assert_checksum_row_matches_oracle(&format!("{m}x{k}x{n}"), &a, &b);
            for fill in [i8::MIN, i8::MAX] {
                let (a, b) = (MatI8::filled(m, k, fill), MatI8::filled(k, n, i8::MIN));
                let label = format!("{m}x{k}x{n} A = {fill}, B = {}", i8::MIN);
                assert_checksum_row_matches_oracle(&label, &a, &b);
            }
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
