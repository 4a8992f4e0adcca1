//! Pluggable GEMM execution backends with optionally fused ABFT checksums.
//!
//! Every quality/energy number in the ReaLM reproduction is produced by re-running quantized
//! GEMMs under a protection scheme, so the INT8×INT8→INT32 GEMM plus its checksum pass is the
//! hot path of the whole workspace. This module makes that path pluggable:
//!
//! * [`ReferenceEngine`] — the original scalar triple loop ([`crate::gemm::gemm_i8`]), kept
//!   as the bit-exact oracle every other backend is tested against;
//! * [`KernelEngine`] — every other backend: the [`crate::simd`] row kernel (AMX / AVX-512
//!   / AVX2 microkernels, runtime-detected, over a portable tier that is a cache-tiled
//!   scalar loop) × one **worker count**, the calling thread or scoped threads stealing
//!   contiguous row chunks through [`par_map`]. The two cells are what [`EngineKind`] names
//!   `simd` and `simd_parallel`, the latter being the default on every host (see
//!   [`EngineKind::auto`]).
//!
//! All backends produce **bit-identical** accumulators: INT32/i64 additions are associative and
//! commutative, so re-tiling and re-sharding the reduction cannot change a single bit (the
//! operand domain keeps every accumulator far from `i32` overflow, see
//! `gemm_i8_handles_saturating_range_without_overflow`).
//!
//! # Fused checksums
//!
//! ABFT compares the observed output column checksum `eᵀ·Y` with the expected checksum
//! `(eᵀ·W)·X` derived from the operands. Computed naively (as `realm-abft`'s
//! `checksum` free functions do) that is three extra full passes over `W`, `X` and `Y` after
//! the GEMM. [`GemmEngine::gemm_i8_checksummed`] instead accumulates `eᵀ·W` and `eᵀ·Y` while
//! the GEMM pass already has the data in registers/L1, and multiplies `eᵀ·W` against `B` as
//! one more row of the pass — mirroring the checksum row/column the paper adds to the
//! systolic array (Fig. 3), which also computes checksums *during* the array pass rather
//! than in a separate sweep. On the vector tiers that checksum row rides the multiply's own
//! `vpmaddwd` pair stream, and on the AMX tier its digit rows ride the tile multiply, so `B`
//! is streamed once whatever the row count (see "Fused checksums, in-register" and
//! "Packed-B kernels and the tile unit" in [`crate::simd`]); the portable tier folds it into
//! its cache-hot `B` panels. The result is a [`ChecksummedGemm`], which downstream ABFT
//! detectors consume directly instead of re-reading the matrices.
//!
//! Every GEMM of a [`KernelEngine`], whatever its shape, `B` operand or worker count, takes
//! one route into the [`crate::simd`] row kernel: a row-major `B` — attention's `QKᵀ` and
//! `SV`, recovery recomputation — runs the AVX2 register tile at every accelerated tier and
//! row count, its `n mod 16` tail columns in the same registers, except that the AMX tier
//! takes a GEMM past its crossover onto the tile unit, packed or row-major alike.

use crate::packed::PackedMatI8;
use crate::simd::{SimdKernel, SimdTier};
use crate::{gemm, MatI32, MatI8, Result, TensorError};
use std::ops::Range;
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A GEMM result bundled with the ABFT column checksums of the pass that produced it.
///
/// The *expected* side `(eᵀ·W)·X` depends only on the operands, which live in ECC-protected
/// memory in the paper's fault model, so it stays valid whatever happens to the accumulator.
/// The *observed* side `eᵀ·Y` is a property of the accumulator contents: mutating the
/// accumulator (via [`ChecksummedGemm::acc_mut`], e.g. by the error injector) marks it stale,
/// and [`ChecksummedGemm::column_deviations`] transparently recomputes it from the current
/// contents — exactly one `m × n` pass, the minimum any detector needs after an injection.
#[derive(Debug, Clone, PartialEq)]
pub struct ChecksummedGemm {
    acc: MatI32,
    expected: Vec<i64>,
    observed: Vec<i64>,
    observed_fresh: bool,
}

impl ChecksummedGemm {
    /// Bundles an accumulator with checksums computed by an engine's fused pass.
    ///
    /// # Panics
    ///
    /// Panics if either checksum length differs from the accumulator's column count.
    pub fn from_parts(acc: MatI32, expected: Vec<i64>, observed: Vec<i64>) -> Self {
        assert_eq!(
            expected.len(),
            acc.cols(),
            "expected checksum length mismatch"
        );
        assert_eq!(
            observed.len(),
            acc.cols(),
            "observed checksum length mismatch"
        );
        Self {
            acc,
            expected,
            observed,
            observed_fresh: true,
        }
    }

    /// The INT32 accumulator.
    pub fn acc(&self) -> &MatI32 {
        &self.acc
    }

    /// Mutable access to the accumulator (error injection, recovery). Marks the observed
    /// checksum stale so later deviation queries recompute it from the mutated contents.
    pub fn acc_mut(&mut self) -> &mut MatI32 {
        self.observed_fresh = false;
        &mut self.acc
    }

    /// Re-asserts that the fused observed checksum still matches the accumulator.
    ///
    /// For callers that took [`ChecksummedGemm::acc_mut`] speculatively but ended up not
    /// modifying anything (e.g. an error injector whose model drew zero faults), this
    /// restores the zero-cost deviation path. Calling it after an actual mutation makes
    /// later deviation queries silently wrong — only assert what is true.
    pub fn assume_observed_fresh(&mut self) {
        self.observed_fresh = true;
    }

    /// An empty bundle whose buffers are filled in by
    /// [`GemmEngine::gemm_i8_checksummed_into`]; the reusable-destination counterpart of
    /// [`ChecksummedGemm::from_parts`].
    pub fn empty() -> Self {
        Self {
            acc: MatI32::zeros(0, 0),
            expected: Vec::new(),
            observed: Vec::new(),
            observed_fresh: true,
        }
    }

    /// Consumes the bundle, returning `(accumulator, expected, observed)` so callers can
    /// recycle the checksum buffers into a [`crate::Workspace`] after the accumulator moves
    /// on through the conversion path.
    pub fn into_parts(self) -> (MatI32, Vec<i64>, Vec<i64>) {
        (self.acc, self.expected, self.observed)
    }

    /// The operand-side checksum `(eᵀ·W)·X`, one entry per output column.
    pub fn expected(&self) -> &[i64] {
        &self.expected
    }

    /// The output-side checksum `eᵀ·Y` of the *current* accumulator contents.
    pub fn observed(&self) -> Vec<i64> {
        if self.observed_fresh {
            self.observed.clone()
        } else {
            observed_col_sums(&self.acc)
        }
    }

    /// Per-column deviations `eᵀ·Y − (eᵀ·W)·X` of the current accumulator contents.
    ///
    /// Zero everywhere for a fault-free, unmutated GEMM.
    pub fn column_deviations(&self) -> Vec<i64> {
        let mut dev = Vec::new();
        self.column_deviations_into(&mut dev);
        dev
    }

    /// [`ChecksummedGemm::column_deviations`] into a caller-provided buffer.
    ///
    /// This is the per-inspection hot path of every protected run: with a detector-owned
    /// scratch buffer the fault-free fast case (fresh observed checksum) is a copy plus a
    /// subtraction and never touches the allocator.
    pub fn column_deviations_into(&self, out: &mut Vec<i64>) {
        if self.observed_fresh {
            out.clear();
            out.extend_from_slice(&self.observed);
        } else {
            observed_col_sums_into(&self.acc, out);
        }
        for (d, e) in out.iter_mut().zip(&self.expected) {
            *d -= e;
        }
    }

    /// Matrix-sum deviation (the sum of all column deviations), computed in place.
    pub fn msd(&self) -> i64 {
        let observed: i64 = if self.observed_fresh {
            self.observed.iter().sum()
        } else {
            self.acc.iter().map(|&v| v as i64).sum()
        };
        observed - self.expected.iter().sum::<i64>()
    }

    /// Reshapes the bundle for an `m × n` fused pass into reused storage: accumulator
    /// zeroed in place, both checksum vectors zeroed to `cols`, observed marked fresh.
    ///
    /// Every fused `gemm_i8_checksummed_into` kernel accumulates with `+=` and goes through
    /// here, so the four-field consistency invariant lives in one place.
    pub(crate) fn prepare(&mut self, rows: usize, cols: usize) {
        self.acc.resize_reset(rows, cols);
        self.expected.clear();
        self.expected.resize(cols, 0);
        self.observed.clear();
        self.observed.resize(cols, 0);
        self.observed_fresh = true;
    }

    /// Mutable views of the accumulator and checksum buffers for a fused kernel pass.
    /// Unlike [`ChecksummedGemm::acc_mut`] this does **not** mark the observed checksum
    /// stale: the fused pass establishes it together with the accumulator.
    pub(crate) fn fused_parts_mut(&mut self) -> (&mut MatI32, &mut [i64], &mut [i64]) {
        (&mut self.acc, &mut self.expected, &mut self.observed)
    }
}

/// Column sums of an INT32 matrix in `i64` (the observed checksum `eᵀ·Y`).
///
/// Shared with `realm-abft`'s two-pass `checksum` functions so the checksum definition
/// lives in exactly one place.
pub fn observed_col_sums(acc: &MatI32) -> Vec<i64> {
    let mut sums = Vec::new();
    observed_col_sums_into(acc, &mut sums);
    sums
}

/// [`observed_col_sums`] into a caller-provided buffer (cleared and resized in place).
pub fn observed_col_sums_into(acc: &MatI32, sums: &mut Vec<i64>) {
    sums.clear();
    sums.resize(acc.cols(), 0);
    for r in 0..acc.rows() {
        for (s, &v) in sums.iter_mut().zip(acc.row(r)) {
            *s += v as i64;
        }
    }
}

/// Column sums of an INT8 matrix in `i64` (the operand checksum `eᵀ·W`).
///
/// Shared with `realm-abft`'s two-pass `checksum` functions so the checksum definition
/// lives in exactly one place.
pub fn operand_col_sums(a: &MatI8) -> Vec<i64> {
    let mut sums = Vec::new();
    operand_col_sums_into(a, &mut sums);
    sums
}

/// [`operand_col_sums`] into a caller-provided buffer (cleared and resized in place).
pub fn operand_col_sums_into(a: &MatI8, sums: &mut Vec<i64>) {
    sums.clear();
    sums.resize(a.cols(), 0);
    for r in 0..a.rows() {
        for (s, &v) in sums.iter_mut().zip(a.row(r)) {
            *s += v as i64;
        }
    }
}

/// Adds the column sums of rows `rows` of `a` onto `sums` (`a.cols()` long): a row pass's
/// share of `eᵀ·W`, for the portable tier, whose tiled routine weights its panels by it.
pub(crate) fn add_operand_col_sums(a: &MatI8, rows: Range<usize>, sums: &mut [i64]) {
    for r in rows {
        for (s, &v) in sums.iter_mut().zip(a.row(r)) {
            *s += v as i64;
        }
    }
}

/// Weighted row combination `expected += Σ_p etw[p] · b[p, :]`, i.e. `(eᵀ·W)·X`.
///
/// Shared with `realm-abft`'s two-pass `checksum` functions so the checksum definition
/// lives in exactly one place.
pub fn accumulate_expected(etw: &[i64], b: &MatI8, expected: &mut [i64]) {
    accumulate_expected_panel(b, etw, expected, (0, etw.len()), (0, b.cols()));
}

/// Checksum accumulators threaded through a fused [`SimdKernel::run_rows`] pass.
///
/// Each receives the pass's rows' share of one checksum: `etw` (`a.cols()` entries, zeroed
/// on entry) the operand checksum `eᵀ·W`, computed on the way; `expected` the `(eᵀ·W)·X`
/// reduction — software's version of the extra checksum row the paper's systolic array
/// appends to `W`; `observed` `eᵀ·Y`, folded in as each output tile or panel is finalised.
/// All three are linear in the rows, so a row-sharded run gives every shard zeroed partials
/// and sums them at join.
pub(crate) struct FusedChecksums<'a> {
    pub(crate) etw: &'a mut [i64],
    pub(crate) expected: &'a mut [i64],
    pub(crate) observed: &'a mut [i64],
}

/// The `B` operand of one GEMM as the row kernel sees it.
#[derive(Clone, Copy)]
pub(crate) enum Operand<'a> {
    /// Row-major `B` (activation × activation GEMMs, recovery recomputation).
    RowMajor(&'a MatI8),
    /// A static weight matrix pre-packed into the SIMD kernels' tile order. The pack carries
    /// its row-major original, which is what the portable tier multiplies.
    Packed(&'a PackedMatI8),
}

impl<'a> Operand<'a> {
    pub(crate) fn row_major(self) -> &'a MatI8 {
        match self {
            Operand::RowMajor(b) => b,
            Operand::Packed(pb) => pb.unpacked(),
        }
    }
}

/// One panel's share of the `(eᵀ·W)·X` reduction, over the cache-hot `B` panel
/// `[pc, pc_end) × [jc, jc_end)`, in scalar `i64` against the full-height column sums
/// `etw`.
///
/// It runs where no checksum row does: the portable tier's tiled routine, the `n mod 16`
/// column tails the packed kernels hand to it, and the two-pass oracle
/// ([`accumulate_expected`]); the vector and AMX tiers ride the checksum row on their
/// multiply instead (see [`crate::simd`]). Kept out-of-line so the checksum arithmetic
/// cannot perturb register allocation in the tiled multiply.
#[inline(never)]
pub(crate) fn accumulate_expected_panel(
    b: &MatI8,
    etw: &[i64],
    expected: &mut [i64],
    (pc, pc_end): (usize, usize),
    (jc, jc_end): (usize, usize),
) {
    #[cfg(test)]
    tests::EXPECTED_PANEL_PASSES.with(|passes| passes.set(passes.get() + 1));
    for (q, &weight) in etw[pc..pc_end].iter().enumerate() {
        if weight == 0 {
            continue;
        }
        let b_seg = &b.row(pc + q)[jc..jc_end];
        for (e, &bv) in expected[jc..jc_end].iter_mut().zip(b_seg) {
            *e += weight * bv as i64;
        }
    }
}

/// An interchangeable INT8×INT8→INT32 GEMM execution backend.
///
/// All backends are bit-exact with respect to [`ReferenceEngine`] on both accumulators and
/// checksums (asserted by the differential tests in `tests/backend_parity.rs`), so any
/// engine can execute any part of the workspace — including recovery recomputation — without
/// perturbing a single experiment.
///
/// A backend implements [`GemmEngine::name`] and the two `_into` primitives, which write
/// into caller-provided storage and are what the allocation-free decode loop calls. The
/// allocating entry points, the two-pass oracle and the packed entry points are provided on
/// top of them.
pub trait GemmEngine: std::fmt::Debug + Send + Sync {
    /// Short name used in reports and benchmarks.
    fn name(&self) -> &'static str;

    /// Multiplies two INT8 matrices into the caller-provided INT32 accumulator matrix.
    ///
    /// `out` is reshaped in place, reusing its backing allocation when the capacity
    /// suffices — with a [`crate::Workspace`]-pooled accumulator the steady-state decode
    /// loop never touches the allocator.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `a.cols() != b.rows()`.
    fn gemm_i8_into(&self, a: &MatI8, b: &MatI8, out: &mut MatI32) -> Result<()>;

    /// Multiplies into a caller-provided [`ChecksummedGemm`]: the accumulator bundled with
    /// its ABFT column checksums (accumulator and both checksum vectors are reshaped in
    /// place).
    ///
    /// `etw_scratch` receives the operand checksum `eᵀ·W` (length `a.cols()`); callers on
    /// the hot path hand in a workspace-pooled buffer so the whole fused pass is
    /// allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `a.cols() != b.rows()`.
    fn gemm_i8_checksummed_into(
        &self,
        a: &MatI8,
        b: &MatI8,
        dest: &mut ChecksummedGemm,
        etw_scratch: &mut Vec<i64>,
    ) -> Result<()>;

    /// [`GemmEngine::gemm_i8_into`] into a freshly allocated accumulator.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `a.cols() != b.rows()`.
    fn gemm_i8(&self, a: &MatI8, b: &MatI8) -> Result<MatI32> {
        let mut out = MatI32::zeros(0, 0);
        self.gemm_i8_into(a, b, &mut out)?;
        Ok(out)
    }

    /// [`GemmEngine::gemm_i8_checksummed_into`] into a freshly allocated bundle.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `a.cols() != b.rows()`.
    fn gemm_i8_checksummed(&self, a: &MatI8, b: &MatI8) -> Result<ChecksummedGemm> {
        let mut dest = ChecksummedGemm::empty();
        let mut etw = Vec::new();
        self.gemm_i8_checksummed_into(a, b, &mut dest, &mut etw)?;
        Ok(dest)
    }

    /// Multiplies and derives the checksums in separate passes over `a`, `b` and the output.
    ///
    /// The oracle the fused path is differentially tested against on the *same* backend.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `a.cols() != b.rows()`.
    fn gemm_i8_checksummed_two_pass(&self, a: &MatI8, b: &MatI8) -> Result<ChecksummedGemm> {
        let acc = self.gemm_i8(a, b)?;
        let etw = operand_col_sums(a);
        let mut expected = vec![0i64; b.cols()];
        accumulate_expected(&etw, b, &mut expected);
        let observed = observed_col_sums(&acc);
        Ok(ChecksummedGemm::from_parts(acc, expected, observed))
    }

    /// [`GemmEngine::gemm_i8_into`] with a pre-packed B operand — the decode-shape fast
    /// path: `a` is the (skinny) activation matrix, `pb` a static weight matrix packed
    /// once at load time ([`PackedMatI8`]).
    ///
    /// The default implementation multiplies against the row-major original carried by
    /// the pack ([`PackedMatI8::unpacked`]); the SIMD kernels of [`KernelEngine`] stream
    /// the tiles directly. Results are always bit-identical to
    /// [`GemmEngine::gemm_i8_into`] on the unpacked matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `a.cols() != pb.rows()`.
    fn gemm_i8_packed_into(&self, a: &MatI8, pb: &PackedMatI8, out: &mut MatI32) -> Result<()> {
        self.gemm_i8_into(a, pb.unpacked(), out)
    }

    /// [`GemmEngine::gemm_i8_checksummed_into`] with a pre-packed B operand.
    ///
    /// The default implementation falls back to the unpacked fused pass (bit-exact by
    /// construction); with the vector kernels of [`KernelEngine`] the `(eᵀ·W)·X`
    /// expected-checksum reduction rides the packed tile stream in-register as a checksum
    /// row, so a checksummed GEMM streams the weights once. Checksums and accumulators are
    /// always bit-identical to the unpacked path.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `a.cols() != pb.rows()`.
    fn gemm_i8_packed_checksummed_into(
        &self,
        a: &MatI8,
        pb: &PackedMatI8,
        dest: &mut ChecksummedGemm,
        etw_scratch: &mut Vec<i64>,
    ) -> Result<()> {
        self.gemm_i8_checksummed_into(a, pb.unpacked(), dest, etw_scratch)
    }
}

/// The original scalar triple loop, kept as the bit-exact oracle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReferenceEngine;

impl GemmEngine for ReferenceEngine {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn gemm_i8_into(&self, a: &MatI8, b: &MatI8, out: &mut MatI32) -> Result<()> {
        gemm::gemm_i8_into(a, b, out)
    }

    fn gemm_i8_checksummed_into(
        &self,
        a: &MatI8,
        b: &MatI8,
        dest: &mut ChecksummedGemm,
        etw_scratch: &mut Vec<i64>,
    ) -> Result<()> {
        // The reference backend computes the checksums in separate (oracle) passes, all
        // into caller-provided storage: this is the backend the zero-allocation decode
        // test pins down.
        gemm::gemm_i8_into(a, b, &mut dest.acc)?;
        operand_col_sums_into(a, etw_scratch);
        dest.expected.clear();
        dest.expected.resize(b.cols(), 0);
        accumulate_expected(etw_scratch, b, &mut dest.expected);
        observed_col_sums_into(&dest.acc, &mut dest.observed);
        dest.observed_fresh = true;
        Ok(())
    }
}

/// MAC count below which a pooled [`KernelEngine`] runs its kernel inline: thread spawn and
/// join overhead would dominate the decode-stage GEMV-like shapes.
pub const PARALLEL_MIN_MACS: usize = 1 << 18;

/// Stealable chunks carved per worker: finer than one-chunk-per-worker so a worker that
/// lands on cheap rows (zero-skip makes row cost data-dependent) claims more chunks instead
/// of idling while a statically assigned contiguous band finishes elsewhere.
pub const CHUNKS_PER_WORKER: usize = 4;

/// Cores available to this process, resolved once: `available_parallelism` re-reads cgroup
/// limits from the filesystem on every call on Linux — tens of microseconds, i.e. longer
/// than an entire decode-shape GEMM — and the process's CPU budget does not change mid-run.
pub fn available_cores() -> usize {
    static AVAILABLE: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *AVAILABLE.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Effective worker count for a row-sharded GEMM: `threads` if pinned, else one per
/// available core — always clamped to the row count.
fn worker_count(threads: Option<usize>, rows: usize) -> usize {
    let hw = threads.unwrap_or_else(available_cores);
    hw.max(1).min(rows.max(1))
}

/// Maps `f` over the indices `0..n` on at most `workers` scoped threads and returns the
/// results in index order — the workspace's one work-stealing loop, under the sharded GEMM
/// and every Monte-Carlo campaign alike.
///
/// Workers claim the next index off a shared atomic counter, so a run of expensive items
/// (recovery-heavy trials, dense row chunks under zero-skip) is spread over every worker
/// instead of pinning whichever one a static split would have handed them to. With one
/// worker (or at most one item) `f` runs on the calling thread. A panic inside `f` is
/// re-raised on the calling thread once the other workers have drained the counter.
///
/// # Example
///
/// ```
/// let squares = realm_tensor::engine::par_map(3, 5, |i| i * i);
/// assert_eq!(squares, [0, 1, 4, 9, 16]);
/// ```
pub fn par_map<T, F>(workers: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let (next, f) = (&next, &f);
    let mut claimed: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        // Relaxed: the counter only hands out indices; results are
                        // published by the join.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break mine;
                        }
                        mine.push((i, f(i)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    claimed.sort_unstable_by_key(|&(i, _)| i);
    claimed.into_iter().map(|(_, value)| value).collect()
}

/// Where a [`KernelEngine`] runs its row kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workers {
    /// On the calling thread.
    Inline,
    /// On scoped threads stealing row chunks: the pinned count, or one per available core.
    Pool(Option<usize>),
}

/// Every backend but the oracle: the SIMD row kernel × one worker count.
///
/// The **kernel** is the [`crate::simd`] microkernel ([`KernelEngine::simd`]) — on hosts
/// without AVX2, and under `REALM_FORCE_SCALAR`, its portable tier, the cache-tiled scalar
/// loop; its instruction-set tier is decided once at construction and carried by the engine
/// value, so the per-GEMM hot path never re-reads the environment or CPUID. The **workers** are the calling thread (the
/// default) or a work-stealing pool ([`KernelEngine::pooled`],
/// [`KernelEngine::with_workers`]): the output rows are carved into [`CHUNKS_PER_WORKER`]×
/// more contiguous chunks than there are workers, and workers claim them through
/// [`par_map`] until none remain. On uniform operands this costs nothing over static
/// contiguous bands; on skewed operands (e.g. activation matrices whose top rows are dense
/// and bottom rows mostly zero, where the kernels' zero-skip makes row cost wildly uneven)
/// it keeps every core busy to the end. GEMMs below [`PARALLEL_MIN_MACS`] run inline on
/// the calling thread whatever the worker count, so GEMV-like decode shapes stay on the
/// allocation-free single-thread path.
///
/// Rows of the output are independent, and the checksum reductions are exact integer sums,
/// so neither the kernel nor the sharding changes anything: accumulators and checksums are
/// bit-identical to [`ReferenceEngine`] regardless of which worker claims which chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelEngine {
    kernel: SimdKernel,
    workers: Workers,
}

impl KernelEngine {
    /// The SIMD microkernel at the best tier the host supports (runtime detection), on the
    /// calling thread.
    pub fn simd() -> Self {
        Self::simd_with_tier(SimdTier::detect())
    }

    /// The SIMD microkernel pinned to at most `tier`, clamped to what the host supports — a
    /// request for [`SimdTier::Avx512`] on an AVX2-only host yields the AVX2 tier, and so
    /// on down to [`SimdTier::Portable`], which every host grants. This is how the
    /// differential tests exercise every supported tier explicitly.
    pub fn simd_with_tier(tier: SimdTier) -> Self {
        Self {
            kernel: SimdKernel::with_tier(tier),
            workers: Workers::Inline,
        }
    }

    /// The same kernel over a work-stealing pool of one worker per available core.
    pub fn pooled(self) -> Self {
        Self {
            workers: Workers::Pool(None),
            ..self
        }
    }

    /// The same kernel over a work-stealing pool of exactly `workers` threads (clamped to
    /// at least 1).
    pub fn with_workers(self, workers: usize) -> Self {
        Self {
            workers: Workers::Pool(Some(workers.max(1))),
            ..self
        }
    }

    /// Workers a GEMM of `m × k × n` runs on: 1 (the calling thread) unless the engine is
    /// pooled and the GEMM is big enough to shard.
    fn workers_for(&self, m: usize, k: usize, n: usize) -> usize {
        match self.workers {
            Workers::Pool(threads) if m * k * n >= PARALLEL_MIN_MACS => worker_count(threads, m),
            _ => 1,
        }
    }

    /// The one orchestration routine: runs the kernel over all of `a × b` into `out`
    /// (already shaped and zeroed), inline or across stolen row chunks, with the checksum
    /// reductions fused into the pass when `fused` is present. Every GEMM of the engine,
    /// whatever its shape or `B` operand, goes through here.
    ///
    /// When sharded, the rows are carved into [`CHUNKS_PER_WORKER`]× more contiguous chunks
    /// than there are workers and claimed through [`par_map`]. Every chunk reduces its rows'
    /// share of all three checksums into zeroed partials of its own — the chunk's `eᵀ·W`
    /// must be its rows' alone, since the tiled routine weights `B` by it — and the partials
    /// are summed at join (integer sums: bit-identical to one inline pass, whoever claims
    /// which chunk). The partials allocate inside the scoped threads — caller-provided
    /// scratch cannot cross the spawn — but that path only runs for GEMMs big enough to
    /// shard, never the GEMV-like decode shapes the allocation-free loop cares about.
    fn run(&self, a: &MatI8, b: Operand<'_>, out: &mut MatI32, fused: Option<FusedChecksums<'_>>) {
        let (m, k) = a.shape();
        let n = out.cols();
        let kernel = &self.kernel;
        let workers = self.workers_for(m, k, n);
        if workers <= 1 {
            kernel.run_rows(a, b, out.as_mut_slice(), 0, m, fused);
            return;
        }
        let chunk_rows = m.div_ceil(workers * CHUNKS_PER_WORKER);
        // Each chunk's band of the output behind a `Mutex` slot, so that whichever worker
        // claims the chunk's index takes ownership of it (once, uncontended).
        let bands: Vec<_> = out
            .as_mut_slice()
            .chunks_mut(chunk_rows * n)
            .map(|band| Mutex::new(Some(band)))
            .collect();
        let checksummed = fused.is_some();
        let partials = par_map(workers, bands.len(), |i| {
            let band = bands[i]
                .lock()
                .expect("band slot poisoned")
                .take()
                .expect("each chunk index is claimed exactly once");
            let mut partial = checksummed.then(|| [vec![0; k], vec![0; n], vec![0; n]]);
            let fused = partial
                .as_mut()
                .map(|[etw, expected, observed]| FusedChecksums {
                    etw,
                    expected,
                    observed,
                });
            let start = i * chunk_rows;
            kernel.run_rows(a, b, band, start, (start + chunk_rows).min(m), fused);
            partial
        });
        if let Some(FusedChecksums {
            etw,
            expected,
            observed,
        }) = fused
        {
            for partial in partials.into_iter().flatten() {
                for (sums, partial) in [&mut *etw, &mut *expected, &mut *observed]
                    .into_iter()
                    .zip(partial)
                {
                    for (acc, v) in sums.iter_mut().zip(partial) {
                        *acc += v;
                    }
                }
            }
        }
    }

    fn gemm_into(
        &self,
        op: &'static str,
        a: &MatI8,
        b: Operand<'_>,
        out: &mut MatI32,
    ) -> Result<()> {
        let b_shape = b.row_major().shape();
        gemm::check_compatible(op, a.shape(), b_shape)?;
        out.resize_reset(a.rows(), b_shape.1);
        self.run(a, b, out, None);
        Ok(())
    }

    /// The checksummed GEMM: all three reductions — `eᵀ·W` into `etw_scratch`, `(eᵀ·W)·X`
    /// and `eᵀ·Y` — ride the kernel pass itself.
    fn checksummed_into(
        &self,
        op: &'static str,
        a: &MatI8,
        b: Operand<'_>,
        dest: &mut ChecksummedGemm,
        etw_scratch: &mut Vec<i64>,
    ) -> Result<()> {
        let b_shape = b.row_major().shape();
        gemm::check_compatible(op, a.shape(), b_shape)?;
        etw_scratch.clear();
        etw_scratch.resize(a.cols(), 0);
        dest.prepare(a.rows(), b_shape.1);
        let (acc, expected, observed) = dest.fused_parts_mut();
        let fused = FusedChecksums {
            etw: etw_scratch,
            expected,
            observed,
        };
        self.run(a, b, acc, Some(fused));
        Ok(())
    }
}

impl GemmEngine for KernelEngine {
    fn name(&self) -> &'static str {
        match self.workers {
            Workers::Inline => "simd",
            Workers::Pool(_) => "simd_parallel",
        }
    }

    fn gemm_i8_into(&self, a: &MatI8, b: &MatI8, out: &mut MatI32) -> Result<()> {
        self.gemm_into("gemm_i8", a, Operand::RowMajor(b), out)
    }

    fn gemm_i8_checksummed_into(
        &self,
        a: &MatI8,
        b: &MatI8,
        dest: &mut ChecksummedGemm,
        etw_scratch: &mut Vec<i64>,
    ) -> Result<()> {
        let b = Operand::RowMajor(b);
        self.checksummed_into("gemm_i8_checksummed", a, b, dest, etw_scratch)
    }

    fn gemm_i8_packed_into(&self, a: &MatI8, pb: &PackedMatI8, out: &mut MatI32) -> Result<()> {
        self.gemm_into("gemm_i8_packed", a, Operand::Packed(pb), out)
    }

    fn gemm_i8_packed_checksummed_into(
        &self,
        a: &MatI8,
        pb: &PackedMatI8,
        dest: &mut ChecksummedGemm,
        etw_scratch: &mut Vec<i64>,
    ) -> Result<()> {
        let b = Operand::Packed(pb);
        self.checksummed_into("gemm_i8_packed_checksummed", a, b, dest, etw_scratch)
    }
}

/// Selector for a GEMM backend, carried by model and pipeline configurations.
///
/// `Default` resolves to [`EngineKind::auto`], the SIMD kernel sharded over work-stealing
/// chunks — so configurations that never mention an engine ride the fastest bit-exact
/// backend available.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The scalar oracle loop.
    Reference,
    /// The SIMD kernel on the calling thread: the best tier the host grants (AVX-512 /
    /// AVX2 microkernels, else the portable tier's cache-tiled scalar loop).
    Simd,
    /// The SIMD kernel sharded over work-stealing row chunks (the workspace default, see
    /// [`EngineKind::auto`]).
    SimdParallel,
}

impl EngineKind {
    /// All selectable backends, in oracle → fastest order.
    pub const ALL: [EngineKind; 3] = [
        EngineKind::Reference,
        EngineKind::Simd,
        EngineKind::SimdParallel,
    ];

    /// Accepted names for [`EngineKind::from_str`], quoted in its error message.
    pub const NAMES: &'static str =
        "reference (alias: ref), simd, simd_parallel (alias: simd-parallel)";

    /// The best backend for the host: [`EngineKind::SimdParallel`] on every host — without
    /// AVX2 its kernel is the portable tier, the cache-tiled scalar loop. This is what every
    /// default configuration resolves to.
    pub fn auto() -> EngineKind {
        EngineKind::SimdParallel
    }

    /// Instantiates the backend with its default parameters.
    pub fn build(self) -> Arc<dyn GemmEngine> {
        match self {
            EngineKind::Reference => Arc::new(ReferenceEngine),
            EngineKind::Simd => Arc::new(KernelEngine::simd()),
            EngineKind::SimdParallel => Arc::new(KernelEngine::simd().pooled()),
        }
    }

    /// Short label matching [`GemmEngine::name`].
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Reference => "reference",
            EngineKind::Simd => "simd",
            EngineKind::SimdParallel => "simd_parallel",
        }
    }
}

impl Default for EngineKind {
    fn default() -> Self {
        Self::auto()
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for EngineKind {
    type Err = TensorError;

    fn from_str(s: &str) -> Result<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "reference" | "ref" => Ok(EngineKind::Reference),
            "simd" => Ok(EngineKind::Simd),
            "simd_parallel" | "simd-parallel" => Ok(EngineKind::SimdParallel),
            other => Err(TensorError::InvalidDimension {
                op: "EngineKind::from_str",
                detail: format!(
                    "unknown GEMM backend '{other}' (expected one of: {})",
                    EngineKind::NAMES
                ),
            }),
        }
    }
}

/// The process-wide default engine — [`EngineKind::auto`], i.e. the SIMD parallel backend
/// — shared so that hot paths do not rebuild thread metadata per call.
pub fn default_engine() -> Arc<dyn GemmEngine> {
    static DEFAULT: std::sync::OnceLock<Arc<dyn GemmEngine>> = std::sync::OnceLock::new();
    DEFAULT.get_or_init(|| EngineKind::auto().build()).clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;
    use rand::Rng;
    use std::cell::Cell;

    thread_local! {
        /// Calls of [`accumulate_expected_panel`] — the separate `i64` pass over `B` —
        /// made by this thread.
        pub(super) static EXPECTED_PANEL_PASSES: Cell<usize> = const { Cell::new(0) };
    }

    fn random_pair(seed: u64, m: usize, k: usize, n: usize) -> (MatI8, MatI8) {
        let mut r = rng::seeded(seed);
        let a = MatI8::from_fn(m, k, |_, _| r.gen_range(-128i16..=127) as i8);
        let b = MatI8::from_fn(k, n, |_, _| r.gen_range(-128i16..=127) as i8);
        (a, b)
    }

    fn engines() -> Vec<Arc<dyn GemmEngine>> {
        let portable = KernelEngine::simd_with_tier(SimdTier::Portable);
        vec![
            Arc::new(ReferenceEngine),
            Arc::new(portable),
            Arc::new(portable.pooled()),
            Arc::new(portable.with_workers(3)),
            Arc::new(KernelEngine::simd()),
            Arc::new(KernelEngine::simd().pooled()),
            Arc::new(KernelEngine::simd().with_workers(3)),
        ]
    }

    #[test]
    fn all_backends_match_reference_accumulators() {
        for (seed, (m, k, n)) in
            [(1, (7, 9, 11)), (2, (16, 64, 32)), (3, (70, 65, 130))].into_iter()
        {
            let (a, b) = random_pair(seed, m, k, n);
            let oracle = ReferenceEngine.gemm_i8(&a, &b).unwrap();
            for engine in engines() {
                assert_eq!(
                    engine.gemm_i8(&a, &b).unwrap(),
                    oracle,
                    "backend {} diverged on {m}x{k}x{n}",
                    engine.name()
                );
            }
        }
    }

    #[test]
    fn fused_checksums_match_two_pass_checksums() {
        let (a, b) = random_pair(11, 33, 47, 29);
        for engine in engines() {
            let fused = engine.gemm_i8_checksummed(&a, &b).unwrap();
            let two_pass = engine.gemm_i8_checksummed_two_pass(&a, &b).unwrap();
            assert_eq!(fused.acc(), two_pass.acc(), "{}", engine.name());
            assert_eq!(fused.expected(), two_pass.expected(), "{}", engine.name());
            assert_eq!(fused.observed(), two_pass.observed(), "{}", engine.name());
            assert!(fused.column_deviations().iter().all(|&d| d == 0));
            assert_eq!(fused.msd(), 0);
        }
    }

    /// A backend written against the trait's contract alone: `name` and the two `_into`
    /// primitives (here borrowed from the portable tier), nothing else.
    #[derive(Debug)]
    struct PrimitivesOnly;

    impl GemmEngine for PrimitivesOnly {
        fn name(&self) -> &'static str {
            "primitives_only"
        }

        fn gemm_i8_into(&self, a: &MatI8, b: &MatI8, out: &mut MatI32) -> Result<()> {
            KernelEngine::simd_with_tier(SimdTier::Portable).gemm_i8_into(a, b, out)
        }

        fn gemm_i8_checksummed_into(
            &self,
            a: &MatI8,
            b: &MatI8,
            dest: &mut ChecksummedGemm,
            etw_scratch: &mut Vec<i64>,
        ) -> Result<()> {
            KernelEngine::simd_with_tier(SimdTier::Portable).gemm_i8_checksummed_into(
                a,
                b,
                dest,
                etw_scratch,
            )
        }
    }

    #[test]
    fn provided_entry_points_follow_from_the_two_into_primitives() {
        let (a, b) = random_pair(21, 5, 37, 19);
        let pb = PackedMatI8::pack(&b);
        let oracle = ReferenceEngine
            .gemm_i8_checksummed_two_pass(&a, &b)
            .unwrap();
        let engine = PrimitivesOnly;
        assert_eq!(engine.gemm_i8(&a, &b).unwrap(), *oracle.acc());
        assert_eq!(engine.gemm_i8_checksummed(&a, &b).unwrap(), oracle);
        assert_eq!(engine.gemm_i8_checksummed_two_pass(&a, &b).unwrap(), oracle);
        let mut out = MatI32::zeros(0, 0);
        engine.gemm_i8_packed_into(&a, &pb, &mut out).unwrap();
        assert_eq!(&out, oracle.acc());
        let mut dest = ChecksummedGemm::empty();
        let mut etw = Vec::new();
        engine
            .gemm_i8_packed_checksummed_into(&a, &pb, &mut dest, &mut etw)
            .unwrap();
        assert_eq!(dest, oracle);
    }

    #[test]
    fn checksum_row_leaves_no_separate_expected_pass_at_accelerated_tiers() {
        // This thread's calls of the scalar expected pass and of the tiled routine.
        let passes = || {
            let expected = EXPECTED_PANEL_PASSES.with(Cell::get);
            (expected, crate::simd::TILED_PASSES.with(Cell::get))
        };
        for tier in SimdTier::ALL {
            let accelerated = tier.min(SimdTier::detect()) >= SimdTier::Avx2;
            let engine = KernelEngine::simd_with_tier(tier);
            // The counters are per thread, so every GEMM here runs inline: pooled engines
            // only below the sharding threshold.
            let pooled = engine.pooled();
            for m in [1, 2, 3, 4, 5, 12, 128, 256, 257, 300] {
                for k in [32, 33] {
                    // Whole blocks (n mod 16 = 0) for both operands, and a ragged row-major
                    // `B`, whose tail columns the row-major tile (or the tile unit) keeps in
                    // its registers. (A packed tail off the AMX route is the tiled routine's,
                    // and so is its panel pass.)
                    let seed = (m * 100 + k) as u64;
                    let (a, b) = random_pair(seed, m, k, 48);
                    let pb = PackedMatI8::pack(&b);
                    let ragged = random_pair(seed, m, k, 50).1;
                    let mut engines = vec![engine];
                    if m * k * ragged.cols() < PARALLEL_MIN_MACS {
                        engines.push(pooled);
                    }
                    for engine in engines {
                        let (mut dest, mut etw) = (ChecksummedGemm::empty(), Vec::new());
                        let mut out = MatI32::zeros(0, 0);
                        let before = passes();
                        engine
                            .gemm_i8_checksummed_into(&a, &b, &mut dest, &mut etw)
                            .unwrap();
                        engine
                            .gemm_i8_packed_checksummed_into(&a, &pb, &mut dest, &mut etw)
                            .unwrap();
                        engine
                            .gemm_i8_checksummed_into(&a, &ragged, &mut dest, &mut etw)
                            .unwrap();
                        engine.gemm_i8_into(&a, &ragged, &mut out).unwrap();
                        let (expected, tiled) = passes();
                        let separate = (expected - before.0, tiled - before.1);
                        if accelerated {
                            assert_eq!(separate, (0, 0), "{tier:?}: {m}x{k} left the tile");
                        } else {
                            assert!(separate.0 > 0, "{tier:?}: {m}x{k} is the panel pass's");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn amx_route_starts_at_the_crossover_and_hands_no_column_to_tiled() {
        if SimdTier::detect() < SimdTier::Amx {
            return; // no tile unit on this host
        }
        // This thread's calls of the AMX kernel and of the tiled routine.
        let passes = || {
            let amx = crate::simd::AMX_PASSES.with(Cell::get);
            (amx, crate::simd::TILED_PASSES.with(Cell::get))
        };
        let engine = KernelEngine::simd_with_tier(SimdTier::Amx);
        // (m, k, n, on the tile unit): the crossover 32 × 32 × 32 and one row below it, a
        // decode-sized GEMM, then partial final blocks and a 128-row prefill chunk's score
        // and context shapes over a resident length that leaves a tail.
        for (m, k, n, amx) in [
            (32, 32, 32, true),
            (31, 32, 32, false),
            (3, 32, 16, false),
            (33, 65, 17, true),
            (128, 32, 130, true),
            (128, 130, 32, true),
            (130, 224, 33, true),
        ] {
            let (a, b) = random_pair((m * k + n) as u64, m, k, n);
            let pb = PackedMatI8::pack(&b);
            for (kind, packed) in [("row-major", false), ("packed", true)] {
                let (mut out, mut dest, mut etw) =
                    (MatI32::zeros(0, 0), ChecksummedGemm::empty(), Vec::new());
                let before = passes();
                if packed {
                    engine.gemm_i8_packed_into(&a, &pb, &mut out).unwrap();
                    engine
                        .gemm_i8_packed_checksummed_into(&a, &pb, &mut dest, &mut etw)
                        .unwrap();
                } else {
                    engine.gemm_i8_into(&a, &b, &mut out).unwrap();
                    engine
                        .gemm_i8_checksummed_into(&a, &b, &mut dest, &mut etw)
                        .unwrap();
                }
                let (amx_calls, tiled) = (passes().0 - before.0, passes().1 - before.1);
                let label = format!("{kind} {m}x{k}x{n}");
                assert_eq!(
                    amx_calls,
                    if amx { 2 } else { 0 },
                    "{label} took the tile unit"
                );
                // Below the crossover a row-major `B` runs the AVX2 tile, every column in its
                // registers; on the tile unit no operand leaves a column to `tiled`.
                if amx || !packed {
                    assert_eq!(tiled, 0, "{label} called the tiled routine");
                }
                let oracle = ReferenceEngine.gemm_i8_checksummed(&a, &b).unwrap();
                assert_eq!(&out, oracle.acc(), "{label}");
                assert_eq!(dest, oracle, "{label}");
            }
        }
        // The rule reads a pass's own rows: a pooled engine's thin row chunk of a GEMM past
        // the crossover stays off the tile unit (and repacks no `B`).
        let (a, b) = random_pair(7, 32, 32, 32);
        let kernel = SimdKernel::with_tier(SimdTier::Amx);
        for (chunk, amx) in [(0..2, 0), (0..32, 1)] {
            let mut band = vec![0; chunk.len() * 32];
            let before = passes();
            kernel.run_rows(
                &a,
                Operand::RowMajor(&b),
                &mut band,
                chunk.start,
                chunk.end,
                None,
            );
            assert_eq!(passes().0 - before.0, amx, "rows {chunk:?} of 32x32x32");
        }
    }

    #[test]
    fn msd_is_the_sum_of_the_column_deviations_fresh_or_stale() {
        let (a, b) = random_pair(6, 3, 9, 21);
        let mut result = KernelEngine::simd().gemm_i8_checksummed(&a, &b).unwrap();
        assert_eq!(result.msd(), 0);
        result.acc_mut()[(1, 4)] -= 77;
        result.acc_mut()[(2, 20)] += 1 << 20;
        assert_eq!(result.msd(), (1 << 20) - 77);
        assert_eq!(result.msd(), result.column_deviations().iter().sum::<i64>());
        // A fresh bundle whose observed side disagrees (a faulty checksum unit).
        let (acc, expected, mut observed) = result.into_parts();
        observed[0] += 5;
        let fresh = ChecksummedGemm::from_parts(acc, expected, observed);
        assert_eq!(
            fresh.msd(),
            fresh.column_deviations().iter().sum::<i64>(),
            "fresh bundles read the stored observed checksum"
        );
    }

    #[test]
    fn mutation_marks_observed_stale_and_deviations_track_it() {
        let (a, b) = random_pair(5, 8, 8, 8);
        let mut result = KernelEngine::simd_with_tier(SimdTier::Portable)
            .gemm_i8_checksummed(&a, &b)
            .unwrap();
        assert!(result.column_deviations().iter().all(|&d| d == 0));
        result.acc_mut()[(2, 3)] = result.acc()[(2, 3)].wrapping_add(1 << 20);
        let dev = result.column_deviations();
        assert_eq!(dev[3], 1 << 20);
        assert!(dev.iter().enumerate().all(|(j, &d)| j == 3 || d == 0));
        assert_eq!(result.msd(), 1 << 20);
    }

    #[test]
    fn shape_mismatch_is_rejected_by_every_backend() {
        let a = MatI8::zeros(2, 3);
        let b = MatI8::zeros(4, 2);
        for engine in engines() {
            assert!(engine.gemm_i8(&a, &b).is_err(), "{}", engine.name());
            assert!(
                engine.gemm_i8_checksummed(&a, &b).is_err(),
                "{}",
                engine.name()
            );
        }
    }

    #[test]
    fn ragged_and_degenerate_shapes_are_bit_exact() {
        for (m, k, n) in [(1, 1, 1), (1, 17, 1), (5, 1, 7), (1, 300, 513), (257, 3, 1)] {
            let (a, b) = random_pair((m * 1000 + k * 10 + n) as u64, m, k, n);
            let oracle = ReferenceEngine
                .gemm_i8_checksummed_two_pass(&a, &b)
                .unwrap();
            for engine in engines() {
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
            }
        }
    }

    #[test]
    fn work_stealing_is_bit_exact_on_skewed_operands() {
        // Top rows dense, bottom rows almost entirely zero: with zero-skip the per-row cost
        // is wildly uneven, which is exactly the shape static contiguous bands idle on. The
        // stolen chunks must still reproduce the oracle bit-for-bit, checksums included.
        let mut r = rng::seeded(99);
        let m = 192;
        let k = 96;
        let n = 64;
        let a = MatI8::from_fn(m, k, |row, _| {
            if row < m / 4 || r.gen_range(0..100) == 0 {
                r.gen_range(-128i16..=127) as i8
            } else {
                0
            }
        });
        let b = MatI8::from_fn(k, n, |_, _| r.gen_range(-128i16..=127) as i8);
        let oracle = ReferenceEngine
            .gemm_i8_checksummed_two_pass(&a, &b)
            .unwrap();
        for threads in [1, 2, 3, 7, 64] {
            let engine = KernelEngine::simd_with_tier(SimdTier::Portable).with_workers(threads);
            assert_eq!(
                engine.gemm_i8(&a, &b).unwrap(),
                *oracle.acc(),
                "{threads} threads"
            );
            let fused = engine.gemm_i8_checksummed(&a, &b).unwrap();
            assert_eq!(fused.acc(), oracle.acc(), "{threads} threads");
            assert_eq!(fused.expected(), oracle.expected(), "{threads} threads");
            assert_eq!(fused.observed(), oracle.observed(), "{threads} threads");
        }
    }

    #[test]
    fn par_map_visits_every_index_once_and_keeps_index_order() {
        for (workers, n) in [(1, 5), (3, 0), (3, 1), (3, 2), (3, 4), (4, 257)] {
            let visits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let out = par_map(workers, n, |i| {
                visits[i].fetch_add(1, Ordering::Relaxed);
                3 * i
            });
            assert_eq!(
                out,
                (0..n).map(|i| 3 * i).collect::<Vec<_>>(),
                "{workers} workers, n = {n}"
            );
            assert!(
                visits.iter().all(|v| v.load(Ordering::Relaxed) == 1),
                "{workers} workers, n = {n}: every index is claimed exactly once"
            );
        }
    }

    #[test]
    #[should_panic(expected = "item 5 exploded")]
    fn a_panicking_item_panics_the_caller() {
        let _ = par_map(3, 64, |i| {
            assert_ne!(i, 5, "item 5 exploded");
            i
        });
    }

    #[test]
    fn engine_kind_round_trips_and_builds() {
        for kind in EngineKind::ALL {
            assert_eq!(kind.label().parse::<EngineKind>().unwrap(), kind);
            assert_eq!(kind.build().name(), kind.label());
        }
        assert_eq!("ref".parse::<EngineKind>().unwrap(), EngineKind::Reference);
        assert_eq!("simd".parse::<EngineKind>().unwrap(), EngineKind::Simd);
        assert_eq!(
            "simd-parallel".parse::<EngineKind>().unwrap(),
            EngineKind::SimdParallel
        );
        let err = "systolic".parse::<EngineKind>().unwrap_err().to_string();
        for name in ["reference", "simd", "simd_parallel"] {
            assert!(err.contains(name), "error must list '{name}': {err}");
        }
        assert_eq!(EngineKind::default(), EngineKind::SimdParallel);
        assert_eq!(default_engine().name(), EngineKind::auto().label());
    }
}
