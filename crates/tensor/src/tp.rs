//! Simulated tensor parallelism as fault domains: column-sharded static-weight GEMMs,
//! a checksum segment per shard, per-shard attribution and cross-shard failover.
//!
//! Real tensor-parallel inference splits every weight matrix column-wise across devices.
//! What this reproduction keeps of that is FailSafe's failure model (see PAPERS.md): a
//! shard is a unit of failure — a device can die mid-step or silently corrupt its stripe —
//! that serving must survive without the request noticing.
//!
//! [`TpGroup`] is a [`GemmEngine`] wrapping the model's engine. Every packed
//! (static-weight) GEMM is one **dispatch**:
//!
//! 1. **Compute.** The inner engine computes the whole product. Column sharding is exact
//!    by construction: every output element `Y[i, j]` is a full-depth dot product, and the
//!    fused ABFT checksums `expected[j] = (eᵀ·X)·W[:, j]` and `observed[j] = eᵀ·Y[:, j]`
//!    are per-column quantities, so the concatenated stripes *are* the unsharded
//!    [`ChecksummedGemm`]. The inner engine's own workers already split the rows.
//! 2. **Fault overlay.** Every non-empty stripe ([`shard_cols`]) is charged a job, and
//!    the armed [`ShardFault`]s are applied stripe by stripe: a **killed** shard delivered
//!    nothing, so its stripe is zeroed; a **corrupted** stripe is re-reduced and caught by
//!    its own checksum segment (`observed != expected` over the stripe's columns).
//! 3. **Failover.** If any stripe failed, the inner engine recomputes the layer's GEMM once
//!    into the group's resident scratch, and only the failed stripes' accumulator columns
//!    are copied back, their observed segments re-reduced (no fault touches an expected
//!    segment: it comes from the operands). The caller never observes the loss.
//!
//! Activation × activation GEMMs (attention's `QKᵀ`/`SV`) are not sharded and pass
//! straight through. Every event is charged to per-shard [`TpShardStats`], surfaced
//! through the serving layer's `EngineStats`. The differential suite `tests/tp_parity.rs`
//! pins bit-exactness across every engine and ragged shard widths.
//!
//! # Cost model
//!
//! A fault-free dispatch costs the unsharded GEMM plus one uncontended lock and a counter
//! per stripe, so a sharded model runs as fast as an unsharded one. A failover costs one
//! whole-layer GEMM, not a `1/degree` stripe: the stripes are fault domains, not units of
//! execution.
//!
//! The group's one mutex guards counters, armed faults and failover scratch that the next
//! failover overwrites, so a panic inside the inner engine unwinds on the caller's thread
//! and leaves the group usable: the lock it held is taken over as it is.

use crate::engine::{ChecksummedGemm, GemmEngine};
use crate::packed::PackedMatI8;
use crate::{MatI32, MatI8, Result};
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Balanced contiguous column partition of `cols` output columns over `degree` shards.
///
/// The first `cols % degree` shards receive one extra column, so ragged widths (not
/// divisible by the degree) are supported with a worst-case imbalance of one column.
/// Shards beyond `cols` (degree larger than the width) receive empty ranges.
pub fn shard_cols(cols: usize, degree: usize) -> Vec<Range<usize>> {
    assert!(degree >= 1, "shard_cols requires degree >= 1");
    (0..degree).map(|r| shard_range(cols, degree, r)).collect()
}

/// Shard `r`'s entry of [`shard_cols`], without building the partition.
fn shard_range(cols: usize, degree: usize, r: usize) -> Range<usize> {
    let (base, extra) = (cols / degree, cols % degree);
    let start = r * base + r.min(extra);
    start..start + base + usize::from(r < extra)
}

/// Per-shard reliability counters maintained by a [`TpGroup`].
///
/// `jobs` counts the dispatches that charged the shard a non-empty stripe; `kills`
/// counts dispatches the shard was down for; `detections` counts corruptions flagged by
/// the shard's own checksum segment; `failovers` counts recoveries of either kind (the
/// shard's columns recomputed while the request kept going).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TpShardStats {
    /// Sharded GEMMs executed on behalf of this shard.
    pub jobs: u64,
    /// Dispatches this shard was killed for (the whole-shard fault scenario).
    pub kills: u64,
    /// Corruptions of this shard's output flagged by its checksum segment.
    pub detections: u64,
    /// Recoveries: the shard's columns recomputed without failing the request.
    pub failovers: u64,
}

impl TpShardStats {
    /// Accumulates `other` into `self` (used to fold per-shard stats into group totals).
    pub fn merge(&mut self, other: &TpShardStats) {
        self.jobs += other.jobs;
        self.kills += other.kills;
        self.detections += other.detections;
        self.failovers += other.failovers;
    }
}

/// A whole-shard fault scenario, armed via [`TpGroup::inject_shard_fault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardFault {
    /// The rank is down: it delivers nothing for the armed dispatches, so its stripe is
    /// zeroed and then recomputed by failover — detection is by construction (the rank is
    /// known-dead), not by checksum.
    Kill,
    /// The shard's output stripe is zeroed after compute, as if the device returned an
    /// empty result. Caught by the shard's checksum segment on the fused path whenever
    /// the stripe's column sums were nonzero.
    Zero,
    /// One element of the shard's output stripe gets a high bit flipped (deterministic
    /// in `seed` and the dispatch counter), modelling a silent datapath corruption.
    /// Always caught by the shard's checksum segment on the fused path.
    Garble {
        /// Seed for the deterministic choice of victim element and bit.
        seed: u64,
    },
}

/// A fault armed on one shard for a bounded number of dispatches.
#[derive(Debug, Clone, Copy)]
struct ArmedFault {
    fault: ShardFault,
    steps_left: usize,
}

/// Everything a dispatch mutates, behind the group's one mutex.
#[derive(Debug)]
struct TpState {
    faults: Vec<Option<ArmedFault>>,
    stats: Vec<TpShardStats>,
    /// Monotonic dispatch counter, folded into the garble victim choice.
    dispatches: u64,
    /// The failover recompute's accumulator: grown on the first failover, reused after.
    scratch: MatI32,
}

/// A tensor-parallel group of `degree` simulated shards over the model's engine.
///
/// Created once per model (see `realm-llm`'s `ModelConfig::tp_degree`) and installed as
/// the model's [`GemmEngine`]: every static-weight GEMM the model runs is a dispatch.
#[derive(Debug)]
pub struct TpGroup {
    inner: Arc<dyn GemmEngine>,
    state: Mutex<TpState>,
    degree: usize,
}

impl TpGroup {
    /// A group of `degree` shards whose dispatches compute, and fail over, on `engine`.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is zero.
    pub fn new(degree: usize, engine: Arc<dyn GemmEngine>) -> Self {
        assert!(degree >= 1, "a TP group needs at least one rank");
        Self {
            inner: engine,
            state: Mutex::new(TpState {
                faults: vec![None; degree],
                stats: vec![TpShardStats::default(); degree],
                dispatches: 0,
                scratch: MatI32::zeros(0, 0),
            }),
            degree,
        }
    }

    /// Number of ranks (shards) in the group.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// The group's state. Every field is a counter, an armed fault or scratch the next
    /// failover overwrites, so a lock a panicking engine left behind is taken over as is.
    fn state(&self) -> MutexGuard<'_, TpState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Arms a whole-shard fault on `shard` for the next `steps` dispatches (each
    /// static-weight GEMM of the owning model counts as one). Replaces any fault already
    /// armed on that shard; `steps == 0` disarms.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= degree`.
    pub fn inject_shard_fault(&self, shard: usize, fault: ShardFault, steps: usize) {
        assert!(shard < self.degree, "shard {shard} out of range");
        self.state().faults[shard] = (steps > 0).then_some(ArmedFault {
            fault,
            steps_left: steps,
        });
    }

    /// Disarms every pending shard fault.
    pub fn clear_shard_faults(&self) {
        self.state().faults.iter_mut().for_each(|f| *f = None);
    }

    /// Snapshot of the per-shard reliability counters. Cold path (allocates).
    pub fn shard_stats(&self) -> Vec<TpShardStats> {
        self.state().stats.clone()
    }

    /// Group totals: every shard's counters folded into one [`TpShardStats`].
    pub fn totals(&self) -> TpShardStats {
        let mut t = TpShardStats::default();
        self.state().stats.iter().for_each(|s| t.merge(s));
        t
    }

    /// One dispatch's fault overlay and failover over `acc` (and, on the fused path, its
    /// checksums), which the inner engine just filled with `a · pb`.
    fn dispatch(
        &self,
        a: &MatI8,
        pb: &PackedMatI8,
        acc: &mut MatI32,
        mut checksums: Option<(&mut [i64], &mut [i64])>,
    ) -> Result<()> {
        let mut guard = self.state();
        let st = &mut *guard;
        st.dispatches += 1;
        let mut recomputed = false;
        for r in 0..self.degree {
            let fault = take_fault(&mut st.faults[r]);
            let range = shard_range(pb.cols(), self.degree, r);
            if range.is_empty() {
                continue;
            }
            let s = &mut st.stats[r];
            s.jobs += 1;
            let Some(fault) = fault else { continue };
            corrupt_stripe(acc, range.clone(), fault, st.dispatches);
            if fault == ShardFault::Kill {
                s.kills += 1;
            } else if checksums.as_mut().is_some_and(|(expected, observed)| {
                // The observed checksum is a property of the actual output: re-reduce the
                // corrupted stripe, then let the shard's own segment flag the deviation.
                stripe_observed(acc, range.clone(), &mut observed[range.clone()]);
                expected[range.clone()] != observed[range.clone()]
            }) {
                s.detections += 1;
            } else {
                // Undetected (always, on the plain path): the corruption persists exactly
                // as it would on the unsharded pass.
                continue;
            }
            // Failover: the first failed stripe recomputes the layer's GEMM into scratch;
            // each copies its columns back and re-reduces its observed segment.
            s.failovers += 1;
            if !recomputed {
                self.inner.gemm_i8_packed_into(a, pb, &mut st.scratch)?;
                recomputed = true;
            }
            for i in 0..acc.rows() {
                acc.row_mut(i)[range.clone()].copy_from_slice(&st.scratch.row(i)[range.clone()]);
            }
            if let Some((_, observed)) = checksums.as_mut() {
                stripe_observed(acc, range.clone(), &mut observed[range]);
            }
        }
        Ok(())
    }
}

/// The fault `slot` holds for this dispatch, counting its remaining steps down.
fn take_fault(slot: &mut Option<ArmedFault>) -> Option<ShardFault> {
    let armed = slot.as_mut()?;
    let fault = armed.fault;
    armed.steps_left -= 1;
    if armed.steps_left == 0 {
        *slot = None;
    }
    Some(fault)
}

impl GemmEngine for TpGroup {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn gemm_i8_into(&self, a: &MatI8, b: &MatI8, out: &mut MatI32) -> Result<()> {
        self.inner.gemm_i8_into(a, b, out)
    }

    fn gemm_i8_checksummed_into(
        &self,
        a: &MatI8,
        b: &MatI8,
        dest: &mut ChecksummedGemm,
        etw_scratch: &mut Vec<i64>,
    ) -> Result<()> {
        self.inner.gemm_i8_checksummed_into(a, b, dest, etw_scratch)
    }

    fn gemm_i8_packed_into(&self, a: &MatI8, pb: &PackedMatI8, out: &mut MatI32) -> Result<()> {
        self.inner.gemm_i8_packed_into(a, pb, out)?;
        self.dispatch(a, pb, out, None)
    }

    fn gemm_i8_packed_checksummed_into(
        &self,
        a: &MatI8,
        pb: &PackedMatI8,
        dest: &mut ChecksummedGemm,
        etw_scratch: &mut Vec<i64>,
    ) -> Result<()> {
        self.inner
            .gemm_i8_packed_checksummed_into(a, pb, dest, etw_scratch)?;
        let (acc, expected, observed) = dest.fused_parts_mut();
        self.dispatch(a, pb, acc, Some((expected, observed)))
    }
}

/// Column sums of the stripe `cols` of `acc`, written over `out` (`out.len() == width`).
/// The observed-checksum reduction restricted to one shard's columns.
fn stripe_observed(acc: &MatI32, cols: Range<usize>, out: &mut [i64]) {
    out.fill(0);
    for r in 0..acc.rows() {
        let band = &acc.row(r)[cols.clone()];
        for (s, &v) in out.iter_mut().zip(band) {
            *s += v as i64;
        }
    }
}

/// Applies an armed fault to the stripe `cols` of the accumulator: a killed or zeroed
/// shard's stripe is all zeros, a garbled one has one high bit flipped.
fn corrupt_stripe(acc: &mut MatI32, cols: Range<usize>, fault: ShardFault, dispatch: u64) {
    let width = cols.len();
    let rows = acc.rows();
    if width == 0 || rows == 0 {
        return;
    }
    match fault {
        ShardFault::Kill | ShardFault::Zero => {
            for r in 0..rows {
                acc.row_mut(r)[cols.clone()].fill(0);
            }
        }
        ShardFault::Garble { seed } => {
            // splitmix64: a deterministic, dependency-free choice of victim and bit.
            let mut x = seed ^ dispatch.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut next = || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            let r = (next() % rows as u64) as usize;
            let c = cols.start + (next() % width as u64) as usize;
            let bit = 16 + (next() % 14) as u32; // high enough to matter, never the sign bit
            acc.row_mut(r)[c] ^= 1 << bit;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineKind, ReferenceEngine};
    use crate::rng;
    use rand::Rng;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn random_mat_i8(seed: u64, rows: usize, cols: usize) -> MatI8 {
        let mut r = rng::seeded(seed);
        MatI8::from_fn(rows, cols, |_, _| r.gen_range(-128i16..=127) as i8)
    }

    fn reference_fused(a: &MatI8, w: &MatI8) -> ChecksummedGemm {
        ReferenceEngine.gemm_i8_checksummed(a, w).unwrap()
    }

    /// One fused-checksum dispatch of `a · pb` on `engine`.
    fn fused(engine: &dyn GemmEngine, a: &MatI8, pb: &PackedMatI8) -> ChecksummedGemm {
        let (mut dest, mut etw) = (ChecksummedGemm::empty(), Vec::new());
        engine
            .gemm_i8_packed_checksummed_into(a, pb, &mut dest, &mut etw)
            .unwrap();
        dest
    }

    #[test]
    fn shard_cols_balances_ragged_widths() {
        assert_eq!(shard_cols(10, 4), vec![0..3, 3..6, 6..8, 8..10]);
        assert_eq!(shard_cols(8, 4), vec![0..2, 2..4, 4..6, 6..8]);
        assert_eq!(shard_cols(3, 4), vec![0..1, 1..2, 2..3, 3..3]);
        assert_eq!(shard_cols(0, 2), vec![0..0, 0..0]);
        let ranges = shard_cols(257, 4);
        assert_eq!(ranges.last().unwrap().end, 257);
        assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
    }

    #[test]
    fn sharded_checksummed_matches_unsharded_bit_exact() {
        for kind in EngineKind::ALL {
            let engine = kind.build();
            for degree in [1usize, 2, 3, 4] {
                for (m, k, n) in [(1, 32, 48), (4, 17, 37), (7, 24, 3)] {
                    let a = random_mat_i8(11 + m as u64, m, k);
                    let w = random_mat_i8(23 + n as u64, k, n);
                    let pb = PackedMatI8::pack(&w);
                    let group = TpGroup::new(degree, Arc::clone(&engine));
                    assert_eq!(group.name(), engine.name());
                    let want = reference_fused(&a, &w);
                    let label = format!("{kind:?} degree {degree} {m}x{k}x{n}");
                    assert_eq!(fused(&group, &a, &pb), want, "{label}");

                    let mut plain = MatI32::zeros(0, 0);
                    group.gemm_i8_packed_into(&a, &pb, &mut plain).unwrap();
                    assert_eq!(&plain, want.acc(), "{label}");
                }
            }
        }
    }

    #[test]
    fn killed_shard_fails_over_bit_exact_and_is_charged() {
        let a = random_mat_i8(7, 2, 16);
        let w = random_mat_i8(8, 16, 30);
        let pb = PackedMatI8::pack(&w);
        let group = TpGroup::new(4, Arc::new(ReferenceEngine));
        group.inject_shard_fault(2, ShardFault::Kill, 2);
        let want = reference_fused(&a, &w);
        for step in 0..3 {
            assert_eq!(fused(&group, &a, &pb), want, "step {step}");
        }
        let stats = group.shard_stats();
        assert_eq!(stats[2].kills, 2);
        assert_eq!(stats[2].failovers, 2);
        assert_eq!(stats[2].jobs, 3);
        assert_eq!(stats[0].kills, 0);
        assert_eq!(stats[0].jobs, 3);
        let totals = group.totals();
        assert_eq!(totals.kills, 2);
        assert_eq!(totals.jobs, 3 * 4);
    }

    #[test]
    fn garbled_shard_is_recovered_on_the_fused_path_and_persists_on_the_plain_one() {
        let a = random_mat_i8(9, 3, 24);
        let w = random_mat_i8(10, 24, 40);
        let pb = PackedMatI8::pack(&w);
        let group = TpGroup::new(2, Arc::new(ReferenceEngine));
        group.inject_shard_fault(1, ShardFault::Garble { seed: 0xFEED }, 2);
        let want = reference_fused(&a, &w);
        assert_eq!(
            fused(&group, &a, &pb),
            want,
            "healed before the caller sees it"
        );
        let mut faulty = MatI32::zeros(0, 0);
        group.gemm_i8_packed_into(&a, &pb, &mut faulty).unwrap();
        assert_ne!(
            &faulty,
            want.acc(),
            "no checksums, no detection: fault persists"
        );
        let stats = group.shard_stats();
        assert_eq!((stats[1].detections, stats[1].failovers), (1, 1));
        assert_eq!(stats[0].detections, 0);
    }

    #[test]
    fn zeroed_shard_is_detected_when_column_sums_are_nonzero() {
        let a = MatI8::filled(2, 8, 1);
        let w = MatI8::filled(8, 12, 1); // every column sum is 8·m ≠ 0
        let group = TpGroup::new(3, Arc::new(ReferenceEngine));
        group.inject_shard_fault(1, ShardFault::Zero, 1);
        let dest = fused(&group, &a, &PackedMatI8::pack(&w));
        assert_eq!(dest, reference_fused(&a, &w));
        assert_eq!(group.shard_stats()[1].detections, 1);
    }

    #[test]
    fn degree_exceeding_width_leaves_empty_shards_idle() {
        let a = random_mat_i8(20, 2, 8);
        let w = random_mat_i8(21, 8, 3);
        let group = TpGroup::new(5, Arc::new(ReferenceEngine));
        let dest = fused(&group, &a, &PackedMatI8::pack(&w));
        assert_eq!(dest, reference_fused(&a, &w));
        let stats = group.shard_stats();
        assert_eq!(stats[3].jobs, 0, "empty shard never works");
        assert_eq!(stats[4].jobs, 0);
    }

    /// The oracle, except that its `panic_on`-th GEMM panics.
    #[derive(Debug)]
    struct PanicsOnCall {
        calls: AtomicUsize,
        panic_on: usize,
    }

    impl GemmEngine for PanicsOnCall {
        fn name(&self) -> &'static str {
            "panics_on_call"
        }

        fn gemm_i8_into(&self, a: &MatI8, b: &MatI8, out: &mut MatI32) -> Result<()> {
            self.tick();
            ReferenceEngine.gemm_i8_into(a, b, out)
        }

        fn gemm_i8_checksummed_into(
            &self,
            a: &MatI8,
            b: &MatI8,
            dest: &mut ChecksummedGemm,
            etw_scratch: &mut Vec<i64>,
        ) -> Result<()> {
            self.tick();
            ReferenceEngine.gemm_i8_checksummed_into(a, b, dest, etw_scratch)
        }
    }

    impl PanicsOnCall {
        fn tick(&self) {
            let call = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
            assert_ne!(call, self.panic_on, "injected engine panic");
        }
    }

    #[test]
    fn a_panicking_engine_unwinds_to_the_caller_and_leaves_the_group_usable() {
        let a = random_mat_i8(50, 3, 16);
        let w = random_mat_i8(51, 16, 20);
        let pb = PackedMatI8::pack(&w);
        let want = reference_fused(&a, &w);
        // Call 1 computes the product, call 2 is the kill's failover: it panics while the
        // group's lock is held.
        let engine = PanicsOnCall {
            calls: AtomicUsize::new(0),
            panic_on: 2,
        };
        let group = TpGroup::new(2, Arc::new(engine));
        group.inject_shard_fault(1, ShardFault::Kill, 1);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fused(&group, &a, &pb);
        }));
        assert!(unwound.is_err(), "the panic reaches the caller");

        assert_eq!(fused(&group, &a, &pb), want, "the next dispatch is clean");
        group.inject_shard_fault(1, ShardFault::Kill, 1);
        assert_eq!(fused(&group, &a, &pb), want, "and so is the next failover");
        let stats = group.shard_stats();
        assert_eq!(stats[0].jobs, 3);
        assert_eq!(stats[1].kills, 2);
    }
}
