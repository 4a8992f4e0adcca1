//! Simulated tensor-parallel execution: persistent ranks, column-sharded weights,
//! per-shard fused ABFT checksums and cross-shard failover.
//!
//! Real tensor-parallel inference splits every linear layer's weight matrix column-wise
//! across devices: each device holds its stripe permanently, the activation is broadcast,
//! each device runs its share of the GEMM, and the outputs are concatenated. This module
//! reproduces that execution shape inside one process:
//!
//! * [`TpGroup`] — a pool of `degree` **persistent** rank threads created once (model
//!   load) and parked on condvars between GEMMs, so sharded execution costs no per-GEMM
//!   thread spawn. Each rank owns resident output/checksum buffers that are grown during
//!   warmup and reused forever after, preserving the allocation-free decode contract.
//! * [`ShardedLinear`] — a weight matrix split into `degree` contiguous column stripes,
//!   each packed once ([`PackedMatI8`]) at shard time and held behind an `Arc` so a
//!   dispatch hands a rank its stripe by refcount bump, never by copy.
//!
//! # Bit-exactness
//!
//! Column sharding is exact by construction: every output element `Y[i, j]` is a full-depth
//! dot product computed entirely by the one rank owning column `j`, with the same kernel
//! and the same accumulation order as the unsharded pass. The fused ABFT checksums shard
//! the same way — `expected[j] = (eᵀ·X)·W[:, j]` and `observed[j] = eᵀ·Y[:, j]` are
//! per-column quantities — so concatenating the per-shard checksum segments in column
//! order reproduces the unsharded [`ChecksummedGemm`] bit-for-bit. The differential suite
//! `tests/tp_parity.rs` pins this down across every engine and ragged shard widths.
//!
//! # Shards as fault domains
//!
//! Following FailSafe's framing (see PAPERS.md), a shard is a unit of failure: a device
//! can die mid-step or silently corrupt its stripe. [`TpGroup::inject_shard_fault`] arms
//! exactly those scenarios ([`ShardFault`]), and the merge path treats them the way the
//! paper's statistical ABFT enables cheaply:
//!
//! * a **killed** shard never runs; the group recomputes its columns inline from the
//!   resident weight stripe and keeps serving — the request never observes the loss;
//! * a **corrupted** shard is caught by its own checksum segment (`observed != expected`
//!   over the stripe's columns), and only that stripe is recomputed.
//!
//! Every event is charged to per-shard [`TpShardStats`], surfaced through the serving
//! layer's `EngineStats`.

use crate::engine::{ChecksummedGemm, GemmEngine};
use crate::packed::PackedMatI8;
use crate::{MatI32, MatI8, Result, TensorError};
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex, RwLock};

/// Balanced contiguous column partition of `cols` output columns over `degree` shards.
///
/// The first `cols % degree` shards receive one extra column, so ragged widths (not
/// divisible by the degree) are supported with a worst-case imbalance of one column.
/// Shards beyond `cols` (degree larger than the width) receive empty ranges.
pub fn shard_cols(cols: usize, degree: usize) -> Vec<Range<usize>> {
    assert!(degree >= 1, "shard_cols requires degree >= 1");
    let base = cols / degree;
    let extra = cols % degree;
    let mut ranges = Vec::with_capacity(degree);
    let mut start = 0;
    for r in 0..degree {
        let width = base + usize::from(r < extra);
        ranges.push(start..start + width);
        start += width;
    }
    ranges
}

/// Per-shard reliability counters maintained by a [`TpGroup`].
///
/// `jobs` counts sharded GEMM executions charged to the shard (including the inline
/// recomputations that replace a killed shard's work); `kills` counts dispatches the
/// shard was down for; `detections` counts corruptions flagged by the shard's own
/// checksum segment; `failovers` counts recoveries of either kind (the shard's columns
/// recomputed inline while the request kept going).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TpShardStats {
    /// Sharded GEMMs executed on behalf of this shard.
    pub jobs: u64,
    /// Dispatches this shard was killed for (the whole-shard fault scenario).
    pub kills: u64,
    /// Corruptions of this shard's output flagged by its checksum segment.
    pub detections: u64,
    /// Recoveries: the shard's columns recomputed inline without failing the request.
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
    /// The rank is down: it produces nothing for the armed dispatches. The group fails
    /// over by recomputing the shard's columns inline — detection is by construction
    /// (the rank is known-dead), not by checksum.
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

/// What the merge loop must do about one shard in the current dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepAction {
    Clean,
    Kill,
    Corrupt(ShardFault),
}

/// A unit of work mailed to a rank thread. `Arc` fields are refcount bumps — dispatching
/// never copies weights or allocates.
struct Job {
    shard: Arc<PackedMatI8>,
    engine: Arc<dyn GemmEngine>,
    checksummed: bool,
}

/// Mailbox protocol between the dispatcher and one rank thread.
enum RankMail {
    /// No work posted; the rank waits.
    Idle,
    /// Work posted by the dispatcher; the rank takes it and runs.
    Pending(Job),
    /// The rank finished the last job with this status; the dispatcher collects it.
    Done(Result<()>),
    /// The group is shutting down; the rank exits.
    Stop,
}

/// Resident output buffers owned by one rank: grown during warmup, reused forever.
struct RankOutput {
    /// Fused-path destination: the shard's output stripe plus its checksum segments.
    dest: ChecksummedGemm,
    /// Plain-path destination (no checksums requested).
    plain: MatI32,
    /// Operand-checksum scratch for the rank's fused pass.
    etw: Vec<i64>,
}

/// One rank's synchronization cell.
struct RankCell {
    mail: Mutex<RankMail>,
    cv: Condvar,
    out: Mutex<RankOutput>,
}

/// State shared between the dispatcher and the rank threads.
struct TpShared {
    /// The activation, staged once per sharded GEMM ("scatter" = every rank reads the
    /// same resident buffer; column sharding broadcasts the full activation).
    act: RwLock<MatI8>,
    ranks: Vec<RankCell>,
}

/// Dispatcher-side mutable state, behind one mutex so a sharded GEMM is a single
/// critical section: the engine handle, armed faults, per-shard stats and the resident
/// per-dispatch scratch. Rank threads never take this lock.
struct TpCtl {
    engine: Arc<dyn GemmEngine>,
    faults: Vec<Option<ArmedFault>>,
    stats: Vec<TpShardStats>,
    /// Resident per-dispatch scratch (one slot per shard), so planning a dispatch
    /// allocates nothing.
    actions: Vec<StepAction>,
    statuses: Vec<Option<TensorError>>,
    /// Monotonic dispatch counter, folded into the garble victim choice.
    dispatches: u64,
}

/// A pool of persistent simulated tensor-parallel ranks.
///
/// Created once per model (see `realm-llm`'s `ModelConfig::tp_degree`); every
/// [`ShardedLinear`] built against the group reuses the same long-lived rank threads.
/// Dropping the group stops and joins the ranks.
pub struct TpGroup {
    shared: Arc<TpShared>,
    ctl: Mutex<TpCtl>,
    threads: Vec<std::thread::JoinHandle<()>>,
    degree: usize,
}

impl std::fmt::Debug for TpGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TpGroup")
            .field("degree", &self.degree)
            .finish_non_exhaustive()
    }
}

impl TpGroup {
    /// Spawns a group of `degree` persistent rank threads that execute sharded GEMMs
    /// through `engine`.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is zero.
    pub fn new(degree: usize, engine: Arc<dyn GemmEngine>) -> Self {
        assert!(degree >= 1, "a TP group needs at least one rank");
        let shared = Arc::new(TpShared {
            act: RwLock::new(MatI8::zeros(0, 0)),
            ranks: (0..degree)
                .map(|_| RankCell {
                    mail: Mutex::new(RankMail::Idle),
                    cv: Condvar::new(),
                    out: Mutex::new(RankOutput {
                        dest: ChecksummedGemm::empty(),
                        plain: MatI32::zeros(0, 0),
                        etw: Vec::new(),
                    }),
                })
                .collect(),
        });
        let threads = (0..degree)
            .map(|r| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tp-rank-{r}"))
                    .spawn(move || rank_main(&shared, r))
                    .expect("spawn TP rank thread")
            })
            .collect();
        Self {
            shared,
            ctl: Mutex::new(TpCtl {
                engine,
                faults: vec![None; degree],
                stats: vec![TpShardStats::default(); degree],
                actions: vec![StepAction::Clean; degree],
                statuses: (0..degree).map(|_| None).collect(),
                dispatches: 0,
            }),
            threads,
            degree,
        }
    }

    /// Number of ranks (shards) in the group.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Arms a whole-shard fault on `shard` for the next `steps` sharded GEMM dispatches
    /// (each linear-layer GEMM of the owning model counts as one dispatch). Replaces any
    /// fault already armed on that shard; `steps == 0` disarms.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= degree`.
    pub fn inject_shard_fault(&self, shard: usize, fault: ShardFault, steps: usize) {
        assert!(shard < self.degree, "shard {shard} out of range");
        let mut ctl = self.ctl.lock().expect("TP ctl poisoned");
        ctl.faults[shard] = (steps > 0).then_some(ArmedFault {
            fault,
            steps_left: steps,
        });
    }

    /// Disarms every pending shard fault.
    pub fn clear_shard_faults(&self) {
        let mut ctl = self.ctl.lock().expect("TP ctl poisoned");
        ctl.faults.iter_mut().for_each(|f| *f = None);
    }

    /// Snapshot of the per-shard reliability counters. Cold path (allocates).
    pub fn shard_stats(&self) -> Vec<TpShardStats> {
        self.ctl.lock().expect("TP ctl poisoned").stats.clone()
    }

    /// Group totals: every shard's counters folded into one [`TpShardStats`].
    pub fn totals(&self) -> TpShardStats {
        let ctl = self.ctl.lock().expect("TP ctl poisoned");
        let mut t = TpShardStats::default();
        for s in &ctl.stats {
            t.merge(s);
        }
        t
    }

    /// Stages the activation into the shared resident buffer (the one-time "scatter").
    fn stage_activation(&self, a: &MatI8) {
        let mut act = self.shared.act.write().expect("TP activation poisoned");
        act.resize_overwrite(a.rows(), a.cols());
        act.as_mut_slice().copy_from_slice(a.as_slice());
    }

    /// Plans the current dispatch under `ctl`: decides each shard's [`StepAction`] from
    /// the armed faults and decrements their remaining steps.
    fn plan_actions(ctl: &mut TpCtl) {
        ctl.dispatches += 1;
        for r in 0..ctl.faults.len() {
            ctl.actions[r] = match ctl.faults[r].as_mut() {
                None => StepAction::Clean,
                Some(armed) => {
                    let action = match armed.fault {
                        ShardFault::Kill => StepAction::Kill,
                        other => StepAction::Corrupt(other),
                    };
                    armed.steps_left -= 1;
                    if armed.steps_left == 0 {
                        ctl.faults[r] = None;
                    }
                    action
                }
            };
        }
    }

    /// Posts `job` to rank `r` and wakes it.
    fn post(&self, r: usize, job: Job) {
        let cell = &self.shared.ranks[r];
        let mut mail = cell.mail.lock().expect("TP mailbox poisoned");
        debug_assert!(matches!(*mail, RankMail::Idle), "rank {r} re-dispatched");
        *mail = RankMail::Pending(job);
        cell.cv.notify_all();
    }

    /// Blocks until rank `r` reports `Done`, returning its job status and resetting the
    /// mailbox to `Idle`.
    fn collect(&self, r: usize) -> Result<()> {
        let cell = &self.shared.ranks[r];
        let mut mail = cell.mail.lock().expect("TP mailbox poisoned");
        loop {
            match &*mail {
                RankMail::Done(_) => break,
                _ => mail = cell.cv.wait(mail).expect("TP mailbox poisoned"),
            }
        }
        match std::mem::replace(&mut *mail, RankMail::Idle) {
            RankMail::Done(status) => status,
            _ => unreachable!("observed Done above"),
        }
    }
}

impl Drop for TpGroup {
    fn drop(&mut self) {
        for cell in &self.shared.ranks {
            let mut mail = cell.mail.lock().expect("TP mailbox poisoned");
            *mail = RankMail::Stop;
            cell.cv.notify_all();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Body of one persistent rank thread: park on the mailbox, run posted jobs against the
/// shared activation into the rank's resident buffers, report status, repeat.
fn rank_main(shared: &TpShared, me: usize) {
    let cell = &shared.ranks[me];
    loop {
        let job = {
            let mut mail = cell.mail.lock().expect("TP mailbox poisoned");
            loop {
                match &*mail {
                    RankMail::Stop => return,
                    RankMail::Pending(_) => break,
                    _ => mail = cell.cv.wait(mail).expect("TP mailbox poisoned"),
                }
            }
            match std::mem::replace(&mut *mail, RankMail::Idle) {
                RankMail::Pending(job) => job,
                _ => unreachable!("observed Pending above"),
            }
        };
        let status = {
            let act = shared.act.read().expect("TP activation poisoned");
            let mut out = cell.out.lock().expect("TP rank output poisoned");
            run_shard_job(&act, &job, &mut out)
        };
        let mut mail = cell.mail.lock().expect("TP mailbox poisoned");
        *mail = RankMail::Done(status);
        cell.cv.notify_all();
    }
}

/// Executes one shard's GEMM (fused-checksum or plain) over its packed stripe into the
/// rank's resident buffers. Also used inline by the dispatcher for failover recompute.
fn run_shard_job(act: &MatI8, job: &Job, out: &mut RankOutput) -> Result<()> {
    if job.checksummed {
        job.engine
            .gemm_i8_packed_checksummed_into(act, &job.shard, &mut out.dest, &mut out.etw)
    } else {
        job.engine
            .gemm_i8_packed_into(act, &job.shard, &mut out.plain)
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

/// Applies an armed corruption to the stripe `cols` of the merged accumulator.
fn corrupt_stripe(acc: &mut MatI32, cols: Range<usize>, fault: ShardFault, dispatch: u64) {
    let width = cols.len();
    let rows = acc.rows();
    if width == 0 || rows == 0 {
        return;
    }
    match fault {
        ShardFault::Kill => unreachable!("kills never reach the corrupt path"),
        ShardFault::Zero => {
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

/// A quantized linear layer's weights column-sharded over a [`TpGroup`] — the
/// tensor-parallel execution handle `realm-llm`'s `QuantLinear` holds when
/// `ModelConfig::tp_degree > 1`.
///
/// Each stripe is packed once at shard time and held behind an `Arc`; `forward*` calls
/// scatter the activation once, run every live rank's fused GEMM in parallel, then
/// concatenate output stripes and checksum segments into the caller's destination.
#[derive(Clone)]
pub struct ShardedLinear {
    group: Arc<TpGroup>,
    shards: Vec<Arc<PackedMatI8>>,
    ranges: Vec<Range<usize>>,
    rows: usize,
    cols: usize,
}

impl std::fmt::Debug for ShardedLinear {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedLinear")
            .field("degree", &self.group.degree())
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("ranges", &self.ranges)
            .finish()
    }
}

impl PartialEq for ShardedLinear {
    fn eq(&self, other: &Self) -> bool {
        // Layer equality is about the sharded weights and layout; the group is an
        // execution resource (two equal models may own distinct rank pools).
        self.group.degree() == other.group.degree()
            && self.ranges == other.ranges
            && self
                .shards
                .iter()
                .zip(&other.shards)
                .all(|(a, b)| a.as_ref() == b.as_ref())
    }
}

impl ShardedLinear {
    /// Shards `weight` column-wise over `group`'s ranks, packing each stripe once.
    pub fn new(group: Arc<TpGroup>, weight: &MatI8) -> Self {
        let (rows, cols) = weight.shape();
        let ranges = shard_cols(cols, group.degree());
        let shards = ranges
            .iter()
            .map(|range| {
                let stripe = MatI8::from_fn(rows, range.len(), |r, c| {
                    *weight.get(r, range.start + c).expect("stripe in bounds")
                });
                Arc::new(PackedMatI8::from_mat(stripe))
            })
            .collect();
        Self {
            group,
            shards,
            ranges,
            rows,
            cols,
        }
    }

    /// The group executing this layer's shards.
    pub fn group(&self) -> &Arc<TpGroup> {
        &self.group
    }

    /// Number of shards (the group's degree).
    pub fn degree(&self) -> usize {
        self.group.degree()
    }

    /// Rows of the logical weight matrix (the GEMM inner dimension `k`).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the logical weight matrix (the GEMM output width `n`).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The column range owned by shard `i`.
    pub fn range(&self, i: usize) -> Range<usize> {
        self.ranges[i].clone()
    }

    fn check(&self, op: &'static str, a: &MatI8) -> Result<()> {
        if a.cols() != self.rows {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: a.shape(),
                rhs: (self.rows, self.cols),
            });
        }
        Ok(())
    }

    /// Sharded counterpart of [`GemmEngine::gemm_i8_checksummed_into`]: scatters `a`
    /// once, runs every live shard's fused-checksum GEMM on its rank, merges output
    /// stripes and checksum segments into `dest`, detects and fails over faulted
    /// shards. Bit-identical to the unsharded fused pass on the whole weight matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `a.cols()` differs from the weight
    /// rows, or propagates the first rank-side engine error.
    pub fn gemm_checksummed_into(&self, a: &MatI8, dest: &mut ChecksummedGemm) -> Result<()> {
        self.check("tp_gemm_i8_checksummed", a)?;
        self.run(a, true, dest, None)
    }

    /// Sharded counterpart of [`GemmEngine::gemm_i8_into`] (no checksum reductions):
    /// same scatter/merge, plain accumulator stripes. Killed shards still fail over
    /// (the loss is detected by construction); silent corruptions are *not* detected on
    /// this path — exactly like the unsharded unprotected pass.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `a.cols()` differs from the weight
    /// rows, or propagates the first rank-side engine error.
    pub fn gemm_into(&self, a: &MatI8, out: &mut MatI32) -> Result<()> {
        self.check("tp_gemm_i8", a)?;
        let mut dest = ChecksummedGemm::empty();
        self.run(a, false, &mut dest, Some(out))
    }

    /// Shared dispatch/merge engine behind both public entry points. When `checksummed`
    /// is false the merged stripes land in `plain_out` and `dest` is untouched.
    fn run(
        &self,
        a: &MatI8,
        checksummed: bool,
        dest: &mut ChecksummedGemm,
        plain_out: Option<&mut MatI32>,
    ) -> Result<()> {
        let degree = self.group.degree();
        let m = a.rows();
        // One sharded GEMM is one critical section: the ctl lock serializes dispatches,
        // carries the armed faults and charges the stats.
        let mut ctl = self.group.ctl.lock().expect("TP ctl poisoned");
        let engine = Arc::clone(&ctl.engine);
        TpGroup::plan_actions(&mut ctl);
        let dispatch_id = ctl.dispatches;
        self.group.stage_activation(a);

        // Scatter: post every live, non-empty shard's job to its rank.
        for r in 0..degree {
            if self.ranges[r].is_empty() || ctl.actions[r] == StepAction::Kill {
                continue;
            }
            self.group.post(
                r,
                Job {
                    shard: Arc::clone(&self.shards[r]),
                    engine: Arc::clone(&engine),
                    checksummed,
                },
            );
        }
        // Join: collect every posted rank's status before touching any output, so an
        // early error cannot leave a mailbox in `Done` for the next dispatch.
        for r in 0..degree {
            ctl.statuses[r] = None;
            if self.ranges[r].is_empty() || ctl.actions[r] == StepAction::Kill {
                continue;
            }
            ctl.statuses[r] = self.group.collect(r).err();
        }
        if let Some(err) = ctl.statuses.iter_mut().find_map(|s| s.take()) {
            return Err(err);
        }

        let (acc, expected, observed) = if checksummed {
            dest.prepare(m, self.cols);
            let (acc, expected, observed) = dest.fused_parts_mut();
            (acc, Some(expected), Some(observed))
        } else {
            let out = plain_out.expect("plain path provides an output accumulator");
            out.resize_reset(m, self.cols);
            (out, None, None)
        };
        let (mut expected, mut observed) = (expected, observed);

        // Merge / all-reduce: concatenate output stripes and checksum segments in
        // column order, applying fault handling per shard.
        for r in 0..degree {
            let range = self.ranges[r].clone();
            if range.is_empty() {
                continue;
            }
            let cell = &self.group.shared.ranks[r];
            let mut out = cell.out.lock().expect("TP rank output poisoned");
            match ctl.actions[r] {
                StepAction::Kill => {
                    // The rank is down: recompute its stripe inline from the resident
                    // shard and keep serving. Detection is by construction.
                    let job = Job {
                        shard: Arc::clone(&self.shards[r]),
                        engine: Arc::clone(&engine),
                        checksummed,
                    };
                    run_shard_job(a, &job, &mut out)?;
                    merge_stripe(
                        &mut out,
                        checksummed,
                        acc,
                        &mut expected,
                        &mut observed,
                        &range,
                    );
                    let s = &mut ctl.stats[r];
                    s.jobs += 1;
                    s.kills += 1;
                    s.failovers += 1;
                }
                StepAction::Clean | StepAction::Corrupt(_) => {
                    merge_stripe(
                        &mut out,
                        checksummed,
                        acc,
                        &mut expected,
                        &mut observed,
                        &range,
                    );
                    ctl.stats[r].jobs += 1;
                    if let StepAction::Corrupt(fault) = ctl.actions[r] {
                        corrupt_stripe(acc, range.clone(), fault, dispatch_id);
                        let deviates = match (expected.as_mut(), observed.as_mut()) {
                            (Some(exp), Some(obs)) => {
                                // The observed checksum is a property of the actual
                                // output: re-reduce the corrupted stripe, then let the
                                // shard's own segment flag the deviation.
                                stripe_observed(acc, range.clone(), &mut obs[range.clone()]);
                                exp[range.clone()]
                                    .iter()
                                    .zip(&obs[range.clone()])
                                    .any(|(e, o)| e != o)
                            }
                            // Plain path: no checksums, no detection — the corruption
                            // persists exactly as it would on the unsharded pass.
                            _ => false,
                        };
                        if deviates {
                            let job = Job {
                                shard: Arc::clone(&self.shards[r]),
                                engine: Arc::clone(&engine),
                                checksummed,
                            };
                            run_shard_job(a, &job, &mut out)?;
                            merge_stripe(
                                &mut out,
                                checksummed,
                                acc,
                                &mut expected,
                                &mut observed,
                                &range,
                            );
                            let s = &mut ctl.stats[r];
                            s.detections += 1;
                            s.failovers += 1;
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Copies one rank's output stripe (and, on the fused path, its checksum segments) into
/// the merged destination at the shard's column range.
fn merge_stripe(
    out: &mut RankOutput,
    checksummed: bool,
    acc: &mut MatI32,
    expected: &mut Option<&mut [i64]>,
    observed: &mut Option<&mut [i64]>,
    range: &Range<usize>,
) {
    if checksummed {
        let (racc, rexp, robs) = out.dest.fused_parts_mut();
        for r in 0..acc.rows() {
            acc.row_mut(r)[range.clone()].copy_from_slice(racc.row(r));
        }
        if let Some(expected) = expected {
            expected[range.clone()].copy_from_slice(rexp);
        }
        if let Some(observed) = observed {
            observed[range.clone()].copy_from_slice(robs);
        }
    } else {
        for r in 0..acc.rows() {
            acc.row_mut(r)[range.clone()].copy_from_slice(out.plain.row(r));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineKind, ReferenceEngine};
    use crate::rng;
    use rand::Rng;

    fn random_mat_i8(seed: u64, rows: usize, cols: usize) -> MatI8 {
        let mut r = rng::seeded(seed);
        MatI8::from_fn(rows, cols, |_, _| r.gen_range(-128i16..=127) as i8)
    }

    fn reference_fused(a: &MatI8, w: &MatI8) -> ChecksummedGemm {
        ReferenceEngine.gemm_i8_checksummed(a, w).unwrap()
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
                    let group = Arc::new(TpGroup::new(degree, Arc::clone(&engine)));
                    let layer = ShardedLinear::new(group, &w);
                    let mut dest = ChecksummedGemm::empty();
                    layer.gemm_checksummed_into(&a, &mut dest).unwrap();
                    let want = reference_fused(&a, &w);
                    assert_eq!(dest, want, "{kind:?} degree {degree} {m}x{k}x{n}");

                    let mut plain = MatI32::zeros(0, 0);
                    layer.gemm_into(&a, &mut plain).unwrap();
                    assert_eq!(&plain, want.acc());
                }
            }
        }
    }

    #[test]
    fn killed_shard_fails_over_bit_exact_and_is_charged() {
        let a = random_mat_i8(7, 2, 16);
        let w = random_mat_i8(8, 16, 30);
        let group = Arc::new(TpGroup::new(4, Arc::new(ReferenceEngine)));
        group.inject_shard_fault(2, ShardFault::Kill, 2);
        let layer = ShardedLinear::new(Arc::clone(&group), &w);
        let want = reference_fused(&a, &w);
        for step in 0..3 {
            let mut dest = ChecksummedGemm::empty();
            layer.gemm_checksummed_into(&a, &mut dest).unwrap();
            assert_eq!(dest, want, "step {step}");
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
    fn garbled_shard_is_detected_and_recovered_on_the_fused_path() {
        let a = random_mat_i8(9, 3, 24);
        let w = random_mat_i8(10, 24, 40);
        let group = Arc::new(TpGroup::new(2, Arc::new(ReferenceEngine)));
        let layer = ShardedLinear::new(Arc::clone(&group), &w);
        let want = reference_fused(&a, &w);
        group.inject_shard_fault(1, ShardFault::Garble { seed: 0xFEED }, 1);
        let mut dest = ChecksummedGemm::empty();
        layer.gemm_checksummed_into(&a, &mut dest).unwrap();
        assert_eq!(
            dest, want,
            "corruption must be healed before the caller sees it"
        );
        let stats = group.shard_stats();
        assert_eq!(stats[1].detections, 1);
        assert_eq!(stats[1].failovers, 1);
        assert_eq!(stats[0].detections, 0);
    }

    #[test]
    fn garbled_shard_persists_on_the_plain_path() {
        let a = random_mat_i8(12, 2, 16);
        let w = random_mat_i8(13, 16, 24);
        let group = Arc::new(TpGroup::new(2, Arc::new(ReferenceEngine)));
        let layer = ShardedLinear::new(Arc::clone(&group), &w);
        group.inject_shard_fault(0, ShardFault::Garble { seed: 7 }, 1);
        let mut faulty = MatI32::zeros(0, 0);
        layer.gemm_into(&a, &mut faulty).unwrap();
        let clean = ReferenceEngine.gemm_i8(&a, &w).unwrap();
        assert_ne!(faulty, clean, "no checksums, no detection: fault persists");
        assert_eq!(group.totals().detections, 0);
    }

    #[test]
    fn zeroed_shard_is_detected_when_column_sums_are_nonzero() {
        let a = MatI8::filled(2, 8, 1);
        let w = MatI8::filled(8, 12, 1); // every column sum is 8·m ≠ 0
        let group = Arc::new(TpGroup::new(3, Arc::new(ReferenceEngine)));
        let layer = ShardedLinear::new(Arc::clone(&group), &w);
        group.inject_shard_fault(1, ShardFault::Zero, 1);
        let mut dest = ChecksummedGemm::empty();
        layer.gemm_checksummed_into(&a, &mut dest).unwrap();
        assert_eq!(dest, reference_fused(&a, &w));
        assert_eq!(group.shard_stats()[1].detections, 1);
    }

    #[test]
    fn degree_exceeding_width_leaves_empty_shards_idle() {
        let a = random_mat_i8(20, 2, 8);
        let w = random_mat_i8(21, 8, 3);
        let group = Arc::new(TpGroup::new(5, Arc::new(ReferenceEngine)));
        let layer = ShardedLinear::new(Arc::clone(&group), &w);
        let mut dest = ChecksummedGemm::empty();
        layer.gemm_checksummed_into(&a, &mut dest).unwrap();
        assert_eq!(dest, reference_fused(&a, &w));
        let stats = group.shard_stats();
        assert_eq!(stats[3].jobs, 0, "empty shard never works");
        assert_eq!(stats[4].jobs, 0);
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let group = Arc::new(TpGroup::new(2, Arc::new(ReferenceEngine)));
        let layer = ShardedLinear::new(group, &random_mat_i8(30, 8, 8));
        let a = random_mat_i8(31, 2, 9);
        let mut dest = ChecksummedGemm::empty();
        assert!(layer.gemm_checksummed_into(&a, &mut dest).is_err());
    }

    #[test]
    fn sharded_linear_equality_ignores_the_rank_pool() {
        let w = random_mat_i8(40, 12, 10);
        let g1 = Arc::new(TpGroup::new(2, Arc::new(ReferenceEngine)));
        let g2 = Arc::new(TpGroup::new(2, Arc::new(ReferenceEngine)));
        let l1 = ShardedLinear::new(g1, &w);
        let l2 = ShardedLinear::new(g2, &w);
        assert_eq!(l1, l2);
        let g3 = Arc::new(TpGroup::new(3, Arc::new(ReferenceEngine)));
        let l3 = ShardedLinear::new(g3, &w);
        assert_ne!(l1, l3);
    }
}
