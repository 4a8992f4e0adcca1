//! The error injector: a [`GemmHook`] that applies a fault model to targeted GEMMs.

use crate::error_model::ErrorModel;
use crate::targeting::Target;
use realm_llm::{Component, GemmContext, GemmHook, GemmOrigin, Stage};
use realm_tensor::rng::{self, SeededRng};
use realm_tensor::{ChecksummedGemm, MatI32, MatI8, RowPartition};
use std::collections::BTreeMap;

/// Statistics accumulated by an [`ErrorInjector`] over a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InjectionStats {
    /// Number of GEMM invocations observed (targeted or not).
    pub gemms_observed: u64,
    /// Number of GEMM invocations that matched the target.
    pub gemms_targeted: u64,
    /// Number of GEMM invocations in which at least one error was injected.
    pub gemms_corrupted: u64,
    /// Total number of injected errors (bit flips or magnitude additions).
    pub errors_injected: u64,
    /// Injected-error count per network component.
    pub per_component: BTreeMap<Component, u64>,
    /// Injected-error count per inference stage.
    pub per_stage: BTreeMap<Stage, u64>,
    /// Injected-error count per batch sequence, where attribution is possible: GEMMs that
    /// belong wholly to one sequence, and batch-stacked GEMMs injected under a
    /// sequence-filtered target (the injector then corrupts only that sequence's rows).
    /// Unrestricted injection into a batch-stacked GEMM is not attributable a priori and is
    /// left to the protector's checksum-based attribution.
    pub per_sequence: BTreeMap<usize, u64>,
    /// Number of whole-shard fault scenarios armed ([`ErrorInjector::arm_shard_faults`]).
    pub shard_faults_armed: u64,
    /// Armed whole-shard fault count per tensor-parallel shard index.
    pub per_shard: BTreeMap<usize, u64>,
}

/// A time-correlated burst schedule in engine steps: `burst_steps` of injection, then
/// `gap_steps` of silence, repeating. Phase 0 of the cycle is the burst, so an armed
/// schedule starts injecting immediately.
///
/// Real voltage-noise and aging faults cluster in time rather than arriving i.i.d.; the
/// schedule models that clustering at engine-step granularity, which is the clock an
/// adaptive protection controller reacts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstSchedule {
    /// Consecutive engine steps during which injection is active.
    pub burst_steps: u64,
    /// Silent engine steps between bursts.
    pub gap_steps: u64,
}

impl BurstSchedule {
    /// Whether `step` falls inside a burst window of the repeating cycle.
    pub fn active(&self, step: u64) -> bool {
        let period = self.burst_steps + self.gap_steps;
        if period == 0 {
            return false;
        }
        step % period < self.burst_steps
    }
}

/// A GEMM hook that corrupts accumulator results according to an [`ErrorModel`].
///
/// The injector owns a deterministic RNG: two injectors constructed with the same model,
/// target and seed inject exactly the same faults, which keeps every experiment reproducible.
#[derive(Debug, Clone)]
pub struct ErrorInjector<M> {
    model: M,
    target: Target,
    rng: SeededRng,
    stats: InjectionStats,
    enabled: bool,
    partition: Option<RowPartition>,
    burst: Option<BurstSchedule>,
    /// Whether the current engine step falls inside a burst window. `true` when no burst
    /// schedule is armed (steady injection) and re-evaluated on every `on_step_begin`.
    in_burst: bool,
}

impl<M: ErrorModel> ErrorInjector<M> {
    /// Creates an injector applying `model` to GEMMs selected by `target`.
    pub fn new(model: M, target: Target, seed: u64) -> Self {
        Self {
            model,
            target,
            rng: rng::seeded(rng::derive_seed(seed, 0x1_11EC7)),
            stats: InjectionStats::default(),
            enabled: true,
            partition: None,
            burst: None,
            in_burst: true,
        }
    }

    /// Creates an injector that targets every GEMM in the model.
    pub fn everywhere(model: M, seed: u64) -> Self {
        Self::new(model, Target::everything(), seed)
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &InjectionStats {
        &self.stats
    }

    /// Temporarily enables or disables injection without tearing down the hook chain.
    ///
    /// Used by recovery policies that re-execute a GEMM at nominal voltage: the re-execution
    /// must be fault-free.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Arms a time-correlated burst schedule: inject for `burst_steps` engine steps, stay
    /// silent for `gap_steps`, repeat. The cycle starts in-burst at step 0 and advances
    /// on the serving engine's [`GemmHook::on_step_begin`] clock; outside a serving loop
    /// (where that clock never ticks) the injector stays in the initial burst window, so
    /// standalone runs behave like an unscheduled injector.
    ///
    /// Returns the injector for builder-style chaining.
    pub fn with_burst(mut self, burst_steps: u64, gap_steps: u64) -> Self {
        self.set_burst(Some(BurstSchedule {
            burst_steps,
            gap_steps,
        }));
        self
    }

    /// Installs (`Some`) or removes (`None`) the burst schedule. Removing it restores
    /// steady injection.
    pub fn set_burst(&mut self, schedule: Option<BurstSchedule>) {
        self.burst = schedule;
        self.in_burst = match schedule {
            Some(s) => s.active(0),
            None => true,
        };
    }

    /// The armed burst schedule, if any.
    pub fn burst(&self) -> Option<BurstSchedule> {
        self.burst
    }

    /// Arms `fault` for the next `steps` sharded dispatches on every tensor-parallel
    /// shard of `group` selected by the target's shard filter (every shard when the
    /// filter is unset). Returns the number of shards armed.
    ///
    /// Whole-shard faults live below the GEMM hook interface — the rank group applies
    /// them at dispatch time and the sharded layer detects and recovers from them
    /// (`realm_tensor::tp`) — so this is a side channel next to the per-GEMM `corrupt`
    /// path, with its own per-shard accounting in [`InjectionStats`]. A disabled
    /// injector arms nothing.
    pub fn arm_shard_faults(
        &mut self,
        group: &realm_tensor::TpGroup,
        fault: realm_tensor::ShardFault,
        steps: usize,
    ) -> usize {
        if !self.enabled || steps == 0 {
            return 0;
        }
        let mut armed = 0;
        for shard in 0..group.degree() {
            if self
                .target
                .shard_filter()
                .is_none_or(|filter| filter.contains(&shard))
            {
                group.inject_shard_fault(shard, fault, steps);
                self.stats.shard_faults_armed += 1;
                *self.stats.per_shard.entry(shard).or_insert(0) += 1;
                armed += 1;
            }
        }
        armed
    }
}

impl<M: ErrorModel> ErrorInjector<M> {
    /// Books the statistics for `injected` errors from one targeted GEMM, attributing them
    /// to `sequence` when the originating sequence is known.
    fn book(&mut self, ctx: &GemmContext, injected: usize, sequence: Option<usize>) {
        if injected == 0 {
            return;
        }
        self.stats.errors_injected += injected as u64;
        *self.stats.per_component.entry(ctx.component).or_insert(0) += injected as u64;
        *self.stats.per_stage.entry(ctx.stage).or_insert(0) += injected as u64;
        if let Some(seq) = sequence {
            *self.stats.per_sequence.entry(seq).or_insert(0) += injected as u64;
        }
    }

    /// Applies the fault model to a targeted accumulator and books the statistics.
    /// Returns the number of injected errors.
    fn corrupt_targeted(&mut self, ctx: &GemmContext, acc: &mut MatI32) -> usize {
        self.stats.gemms_targeted += 1;
        let injected = self.corrupt_rows(ctx, acc);
        if injected > 0 {
            self.stats.gemms_corrupted += 1;
        }
        injected
    }

    /// Applies the fault model to the (possibly sequence-restricted) rows of a targeted
    /// accumulator. Returns the number of injected errors.
    fn corrupt_rows(&mut self, ctx: &GemmContext, acc: &mut MatI32) -> usize {
        match (ctx.origin, self.target.sequence_filter()) {
            // A batch-stacked GEMM under a sequence-filtered target: corrupt only the rows
            // of the targeted sequences (known from the announced row partition), so a
            // batched campaign injects into exactly the sequences a per-sequence campaign
            // would have.
            (GemmOrigin::BatchedRows, Some(filter)) => {
                let filter: Vec<usize> = filter.iter().copied().collect();
                let Some(parts) = self.partition.clone() else {
                    return 0; // No partition announced: nothing safely attributable.
                };
                // A stale partition (e.g. a hand-driven batched GEMM after a differently
                // shaped batch) would map rows to the wrong sequences; refuse rather than
                // misattribute.
                if parts.total_rows() != acc.rows() {
                    return 0;
                }
                let mut total = 0usize;
                for seq in filter {
                    if seq >= parts.num_groups() {
                        continue;
                    }
                    let range = parts.range(seq);
                    if range.is_empty() {
                        continue;
                    }
                    let mut sub = acc
                        .rows_slice(range.start, range.len())
                        .expect("partition rows verified against the accumulator");
                    let injected = self.model.corrupt(&mut self.rng, &mut sub);
                    if injected > 0 {
                        for (i, r) in range.enumerate() {
                            acc.row_mut(r).copy_from_slice(sub.row(i));
                        }
                        self.book(ctx, injected, Some(seq));
                        total += injected;
                    }
                }
                total
            }
            _ => {
                let injected = self.model.corrupt(&mut self.rng, acc);
                let sequence = match ctx.origin {
                    GemmOrigin::Sequence(seq) => Some(seq),
                    GemmOrigin::BatchedRows => None,
                };
                self.book(ctx, injected, sequence);
                injected
            }
        }
    }
}

impl<M: ErrorModel> GemmHook for ErrorInjector<M> {
    fn on_gemm(&mut self, ctx: &GemmContext, _w: &MatI8, _x: &MatI8, acc: &mut MatI32) {
        self.stats.gemms_observed += 1;
        if !self.enabled || !self.in_burst || !self.target.matches(ctx) {
            return;
        }
        self.corrupt_targeted(ctx, acc);
    }

    fn on_gemm_checksummed(
        &mut self,
        ctx: &GemmContext,
        _w: &MatI8,
        _x: &MatI8,
        result: &mut ChecksummedGemm,
    ) {
        self.stats.gemms_observed += 1;
        // Untargeted (and fault-free) GEMMs must not touch the accumulator at all: taking
        // `acc_mut` would mark the fused observed checksum stale and force a downstream
        // protector into a full recompute — at low BER that is almost every GEMM. The
        // same applies to steps between bursts.
        if !self.enabled || !self.in_burst || !self.target.matches(ctx) {
            return;
        }
        if self.corrupt_targeted(ctx, result.acc_mut()) == 0 {
            result.assume_observed_fresh();
        }
    }

    fn wants_checksums(&self) -> bool {
        // The injector only mutates the accumulator; it never reads the checksums. A
        // downstream protector in the same chain is what opts the chain in.
        false
    }

    fn on_batch_begin(&mut self, partition: &RowPartition) {
        // Announced before every batched forward: refill the kept offsets, don't reallocate.
        match &mut self.partition {
            Some(kept) => kept.clone_from(partition),
            None => self.partition = Some(partition.clone()),
        }
    }

    fn on_step_begin(&mut self, step: u64) {
        if let Some(schedule) = self.burst {
            self.in_burst = schedule.active(step);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error_model::{BitFlipModel, FixedBitModel, MagFreqModel};
    use realm_llm::{config::ModelConfig, model::Model};

    #[test]
    fn injector_only_touches_targeted_component() {
        let model = Model::new(&ModelConfig::tiny_opt(), 1).unwrap();
        let target = Target::new().component(Component::O);
        let mut injector = ErrorInjector::new(FixedBitModel::bit30(1.0), target, 3);
        model.prefill(&[1, 2, 3, 4], &mut injector).unwrap();
        let stats = injector.stats();
        assert!(stats.errors_injected > 0);
        assert!(stats.per_component.contains_key(&Component::O));
        assert_eq!(stats.per_component.len(), 1);
        assert_eq!(
            stats.gemms_targeted,
            ModelConfig::tiny_opt().num_layers as u64,
            "one O GEMM per layer during prefill"
        );
    }

    #[test]
    fn injector_counts_observed_vs_targeted() {
        let model = Model::new(&ModelConfig::tiny_llama(), 1).unwrap();
        let target = Target::new().stage(Stage::Decode);
        let mut injector = ErrorInjector::new(BitFlipModel::uniform(0.5), target, 3);
        let (_, mut cache) = model.prefill(&[1, 2, 3], &mut injector).unwrap();
        assert_eq!(
            injector.stats().gemms_targeted,
            0,
            "prefill GEMMs are not targeted"
        );
        assert!(injector.stats().gemms_observed > 0);
        let mut ws = realm_tensor::Workspace::new();
        model
            .decode_step_ws(4, &mut cache, &mut injector, &mut ws)
            .unwrap();
        assert!(injector.stats().gemms_targeted > 0);
        assert!(injector.stats().errors_injected > 0);
    }

    #[test]
    fn disabled_injector_is_a_noop() {
        let model = Model::new(&ModelConfig::tiny_opt(), 1).unwrap();
        let mut injector = ErrorInjector::everywhere(FixedBitModel::bit30(1.0), 5);
        injector.set_enabled(false);
        let (faulty_logits, _) = model.prefill(&[1, 2, 3], &mut injector).unwrap();
        let (clean_logits, _) = model.prefill(&[1, 2, 3], &mut realm_llm::NoopHook).unwrap();
        assert_eq!(faulty_logits, clean_logits);
        assert_eq!(injector.stats().errors_injected, 0);
    }

    #[test]
    fn same_seed_injects_identical_faults() {
        let model = Model::new(&ModelConfig::tiny_opt(), 1).unwrap();
        let run = |seed| {
            let mut injector = ErrorInjector::everywhere(BitFlipModel::high_bits(1e-3), seed);
            let (logits, _) = model.prefill(&[5, 6, 7, 8], &mut injector).unwrap();
            (logits, injector.stats().errors_injected)
        };
        let (la, ca) = run(11);
        let (lb, cb) = run(11);
        assert_eq!(la, lb);
        assert_eq!(ca, cb);
        let (lc, _) = run(12);
        assert_ne!(la, lc);
    }

    #[test]
    fn magfreq_model_corrupts_every_targeted_gemm() {
        let model = Model::new(&ModelConfig::tiny_opt(), 1).unwrap();
        let target = Target::new().component(Component::Fc1);
        let mut injector = ErrorInjector::new(MagFreqModel::new(1 << 20, 4), target, 7);
        model.prefill(&[1, 2, 3, 4, 5], &mut injector).unwrap();
        let stats = injector.stats();
        // The controlled model corrupts every targeted GEMM.
        assert_eq!(stats.gemms_corrupted, stats.gemms_targeted);
        assert_eq!(
            stats.errors_injected,
            stats.gemms_targeted * 4,
            "4 errors per targeted GEMM"
        );
    }

    #[test]
    fn burst_schedule_cycles_burst_then_gap() {
        let schedule = BurstSchedule {
            burst_steps: 2,
            gap_steps: 3,
        };
        let active: Vec<bool> = (0..10).map(|s| schedule.active(s)).collect();
        assert_eq!(
            active,
            vec![true, true, false, false, false, true, true, false, false, false]
        );
        // A degenerate all-gap schedule never fires; an all-burst one always does.
        assert!(!BurstSchedule {
            burst_steps: 0,
            gap_steps: 4
        }
        .active(0));
        assert!(BurstSchedule {
            burst_steps: 1,
            gap_steps: 0
        }
        .active(7));
    }

    #[test]
    fn burst_mode_injects_only_inside_burst_windows() {
        let model = Model::new(&ModelConfig::tiny_opt(), 1).unwrap();
        let mut injector = ErrorInjector::everywhere(FixedBitModel::bit30(1.0), 5).with_burst(2, 3);
        assert_eq!(
            injector.burst(),
            Some(BurstSchedule {
                burst_steps: 2,
                gap_steps: 3
            })
        );
        let (clean_logits, _) = model.prefill(&[1, 2, 3], &mut realm_llm::NoopHook).unwrap();

        // Steps 0 and 1 are in-burst, steps 2..5 are the gap, step 5 bursts again.
        let mut corrupted_steps = Vec::new();
        for step in 0..6u64 {
            injector.on_step_begin(step);
            let before = injector.stats().errors_injected;
            let (logits, _) = model.prefill(&[1, 2, 3], &mut injector).unwrap();
            let injected = injector.stats().errors_injected > before;
            assert_eq!(injected, step % 5 < 2, "injection follows the window");
            assert_eq!(logits != clean_logits, injected);
            if injected {
                corrupted_steps.push(step);
            }
        }
        assert_eq!(corrupted_steps, vec![0, 1, 5]);

        // Removing the schedule restores steady injection regardless of the last step.
        injector.on_step_begin(2);
        injector.set_burst(None);
        let before = injector.stats().errors_injected;
        model.prefill(&[1, 2, 3], &mut injector).unwrap();
        assert!(injector.stats().errors_injected > before);
    }

    #[test]
    fn burst_injection_is_seed_deterministic() {
        let model = Model::new(&ModelConfig::tiny_opt(), 1).unwrap();
        let run = |seed| {
            let mut injector =
                ErrorInjector::everywhere(BitFlipModel::high_bits(1e-3), seed).with_burst(1, 2);
            let mut all_logits = Vec::new();
            for step in 0..6u64 {
                injector.on_step_begin(step);
                let (logits, _) = model.prefill(&[5, 6, 7], &mut injector).unwrap();
                all_logits.push(logits);
            }
            (all_logits, injector.stats().errors_injected)
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    fn shard_kill_is_survived_bit_exact_and_charged_to_the_shard() {
        let mut config = ModelConfig::tiny_opt();
        config.tp_degree = 3;
        let model = Model::new(&config, 1).unwrap();
        let clean = Model::new(&ModelConfig::tiny_opt(), 1)
            .unwrap()
            .generate(&[1, 2, 3], 6, &mut realm_llm::NoopHook)
            .unwrap();
        let mut injector = ErrorInjector::new(
            BitFlipModel::uniform(0.0), // the GEMM-level model stays silent
            Target::new().shard(1),
            9,
        );
        let group = std::sync::Arc::clone(model.tp_group().unwrap());
        let armed = injector.arm_shard_faults(&group, realm_tensor::ShardFault::Kill, 4);
        assert_eq!(armed, 1, "only the targeted shard is armed");
        let out = model.generate(&[1, 2, 3], 6, &mut injector).unwrap();
        assert_eq!(
            out, clean,
            "killed shard fails over without corrupting output"
        );
        assert_eq!(injector.stats().shard_faults_armed, 1);
        assert_eq!(injector.stats().per_shard.get(&1), Some(&1));
        let stats = model.shard_stats();
        assert_eq!(
            stats[1].kills, 4,
            "the shard was down for exactly 4 dispatches"
        );
        assert_eq!(stats[1].failovers, 4);
        assert_eq!(stats[0].kills + stats[2].kills, 0);
    }

    #[test]
    fn unfiltered_target_arms_every_shard_and_disabled_arms_none() {
        let mut config = ModelConfig::tiny_opt();
        config.tp_degree = 2;
        let model = Model::new(&config, 1).unwrap();
        let group = std::sync::Arc::clone(model.tp_group().unwrap());
        let mut injector = ErrorInjector::everywhere(BitFlipModel::uniform(0.0), 9);
        assert_eq!(
            injector.arm_shard_faults(&group, realm_tensor::ShardFault::Garble { seed: 7 }, 1),
            2
        );
        group.clear_shard_faults();
        injector.set_enabled(false);
        assert_eq!(
            injector.arm_shard_faults(&group, realm_tensor::ShardFault::Kill, 1),
            0
        );
        assert_eq!(injector.stats().shard_faults_armed, 2);
    }

    #[test]
    fn armed_garble_reaches_the_unprotected_sharded_datapath() {
        // The injector itself declines checksums, so generation under it runs the *plain*
        // sharded path: an armed garble must land in the output (nothing can detect it
        // here — that is the protector's job), and clearing the faults must restore
        // bit-exactness with the unsharded model.
        let mut config = ModelConfig::tiny_llama();
        config.tp_degree = 2;
        let model = Model::new(&config, 3).unwrap();
        let clean = Model::new(&ModelConfig::tiny_llama(), 3)
            .unwrap()
            .generate(&[2, 3, 4], 5, &mut realm_llm::NoopHook)
            .unwrap();
        let mut injector =
            ErrorInjector::new(BitFlipModel::uniform(0.0), Target::new().shard(0), 5);
        let group = std::sync::Arc::clone(model.tp_group().unwrap());
        injector.arm_shard_faults(&group, realm_tensor::ShardFault::Garble { seed: 11 }, 3);
        let corrupted = model.generate(&[2, 3, 4], 5, &mut injector).unwrap();
        assert_ne!(corrupted, clean, "the garble must reach the datapath");
        let totals = group.totals();
        assert!(totals.jobs > 0);
        assert_eq!(totals.detections, 0, "the plain path cannot detect");
        group.clear_shard_faults();
        let recovered = model.generate(&[2, 3, 4], 5, &mut injector).unwrap();
        assert_eq!(recovered, clean);
    }
}
