//! The error injector: a [`GemmHook`] that applies a fault model to targeted GEMMs, and
//! whole-shard faults to the column stripes of static-weight GEMMs.

use crate::error_model::ErrorModel;
use crate::targeting::Target;
use realm_llm::{Component, GemmContext, GemmHook};
use realm_tensor::partition::shard_range;
use realm_tensor::rng::{self, SeededRng};
use realm_tensor::{gemm, ChecksummedGemm, MatI32, MatI8};
use std::ops::Range;

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
    /// Injected-error count per network component, indexed by [`Component::index`].
    pub per_component: [u64; Component::ALL.len()],
    /// What the armed shard faults did, one entry per shard of the largest armed degree.
    pub per_shard: Vec<ShardFaultStats>,
}

/// A whole-shard fault: what one column stripe of every static-weight GEMM suffers while
/// it is armed ([`ErrorInjector::arm_shard_faults`]) — FailSafe's failure model (PAPERS.md)
/// of a device that dies mid-step or silently corrupts its stripe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardFault {
    /// The rank is down and the device reports it (fail-stop): its stripe is rebuilt from
    /// the GEMM's operands in the same call, bit-exact under every protection scheme.
    Kill,
    /// The stripe comes back all zeros, silently.
    Zero,
    /// One element of the stripe gets a high bit flipped, silently; the victim follows
    /// from `seed` and the injector's count of static-weight GEMMs.
    Garble {
        /// Seed for the deterministic choice of victim element and bit.
        seed: u64,
    },
}

/// What the armed shard faults did to one shard, in static-weight GEMMs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardFaultStats {
    /// GEMMs the shard was dead for, each stripe rebuilt in the same call.
    pub kills: u64,
    /// GEMMs whose stripe was silently zeroed or garbled, left for the protector.
    pub corruptions: u64,
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
    burst: Option<BurstSchedule>,
    /// Whether the current engine step falls inside a burst window. `true` when no burst
    /// schedule is armed (steady injection) and re-evaluated on every `on_step_begin`.
    in_burst: bool,
    /// Per shard of the armed degree, its fault and the static-weight GEMMs it has left;
    /// emptied once all expired, so an injector without one pays a length check per GEMM.
    shard_faults: Vec<Option<(ShardFault, usize)>>,
    /// Static-weight GEMMs seen while a shard fault was armed: the garble's victim key.
    dispatches: u64,
}

impl<M: ErrorModel> ErrorInjector<M> {
    /// Creates an injector applying `model` to GEMMs selected by `target`.
    pub fn new(model: M, target: Target, seed: u64) -> Self {
        Self {
            model,
            target,
            rng: rng::seeded(rng::derive_seed(seed, 0x1_11EC7)),
            stats: InjectionStats::default(),
            burst: None,
            in_burst: true,
            shard_faults: Vec::new(),
            dispatches: 0,
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

    /// Arms `fault` for the next `steps` static-weight GEMMs (never attention's `QKᵀ`/`SV`)
    /// on the shards of a `degree`-way column partition
    /// ([`realm_tensor::partition::shard_range`]) that [`Target::shards`] selects, all of
    /// them when unset; a different degree drops the faults armed before. A fault applies
    /// ahead of the error model and counts down once per such GEMM, whatever the burst
    /// window or the per-GEMM target say; its effects are counted in
    /// [`InjectionStats::per_shard`]. Returns the number of shards armed: none for
    /// `steps == 0`.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is zero.
    pub fn arm_shard_faults(&mut self, degree: usize, fault: ShardFault, steps: usize) -> usize {
        assert!(degree >= 1, "shard faults need at least one shard");
        if steps == 0 {
            return 0;
        }
        if self.shard_faults.len() != degree {
            self.shard_faults = vec![None; degree];
        }
        let shards = self.stats.per_shard.len().max(degree);
        self.stats
            .per_shard
            .resize(shards, ShardFaultStats::default());
        let filter = self.target.shard_filter();
        let mut armed = 0;
        for (shard, slot) in self.shard_faults.iter_mut().enumerate() {
            if filter.is_none_or(|f| f.contains(&shard)) {
                *slot = Some((fault, steps));
                armed += 1;
            }
        }
        armed
    }

    /// Applies the armed shard faults to the static-weight GEMM `acc = w · x`, counting
    /// each down. Returns whether a stripe was left corrupted (a killed one is rebuilt).
    fn apply_shard_faults(&mut self, w: &MatI8, x: &MatI8, acc: &mut MatI32) -> bool {
        self.dispatches += 1;
        let degree = self.shard_faults.len();
        let mut corrupted = false;
        for (shard, slot) in self.shard_faults.iter_mut().enumerate() {
            let Some((fault, steps_left)) = *slot else {
                continue;
            };
            *slot = (steps_left > 1).then_some((fault, steps_left - 1));
            let cols = shard_range(acc.cols(), degree, shard);
            if cols.is_empty() {
                continue;
            }
            let stats = &mut self.stats.per_shard[shard];
            match fault {
                ShardFault::Kill => {
                    // The dead rank delivered nothing and the device says so: rebuild it.
                    gemm::gemm_i8_cols_into(w, x, cols, acc).expect("the hook's operands made acc");
                    stats.kills += 1;
                    continue;
                }
                ShardFault::Zero => {
                    (0..acc.rows()).for_each(|r| acc.row_mut(r)[cols.clone()].fill(0))
                }
                ShardFault::Garble { seed } => garble(acc, cols, seed, self.dispatches),
            }
            stats.corruptions += 1;
            corrupted = true;
        }
        if self.shard_faults.iter().all(Option::is_none) {
            self.shard_faults.clear();
        }
        corrupted
    }
}

/// Whether `component` multiplies by a layer's static weights (every component but
/// attention's activation × activation `QKᵀ` and `SV`).
fn has_static_weights(component: Component) -> bool {
    !matches!(component, Component::QkT | Component::Sv)
}

/// Flips one high bit of one element in the stripe `cols` of `acc`: the first draws of a
/// splitmix64 stream started at `seed ^ dispatch·γ`, deterministic and dependency-free.
fn garble(acc: &mut MatI32, cols: Range<usize>, seed: u64, dispatch: u64) {
    const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
    let (rows, width) = (acc.rows() as u64, cols.len() as u64);
    if rows == 0 {
        return;
    }
    let start = seed ^ dispatch.wrapping_mul(GAMMA);
    let draw = |k: u64| rng::derive_seed(start.wrapping_add(k.wrapping_mul(GAMMA)), 0);
    let (r, c) = (
        (draw(1) % rows) as usize,
        cols.start + (draw(2) % width) as usize,
    );
    let bit = 16 + (draw(3) % 14) as u32; // high enough to matter, never the sign bit
    acc.row_mut(r)[c] ^= 1 << bit;
}

impl<M: ErrorModel> ErrorInjector<M> {
    /// Applies the fault model to a targeted accumulator and books the statistics.
    /// Returns the number of injected errors.
    fn corrupt_targeted(&mut self, ctx: &GemmContext, acc: &mut MatI32) -> usize {
        self.stats.gemms_targeted += 1;
        let injected = self.model.corrupt(&mut self.rng, acc);
        if injected > 0 {
            self.stats.gemms_corrupted += 1;
            self.stats.errors_injected += injected as u64;
            self.stats.per_component[ctx.component.index()] += injected as u64;
        }
        injected
    }
}

impl<M: ErrorModel> GemmHook for ErrorInjector<M> {
    fn on_gemm(&mut self, ctx: &GemmContext, w: &MatI8, x: &MatI8, acc: &mut MatI32) {
        self.stats.gemms_observed += 1;
        if !self.shard_faults.is_empty() && has_static_weights(ctx.component) {
            self.apply_shard_faults(w, x, acc);
        }
        if !self.in_burst || !self.target.matches(ctx) {
            return;
        }
        self.corrupt_targeted(ctx, acc);
    }

    fn on_gemm_checksummed(
        &mut self,
        ctx: &GemmContext,
        w: &MatI8,
        x: &MatI8,
        result: &mut ChecksummedGemm,
    ) {
        self.stats.gemms_observed += 1;
        // Untouched (and fault-free) GEMMs must leave the fused observed checksum fresh:
        // taking `acc_mut` marks it stale and forces a downstream protector into a full
        // recompute — at low BER that is almost every GEMM. The same applies to steps
        // between bursts, and to a killed stripe, which is rebuilt exactly.
        let sharded = !self.shard_faults.is_empty() && has_static_weights(ctx.component);
        let targeted = self.in_burst && self.target.matches(ctx);
        if !sharded && !targeted {
            return;
        }
        let mut corrupted = sharded && self.apply_shard_faults(w, x, result.acc_mut());
        if targeted {
            corrupted |= self.corrupt_targeted(ctx, result.acc_mut()) > 0;
        }
        if !corrupted {
            result.assume_observed_fresh();
        }
    }

    fn wants_checksums(&self) -> bool {
        // The injector only mutates the accumulator; it never reads the checksums. A
        // downstream protector in the same chain is what opts the chain in.
        false
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
    use realm_llm::{config::ModelConfig, model::Model, Stage};

    #[test]
    fn injector_only_touches_targeted_component() {
        let model = Model::new(&ModelConfig::tiny_opt(), 1).unwrap();
        let target = Target::new().component(Component::O);
        let mut injector = ErrorInjector::new(FixedBitModel::bit30(1.0), target, 3);
        model.prefill(&[1, 2, 3, 4], &mut injector).unwrap();
        let stats = injector.stats();
        assert!(stats.errors_injected > 0);
        let mut only_o = [0; Component::ALL.len()];
        only_o[Component::O.index()] = stats.errors_injected;
        assert_eq!(stats.per_component, only_o);
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
        let model = Model::new(&ModelConfig::tiny_opt(), 1).unwrap();
        let clean = model
            .generate(&[1, 2, 3], 6, &mut realm_llm::NoopHook)
            .unwrap();
        let mut injector = ErrorInjector::new(
            BitFlipModel::uniform(0.0), // the GEMM-level model stays silent
            Target::new().shard(1),
            9,
        );
        let armed = injector.arm_shard_faults(3, ShardFault::Kill, 4);
        assert_eq!(armed, 1, "only the targeted shard is armed");
        let out = model.generate(&[1, 2, 3], 6, &mut injector).unwrap();
        assert_eq!(
            out, clean,
            "a killed stripe is rebuilt without changing output"
        );
        let per_shard = &injector.stats().per_shard;
        assert_eq!(per_shard.len(), 3);
        assert_eq!(
            per_shard[1].kills, 4,
            "down for exactly 4 static-weight GEMMs"
        );
        assert_eq!(per_shard[1].corruptions, 0);
        assert_eq!(per_shard[0].kills + per_shard[2].kills, 0);
    }

    #[test]
    fn unfiltered_target_arms_every_shard_and_zero_steps_arm_none() {
        let mut injector = ErrorInjector::everywhere(BitFlipModel::uniform(0.0), 9);
        let garble = ShardFault::Garble { seed: 7 };
        assert_eq!(injector.arm_shard_faults(2, garble, 1), 2);
        assert_eq!(
            injector.arm_shard_faults(2, garble, 0),
            0,
            "zero steps arm nothing"
        );
        let mut filtered =
            ErrorInjector::new(BitFlipModel::uniform(0.0), Target::new().shard(5), 9);
        assert_eq!(
            filtered.arm_shard_faults(4, ShardFault::Kill, 1),
            0,
            "no shard 5 of 4"
        );
    }

    /// Runs one static-weight GEMM `w · x` (component O) through `injector`, on the fused
    /// path, and returns the bundle it left.
    fn fused_through(
        injector: &mut ErrorInjector<BitFlipModel>,
        w: &MatI8,
        x: &MatI8,
    ) -> ChecksummedGemm {
        use realm_tensor::{GemmEngine, ReferenceEngine};
        let mut result = ReferenceEngine.gemm_i8_checksummed(w, x).unwrap();
        let ctx = GemmContext::new(Component::O, 0, Stage::Decode, 0).batched();
        injector.on_gemm_checksummed(&ctx, w, x, &mut result);
        result
    }

    #[test]
    fn silent_shard_faults_stay_in_their_stripe_and_kills_keep_the_checksums_fresh() {
        let w = MatI8::from_fn(3, 8, |r, c| (r as i8 * 3) - c as i8 + 1);
        let x = MatI8::from_fn(8, 10, |r, c| ((r * 10 + c) % 13) as i8 - 5);
        let clean = realm_tensor::gemm::gemm_i8(&w, &x).unwrap();
        // 10 columns over 3 shards: stripes 0..4, 4..7, 7..10.
        for fault in [
            ShardFault::Kill,
            ShardFault::Zero,
            ShardFault::Garble { seed: 3 },
        ] {
            let mut injector =
                ErrorInjector::new(BitFlipModel::uniform(0.0), Target::new().shard(1), 1);
            injector.arm_shard_faults(3, fault, 2);
            for step in 0..3 {
                let result = fused_through(&mut injector, &w, &x);
                let deviating: Vec<usize> = result
                    .column_deviations()
                    .iter()
                    .enumerate()
                    .filter_map(|(j, &d)| (d != 0).then_some(j))
                    .collect();
                if fault == ShardFault::Kill || step == 2 {
                    assert_eq!(result.acc(), &clean, "{fault:?} step {step}");
                    assert!(deviating.is_empty(), "{fault:?} step {step}");
                } else {
                    assert_ne!(result.acc(), &clean, "{fault:?} step {step}");
                    assert!(!deviating.is_empty() && deviating.iter().all(|j| (4..7).contains(j)));
                }
            }
            let stats = injector.stats().per_shard[1];
            let want = if fault == ShardFault::Kill {
                (2, 0)
            } else {
                (0, 2)
            };
            assert_eq!((stats.kills, stats.corruptions), want, "{fault:?}");
        }
    }

    #[test]
    fn shard_faults_skip_attention_gemms_and_empty_stripes() {
        let w = MatI8::filled(2, 4, 1);
        let x = MatI8::filled(4, 2, 1);
        let mut injector = ErrorInjector::everywhere(BitFlipModel::uniform(0.0), 1);
        // Degree 3 over 2 columns: shard 2's stripe is empty and never charged.
        injector.arm_shard_faults(3, ShardFault::Zero, 1);
        let mut acc = realm_tensor::gemm::gemm_i8(&w, &x).unwrap();
        let attention = GemmContext::new(Component::QkT, 0, Stage::Prefill, 0);
        injector.on_gemm(&attention, &w, &x, &mut acc);
        assert_eq!(
            acc,
            MatI32::filled(2, 2, 4),
            "QKᵀ multiplies activations: untouched"
        );
        let projection = GemmContext::new(Component::Q, 0, Stage::Prefill, 0);
        injector.on_gemm(&projection, &w, &x, &mut acc);
        assert_eq!(acc, MatI32::zeros(2, 2), "both non-empty stripes zeroed");
        let per_shard = &injector.stats().per_shard;
        assert_eq!(
            per_shard.iter().map(|s| s.corruptions).collect::<Vec<_>>(),
            [1, 1, 0]
        );
        let mut again = MatI32::filled(2, 2, 4);
        injector.on_gemm(&projection, &w, &x, &mut again);
        assert_eq!(
            again,
            MatI32::filled(2, 2, 4),
            "the one-step faults expired"
        );
    }

    #[test]
    fn armed_garble_persists_on_the_unprotected_datapath() {
        // The injector declines checksums, so under it alone nothing can detect an armed
        // garble (that is the protector's job): it lands in the output, and once its steps
        // ran out generation is clean again.
        let model = Model::new(&ModelConfig::tiny_llama(), 3).unwrap();
        let clean = model
            .generate(&[2, 3, 4], 5, &mut realm_llm::NoopHook)
            .unwrap();
        let mut injector =
            ErrorInjector::new(BitFlipModel::uniform(0.0), Target::new().shard(0), 5);
        injector.arm_shard_faults(2, ShardFault::Garble { seed: 11 }, 3);
        let corrupted = model.generate(&[2, 3, 4], 5, &mut injector).unwrap();
        assert_ne!(corrupted, clean, "the garble must reach the datapath");
        assert_eq!(injector.stats().per_shard[0].corruptions, 3);
        let recovered = model.generate(&[2, 3, 4], 5, &mut injector).unwrap();
        assert_eq!(recovered, clean);
    }
}
