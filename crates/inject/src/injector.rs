//! The error injector: a [`GemmHook`] that applies a fault model to targeted GEMMs.

use crate::error_model::ErrorModel;
use crate::targeting::Target;
use realm_llm::{Component, GemmContext, GemmHook};
use realm_tensor::rng::{self, SeededRng};
use realm_tensor::{ChecksummedGemm, MatI32, MatI8};

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
    fn on_gemm(&mut self, ctx: &GemmContext, _w: &MatI8, _x: &MatI8, acc: &mut MatI32) {
        self.stats.gemms_observed += 1;
        if !self.in_burst || !self.target.matches(ctx) {
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
        // Untouched (and fault-free) GEMMs must leave the fused observed checksum fresh:
        // taking `acc_mut` marks it stale and forces a downstream protector into a full
        // recompute — at low BER that is almost every GEMM. The same applies to steps
        // between bursts.
        if !self.in_burst || !self.target.matches(ctx) {
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
    fn fused_path_leaves_untouched_checksums_fresh() {
        use realm_tensor::{GemmEngine, ReferenceEngine};
        let w = MatI8::from_fn(3, 8, |r, c| (r as i8 * 3) - c as i8 + 1);
        let x = MatI8::from_fn(8, 10, |r, c| ((r * 10 + c) % 13) as i8 - 5);
        let clean = ReferenceEngine.gemm_i8_checksummed(&w, &x).unwrap();
        let ctx = GemmContext::new(Component::O, 0, Stage::Decode, 0);
        // Untargeted, or targeted with nothing drawn: the bundle is equal to the clean
        // one, its fresh observed checksum included.
        for target in [Target::new().component(Component::Q), Target::everything()] {
            let mut injector = ErrorInjector::new(FixedBitModel::bit30(0.0), target, 1);
            let mut result = clean.clone();
            injector.on_gemm_checksummed(&ctx, &w, &x, &mut result);
            assert_eq!(result, clean);
        }
        // A drawn fault leaves it stale, so the deviations see every flip.
        let mut injector = ErrorInjector::everywhere(FixedBitModel::bit30(1.0), 1);
        let mut result = clean.clone();
        injector.on_gemm_checksummed(&ctx, &w, &x, &mut result);
        assert!(result.column_deviations().iter().all(|&d| d != 0));
    }
}
