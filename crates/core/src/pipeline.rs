//! Protected-inference pipeline: task quality and total energy at a given operating voltage.
//!
//! One pipeline run answers the question the evaluation asks over and over (Fig. 9, Fig. 10,
//! Table II): *if the systolic array runs at voltage V with protection scheme S, what task
//! quality does the model deliver and how much energy does the whole thing cost, recoveries
//! included?* The run wires together:
//!
//! * the voltage→BER curve and an [`ErrorInjector`] emulating the faulty datapath,
//! * a [`SchemeProtector`] performing detection and recovery,
//! * the task evaluation itself,
//! * the systolic-array area/power model and the energy model for the final accounting.

use crate::protection::{RegionAssignment, SchemeProtector, SequenceAttribution, ShardAttribution};
use crate::{CoreError, Result};
use realm_eval::task::Task;
use realm_inject::{
    error_model::BitFlipModel, injector::ErrorInjector, targeting::Target, VoltageBerCurve,
};
use realm_llm::model::GenerationOutput;
use realm_llm::{BatchRequest, Component, Model};
use realm_systolic::{
    energy::WorkloadSpec, AreaPowerModel, EnergyModel, ProtectionScheme, SystolicArray,
};
use realm_tensor::EngineKind;

/// Configuration of a protected-inference pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// The systolic array executing the GEMMs.
    pub array: SystolicArray,
    /// Voltage → BER relationship of the datapath.
    pub curve: VoltageBerCurve,
    /// Dynamic-energy model of the array.
    pub energy: EnergyModel,
    /// Which components receive injected errors (and therefore need protection). The paper's
    /// evaluation protects one component at a time (e.g. `K` in OPT-1.3B); `None` means
    /// errors are injected everywhere.
    pub protected_component: Option<Component>,
    /// Number of lower accumulator bits excluded from injection (timing errors favour the
    /// high bits); 16 matches the high-bit model used in the characterization.
    pub min_error_bit: u8,
    /// GEMM execution backend for the protector's recovery recomputation. All backends are
    /// bit-exact, so this only changes how fast the sweeps run; it defaults to
    /// [`EngineKind::auto`] (the SIMD parallel backend) like the models themselves.
    pub engine: EngineKind,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            array: SystolicArray::paper_256x256_ws(),
            curve: VoltageBerCurve::default_14nm(),
            energy: EnergyModel::default_14nm(),
            protected_component: None,
            min_error_bit: 16,
            engine: EngineKind::auto(),
        }
    }
}

impl PipelineConfig {
    /// Restricts injection and protection to a single network component.
    pub fn for_component(component: Component) -> Self {
        Self {
            protected_component: Some(component),
            ..Self::default()
        }
    }
}

/// Outcome of one protected-inference run.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineOutcome {
    /// Protection scheme that was active.
    pub scheme: ProtectionScheme,
    /// Operating voltage of the run.
    pub voltage: f64,
    /// Bit-error rate implied by the voltage.
    pub ber: f64,
    /// Task metric value measured through the faulty, protected datapath.
    pub task_value: f64,
    /// Number of GEMMs inspected by the protector.
    pub gemms_inspected: u64,
    /// Number of recoveries the protector triggered.
    pub recoveries: u64,
    /// MACs of the main computation.
    pub compute_macs: u64,
    /// MACs re-executed by recoveries.
    pub recovery_macs: u64,
    /// Extra cycles spent on recovery.
    pub recovery_cycles: u64,
    /// Energy breakdown of the run.
    pub energy: realm_systolic::energy::WorkloadEnergy,
}

impl PipelineOutcome {
    /// Fraction of inspected GEMMs that triggered recovery.
    pub fn recovery_rate(&self) -> f64 {
        if self.gemms_inspected == 0 {
            0.0
        } else {
            self.recoveries as f64 / self.gemms_inspected as f64
        }
    }
}

/// Outcome of one batched protected-generation trial.
///
/// One trial runs a whole batch of sequences through shared prefill and lockstep decode
/// under injection and protection, so detection statistics are batch-wide while
/// `per_sequence` carries the checksum-based attribution of every detection/recovery back
/// to the batch index it originated from.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchedGenerationOutcome {
    /// Protection scheme that was active.
    pub scheme: ProtectionScheme,
    /// Operating voltage of the run.
    pub voltage: f64,
    /// Bit-error rate implied by the voltage.
    pub ber: f64,
    /// Generated tokens and margins, one entry per batch sequence in order.
    pub outputs: Vec<GenerationOutput>,
    /// Number of GEMMs inspected by the protector (shared GEMMs count once per batch).
    pub gemms_inspected: u64,
    /// Number of recoveries the protector triggered.
    pub recoveries: u64,
    /// Total number of injected errors.
    pub errors_injected: u64,
    /// Detection/recovery attribution per batch sequence index (dense, one per sequence).
    pub per_sequence: Vec<SequenceAttribution>,
    /// Detection/recovery attribution per shard (dense, one per column stripe of the
    /// model's `tp_degree`; empty at degree 1). The stripes never change a verdict — this
    /// only localizes them to fault domains.
    pub per_shard: Vec<ShardAttribution>,
}

/// A reusable protected-inference pipeline bound to one model.
///
/// Every run owns a single scratch [`realm_tensor::Workspace`] for its whole generation
/// loop (threaded through `Model::generate` / `Model::generate_batch` internally), and the
/// [`SchemeProtector`] reuses its detection buffers across inspections — so an injection
/// campaign of thousands of trials no longer churns the allocator once its pools are warm.
pub struct ProtectedPipeline<'m> {
    model: &'m Model,
    config: PipelineConfig,
    regions: RegionAssignment,
}

impl<'m> ProtectedPipeline<'m> {
    /// Creates a pipeline with default (class-based) critical regions.
    pub fn new(model: &'m Model, config: PipelineConfig) -> Self {
        Self {
            model,
            config,
            regions: RegionAssignment::new(),
        }
    }

    /// Creates a pipeline with explicitly fitted critical regions.
    pub fn with_regions(
        model: &'m Model,
        config: PipelineConfig,
        regions: RegionAssignment,
    ) -> Self {
        Self {
            model,
            config,
            regions,
        }
    }

    /// Arms the faulty datapath of one run — the injector emulating the bit-error rate
    /// `voltage` implies on the configured target, and the protector for `scheme` — and
    /// returns that rate with the pair.
    fn arm(
        &self,
        scheme: ProtectionScheme,
        voltage: f64,
        seed: u64,
    ) -> Result<(f64, ErrorInjector<BitFlipModel>, SchemeProtector)> {
        if voltage <= 0.0 {
            return Err(CoreError::InvalidExperiment {
                detail: format!("operating voltage must be positive, got {voltage}"),
            });
        }
        let ber = self.config.curve.ber_at(voltage);
        let target = match self.config.protected_component {
            Some(component) => Target::new().component(component),
            None => Target::everything(),
        };
        let injector = ErrorInjector::new(
            BitFlipModel::with_bit_range(ber, self.config.min_error_bit, 32),
            target,
            seed,
        );
        let mut protector = SchemeProtector::with_engine(
            scheme,
            self.config.array,
            &self.regions,
            self.config.engine.build(),
        );
        protector.set_shard_attribution(self.model.config().tp_degree);
        Ok((ber, injector, protector))
    }

    /// Runs `task` at `voltage` under `scheme` and returns quality plus energy accounting.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidExperiment`] for non-positive voltages and propagates task
    /// evaluation errors.
    pub fn run(
        &self,
        task: &dyn Task,
        scheme: ProtectionScheme,
        voltage: f64,
        seed: u64,
    ) -> Result<PipelineOutcome> {
        let (ber, mut injector, mut protector) = self.arm(scheme, voltage, seed)?;

        let task_value = {
            let mut hooks = (&mut injector, &mut protector);
            task.evaluate(self.model, &mut hooks)
                .map_err(CoreError::from)?
        };

        let injection_stats = injector.stats();
        let recovery_stats = protector.stats();
        // Total MACs of the main computation: every GEMM the injector observed, whether or
        // not it was targeted, runs on the array at the scaled voltage.
        let compute_macs = self.workload_macs();
        let area_power = AreaPowerModel::default_14nm(&self.config.array);
        let spec = WorkloadSpec {
            macs: compute_macs,
            voltage,
            detection_power_fraction: area_power.detection_power_fraction(scheme),
            recovery_macs: recovery_stats.recovery_macs,
            recovery_voltage: self.config.energy.nominal_voltage,
        };
        let energy = self.config.energy.workload_energy(&spec);
        Ok(PipelineOutcome {
            scheme,
            voltage,
            ber,
            task_value,
            gemms_inspected: recovery_stats
                .gemms_inspected
                .max(injection_stats.gemms_observed),
            recoveries: recovery_stats.recoveries_triggered,
            compute_macs,
            recovery_macs: recovery_stats.recovery_macs,
            recovery_cycles: recovery_stats.recovery_cycles,
            energy,
        })
    }

    /// Runs one batched protected-generation trial: all `prompts` share prefill GEMMs and
    /// lockstep decode under injection at `voltage` with protection scheme `scheme`.
    ///
    /// Detections and recoveries are attributed back to the originating batch sequence via
    /// the per-row-group checksum re-reduction (see
    /// [`SchemeProtector::sequence_attribution`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidExperiment`] for non-positive voltages or an empty
    /// prompt list, and propagates model errors.
    pub fn run_generation_batch(
        &self,
        prompts: &[Vec<u32>],
        new_tokens: usize,
        scheme: ProtectionScheme,
        voltage: f64,
        seed: u64,
    ) -> Result<BatchedGenerationOutcome> {
        let (ber, mut injector, mut protector) = self.arm(scheme, voltage, seed)?;
        if prompts.is_empty() {
            return Err(CoreError::InvalidExperiment {
                detail: "batched generation needs at least one prompt".into(),
            });
        }
        let requests: Vec<BatchRequest> = prompts
            .iter()
            .map(|p| BatchRequest::new(p.clone(), new_tokens))
            .collect();
        let outputs = {
            let mut hooks = (&mut injector, &mut protector);
            self.model
                .generate_batch(&requests, &mut hooks)
                .map_err(CoreError::from)?
        };
        // Dense attribution: one entry per sequence / shard, zeroed where nothing fired.
        let mut per_sequence = protector.sequence_attribution().to_vec();
        per_sequence.resize(prompts.len(), SequenceAttribution::default());
        Ok(BatchedGenerationOutcome {
            scheme,
            voltage,
            ber,
            outputs,
            gemms_inspected: protector.stats().gemms_inspected,
            recoveries: protector.stats().recoveries_triggered,
            errors_injected: injector.stats().errors_injected,
            per_sequence,
            per_shard: protector.shard_attribution().to_vec(),
        })
    }

    /// Clean-reference value of a task (no injection, no protection).
    ///
    /// # Errors
    ///
    /// Propagates task evaluation errors.
    pub fn clean_value(&self, task: &dyn Task) -> Result<f64> {
        task.evaluate(self.model, &mut realm_llm::NoopHook)
            .map_err(CoreError::from)
    }

    fn workload_macs(&self) -> u64 {
        // A representative workload unit: one prefill of half the context window. The energy
        // comparison across schemes and voltages only needs a consistent workload definition.
        self.model.prefill_macs(self.model.config().max_seq_len / 2)
    }
}

impl std::fmt::Debug for ProtectedPipeline<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProtectedPipeline")
            .field("model", &self.model.config().name)
            .field("config", &self.config)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use realm_eval::wikitext::WikitextTask;
    use realm_llm::config::ModelConfig;
    use realm_systolic::Dataflow;

    fn small_config() -> PipelineConfig {
        PipelineConfig {
            array: SystolicArray::small(Dataflow::WeightStationary),
            ..PipelineConfig::default()
        }
    }

    fn setup() -> (Model, WikitextTask) {
        let model = Model::new(&ModelConfig::tiny_opt(), 3).unwrap();
        let task = WikitextTask::quick(model.language(), 3);
        (model, task)
    }

    #[test]
    fn nominal_voltage_run_matches_clean_quality() {
        let (model, task) = setup();
        let pipeline = ProtectedPipeline::new(&model, small_config());
        let clean = pipeline.clean_value(&task).unwrap();
        let outcome = pipeline
            .run(&task, ProtectionScheme::None, 0.9, 11)
            .unwrap();
        assert!((outcome.task_value - clean).abs() < 1e-6);
        assert_eq!(outcome.recoveries, 0);
        assert!(outcome.ber < 1e-9);
        assert!(outcome.energy.total_j() > 0.0);
    }

    #[test]
    fn unprotected_low_voltage_degrades_quality() {
        let (model, task) = setup();
        let pipeline = ProtectedPipeline::new(&model, small_config());
        let clean = pipeline.clean_value(&task).unwrap();
        let outcome = pipeline
            .run(&task, ProtectionScheme::None, 0.58, 11)
            .unwrap();
        assert!(outcome.ber > 1e-4);
        assert!(
            outcome.task_value > clean + 1.0,
            "perplexity should degrade without protection (clean {clean}, got {})",
            outcome.task_value
        );
    }

    #[test]
    fn classical_abft_preserves_quality_but_pays_recovery_energy() {
        let (model, task) = setup();
        let pipeline = ProtectedPipeline::new(&model, small_config());
        let clean = pipeline.clean_value(&task).unwrap();
        let outcome = pipeline
            .run(&task, ProtectionScheme::ClassicalAbft, 0.60, 13)
            .unwrap();
        assert!(
            (outcome.task_value - clean).abs() < 0.5,
            "classical ABFT repairs quality (clean {clean}, got {})",
            outcome.task_value
        );
        assert!(outcome.recoveries > 0);
        assert!(outcome.energy.recovery_j > 0.0);
        assert!(outcome.recovery_rate() > 0.0);
    }

    #[test]
    fn statistical_abft_spends_less_recovery_energy_than_classical() {
        let (model, task) = setup();
        let pipeline = ProtectedPipeline::new(&model, small_config());
        let classical = pipeline
            .run(&task, ProtectionScheme::ClassicalAbft, 0.66, 21)
            .unwrap();
        let statistical = pipeline
            .run(&task, ProtectionScheme::StatisticalAbft, 0.66, 21)
            .unwrap();
        assert!(
            statistical.recovery_macs < classical.recovery_macs,
            "statistical ABFT recomputes less ({} vs {})",
            statistical.recovery_macs,
            classical.recovery_macs
        );
        assert!(statistical.energy.total_j() <= classical.energy.total_j());
    }

    #[test]
    fn batched_generation_amortises_inspections_and_preserves_output() {
        let (model, _) = setup();
        let pipeline = ProtectedPipeline::new(&model, small_config());
        let prompts: Vec<Vec<u32>> = vec![vec![1, 2, 3], vec![4, 5], vec![6, 7, 8, 9], vec![2]];
        let requests: Vec<BatchRequest> = prompts
            .iter()
            .map(|p| BatchRequest::new(p.clone(), 4))
            .collect();
        let clean = model
            .generate_batch(&requests, &mut realm_llm::NoopHook)
            .unwrap();

        let batched = pipeline
            .run_generation_batch(&prompts, 4, ProtectionScheme::ClassicalAbft, 0.60, 7)
            .unwrap();
        assert_eq!(batched.outputs.len(), 4);
        assert_eq!(batched.per_sequence.len(), 4);
        assert!(batched.errors_injected > 0);
        assert!(batched.recoveries > 0);
        assert_eq!(
            batched.outputs, clean,
            "classical ABFT repairs the batched faulty run to the clean tokens"
        );

        // Sequentially protected runs inspect each sequence's shared GEMMs separately, so
        // the batched run must inspect strictly fewer GEMMs for the same tokens.
        let mut sequential_inspected = 0;
        for prompt in &prompts {
            let outcome = pipeline
                .run_generation_batch(
                    std::slice::from_ref(prompt),
                    4,
                    ProtectionScheme::ClassicalAbft,
                    0.60,
                    7,
                )
                .unwrap();
            sequential_inspected += outcome.gemms_inspected;
        }
        assert!(
            batched.gemms_inspected < sequential_inspected,
            "batching amortises inspections ({} vs {sequential_inspected})",
            batched.gemms_inspected
        );
        assert!(pipeline
            .run_generation_batch(&[], 4, ProtectionScheme::None, 0.9, 1)
            .is_err());
    }

    #[test]
    fn sharded_pipeline_reports_per_shard_attribution() {
        let mut config = ModelConfig::tiny_opt();
        config.tp_degree = 2;
        let model = Model::new(&config, 3).unwrap();
        let pipeline = ProtectedPipeline::new(&model, small_config());
        let prompts: Vec<Vec<u32>> = vec![vec![1, 2, 3], vec![4, 5]];
        let outcome = pipeline
            .run_generation_batch(&prompts, 4, ProtectionScheme::ClassicalAbft, 0.60, 7)
            .unwrap();
        assert_eq!(outcome.per_shard.len(), 2, "dense, one entry per shard");
        assert!(outcome.recoveries > 0);
        let attributed: u64 = outcome.per_shard.iter().map(|a| a.detections).sum();
        assert!(
            attributed > 0,
            "low-voltage faults must localize to shard stripes"
        );

        // A one-stripe model reports no shard axis at all — and, the stripes being
        // bookkeeping only, produces the same tokens under the same faults.
        let unsharded = Model::new(&ModelConfig::tiny_opt(), 3).unwrap();
        let pipeline = ProtectedPipeline::new(&unsharded, small_config());
        let baseline = pipeline
            .run_generation_batch(&prompts, 4, ProtectionScheme::ClassicalAbft, 0.60, 7)
            .unwrap();
        assert!(baseline.per_shard.is_empty());
        assert_eq!(baseline.outputs, outcome.outputs);
    }

    #[test]
    fn invalid_voltage_is_rejected() {
        let (model, task) = setup();
        let pipeline = ProtectedPipeline::new(&model, small_config());
        assert!(pipeline.run(&task, ProtectionScheme::None, 0.0, 1).is_err());
    }

    #[test]
    fn component_scoped_pipeline_only_targets_that_component() {
        let (model, task) = setup();
        let config = PipelineConfig {
            array: SystolicArray::small(Dataflow::WeightStationary),
            ..PipelineConfig::for_component(Component::K)
        };
        let pipeline = ProtectedPipeline::new(&model, config);
        let outcome = pipeline
            .run(&task, ProtectionScheme::StatisticalAbft, 0.62, 5)
            .unwrap();
        assert!(outcome.task_value.is_finite());
    }
}
