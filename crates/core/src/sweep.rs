//! Voltage sweeps, sweet-spot search and trade-off exploration (Fig. 9, Fig. 10, Table II).

use crate::pipeline::{PipelineOutcome, ProtectedPipeline};
use crate::{CoreError, Result};
use realm_eval::task::Task;
use realm_llm::Component;
use realm_systolic::ProtectionScheme;

/// A voltage sweep of one protection scheme (one curve of Fig. 9).
#[derive(Debug, Clone, PartialEq)]
pub struct VoltageSweep {
    /// The protection scheme swept.
    pub scheme: ProtectionScheme,
    /// One pipeline outcome per voltage point, in ascending voltage order.
    pub outcomes: Vec<PipelineOutcome>,
}

impl VoltageSweep {
    /// The outcome with minimal total energy whose task value stays within `budget` of
    /// `clean_value` (the "sweet spot" of Fig. 9), if any point qualifies.
    pub fn sweet_spot(
        &self,
        clean_value: f64,
        higher_is_better: bool,
        budget: f64,
    ) -> Option<&PipelineOutcome> {
        self.outcomes
            .iter()
            .filter(|o| degradation(clean_value, o.task_value, higher_is_better) <= budget)
            .min_by(|a, b| {
                a.energy
                    .total_j()
                    .partial_cmp(&b.energy.total_j())
                    .expect("energies are finite")
            })
    }
}

fn degradation(clean: f64, value: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        clean - value
    } else {
        value - clean
    }
}

/// Sweeps a protection scheme across operating voltages.
///
/// # Errors
///
/// Returns [`CoreError::InvalidExperiment`] for an empty voltage list and propagates pipeline
/// errors.
pub fn voltage_sweep(
    pipeline: &ProtectedPipeline<'_>,
    task: &dyn Task,
    scheme: ProtectionScheme,
    voltages: &[f64],
    seed: u64,
) -> Result<VoltageSweep> {
    if voltages.is_empty() {
        return Err(CoreError::InvalidExperiment {
            detail: "the voltage sweep is empty".into(),
        });
    }
    let mut outcomes = Vec::with_capacity(voltages.len());
    for (i, &v) in voltages.iter().enumerate() {
        outcomes.push(pipeline.run(task, scheme, v, seed.wrapping_add(i as u64))?);
    }
    Ok(VoltageSweep { scheme, outcomes })
}

/// Comparison of several schemes over the same voltage range (the full Fig. 9 panel).
///
/// # Errors
///
/// Propagates errors from the individual sweeps.
pub fn scheme_comparison(
    pipeline: &ProtectedPipeline<'_>,
    task: &dyn Task,
    schemes: &[ProtectionScheme],
    voltages: &[f64],
    seed: u64,
) -> Result<Vec<VoltageSweep>> {
    schemes
        .iter()
        .map(|&scheme| voltage_sweep(pipeline, task, scheme, voltages, seed))
        .collect()
}

/// Table II row: the best operating point found for one network component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentSweetSpot {
    /// The protected component.
    pub component: Component,
    /// Optimal (minimum-energy, within-budget) operating voltage.
    pub optimal_voltage: f64,
    /// Total energy at the optimal voltage, in joules.
    pub optimal_energy_j: f64,
    /// Energy of the reference scheme at its own best within-budget point, in joules.
    pub baseline_energy_j: f64,
    /// Energy saving relative to the reference scheme, in percent.
    pub energy_saving_percent: f64,
}

/// Finds the per-component sweet spots of the statistical scheme against a baseline scheme
/// (Table II: "optimal voltage" and "energy saving" per network component).
///
/// For every component, errors are injected only into that component (the paper's per-
/// component protection experiment); both schemes are swept over `voltages`, their
/// within-budget minimum-energy points are located, and the saving is reported.
///
/// # Errors
///
/// Propagates sweep errors; a component whose sweeps produce no within-budget point for
/// either scheme yields an [`CoreError::InvalidExperiment`].
#[allow(clippy::too_many_arguments)]
pub fn component_sweet_spots(
    model: &realm_llm::Model,
    base_config: &crate::pipeline::PipelineConfig,
    task: &dyn Task,
    components: &[Component],
    baseline_scheme: ProtectionScheme,
    voltages: &[f64],
    budget: f64,
    seed: u64,
) -> Result<Vec<ComponentSweetSpot>> {
    let higher_is_better = task.metric().higher_is_better();
    let mut rows = Vec::with_capacity(components.len());
    for &component in components {
        let config = crate::pipeline::PipelineConfig {
            protected_component: Some(component),
            ..base_config.clone()
        };
        let pipeline = ProtectedPipeline::new(model, config);
        let clean_value = pipeline.clean_value(task)?;
        let ours = voltage_sweep(
            &pipeline,
            task,
            ProtectionScheme::StatisticalAbft,
            voltages,
            seed,
        )?;
        let baseline = voltage_sweep(&pipeline, task, baseline_scheme, voltages, seed)?;
        let our_spot = ours
            .sweet_spot(clean_value, higher_is_better, budget)
            .ok_or_else(|| CoreError::InvalidExperiment {
                detail: format!("no within-budget operating point for {component}"),
            })?;
        let base_spot = baseline
            .sweet_spot(clean_value, higher_is_better, budget)
            .ok_or_else(|| CoreError::InvalidExperiment {
                detail: format!("no within-budget baseline point for {component}"),
            })?;
        let ours_j = our_spot.energy.total_j();
        let base_j = base_spot.energy.total_j();
        rows.push(ComponentSweetSpot {
            component,
            optimal_voltage: our_spot.voltage,
            optimal_energy_j: ours_j,
            baseline_energy_j: base_j,
            energy_saving_percent: 100.0 * (base_j - ours_j) / base_j,
        });
    }
    Ok(rows)
}

/// One point of the Fig. 10 trade-off: an acceptable-degradation budget and the resulting
/// recovery latency and energy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TradeoffPoint {
    /// Acceptable degradation used to position the detector thresholds / pick the sweet spot.
    pub budget: f64,
    /// Recovery cycles at the fixed evaluation voltage.
    pub recovery_cycles: u64,
    /// Total energy at the best within-budget voltage, in joules.
    pub optimal_energy_j: f64,
    /// The voltage of that best point.
    pub optimal_voltage: f64,
}

/// Explores the trade-off between the acceptable performance degradation and the recovery
/// latency / total energy (Fig. 10).
///
/// `eval_voltage` is the fixed voltage at which recovery latency is reported (0.72 V / 0.70 V
/// in the paper); the energy is reported at the best within-budget voltage of the sweep.
///
/// # Errors
///
/// Propagates sweep errors; budgets for which no voltage stays within budget are skipped.
pub fn degradation_tradeoff(
    pipeline: &ProtectedPipeline<'_>,
    task: &dyn Task,
    budgets: &[f64],
    voltages: &[f64],
    eval_voltage: f64,
    seed: u64,
) -> Result<Vec<TradeoffPoint>> {
    if budgets.is_empty() {
        return Err(CoreError::InvalidExperiment {
            detail: "the budget sweep is empty".into(),
        });
    }
    let clean = pipeline.clean_value(task)?;
    let higher_is_better = task.metric().higher_is_better();
    let sweep = voltage_sweep(
        pipeline,
        task,
        ProtectionScheme::StatisticalAbft,
        voltages,
        seed,
    )?;
    let fixed = pipeline.run(task, ProtectionScheme::StatisticalAbft, eval_voltage, seed)?;
    let mut points = Vec::new();
    for &budget in budgets {
        if let Some(spot) = sweep.sweet_spot(clean, higher_is_better, budget) {
            points.push(TradeoffPoint {
                budget,
                recovery_cycles: fixed.recovery_cycles,
                optimal_energy_j: spot.energy.total_j(),
                optimal_voltage: spot.voltage,
            });
        }
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;
    use realm_eval::wikitext::WikitextTask;
    use realm_llm::{config::ModelConfig, Model};
    use realm_systolic::{Dataflow, SystolicArray};

    fn small_config() -> PipelineConfig {
        PipelineConfig {
            array: SystolicArray::small(Dataflow::WeightStationary),
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn voltage_sweep_orders_outcomes_and_finds_sweet_spot() {
        let model = Model::new(&ModelConfig::tiny_opt(), 3).unwrap();
        let task = WikitextTask::quick(model.language(), 3);
        let pipeline = ProtectedPipeline::new(&model, small_config());
        let clean = pipeline.clean_value(&task).unwrap();
        let voltages = [0.62, 0.70, 0.78, 0.86];
        let sweep = voltage_sweep(
            &pipeline,
            &task,
            ProtectionScheme::StatisticalAbft,
            &voltages,
            5,
        )
        .unwrap();
        assert_eq!(sweep.outcomes.len(), 4);
        let spot = sweep
            .sweet_spot(clean, false, 0.5)
            .expect("a sweet spot exists");
        assert!(voltages.contains(&spot.voltage));
        // The sweet spot must not sit at the highest voltage: undervolting saves energy.
        assert!(spot.voltage < 0.86 + 1e-12);
        // And its energy is the minimum among within-budget points.
        for o in &sweep.outcomes {
            if o.task_value - clean <= 0.5 {
                assert!(spot.energy.total_j() <= o.energy.total_j() + 1e-15);
            }
        }
    }

    #[test]
    fn empty_sweeps_are_rejected() {
        let model = Model::new(&ModelConfig::tiny_opt(), 3).unwrap();
        let task = WikitextTask::quick(model.language(), 3);
        let pipeline = ProtectedPipeline::new(&model, small_config());
        assert!(voltage_sweep(&pipeline, &task, ProtectionScheme::None, &[], 1).is_err());
        assert!(degradation_tradeoff(&pipeline, &task, &[], &[0.7], 0.7, 1).is_err());
    }

    #[test]
    fn scheme_comparison_produces_one_sweep_per_scheme() {
        let model = Model::new(&ModelConfig::tiny_opt(), 3).unwrap();
        let task = WikitextTask::quick(model.language(), 3);
        let pipeline = ProtectedPipeline::new(&model, small_config());
        let sweeps = scheme_comparison(
            &pipeline,
            &task,
            &[
                ProtectionScheme::ClassicalAbft,
                ProtectionScheme::StatisticalAbft,
            ],
            &[0.68, 0.80],
            9,
        )
        .unwrap();
        assert_eq!(sweeps.len(), 2);
        assert_eq!(sweeps[0].scheme, ProtectionScheme::ClassicalAbft);
        assert_eq!(sweeps[1].outcomes.len(), 2);
    }

    #[test]
    fn larger_budgets_never_cost_more_energy() {
        let model = Model::new(&ModelConfig::tiny_opt(), 3).unwrap();
        let task = WikitextTask::quick(model.language(), 3);
        let pipeline = ProtectedPipeline::new(&model, small_config());
        let points = degradation_tradeoff(
            &pipeline,
            &task,
            &[0.1, 0.5, 2.0, 10.0],
            &[0.62, 0.68, 0.74, 0.80, 0.86],
            0.72,
            7,
        )
        .unwrap();
        assert!(!points.is_empty());
        for pair in points.windows(2) {
            assert!(
                pair[1].optimal_energy_j <= pair[0].optimal_energy_j + 1e-15,
                "relaxing the budget cannot increase the optimal energy"
            );
        }
    }
}
