//! Fitting per-component critical regions from characterization data (Sec. V-A).
//!
//! The paper sets its detector parameters empirically: it injects controlled
//! magnitude/frequency error patterns into each network component, measures the task
//! degradation, declares a budget (e.g. "0.3 perplexity increase, 0.5% accuracy drop
//! acceptable") and fits the critical-region boundary to the transition between acceptable
//! and unacceptable patterns. [`fit_component_region`] performs that procedure for one
//! component, and [`fit_all_components`] produces the full [`RegionAssignment`] consumed by
//! the statistical protector.

use crate::characterize::{magfreq_study, MagFreqPoint, StudyConfig};
use crate::protection::RegionAssignment;
use crate::{CoreError, Result};
use realm_abft::critical_region::{CriticalRegion, RegionSample};
use realm_eval::task::Task;
use realm_llm::{Component, Model};

/// Acceptable-degradation budget used when classifying characterization samples.
///
/// The paper's evaluation allows a 0.3 perplexity increase / 0.5% accuracy decrease.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationBudget {
    /// Maximum tolerated increase of a lower-is-better metric (perplexity).
    pub max_metric_increase: f64,
}

impl DegradationBudget {
    /// The paper's default budget expressed for perplexity-style metrics.
    pub fn paper_default() -> Self {
        Self {
            max_metric_increase: 0.3,
        }
    }

    /// A custom budget.
    ///
    /// # Panics
    ///
    /// Panics if the budget is negative.
    pub fn new(max_metric_increase: f64) -> Self {
        assert!(max_metric_increase >= 0.0, "budgets cannot be negative");
        Self {
            max_metric_increase,
        }
    }
}

/// Converts a magnitude/frequency characterization grid into critical-region samples.
///
/// `clean_value` is the task metric without any injection; each grid point's degradation is
/// computed relative to it using the task metric's direction.
pub fn grid_to_samples(
    grid: &[MagFreqPoint],
    clean_value: f64,
    higher_is_better: bool,
) -> Vec<RegionSample> {
    grid.iter()
        .map(|p| RegionSample {
            log2_mag: p.log2_mag,
            log2_freq: p.log2_freq,
            degradation: if higher_is_better {
                clean_value - p.value
            } else {
                p.value - clean_value
            },
        })
        .collect()
}

/// Result of fitting one component's critical region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentFit {
    /// The component the region applies to.
    pub component: Component,
    /// The fitted region (or the class default when the grid had no critical transition).
    pub region: CriticalRegion,
    /// Whether the region came from an actual fit (`true`) or fell back to the class default
    /// (`false`, e.g. when every sampled pattern stayed within the budget).
    pub fitted: bool,
}

/// Fits the critical region of a single component from a magnitude/frequency study.
///
/// # Errors
///
/// Returns [`CoreError::InvalidExperiment`] if the sweep definitions are empty, and
/// propagates task-evaluation errors.
pub fn fit_component_region<T: Task + Sync>(
    model: &Model,
    task: &T,
    component: Component,
    log2_msds: &[u32],
    log2_freqs: &[u32],
    budget: &DegradationBudget,
    config: &StudyConfig,
) -> Result<ComponentFit> {
    let clean = task
        .evaluate(model, &mut realm_llm::NoopHook)
        .map_err(CoreError::from)?;
    let grid = magfreq_study(model, task, component, log2_msds, log2_freqs, config)?;
    let samples = grid_to_samples(&grid, clean, task.metric().higher_is_better());
    match CriticalRegion::fit(&samples, budget.max_metric_increase) {
        Some(region) => Ok(ComponentFit {
            component,
            region,
            fitted: true,
        }),
        None => Ok(ComponentFit {
            component,
            region: if component.is_sensitive() {
                CriticalRegion::sensitive_default()
            } else {
                CriticalRegion::resilient_default()
            },
            fitted: false,
        }),
    }
}

/// Fits critical regions for a set of components and bundles them into a [`RegionAssignment`].
///
/// # Errors
///
/// Propagates errors from the per-component fits.
pub fn fit_all_components<T: Task + Sync>(
    model: &Model,
    task: &T,
    components: &[Component],
    log2_msds: &[u32],
    log2_freqs: &[u32],
    budget: &DegradationBudget,
    config: &StudyConfig,
) -> Result<(RegionAssignment, Vec<ComponentFit>)> {
    let mut assignment = RegionAssignment::new();
    let mut fits = Vec::with_capacity(components.len());
    for &component in components {
        let fit = fit_component_region(
            model, task, component, log2_msds, log2_freqs, budget, config,
        )?;
        assignment.set(component, fit.region);
        fits.push(fit);
    }
    Ok((assignment, fits))
}

#[cfg(test)]
mod tests {
    use super::*;
    use realm_eval::wikitext::WikitextTask;
    use realm_llm::config::ModelConfig;

    #[test]
    fn budget_constructors_validate() {
        assert_eq!(DegradationBudget::paper_default().max_metric_increase, 0.3);
        assert_eq!(DegradationBudget::new(1.5).max_metric_increase, 1.5);
    }

    #[test]
    #[should_panic(expected = "cannot be negative")]
    fn negative_budget_is_rejected() {
        let _ = DegradationBudget::new(-0.1);
    }

    #[test]
    fn grid_to_samples_respects_metric_direction() {
        let grid = vec![MagFreqPoint {
            log2_mag: 10.0,
            log2_freq: 2.0,
            log2_msd: 12.0,
            value: 20.0,
        }];
        let ppl_samples = grid_to_samples(&grid, 15.0, false);
        assert!((ppl_samples[0].degradation - 5.0).abs() < 1e-12);
        let acc_samples = grid_to_samples(&grid, 80.0, true);
        assert!((acc_samples[0].degradation - 60.0).abs() < 1e-12);
    }

    #[test]
    fn fitting_a_resilient_component_yields_permissive_region() {
        let model = Model::new(&ModelConfig::tiny_opt(), 7).unwrap();
        let task = WikitextTask::quick(model.language(), 7);
        let fit = fit_component_region(
            &model,
            &task,
            Component::K,
            &[16, 22, 26],
            &[0, 2, 4, 6],
            &DegradationBudget::new(1.0),
            &StudyConfig::quick(3),
        )
        .unwrap();
        assert_eq!(fit.component, Component::K);
        // Whether fitted or defaulted, a resilient component must tolerate a single error.
        assert!(!fit.region.requires_recovery(1, 1 << 22));
    }

    #[test]
    fn fit_all_components_builds_an_assignment() {
        let model = Model::new(&ModelConfig::tiny_opt(), 7).unwrap();
        let task = WikitextTask::quick(model.language(), 7);
        let (assignment, fits) = fit_all_components(
            &model,
            &task,
            &[Component::K, Component::O],
            &[18, 24],
            &[0, 3],
            &DegradationBudget::new(1.0),
            &StudyConfig::quick(3),
        )
        .unwrap();
        assert_eq!(fits.len(), 2);
        assert_eq!(assignment.len(), 2);
        // The statistical protector consults these regions per component.
        let _ = assignment.region_for(Component::K);
        let _ = assignment.region_for(Component::O);
    }
}
