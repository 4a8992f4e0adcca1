//! LLM resilience characterization: the paper's error-injection studies Q1.1–Q2.2 (Sec. IV).
//!
//! Every study follows the same recipe: pick an error model and a target (which layers /
//! components / stages receive errors), run many independent Monte-Carlo trials of a task
//! evaluation with that injector attached, and report the mean task metric per sweep point.
//! The functions here produce the data series behind Fig. 4 and Fig. 5; [`crate::report`]
//! prints them in the paper's layout.

use crate::Result;
use realm_eval::task::Task;
use realm_inject::{
    campaign::{run_and_summarize, TrialSummary},
    error_model::{ErrorModel, FixedBitModel, MagFreqModel},
    injector::ErrorInjector,
    targeting::Target,
};
use realm_llm::norm::LayerNorm;
use realm_llm::{Component, GemmHook, Model, Stage};
use realm_tensor::engine::{available_cores, par_map};
use realm_tensor::rng;

/// Shared configuration of a characterization study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StudyConfig {
    /// Independent fault-injection trials per sweep point.
    pub trials: usize,
    /// Base seed; every trial derives its own deterministic seed from it.
    pub seed: u64,
    /// Bit position flipped by the BER-style studies (the paper targets bit 30).
    pub bit: u8,
}

impl StudyConfig {
    /// A quick configuration for tests and examples (few trials).
    pub fn quick(seed: u64) -> Self {
        Self {
            trials: 4,
            seed,
            bit: 30,
        }
    }
}

/// One sweep point: an x-coordinate (BER, frequency, ...) and the aggregated task metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// The swept quantity (meaning depends on the study: BER, log₂ freq, ...).
    pub x: f64,
    /// Mean task metric over the trials.
    pub value: f64,
    /// Sample standard deviation over the trials.
    pub std: f64,
}

/// A labelled series of sweep points (one curve of a figure).
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Curve label (layer index, bit position, component name, ...).
    pub label: String,
    /// The sweep points in x order.
    pub points: Vec<SweepPoint>,
}

/// One magnitude/frequency grid point of the Q1.4 study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MagFreqPoint {
    /// log₂ of the injected error magnitude.
    pub log2_mag: f64,
    /// log₂ of the injected error frequency.
    pub log2_freq: f64,
    /// log₂ of the resulting matrix-sum deviation (`log2_mag + log2_freq`).
    pub log2_msd: f64,
    /// Mean task metric over the trials.
    pub value: f64,
}

/// One trial: evaluates `task` through `injector`; a run the faults broke outright counts as
/// the metric's worst case.
fn faulty_value(model: &Model, task: &dyn Task, injector: &mut dyn GemmHook) -> f64 {
    task.evaluate(model, injector).unwrap_or_else(|_| {
        if task.metric().higher_is_better() {
            0.0
        } else {
            f64::INFINITY
        }
    })
}

/// Runs `trials` fault-injection trials of `task` with the given error model and target and
/// aggregates the metric.
pub fn injection_trials<T, E, M>(
    model: &Model,
    task: &T,
    make_model: &M,
    target: &Target,
    config: &StudyConfig,
) -> TrialSummary
where
    T: Task + Sync,
    E: ErrorModel,
    M: Fn() -> E + Sync,
{
    run_and_summarize(config.trials, config.seed, |seed| {
        let mut injector = ErrorInjector::new(make_model(), target.clone(), seed);
        faulty_value(model, task, &mut injector)
    })
}

/// One curve of a BER sweep: `config.bit` flips at each of `bers` into the GEMMs `target`
/// selects.
fn ber_series<T: Task + Sync>(
    model: &Model,
    task: &T,
    label: String,
    bers: &[f64],
    target: &Target,
    config: &StudyConfig,
) -> Series {
    let points = bers
        .iter()
        .map(|&ber| {
            let make_model = || FixedBitModel::new(ber, config.bit);
            let summary = injection_trials(model, task, &make_model, target, config);
            SweepPoint {
                x: ber,
                value: summary.mean,
                std: summary.std,
            }
        })
        .collect();
    Series { label, points }
}

/// Q1.1 — layer-wise resilience: errors are injected into every component of one layer at a
/// time while the BER is swept (Fig. 4(a)(b)).
pub fn layerwise_study<T: Task + Sync>(
    model: &Model,
    task: &T,
    layers: &[usize],
    bers: &[f64],
    config: &StudyConfig,
) -> Result<Vec<Series>> {
    validate_sweep("layers", layers.len())?;
    validate_sweep("bers", bers.len())?;
    Ok(layers
        .iter()
        .map(|&layer| {
            let target = Target::new().layer(layer).stage(Stage::Prefill);
            ber_series(model, task, format!("layer{layer}"), bers, &target, config)
        })
        .collect())
}

/// Q1.2 — bit-wise resilience: a single component receives flips of one bit position while
/// the BER is swept (Fig. 4(c)(d)).
pub fn bitwise_study<T: Task + Sync>(
    model: &Model,
    task: &T,
    component: Component,
    bits: &[u8],
    bers: &[f64],
    config: &StudyConfig,
) -> Result<Vec<Series>> {
    validate_sweep("bits", bits.len())?;
    validate_sweep("bers", bers.len())?;
    let target = Target::new().component(component);
    Ok(bits
        .iter()
        .map(|&bit| {
            let config = StudyConfig { bit, ..*config };
            ber_series(model, task, format!("bit {bit}"), bers, &target, &config)
        })
        .collect())
}

/// Q1.3 / Q2.2 — component-wise resilience: each component receives bit-30 flips across all
/// layers while the BER is swept; `stage` selects prefill (Q1.3) or decode (Q2.2) injection
/// (Fig. 4(e)(f)(k)(l)).
pub fn componentwise_study<T: Task + Sync>(
    model: &Model,
    task: &T,
    components: &[Component],
    bers: &[f64],
    stage: Option<Stage>,
    config: &StudyConfig,
) -> Result<Vec<Series>> {
    validate_sweep("components", components.len())?;
    validate_sweep("bers", bers.len())?;
    Ok(components
        .iter()
        .map(|&component| {
            let mut target = Target::new().component(component);
            if let Some(stage) = stage {
                target = target.stage(stage);
            }
            let label = component.label().to_string();
            ber_series(model, task, label, bers, &target, config)
        })
        .collect())
}

/// Q1.4 — magnitude/frequency trade-off: controlled identical errors with `MSD = freq × mag`
/// are injected into one component (Fig. 4(g)(h)).
pub fn magfreq_study<T: Task + Sync>(
    model: &Model,
    task: &T,
    component: Component,
    log2_msds: &[u32],
    log2_freqs: &[u32],
    config: &StudyConfig,
) -> Result<Vec<MagFreqPoint>> {
    validate_sweep("log2_msds", log2_msds.len())?;
    validate_sweep("log2_freqs", log2_freqs.len())?;
    let mut grid = Vec::new();
    for &log2_msd in log2_msds {
        for &log2_freq in log2_freqs {
            if log2_freq >= log2_msd {
                continue; // magnitude would drop below one accumulator LSB
            }
            let log2_mag = log2_msd - log2_freq;
            let model_spec = MagFreqModel::new(1i64 << log2_mag, 1usize << log2_freq);
            let target = Target::new().component(component).stage(Stage::Prefill);
            // The MSD rides in the seed's high word so grid points of different rows never
            // share a fault stream.
            let values = par_map(available_cores(), config.trials, |i| {
                let seed = rng::derive_seed(config.seed, (log2_msd as u64) << 32 | i as u64);
                let mut injector = ErrorInjector::new(model_spec, target.clone(), seed);
                faulty_value(model, task, &mut injector)
            });
            let summary = TrialSummary::from_values(&values);
            grid.push(MagFreqPoint {
                log2_mag: log2_mag as f64,
                log2_freq: log2_freq as f64,
                log2_msd: log2_msd as f64,
                value: summary.mean,
            });
        }
    }
    Ok(grid)
}

/// Q2.1 — prefill vs decode sensitivity: the same error model targets only the prefill stage,
/// only the decode stage, or both (Fig. 4(i)(j)).
pub fn stagewise_study<T: Task + Sync>(
    model: &Model,
    task: &T,
    bers: &[f64],
    config: &StudyConfig,
) -> Result<Vec<Series>> {
    validate_sweep("bers", bers.len())?;
    let scopes: [(&str, Option<Stage>); 3] = [
        ("two_stage", None),
        ("prefill_stage", Some(Stage::Prefill)),
        ("decode_stage", Some(Stage::Decode)),
    ];
    Ok(scopes
        .iter()
        .map(|&(label, stage)| {
            let mut target = Target::new();
            if let Some(stage) = stage {
                target = target.stage(stage);
            }
            ber_series(model, task, label.to_string(), bers, &target, config)
        })
        .collect())
}

/// Report of the normalization-skew experiment (Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormSkewReport {
    /// Mean of the clean pre-norm hidden state.
    pub clean_mean: f32,
    /// Standard deviation of the clean pre-norm hidden state.
    pub clean_std: f32,
    /// Mean after injecting a single error of the given magnitude.
    pub skewed_mean: f32,
    /// Standard deviation after injecting the error.
    pub skewed_std: f32,
    /// Fraction of post-normalization elements that moved by more than a tenth of the clean
    /// output's standard deviation — the "everything shifts" effect of Fig. 5(b).
    pub post_norm_disturbed_fraction: f32,
}

/// Fig. 5 — how one injected error before a normalization layer skews µ/σ and disturbs every
/// normalized element.
pub fn norm_skew_study(model: &Model, error_magnitude: f32, seed: u64) -> NormSkewReport {
    let hidden = model.config().hidden_size;
    let mut r = rng::seeded(rng::derive_seed(seed, 0xF165));
    // A representative pre-norm hidden state: embed a random token (outlier channels and all).
    use rand::Rng;
    let token = r.gen_range(0..model.config().vocab_size as u32);
    let clean = model
        .embed(&[token])
        .expect("token sampled from the vocabulary");
    let mut corrupted = clean.clone();
    let position = r.gen_range(0..hidden);
    corrupted[(0, position)] += error_magnitude;

    let norm = LayerNorm::identity(hidden);
    let clean_stats = norm.row_statistics(&clean)[0];
    let skewed_stats = norm.row_statistics(&corrupted)[0];
    let clean_out = norm.forward(&clean);
    let skewed_out = norm.forward(&corrupted);
    let clean_out_std = realm_tensor::stats::summary(&clean_out).std.max(1e-6);
    let disturbed = clean_out
        .row(0)
        .iter()
        .zip(skewed_out.row(0))
        .enumerate()
        .filter(|(c, (a, b))| *c != position && (**b - **a).abs() > 0.1 * clean_out_std)
        .count();
    NormSkewReport {
        clean_mean: clean_stats.0,
        clean_std: clean_stats.1,
        skewed_mean: skewed_stats.0,
        skewed_std: skewed_stats.1,
        post_norm_disturbed_fraction: disturbed as f32 / (hidden - 1) as f32,
    }
}

fn validate_sweep(name: &str, len: usize) -> Result<()> {
    if len == 0 {
        return Err(crate::CoreError::InvalidExperiment {
            detail: format!("the {name} sweep is empty"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use realm_eval::continuation::{ContinuationTask, LAMBADA};
    use realm_eval::wikitext::WikitextTask;
    use realm_llm::config::ModelConfig;

    fn setup() -> (Model, WikitextTask) {
        let model = Model::new(&ModelConfig::tiny_opt(), 7).unwrap();
        let task = WikitextTask::quick(model.language(), 7);
        (model, task)
    }

    #[test]
    fn componentwise_study_reveals_sensitivity_ordering() {
        let (model, task) = setup();
        let config = StudyConfig::quick(3);
        let series = componentwise_study(
            &model,
            &task,
            &[Component::QkT, Component::O],
            &[5e-3],
            Some(Stage::Prefill),
            &config,
        )
        .unwrap();
        assert_eq!(series.len(), 2);
        let qkt = series[0].points[0].value;
        let o = series[1].points[0].value;
        assert!(
            o > qkt,
            "O (post-norm) must degrade perplexity more than the softmax-bounded QK^T: {o} vs {qkt}"
        );
    }

    #[test]
    fn layerwise_study_produces_one_series_per_layer() {
        let (model, task) = setup();
        let config = StudyConfig::quick(3);
        let series = layerwise_study(&model, &task, &[0, 1], &[1e-4, 1e-2], &config).unwrap();
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].points.len(), 2);
        assert_eq!(series[0].label, "layer0");
        // Degradation grows with BER within each layer's series.
        for s in &series {
            assert!(s.points[1].value >= s.points[0].value * 0.5);
        }
    }

    #[test]
    fn bitwise_study_shows_low_bits_are_harmless() {
        let (model, task) = setup();
        let config = StudyConfig::quick(5);
        let series =
            bitwise_study(&model, &task, Component::O, &[4, 30], &[1e-2], &config).unwrap();
        let low_bit = series[0].points[0].value;
        let high_bit = series[1].points[0].value;
        assert!(
            high_bit > low_bit,
            "bit-30 flips ({high_bit}) must hurt more than bit-4 flips ({low_bit})"
        );
    }

    #[test]
    fn magfreq_study_covers_the_grid_below_the_msd_diagonal() {
        let (model, task) = setup();
        let config = StudyConfig::quick(2);
        let grid =
            magfreq_study(&model, &task, Component::K, &[20, 24], &[0, 2, 30], &config).unwrap();
        // log2_freq = 30 exceeds both MSDs and is skipped.
        assert_eq!(grid.len(), 4);
        for p in &grid {
            assert_eq!(p.log2_mag + p.log2_freq, p.log2_msd);
            assert!(p.value.is_finite());
        }
    }

    #[test]
    fn stagewise_study_reports_three_scopes() {
        let model = Model::new(&ModelConfig::tiny_opt(), 9).unwrap();
        let task = ContinuationTask::new(LAMBADA, model.language(), 12, 8, 1, 9);
        let config = StudyConfig::quick(2);
        let series = stagewise_study(&model, &task, &[1e-3], &config).unwrap();
        assert_eq!(series.len(), 3);
        let labels: Vec<&str> = series.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, vec!["two_stage", "prefill_stage", "decode_stage"]);
    }

    #[test]
    fn norm_skew_study_shows_statistics_blowup() {
        let model = Model::new(&ModelConfig::tiny_opt(), 9).unwrap();
        let report = norm_skew_study(&model, 500.0, 3);
        assert!(report.skewed_std > report.clean_std * 2.0);
        assert!(report.post_norm_disturbed_fraction > 0.5);
    }

    /// Values recorded at the commit before the studies moved onto `campaign::par_map`
    /// (debug, release and the portable SIMD tier agree): a study that hands any trial a
    /// different seed — `derive_seed(config.seed, i)`, or `(log2_msd << 32) | i` as the
    /// stream for the magnitude/frequency grid — lands on other numbers.
    ///
    /// Re-recorded once, when softmax and SiLU moved from libm `expf` onto
    /// `row_kernels::exp`: the logits moved in their last bits, so the summary and the first
    /// grid value moved in their 10th to 12th significant digit. The seeds did not move: the
    /// sweep point, the median and three of the four grid values are unchanged.
    ///
    /// Re-recorded once more when `BitFlipModel` began drawing a firing element's mask
    /// directly instead of by rejection (same law, another stream): only the summary, whose
    /// trials draw through that model, moved. The sweep point (`FixedBitModel`) and the
    /// grid (`MagFreqModel`, whose position sampler lost its `HashSet` but not a draw) are
    /// the cross-check that nothing else did.
    #[test]
    fn every_study_hands_trial_i_the_seed_it_always_did() {
        use realm_inject::error_model::BitFlipModel;
        let (model, task) = setup();
        let config = StudyConfig::quick(3);
        let target = Target::new().component(Component::O).stage(Stage::Prefill);
        let summary = injection_trials(
            &model,
            &task,
            &|| BitFlipModel::high_bits(5e-3),
            &target,
            &config,
        );
        let recorded = TrialSummary {
            trials: 4,
            mean: 295.65042787138066,
            std: 142.06025747974851,
            min: 179.87202874442843,
            max: 502.6366146728097,
            median: 250.0465340341423,
        };
        assert_eq!(summary, recorded);

        let stage = Some(Stage::Prefill);
        let series =
            componentwise_study(&model, &task, &[Component::O], &[5e-3], stage, &config).unwrap();
        let recorded = SweepPoint {
            x: 5e-3,
            value: 50.89898543522851,
            std: 24.348918796993196,
        };
        assert_eq!(series[0].points[0], recorded);

        let grid = magfreq_study(&model, &task, Component::K, &[20, 24], &[0, 2], &config).unwrap();
        let values: Vec<f64> = grid.iter().map(|p| p.value).collect();
        let recorded = [
            18.137446727860926,
            18.137415939466965,
            18.13744350267933,
            18.137658308303887,
        ];
        assert_eq!(values, recorded);
    }

    #[test]
    fn empty_sweeps_are_rejected() {
        let (model, task) = setup();
        let config = StudyConfig::quick(1);
        assert!(layerwise_study(&model, &task, &[], &[1e-3], &config).is_err());
        assert!(componentwise_study(&model, &task, &[Component::O], &[], None, &config).is_err());
    }
}
