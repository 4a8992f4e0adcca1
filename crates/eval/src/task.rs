//! The task abstraction shared by all synthetic benchmarks.

use crate::metrics::Metric;
use realm_llm::{GemmHook, Model, Result};

/// A benchmark task that evaluates a model (optionally under fault injection) to one number.
pub trait Task {
    /// Human-readable task name used in reports (e.g. `"wikitext-synthetic"`).
    fn name(&self) -> &str;

    /// The metric family the score belongs to.
    fn metric(&self) -> Metric;

    /// Evaluates the model through the given GEMM hook and returns the metric value.
    ///
    /// # Errors
    ///
    /// Propagates model-inference errors (invalid tokens, context overflow, shape bugs).
    fn evaluate(&self, model: &Model, hook: &mut dyn GemmHook) -> Result<f64>;
}

impl<T: Task + ?Sized> Task for &T {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn metric(&self) -> Metric {
        (**self).metric()
    }

    fn evaluate(&self, model: &Model, hook: &mut dyn GemmHook) -> Result<f64> {
        (**self).evaluate(model, hook)
    }
}

impl<T: Task + ?Sized> Task for Box<T> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn metric(&self) -> Metric {
        (**self).metric()
    }

    fn evaluate(&self, model: &Model, hook: &mut dyn GemmHook) -> Result<f64> {
        (**self).evaluate(model, hook)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use realm_llm::{config::ModelConfig, NoopHook};

    struct ConstantTask(f64);
    impl Task for ConstantTask {
        fn name(&self) -> &str {
            "constant"
        }
        fn metric(&self) -> Metric {
            Metric::Accuracy
        }
        fn evaluate(&self, _model: &Model, _hook: &mut dyn GemmHook) -> Result<f64> {
            Ok(self.0)
        }
    }

    #[test]
    fn references_and_boxes_are_tasks() {
        let model = Model::new(&ModelConfig::tiny_opt(), 1).unwrap();
        let task = ConstantTask(10.0);
        let by_ref: &dyn Task = &task;
        assert_eq!(by_ref.evaluate(&model, &mut NoopHook).unwrap(), 10.0);
        let boxed: Box<dyn Task> = Box::new(ConstantTask(20.0));
        assert_eq!(boxed.name(), "constant");
        assert_eq!(boxed.evaluate(&model, &mut NoopHook).unwrap(), 20.0);
    }
}
