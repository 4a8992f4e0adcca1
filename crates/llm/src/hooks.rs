//! GEMM interception hooks: the seam between the model, the error injector and ABFT.
//!
//! Every quantized GEMM executed by the model calls [`GemmHook::on_gemm`] with the INT8
//! operands and a mutable reference to the INT32 accumulator result, together with a
//! [`GemmContext`] describing *which* GEMM this is (component, layer, stage). This mirrors
//! the hardware picture in the paper:
//!
//! * the **error injector** mutates the accumulator in place, emulating timing errors in the
//!   systolic array's datapath;
//! * the **ABFT protector** recomputes checksums from the (assumed-correct) operands,
//!   compares them with checksums of the possibly-corrupted accumulator, and may trigger a
//!   recovery that restores the accumulator.
//!
//! Hooks compose with [`HookChain`], which applies them in order — injection first, then
//! protection, matching the physical order of fault and detection.

use crate::component::{Component, Stage};
use realm_tensor::{ChecksummedGemm, MatI32, MatI8, RowPartition};

/// Which sequence(s) of a batch the accumulator rows of a GEMM belong to.
///
/// The batched forward path stacks every sequence's activations into one matrix for the
/// shared projections (`Q`/`K`/`V`/`O` and the MLP components) while the attention-internal
/// GEMMs (`QKᵀ`, `SV`) stay per-sequence (each sequence has its own cache length and causal
/// mask). Hooks that attribute work to sequences — injection campaigns, ABFT protectors —
/// read this tag to know which case they are looking at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GemmOrigin {
    /// Every accumulator row belongs to the batch sequence with this index. The
    /// single-sequence forward path always reports `Sequence(0)`.
    Sequence(usize),
    /// Accumulator rows are stacked across the whole batch; the row → sequence map is the
    /// [`RowPartition`] most recently announced through [`GemmHook::on_batch_begin`].
    BatchedRows,
}

impl Default for GemmOrigin {
    fn default() -> Self {
        GemmOrigin::Sequence(0)
    }
}

/// Metadata describing a single GEMM invocation inside the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmContext {
    /// Which network component this GEMM implements.
    pub component: Component,
    /// Zero-based index of the Transformer block.
    pub layer: usize,
    /// Inference stage (prefill or decode).
    pub stage: Stage,
    /// Monotonically increasing index of the GEMM within the current forward pass.
    pub sequence: usize,
    /// Batch provenance of the accumulator rows (defaults to [`GemmOrigin::Sequence`] 0).
    pub origin: GemmOrigin,
}

impl GemmContext {
    /// Creates a context; `sequence` is assigned by the model as it walks the graph.
    pub fn new(component: Component, layer: usize, stage: Stage, sequence: usize) -> Self {
        Self {
            component,
            layer,
            stage,
            sequence,
            origin: GemmOrigin::default(),
        }
    }

    /// Tags the context as belonging entirely to batch sequence `seq` (per-sequence
    /// attention GEMMs inside a batched forward).
    pub fn for_sequence(mut self, seq: usize) -> Self {
        self.origin = GemmOrigin::Sequence(seq);
        self
    }

    /// Tags the context as a batch-stacked GEMM whose rows span every sequence.
    pub fn batched(mut self) -> Self {
        self.origin = GemmOrigin::BatchedRows;
        self
    }
}

/// Observer/mutator invoked for every quantized GEMM in the model.
///
/// Implementors may inspect the INT8 operands (`w`, `x`) and mutate the INT32 accumulator
/// `acc` in place. The model treats the accumulator contents after all hooks ran as the
/// result of the GEMM.
///
/// The operand naming follows the paper's ABFT formulation `Y = W · X`: `w` is the
/// left-hand operand of shape `(m, k)` and `x` the right-hand operand of shape `(k, n)`.
pub trait GemmHook {
    /// Called after the accumulator has been computed and before it is converted back to
    /// floating point (or re-quantized).
    fn on_gemm(&mut self, ctx: &GemmContext, w: &MatI8, x: &MatI8, acc: &mut MatI32);

    /// Checksummed variant: called when the GEMM ran through a fused-checksum
    /// [`realm_tensor::GemmEngine`] pass, handing the hook the accumulator *with* its ABFT
    /// column checksums so protectors can skip the operand re-read.
    ///
    /// The default implementation forwards to [`GemmHook::on_gemm`] on the accumulator
    /// (which conservatively marks the observed checksum stale); checksum-aware hooks such
    /// as `SchemeProtector` override it to consume the fused checksums directly.
    fn on_gemm_checksummed(
        &mut self,
        ctx: &GemmContext,
        w: &MatI8,
        x: &MatI8,
        result: &mut ChecksummedGemm,
    ) {
        self.on_gemm(ctx, w, x, result.acc_mut());
    }

    /// Whether this hook consumes the fused ABFT checksums.
    ///
    /// The model queries this before each GEMM: when no hook in the chain wants checksums
    /// (fault-free baselines, unprotected runs), the plain GEMM runs and the checksum
    /// reductions are skipped entirely. Defaults to `true` so custom hooks are safe; pure
    /// observers and mutators (recorders, injectors) override it to `false`.
    fn wants_checksums(&self) -> bool {
        true
    }

    /// Announces the row partition of an upcoming batched forward pass.
    ///
    /// The model calls this once before each batched prefill and before every lockstep
    /// decode step, handing hooks the map from stacked accumulator rows to batch sequence
    /// indices. GEMMs tagged [`GemmOrigin::BatchedRows`] until the next announcement use
    /// this partition. Hooks that do not care (the default) ignore it.
    fn on_batch_begin(&mut self, partition: &RowPartition) {
        let _ = partition;
    }

    /// Announces the start of engine step `step` (a serving engine's monotone step
    /// counter).
    ///
    /// Unlike [`GemmHook::on_batch_begin`] — which fires before *every* batched forward
    /// pass, up to twice per step (prefill pass, then decode pass) — this is a true step
    /// clock: the serving layer calls it exactly once per scheduler step, before any
    /// forward of that step runs. Time-correlated hooks (e.g. a burst-mode error
    /// injector) key their schedules off it. Hooks that do not care (the default) ignore
    /// it; standalone (non-serving) runs never call it.
    fn on_step_begin(&mut self, step: u64) {
        let _ = step;
    }
}

/// A hook that does nothing: fault-free, unprotected inference.
///
/// # Example
///
/// ```
/// use realm_llm::hooks::{GemmHook, NoopHook, GemmContext};
/// use realm_llm::{Component, Stage};
/// use realm_tensor::{MatI8, MatI32};
///
/// let mut hook = NoopHook;
/// let w = MatI8::filled(2, 2, 1);
/// let x = MatI8::filled(2, 2, 1);
/// let mut acc = MatI32::filled(2, 2, 2);
/// let ctx = GemmContext::new(Component::Q, 0, Stage::Prefill, 0);
/// hook.on_gemm(&ctx, &w, &x, &mut acc);
/// assert_eq!(acc, MatI32::filled(2, 2, 2));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopHook;

impl GemmHook for NoopHook {
    fn on_gemm(&mut self, _ctx: &GemmContext, _w: &MatI8, _x: &MatI8, _acc: &mut MatI32) {}

    fn wants_checksums(&self) -> bool {
        false
    }
}

impl<H: GemmHook + ?Sized> GemmHook for &mut H {
    fn on_gemm(&mut self, ctx: &GemmContext, w: &MatI8, x: &MatI8, acc: &mut MatI32) {
        (**self).on_gemm(ctx, w, x, acc);
    }

    fn on_gemm_checksummed(
        &mut self,
        ctx: &GemmContext,
        w: &MatI8,
        x: &MatI8,
        result: &mut ChecksummedGemm,
    ) {
        (**self).on_gemm_checksummed(ctx, w, x, result);
    }

    fn wants_checksums(&self) -> bool {
        (**self).wants_checksums()
    }

    fn on_batch_begin(&mut self, partition: &RowPartition) {
        (**self).on_batch_begin(partition);
    }

    fn on_step_begin(&mut self, step: u64) {
        (**self).on_step_begin(step);
    }
}

impl<H: GemmHook + ?Sized> GemmHook for Box<H> {
    fn on_gemm(&mut self, ctx: &GemmContext, w: &MatI8, x: &MatI8, acc: &mut MatI32) {
        (**self).on_gemm(ctx, w, x, acc);
    }

    fn on_gemm_checksummed(
        &mut self,
        ctx: &GemmContext,
        w: &MatI8,
        x: &MatI8,
        result: &mut ChecksummedGemm,
    ) {
        (**self).on_gemm_checksummed(ctx, w, x, result);
    }

    fn wants_checksums(&self) -> bool {
        (**self).wants_checksums()
    }

    fn on_batch_begin(&mut self, partition: &RowPartition) {
        (**self).on_batch_begin(partition);
    }

    fn on_step_begin(&mut self, step: u64) {
        (**self).on_step_begin(step);
    }
}

/// Applies a sequence of hooks in order (typically: injector first, protector second).
#[derive(Default)]
pub struct HookChain<'a> {
    hooks: Vec<&'a mut dyn GemmHook>,
}

impl<'a> HookChain<'a> {
    /// Creates an empty chain.
    pub fn new() -> Self {
        Self { hooks: Vec::new() }
    }

    /// Appends a hook to the end of the chain and returns the chain for chaining calls.
    pub fn with(mut self, hook: &'a mut dyn GemmHook) -> Self {
        self.hooks.push(hook);
        self
    }

    /// Appends a hook to the end of the chain.
    pub fn push(&mut self, hook: &'a mut dyn GemmHook) {
        self.hooks.push(hook);
    }

    /// Number of hooks in the chain.
    pub fn len(&self) -> usize {
        self.hooks.len()
    }

    /// Returns `true` if the chain contains no hooks.
    pub fn is_empty(&self) -> bool {
        self.hooks.is_empty()
    }
}

impl std::fmt::Debug for HookChain<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HookChain")
            .field("len", &self.hooks.len())
            .finish()
    }
}

impl GemmHook for HookChain<'_> {
    fn on_gemm(&mut self, ctx: &GemmContext, w: &MatI8, x: &MatI8, acc: &mut MatI32) {
        for hook in &mut self.hooks {
            hook.on_gemm(ctx, w, x, acc);
        }
    }

    fn on_gemm_checksummed(
        &mut self,
        ctx: &GemmContext,
        w: &MatI8,
        x: &MatI8,
        result: &mut ChecksummedGemm,
    ) {
        // Each hook sees the checksummed result in turn: an injector mutates the accumulator
        // (marking the observed checksum stale), a downstream protector then inspects the
        // deviations of exactly what the injector left behind.
        for hook in &mut self.hooks {
            hook.on_gemm_checksummed(ctx, w, x, result);
        }
    }

    fn wants_checksums(&self) -> bool {
        self.hooks.iter().any(|h| h.wants_checksums())
    }

    fn on_batch_begin(&mut self, partition: &RowPartition) {
        for hook in &mut self.hooks {
            hook.on_batch_begin(partition);
        }
    }

    fn on_step_begin(&mut self, step: u64) {
        for hook in &mut self.hooks {
            hook.on_step_begin(step);
        }
    }
}

/// A hook that records which GEMMs were executed; useful in tests and for workload accounting.
#[derive(Debug, Default, Clone)]
pub struct RecordingHook {
    /// Contexts of every observed GEMM, in execution order.
    pub calls: Vec<GemmContext>,
    /// Total number of multiply-accumulate operations observed (`m * n * k` per GEMM).
    pub total_macs: u64,
}

impl RecordingHook {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of GEMMs observed.
    pub fn count(&self) -> usize {
        self.calls.len()
    }

    /// Number of GEMMs observed for a specific component.
    pub fn count_for(&self, component: Component) -> usize {
        self.calls
            .iter()
            .filter(|c| c.component == component)
            .count()
    }
}

impl GemmHook for RecordingHook {
    fn on_gemm(&mut self, ctx: &GemmContext, w: &MatI8, x: &MatI8, _acc: &mut MatI32) {
        self.calls.push(*ctx);
        self.total_macs += (w.rows() * w.cols() * x.cols()) as u64;
    }

    fn on_gemm_checksummed(
        &mut self,
        ctx: &GemmContext,
        w: &MatI8,
        x: &MatI8,
        _result: &mut ChecksummedGemm,
    ) {
        // Pure observer: avoid the default's `acc_mut` so the fused observed checksum stays
        // fresh for hooks later in the chain.
        self.calls.push(*ctx);
        self.total_macs += (w.rows() * w.cols() * x.cols()) as u64;
    }

    fn wants_checksums(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct AddOne;
    impl GemmHook for AddOne {
        fn on_gemm(&mut self, _ctx: &GemmContext, _w: &MatI8, _x: &MatI8, acc: &mut MatI32) {
            for v in acc.iter_mut() {
                *v += 1;
            }
        }
    }

    struct Double;
    impl GemmHook for Double {
        fn on_gemm(&mut self, _ctx: &GemmContext, _w: &MatI8, _x: &MatI8, acc: &mut MatI32) {
            for v in acc.iter_mut() {
                *v *= 2;
            }
        }
    }

    fn ctx() -> GemmContext {
        GemmContext::new(Component::Q, 0, Stage::Prefill, 0)
    }

    #[test]
    fn noop_leaves_accumulator_untouched() {
        let mut acc = MatI32::filled(2, 2, 7);
        NoopHook.on_gemm(&ctx(), &MatI8::zeros(2, 2), &MatI8::zeros(2, 2), &mut acc);
        assert_eq!(acc, MatI32::filled(2, 2, 7));
    }

    #[test]
    fn chain_applies_hooks_in_order() {
        let mut add = AddOne;
        let mut double = Double;
        let mut chain = HookChain::new().with(&mut add).with(&mut double);
        let mut acc = MatI32::filled(1, 1, 3);
        chain.on_gemm(&ctx(), &MatI8::zeros(1, 1), &MatI8::zeros(1, 1), &mut acc);
        // (3 + 1) * 2 = 8, not 3 * 2 + 1 = 7.
        assert_eq!(acc[(0, 0)], 8);
        assert_eq!(chain.len(), 2);
        assert!(!chain.is_empty());
    }

    #[test]
    fn recording_hook_counts_macs() {
        let mut rec = RecordingHook::new();
        let w = MatI8::zeros(2, 3);
        let x = MatI8::zeros(3, 4);
        let mut acc = MatI32::zeros(2, 4);
        rec.on_gemm(&ctx(), &w, &x, &mut acc);
        assert_eq!(rec.count(), 1);
        assert_eq!(rec.total_macs, 24);
        assert_eq!(rec.count_for(Component::Q), 1);
        assert_eq!(rec.count_for(Component::O), 0);
    }

    #[test]
    fn step_clock_forwards_through_chain_and_box() {
        #[derive(Default)]
        struct StepRecorder {
            steps: Vec<u64>,
        }
        impl GemmHook for StepRecorder {
            fn on_gemm(&mut self, _: &GemmContext, _: &MatI8, _: &MatI8, _: &mut MatI32) {}
            fn on_step_begin(&mut self, step: u64) {
                self.steps.push(step);
            }
        }

        let mut a = StepRecorder::default();
        let mut boxed: Box<dyn GemmHook> = Box::new(StepRecorder::default());
        let mut chain = HookChain::new().with(&mut a).with(&mut boxed);
        chain.on_step_begin(3);
        chain.on_step_begin(4);
        drop(chain);
        assert_eq!(a.steps, vec![3, 4]);
        // The default implementation is a no-op, so arbitrary hooks stay valid.
        NoopHook.on_step_begin(9);
    }

    #[test]
    fn mutable_reference_implements_hook() {
        fn takes_hook(h: &mut dyn GemmHook) {
            let mut acc = MatI32::filled(1, 1, 0);
            h.on_gemm(&ctx(), &MatI8::zeros(1, 1), &MatI8::zeros(1, 1), &mut acc);
        }
        let mut rec = RecordingHook::new();
        takes_hook(&mut rec);
        assert_eq!(rec.count(), 1);
    }
}
