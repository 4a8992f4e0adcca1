//! GEMM interception hooks: the seam between the model, the error injector and ABFT.
//!
//! Every quantized GEMM executed by the model calls [`GemmHook::on_gemm`] (or, when a hook
//! of the stack wants the fused checksums, [`GemmHook::on_gemm_checksummed`]) with the INT8
//! operands and a mutable reference to the INT32 accumulator result, together with a
//! [`GemmContext`] describing *which* GEMM this is (component, layer, stage). This mirrors
//! the hardware picture in the paper:
//!
//! * the **error injector** mutates the accumulator in place, emulating timing errors in the
//!   systolic array's datapath;
//! * the **ABFT protector** reads the fused checksums of [`GemmHook::on_gemm_checksummed`]
//!   (the expected side computed from the assumed-correct operands, the observed side
//!   refreshed from the possibly-corrupted accumulator), compares them, and may trigger a
//!   recovery, which alone recomputes the GEMM and restores the accumulator.
//!
//! Hooks stack as pairs: `(A, B)` is a hook that applies `A`, then `B` — injection first,
//! then protection, matching the physical order of fault and detection. A third hook nests,
//! `(a, (b, c))`. `&mut H` and `Option<H>` are hooks too, so `(&mut injector, &mut
//! protector)` stacks hooks the caller keeps, and an absent stage is `None`.

use crate::component::{Component, Stage};
use realm_tensor::{ChecksummedGemm, MatI32, MatI8, RowPartition};

/// Which sequence(s) of a batch the accumulator rows of a GEMM belong to.
///
/// Every forward pass stacks the activations of each of its sequences into one matrix for
/// the shared projections (`Q`/`K`/`V`/`O` and the MLP components) while the
/// attention-internal GEMMs (`QKᵀ`, `SV`) stay per-sequence (each sequence has its own
/// cache length and causal mask). A solo sequence is slot 0 of a one-slot batch, so the
/// rule is the same for every pass: shared GEMMs are [`GemmOrigin::BatchedRows`], attention
/// GEMMs `Sequence(slot)`. Hooks that attribute work to sequences — injection campaigns,
/// ABFT protectors — read this tag to know which case they are looking at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GemmOrigin {
    /// Every accumulator row belongs to the batch sequence (cache slot) with this index:
    /// the `QKᵀ`/`SV` GEMMs of that sequence.
    Sequence(usize),
    /// Accumulator rows are stacked across every sequence of the pass; the row → sequence
    /// map is the [`RowPartition`] most recently announced through
    /// [`GemmHook::on_batch_begin`].
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

    /// Tags the context as belonging entirely to batch sequence `seq` (the per-sequence
    /// attention GEMMs of a forward).
    pub fn for_sequence(mut self, seq: usize) -> Self {
        self.origin = GemmOrigin::Sequence(seq);
        self
    }

    /// Tags the context as a batch-stacked GEMM whose rows span every sequence of the pass
    /// (the shared GEMMs of a forward).
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
    /// The model queries this before each GEMM: when no hook in the stack wants checksums
    /// (fault-free baselines, unprotected runs), the plain GEMM runs and the checksum
    /// reductions are skipped entirely. Defaults to `true` so custom hooks are safe; pure
    /// observers and mutators (recorders, injectors) override it to `false`.
    fn wants_checksums(&self) -> bool {
        true
    }

    /// Announces the row partition of an upcoming forward pass.
    ///
    /// The model calls this once before every forward pass — every prefill (chunk) and every
    /// decode step, solo ones included, whose partition has one group — handing hooks the
    /// map from stacked accumulator rows to batch sequence indices. GEMMs tagged
    /// [`GemmOrigin::BatchedRows`] until the next announcement use this partition. Hooks
    /// that do not care (the default) ignore it.
    fn on_batch_begin(&mut self, partition: &RowPartition) {
        let _ = partition;
    }

    /// Announces the start of engine step `step` (a serving engine's monotone step
    /// counter).
    ///
    /// Unlike [`GemmHook::on_batch_begin`] — which fires before *every* forward pass, up
    /// to twice per step (prefill pass, then decode pass) — this is a true step
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

/// An absent hook does nothing, like [`NoopHook`]: an optional stage of a fixed pair.
impl<H: GemmHook> GemmHook for Option<H> {
    fn on_gemm(&mut self, ctx: &GemmContext, w: &MatI8, x: &MatI8, acc: &mut MatI32) {
        if let Some(hook) = self {
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
        // `None` must not reach the default body, which would mark the checksum stale.
        if let Some(hook) = self {
            hook.on_gemm_checksummed(ctx, w, x, result);
        }
    }

    fn wants_checksums(&self) -> bool {
        self.as_ref().is_some_and(|h| h.wants_checksums())
    }

    fn on_batch_begin(&mut self, partition: &RowPartition) {
        if let Some(hook) = self {
            hook.on_batch_begin(partition);
        }
    }

    fn on_step_begin(&mut self, step: u64) {
        if let Some(hook) = self {
            hook.on_step_begin(step);
        }
    }
}

/// Two hooks in order, first then second: the one way to stack hooks (injector, then
/// protector). Nest a pair to stack three, `(a, (b, c))`; nothing is allocated.
impl<A: GemmHook, B: GemmHook> GemmHook for (A, B) {
    fn on_gemm(&mut self, ctx: &GemmContext, w: &MatI8, x: &MatI8, acc: &mut MatI32) {
        self.0.on_gemm(ctx, w, x, acc);
        self.1.on_gemm(ctx, w, x, acc);
    }

    fn on_gemm_checksummed(
        &mut self,
        ctx: &GemmContext,
        w: &MatI8,
        x: &MatI8,
        result: &mut ChecksummedGemm,
    ) {
        // The second sees what the first left: an injector's write marks the observed
        // checksum stale, so a protector behind it inspects exactly the faulty result.
        self.0.on_gemm_checksummed(ctx, w, x, result);
        self.1.on_gemm_checksummed(ctx, w, x, result);
    }

    fn wants_checksums(&self) -> bool {
        self.0.wants_checksums() || self.1.wants_checksums()
    }

    fn on_batch_begin(&mut self, partition: &RowPartition) {
        self.0.on_batch_begin(partition);
        self.1.on_batch_begin(partition);
    }

    fn on_step_begin(&mut self, step: u64) {
        self.0.on_step_begin(step);
        self.1.on_step_begin(step);
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
        // fresh for hooks later in the stack.
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

    /// Applies `acc = acc * mul + add`, opts into checksums as told and logs the clocks.
    #[derive(Default)]
    struct Probe {
        mul: i32,
        add: i32,
        wants: bool,
        batches: usize,
        steps: Vec<u64>,
    }

    impl GemmHook for Probe {
        fn on_gemm(&mut self, _ctx: &GemmContext, _w: &MatI8, _x: &MatI8, acc: &mut MatI32) {
            for v in acc.iter_mut() {
                *v = *v * self.mul + self.add;
            }
        }

        fn wants_checksums(&self) -> bool {
            self.wants
        }

        fn on_batch_begin(&mut self, _partition: &RowPartition) {
            self.batches += 1;
        }

        fn on_step_begin(&mut self, step: u64) {
            self.steps.push(step);
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
    fn pair_applies_hooks_in_order_and_an_absent_hook_does_nothing() {
        let mut add = Probe {
            mul: 1,
            add: 1,
            ..Probe::default()
        };
        let mut double = Probe {
            mul: 2,
            ..Probe::default()
        };
        for (first, last) in [(false, false), (true, false), (false, true)] {
            add.wants = first;
            double.wants = last;
            let stack = (&mut add, (None::<&mut Probe>, &mut double));
            assert_eq!(
                stack.wants_checksums(),
                first || last,
                "an OR at every depth"
            );
        }
        let mut acc = MatI32::filled(1, 1, 3);
        let mut stack = (&mut add, (None::<&mut Probe>, &mut double));
        stack.on_gemm(&ctx(), &MatI8::zeros(1, 1), &MatI8::zeros(1, 1), &mut acc);
        stack.on_batch_begin(&RowPartition::from_lens(&[1]));
        stack.on_step_begin(3);
        stack.on_step_begin(4);
        assert_eq!(acc[(0, 0)], 8, "(3 + 1) * 2: first, then second");
        for member in [&add, &double] {
            assert_eq!(member.batches, 1);
            assert_eq!(member.steps, [3, 4]);
        }

        let mut recorder = RecordingHook::new();
        let mut absent = (None::<Probe>, (None::<Probe>, &mut recorder));
        // A stored observed checksum that the accumulator does not sum to: it survives only
        // if nothing took the accumulator mutably (which would mark it stale).
        let mut result =
            ChecksummedGemm::from_parts(MatI32::filled(1, 2, 5), vec![0; 2], vec![-1; 2]);
        absent.on_gemm_checksummed(
            &ctx(),
            &MatI8::zeros(1, 1),
            &MatI8::zeros(1, 2),
            &mut result,
        );
        assert_eq!(recorder.count(), 1, "the present member saw the GEMM");
        assert_eq!(
            result.observed(),
            vec![-1, -1],
            "absent members left the checksum fresh"
        );
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
