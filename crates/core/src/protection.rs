//! Scheme protectors: GEMM hooks that detect errors and trigger recovery during inference.
//!
//! A [`SchemeProtector`] is the runtime embodiment of a protection scheme: stacked after the
//! error injector as the hook pair `(injector, protector)`, it sees the (possibly corrupted)
//! INT32 accumulator of every quantized GEMM, runs the scheme's detector, restores the
//! correct result when a recovery is triggered (the operands are fault-free, so
//! recomputation is exact — exactly the paper's "recompute at nominal voltage" assumption)
//! and charges the recovery cost.

use realm_abft::{
    approx::ApproxAbft, checksum, classical::ClassicalAbft, critical_region::CriticalRegion,
    detector::AbftDetector, recovery::RecoveryPolicy, recovery::RecoveryStats,
    statistical::StatisticalAbft,
};
use realm_llm::{Component, GemmContext, GemmHook, GemmOrigin};
use realm_systolic::{ProtectionScheme, SystolicArray};
use realm_tensor::{engine, ChecksummedGemm, GemmEngine, MatI32, MatI8, RowPartition};
use std::sync::Arc;

/// Detections and recoveries a [`SchemeProtector`] charged to one fault domain: a batch
/// sequence ([`SequenceAttribution`]) or a column-stripe shard ([`ShardAttribution`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Attribution {
    /// Inspections in which this domain's rows (or column stripe) carried a non-zero
    /// deviation.
    pub detections: u64,
    /// Detections on this domain that triggered a recovery.
    pub recoveries: u64,
}

impl std::ops::AddAssign for Attribution {
    fn add_assign(&mut self, other: Self) {
        self.detections += other.detections;
        self.recoveries += other.recoveries;
    }
}

/// Per-batch-sequence attribution.
///
/// In a batched forward pass one inspected GEMM carries the rows of every sequence; when
/// the detector flags it, the protector re-reduces the checksums over each sequence's row
/// range (see [`realm_abft::checksum::deviating_groups_into`]) and charges the detection —
/// and any recovery — to the sequences whose rows actually deviated.
pub type SequenceAttribution = Attribution;

/// Per-shard attribution.
///
/// A shard is a column stripe of every static-weight GEMM
/// ([`realm_tensor::partition::shard_range`]), the fault domain whole-shard faults hit.
/// Every checksum deviation localizes to the stripes whose columns deviated (see
/// [`realm_abft::checksum::deviating_shards_into`]); the protector charges detections and
/// recoveries to those shards. Enabled by [`SchemeProtector::set_shard_attribution`].
pub type ShardAttribution = Attribution;

/// Per-request protection policy: which ABFT scheme a request's GEMMs should run under.
///
/// The serving layer attaches one policy to every request. Inside a shared batch the
/// per-sequence attention GEMMs (`QKᵀ`, `SV`) are inspected under the owning request's own
/// scheme, while the batch-stacked projections — whose rows belong to several requests at
/// once — are inspected under the **strictest** scheme any active request asked for
/// (*protection escalation*: a request that asked for less protection can only ever receive
/// more, never less). See [`SchemeProtector::set_sequence_schemes`] for the wiring.
///
/// # Example
///
/// ```
/// use realm_core::protection::ProtectionPolicy;
/// use realm_systolic::ProtectionScheme;
///
/// let policy = ProtectionPolicy::default();
/// assert_eq!(policy.scheme, ProtectionScheme::StatisticalAbft);
/// assert_eq!(ProtectionPolicy::unprotected().scheme, ProtectionScheme::None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtectionPolicy {
    /// The detection/recovery scheme applied to this request's GEMMs.
    pub scheme: ProtectionScheme,
}

impl ProtectionPolicy {
    /// A policy running `scheme`.
    pub fn new(scheme: ProtectionScheme) -> Self {
        Self { scheme }
    }

    /// No detection, no recovery: faults flow straight into the request's tokens.
    pub fn unprotected() -> Self {
        Self::new(ProtectionScheme::None)
    }

    /// Classical ABFT: full checksum comparison, recovery on any mismatch.
    pub fn classical() -> Self {
        Self::new(ProtectionScheme::ClassicalAbft)
    }

    /// The paper's statistical ABFT (the default).
    pub fn statistical() -> Self {
        Self::new(ProtectionScheme::StatisticalAbft)
    }
}

impl Default for ProtectionPolicy {
    fn default() -> Self {
        Self::statistical()
    }
}

/// Per-component critical regions used by the statistical scheme.
///
/// Components without an explicit entry fall back to the paper's defaults: the sensitive
/// default for `O`/`FC2`/`Down` and the resilient default for everything else.
#[derive(Debug, Clone, Default)]
pub struct RegionAssignment {
    /// Explicit regions, indexed by [`Component::index`].
    regions: [Option<CriticalRegion>; Component::ALL.len()],
}

impl RegionAssignment {
    /// Creates an empty assignment (every component uses its class default).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the region for one component.
    pub fn set(&mut self, component: Component, region: CriticalRegion) {
        self.regions[component.index()] = Some(region);
    }

    /// The region that will be used for a component.
    pub fn region_for(&self, component: Component) -> CriticalRegion {
        self.regions[component.index()].unwrap_or_else(|| {
            if component.is_sensitive() {
                CriticalRegion::sensitive_default()
            } else {
                CriticalRegion::resilient_default()
            }
        })
    }

    /// Every model component ranked most-sensitive-first by its (explicit or default)
    /// critical region, via [`realm_abft::critical_region::rank_by_sensitivity`].
    ///
    /// This is the spatial-protection order an adaptive controller uses: components at
    /// the front of the list earn a stricter scheme first and give it up last; components
    /// at the back are the first to shed protection under load.
    pub fn ranked_components(&self) -> Vec<Component> {
        let keyed: Vec<(Component, CriticalRegion)> = Component::ALL
            .iter()
            .map(|&c| (c, self.region_for(c)))
            .collect();
        realm_abft::critical_region::rank_by_sensitivity(&keyed)
    }

    /// The components whose regions exhibit sensitive behaviour (`θ_freq < 1`: any
    /// counted error triggers recovery). With default regions this is `O`, `FC2`, `Down`.
    pub fn sensitive_components(&self) -> Vec<Component> {
        Component::ALL
            .iter()
            .copied()
            .filter(|&c| self.region_for(c).is_sensitive())
            .collect()
    }

    /// Number of explicitly assigned components.
    pub fn len(&self) -> usize {
        self.regions.iter().flatten().count()
    }

    /// Returns `true` if no component has an explicit region.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Reusable buffers for the protector's per-inspection work: the deviation vector every
/// detector evaluates, the per-group re-reduction buffers of batched attribution, and the
/// affected-sequence and affected-shard lists. Owned by the protector so the detection
/// path of the decode hot loop never touches the allocator.
#[derive(Debug, Default)]
struct DetectionScratch {
    deviations: Vec<i64>,
    group_etw: Vec<i64>,
    group_dev: Vec<i64>,
    affected: Vec<usize>,
    shards: Vec<usize>,
}

impl DetectionScratch {
    /// Resolves which batch sequences a flagged GEMM's deviation traces back to, into
    /// `self.affected`.
    ///
    /// GEMMs owned wholly by one sequence attribute directly; batch-stacked GEMMs
    /// re-reduce the checksums per row group of `partition` (one extra pass, paid only on
    /// detections).
    fn affected_sequences(
        &mut self,
        origin: GemmOrigin,
        partition: Option<&RowPartition>,
        w: &MatI8,
        x: &MatI8,
        acc: &MatI32,
    ) {
        match origin {
            GemmOrigin::Sequence(seq) => self.affected.push(seq),
            // `w` is the stacked activation operand of `Y = W·X`, so its rows — and the
            // accumulator's — are partitioned by sequence.
            GemmOrigin::BatchedRows => {
                if let Some(parts) = partition.filter(|p| p.total_rows() == acc.rows()) {
                    checksum::deviating_groups_into(
                        w,
                        x,
                        acc,
                        parts,
                        &mut self.group_etw,
                        &mut self.group_dev,
                        &mut self.affected,
                    );
                }
            }
        }
    }
}

/// The protector's detectors: classical ABFT (which also stands in for the circuit-level
/// schemes), approximate ABFT, and one statistical detector per component, indexed by
/// [`Component::index`].
struct Detectors {
    classical: ClassicalAbft,
    approx: ApproxAbft,
    statistical: [StatisticalAbft; Component::ALL.len()],
}

impl Detectors {
    /// The detector `scheme` applies to `component`'s GEMMs, if any.
    fn get(&self, scheme: ProtectionScheme, component: Component) -> Option<&dyn AbftDetector> {
        match scheme {
            ProtectionScheme::None => None,
            // DMR, Razor and ThunderVolt detect at the circuit level; their detection
            // coverage for additive datapath errors is equivalent to a full checksum
            // comparison, so the classical detector stands in for them. Their costs differ
            // through the recovery policy and the area/power model, not the detector.
            ProtectionScheme::Dmr
            | ProtectionScheme::RazorFfs
            | ProtectionScheme::ThunderVolt
            | ProtectionScheme::ClassicalAbft => Some(&self.classical),
            ProtectionScheme::ApproxAbft => Some(&self.approx),
            ProtectionScheme::StatisticalAbft => Some(&self.statistical[component.index()]),
        }
    }
}

/// A protection scheme attached to the model's GEMM stream.
pub struct SchemeProtector {
    scheme: ProtectionScheme,
    array: SystolicArray,
    detectors: Detectors,
    stats: RecoveryStats,
    engine: Arc<dyn GemmEngine>,
    partition: Option<RowPartition>,
    /// Charges per batch sequence not yet taken, indexed by sequence (cache slot); grows
    /// to the highest sequence charged.
    per_sequence: Vec<SequenceAttribution>,
    /// Charges per shard stripe, one entry per shard while shard attribution is on.
    per_shard: Vec<ShardAttribution>,
    sequence_schemes: Vec<ProtectionScheme>,
    batched_scheme: ProtectionScheme,
    /// The spatial overlay, indexed by [`Component::index`].
    component_schemes: [Option<ProtectionScheme>; Component::ALL.len()],
    scratch: DetectionScratch,
}

impl SchemeProtector {
    /// Creates a protector for `scheme` using per-component `regions` (only consulted by the
    /// statistical scheme). Every inspected GEMM recovers under the policy conventionally
    /// paired with the scheme it was inspected under
    /// ([`RecoveryPolicy::default_for_scheme`]). Recovery
    /// recomputation runs on the process-default GEMM backend; use
    /// [`SchemeProtector::with_engine`] to pin a specific one.
    pub fn new(scheme: ProtectionScheme, array: SystolicArray, regions: &RegionAssignment) -> Self {
        Self::with_engine(scheme, array, regions, engine::default_engine())
    }

    /// Creates a protector whose recovery recomputation runs on `engine`.
    ///
    /// All backends are bit-exact, so this choice affects wall-clock time only — the paper's
    /// "recompute at nominal voltage" recovery reproduces the exact accumulator either way.
    pub fn with_engine(
        scheme: ProtectionScheme,
        array: SystolicArray,
        regions: &RegionAssignment,
        engine: Arc<dyn GemmEngine>,
    ) -> Self {
        Self {
            scheme,
            array,
            detectors: Detectors {
                classical: ClassicalAbft::new(),
                approx: ApproxAbft::paper_default(),
                statistical: Component::ALL.map(|c| StatisticalAbft::new(regions.region_for(c))),
            },
            stats: RecoveryStats::new(),
            engine,
            partition: None,
            per_sequence: Vec::new(),
            per_shard: Vec::new(),
            sequence_schemes: Vec::new(),
            batched_scheme: scheme,
            component_schemes: [None; Component::ALL.len()],
            scratch: DetectionScratch::default(),
        }
    }

    /// Creates a protector with default regions for every component.
    pub fn with_default_regions(scheme: ProtectionScheme, array: SystolicArray) -> Self {
        Self::new(scheme, array, &RegionAssignment::new())
    }

    /// Accumulated recovery statistics.
    pub fn stats(&self) -> &RecoveryStats {
        &self.stats
    }

    /// Per-batch-sequence detection/recovery charges not yet taken by
    /// [`SchemeProtector::take_sequence_attribution`], indexed by batch sequence.
    ///
    /// Single-sequence runs charge index 0. The ledger reaches as far as the highest
    /// sequence ever charged, so a sequence at or beyond its length was never charged and
    /// a fault-free run returns an empty slice.
    ///
    /// # Example
    ///
    /// ```
    /// use realm_core::SchemeProtector;
    /// use realm_llm::{config::ModelConfig, model::Model};
    /// use realm_systolic::{Dataflow, ProtectionScheme, SystolicArray};
    ///
    /// # fn main() -> Result<(), realm_llm::LlmError> {
    /// let model = Model::new(&ModelConfig::tiny_opt(), 42)?;
    /// let mut protector = SchemeProtector::with_default_regions(
    ///     ProtectionScheme::ClassicalAbft,
    ///     SystolicArray::small(Dataflow::WeightStationary),
    /// );
    /// let prompts = vec![vec![1, 2, 3], vec![4, 5]];
    /// model.prefill_batch(&prompts, &mut protector)?;
    /// // No injector in front of it: nothing deviates, nothing is charged.
    /// assert!(protector.sequence_attribution().is_empty());
    /// # Ok(())
    /// # }
    /// ```
    pub fn sequence_attribution(&self) -> &[SequenceAttribution] {
        &self.per_sequence
    }

    /// Returns the charges batch sequence `seq` accrued since the last take and zeroes
    /// them. A serving loop that reuses a cache slot across requests settles each
    /// occupant's charges this way, so the next occupant starts from zero.
    pub fn take_sequence_attribution(&mut self, seq: usize) -> SequenceAttribution {
        self.per_sequence
            .get_mut(seq)
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Attributes detections to `degree` column stripes; degrees `0` and `1` disable
    /// per-shard attribution (one stripe is the whole GEMM). Resets the shard ledger.
    ///
    /// The serving and pipeline layers set this from the model's
    /// `ModelConfig::tp_degree`; it never changes detection verdicts or recovery
    /// behaviour, only the bookkeeping surfaced by [`SchemeProtector::shard_attribution`].
    pub fn set_shard_attribution(&mut self, degree: usize) {
        self.per_shard.clear();
        if degree > 1 {
            self.per_shard.resize(degree, ShardAttribution::default());
        }
    }

    /// Per-shard detection/recovery attribution, indexed by shard: one entry per shard
    /// while [`SchemeProtector::set_shard_attribution`] enables it, empty otherwise.
    pub fn shard_attribution(&self) -> &[ShardAttribution] {
        &self.per_shard
    }

    /// Installs per-batch-sequence protection schemes (one entry per batch slot).
    ///
    /// Once set, the list defines the whole batch's protection: a GEMM tagged
    /// [`GemmOrigin::Sequence`]`(i)` — the per-sequence attention GEMMs of any forward,
    /// solo or batched — is inspected under `schemes[i]`, while batch-stacked
    /// GEMMs ([`GemmOrigin::BatchedRows`]) are inspected under the **strictest** scheme in
    /// the list, because their rows mix every active sequence and a recovery rewrites the
    /// whole accumulator. Install one entry per batch sequence; a sequence beyond the list
    /// (a caller bug) falls back to that same strictest-installed scheme, so an
    /// under-length list can never grant a sequence *more* protection on its private GEMMs
    /// than on the shared ones. An empty list behaves like the construction scheme.
    ///
    /// This is how the serving layer honours a per-request
    /// [`ProtectionPolicy`]: the slot → scheme list is refreshed whenever
    /// continuous batching admits or retires a request.
    pub fn set_sequence_schemes(&mut self, schemes: impl IntoIterator<Item = ProtectionScheme>) {
        self.sequence_schemes.clear();
        self.sequence_schemes.extend(schemes);
        self.batched_scheme = self
            .sequence_schemes
            .iter()
            .copied()
            .max_by_key(|&s| s.strictness())
            .unwrap_or(self.scheme);
    }

    /// The scheme batch-stacked GEMMs are inspected under (before any component overlay):
    /// the strictest scheme [`SchemeProtector::set_sequence_schemes`] installed, or the
    /// construction scheme while the list is empty.
    pub fn batched_scheme(&self) -> ProtectionScheme {
        self.batched_scheme
    }

    /// Installs a *spatial* scheme overlay: every GEMM of an overlaid component — whoever
    /// owns its rows — is inspected under the overlay scheme instead of whatever the
    /// per-sequence policies would pick. Replaces any previous overlay wholesale, in place.
    ///
    /// The overlay is how an adaptive controller protects components, not requests: the
    /// batch-stacked projections mix every active sequence's rows, so stepping a
    /// sensitive component up to classical ABFT (or a resilient one down under load
    /// pressure) is inherently a batch-global, per-component decision. The overlay
    /// deliberately *replaces* rather than escalates — shedding protection under load
    /// needs to be able to select a scheme weaker than what the requests asked for. An empty
    /// `schemes` removes the overlay: per-sequence policies (or the construction scheme)
    /// decide again for every component.
    pub fn set_component_schemes(
        &mut self,
        schemes: impl IntoIterator<Item = (Component, ProtectionScheme)>,
    ) {
        self.component_schemes = [None; Component::ALL.len()];
        for (component, scheme) in schemes {
            self.component_schemes[component.index()] = Some(scheme);
        }
    }

    /// The scheme that applies to `ctx`: a spatial component overlay wins outright,
    /// otherwise per-sequence policies apply when installed.
    fn effective_scheme(&self, ctx: &GemmContext) -> ProtectionScheme {
        if let Some(scheme) = self.component_schemes[ctx.component.index()] {
            return scheme;
        }
        match ctx.origin {
            // Out-of-range sequences (an under-length list) fall back to the strictest
            // installed scheme, keeping private and shared GEMMs consistent — see
            // `set_sequence_schemes`. An empty list falls back to the construction scheme.
            GemmOrigin::Sequence(seq) => self
                .sequence_schemes
                .get(seq)
                .copied()
                .unwrap_or(self.batched_scheme),
            GemmOrigin::BatchedRows => self.batched_scheme,
        }
    }

    /// The one inspection routine: resolve the GEMM to (scheme, detector, recovery
    /// policy), read its deviation vector off the fused checksums, evaluate, attribute,
    /// record, and recompute when the verdict asks for it.
    fn protect(&mut self, ctx: &GemmContext, w: &MatI8, x: &MatI8, result: &mut ChecksummedGemm) {
        let scheme = self.effective_scheme(ctx);
        // The policy follows the scheme the GEMM is inspected under, so e.g. a
        // classical-ABFT request (or an escalated component) recomputes on recovery even
        // when the protector was constructed unprotected.
        let policy = RecoveryPolicy::default_for_scheme(scheme);
        let Some(detector) = self.detectors.get(scheme, ctx.component) else {
            return;
        };
        let scratch = &mut self.scratch;
        // The fused pass already paid for the operand-side checksum; only the observed
        // side is (lazily) refreshed if an upstream injector mutated the accumulator.
        result.column_deviations_into(&mut scratch.deviations);
        let detection = detector.evaluate(&scratch.deviations);

        // Attribution must read the accumulator before recovery rewrites it; the per-group
        // re-reduction runs only on flagged GEMMs, so the fault-free fast path stays fast.
        scratch.affected.clear();
        scratch.shards.clear();
        if detection.errors_detected {
            scratch.affected_sequences(ctx.origin, self.partition.as_ref(), w, x, result.acc());
            if !self.per_shard.is_empty() {
                let degree = self.per_shard.len();
                checksum::deviating_shards_into(&scratch.deviations, degree, &mut scratch.shards);
            }
        }

        let schedule = self.array.schedule_gemm(w.rows(), w.cols(), x.cols());
        self.stats.record(
            &policy,
            detection.errors_detected,
            detection.trigger_recovery,
            schedule.macs,
            schedule.cycles,
            detection.effective_frequency as u64,
        );
        // A scheme that has a detector never pairs with `RecoveryPolicy::None`, so a
        // triggered recovery always rewrites the accumulator.
        let recover = detection.trigger_recovery;
        attribute(&mut self.per_sequence, &scratch.affected, recover);
        attribute(&mut self.per_shard, &scratch.shards, recover);

        if recover {
            // Operands are fault-free (ECC-protected memory), so re-executing the GEMM at a
            // safe voltage reproduces the exact result — written back into the existing
            // accumulator and checksum storage rather than a fresh allocation.
            self.engine
                .gemm_i8_checksummed_into(w, x, result, &mut scratch.group_etw)
                .expect("operand shapes were already validated");
        }
    }
}

/// Charges a detection (and, when `recovered`, a recovery) to each affected fault domain,
/// growing the ledger to the highest index charged.
fn attribute(ledger: &mut Vec<Attribution>, affected: &[usize], recovered: bool) {
    for &index in affected {
        if index >= ledger.len() {
            ledger.resize(index + 1, Attribution::default());
        }
        ledger[index] += Attribution {
            detections: 1,
            recoveries: u64::from(recovered),
        };
    }
}

impl std::fmt::Debug for SchemeProtector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchemeProtector")
            .field("scheme", &self.scheme)
            .field("stats", &self.stats)
            .finish()
    }
}

impl GemmHook for SchemeProtector {
    fn on_gemm(&mut self, _: &GemmContext, _: &MatI8, _: &MatI8, _: &mut MatI32) {
        // The model calls the plain callback only when every hook of the stack declines
        // the fused checksums, and this protector declines them only when no GEMM resolves
        // to a detector (see `wants_checksums`): there is nothing to inspect.
    }

    fn on_gemm_checksummed(
        &mut self,
        ctx: &GemmContext,
        w: &MatI8,
        x: &MatI8,
        result: &mut ChecksummedGemm,
    ) {
        self.protect(ctx, w, x, result);
    }

    fn wants_checksums(&self) -> bool {
        // `ProtectionScheme::None` never inspects anything, so those runs can skip the
        // fused checksum reductions at the GEMM level entirely. Installed per-sequence
        // schemes define the batch's protection intent: `batched_scheme` is the strictest
        // of them (the construction scheme while none are installed), so when it is `None`
        // every sequence is unprotected — in the list or beyond it, where
        // `effective_scheme` falls back to that same strictest installed scheme — even if
        // the construction scheme would inspect. A spatial overlay that inspects *any*
        // component keeps the reductions on. Whenever this returns `false` no context
        // resolves to a detector (unit test
        // `no_detector_is_reachable_when_checksums_are_declined`), which is why `on_gemm`
        // inspects nothing.
        let inspects = |scheme: &ProtectionScheme| !matches!(scheme, ProtectionScheme::None);
        self.component_schemes.iter().flatten().any(inspects) || inspects(&self.batched_scheme)
    }

    fn on_batch_begin(&mut self, partition: &RowPartition) {
        // Announced before every batched forward: refill the kept offsets, don't reallocate.
        match &mut self.partition {
            Some(kept) => kept.clone_from(partition),
            None => self.partition = Some(partition.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use realm_inject::{error_model::FixedBitModel, injector::ErrorInjector};
    use realm_llm::{config::ModelConfig, model::Model, NoopHook};
    use realm_systolic::Dataflow;

    fn array() -> SystolicArray {
        SystolicArray::small(Dataflow::WeightStationary)
    }

    #[test]
    fn region_assignment_defaults_by_sensitivity() {
        let assignment = RegionAssignment::new();
        assert!(assignment.is_empty());
        let sensitive = assignment.region_for(Component::O);
        let resilient = assignment.region_for(Component::Q);
        assert!(sensitive.theta_freq_log2 < resilient.theta_freq_log2);
        let mut custom = RegionAssignment::new();
        custom.set(Component::Q, CriticalRegion::new(1.5, 30.0, 6.0));
        assert_eq!(custom.len(), 1);
        assert!((custom.region_for(Component::Q).b - 30.0).abs() < 1e-12);
    }

    #[test]
    fn classical_protector_restores_clean_results() {
        let model = Model::new(&ModelConfig::tiny_opt(), 2).unwrap();
        let (clean_logits, _) = model.prefill(&[1, 2, 3, 4], &mut NoopHook).unwrap();

        let mut injector = ErrorInjector::everywhere(FixedBitModel::bit30(0.2), 9);
        let mut protector =
            SchemeProtector::with_default_regions(ProtectionScheme::ClassicalAbft, array());
        let mut hooks = (&mut injector, &mut protector);
        let (protected_logits, _) = model.prefill(&[1, 2, 3, 4], &mut hooks).unwrap();

        assert_eq!(
            protected_logits, clean_logits,
            "classical ABFT fully repairs the run"
        );
        assert!(protector.stats().recoveries_triggered > 0);
        assert!(protector.stats().recovery_macs > 0);
    }

    #[test]
    fn unprotected_scheme_leaves_errors_in_place() {
        let model = Model::new(&ModelConfig::tiny_opt(), 2).unwrap();
        let (clean_logits, _) = model.prefill(&[1, 2, 3, 4], &mut NoopHook).unwrap();
        let mut injector = ErrorInjector::everywhere(FixedBitModel::bit30(0.2), 9);
        let mut protector = SchemeProtector::with_default_regions(ProtectionScheme::None, array());
        let mut hooks = (&mut injector, &mut protector);
        let (faulty_logits, _) = model.prefill(&[1, 2, 3, 4], &mut hooks).unwrap();
        assert_ne!(faulty_logits, clean_logits);
        assert_eq!(protector.stats().gemms_inspected, 0);
    }

    #[test]
    fn statistical_protector_recovers_less_than_classical() {
        let model = Model::new(&ModelConfig::tiny_opt(), 2).unwrap();
        let prompt: Vec<u32> = (0..12).map(|t| t % 8).collect();

        let run = |scheme: ProtectionScheme| {
            let mut injector = ErrorInjector::everywhere(FixedBitModel::bit30(0.002), 77);
            let mut protector = SchemeProtector::with_default_regions(scheme, array());
            let mut hooks = (&mut injector, &mut protector);
            model.prefill(&prompt, &mut hooks).unwrap();
            (
                protector.stats().recoveries_triggered,
                protector.stats().gemms_with_errors,
            )
        };
        let (classical_recoveries, classical_errors) = run(ProtectionScheme::ClassicalAbft);
        let (statistical_recoveries, statistical_errors) = run(ProtectionScheme::StatisticalAbft);
        assert_eq!(
            classical_errors, statistical_errors,
            "same faults are observed"
        );
        assert_eq!(
            classical_recoveries, classical_errors,
            "classical recovers every corrupted GEMM"
        );
        assert!(
            statistical_recoveries < classical_recoveries,
            "statistical ABFT must skip some recoveries ({statistical_recoveries} vs {classical_recoveries})"
        );
    }

    #[test]
    fn batched_detections_attribute_to_the_corrupted_sequence() {
        use realm_llm::hooks::GemmContext;
        use realm_tensor::RowPartition;

        // A hook that corrupts one accumulator row belonging to a known batch sequence in
        // the first batch-stacked GEMM it sees.
        struct CorruptSequence {
            partition: Option<RowPartition>,
            target_seq: usize,
            done: bool,
        }
        impl GemmHook for CorruptSequence {
            fn on_gemm(&mut self, _: &GemmContext, _: &MatI8, _: &MatI8, _: &mut MatI32) {}
            fn on_gemm_checksummed(
                &mut self,
                ctx: &GemmContext,
                _w: &MatI8,
                _x: &MatI8,
                result: &mut ChecksummedGemm,
            ) {
                if self.done || !matches!(ctx.origin, realm_llm::GemmOrigin::BatchedRows) {
                    return;
                }
                let range = self
                    .partition
                    .as_ref()
                    .expect("partition announced before batched GEMMs")
                    .range(self.target_seq);
                let row = range.start;
                let acc = result.acc_mut();
                acc[(row, 0)] = acc[(row, 0)].wrapping_add(1 << 20);
                self.done = true;
            }
            fn wants_checksums(&self) -> bool {
                false
            }
            fn on_batch_begin(&mut self, partition: &RowPartition) {
                if self.partition.is_none() {
                    self.partition = Some(partition.clone());
                }
            }
        }

        let model = Model::new(&ModelConfig::tiny_opt(), 2).unwrap();
        let prompts: Vec<Vec<u32>> = vec![vec![1, 2, 3], vec![4, 5], vec![6, 7, 8, 9]];
        let (clean_logits, _) = model.prefill_batch(&prompts, &mut NoopHook).unwrap();

        let mut corruptor = CorruptSequence {
            partition: None,
            target_seq: 2,
            done: false,
        };
        let mut protector =
            SchemeProtector::with_default_regions(ProtectionScheme::ClassicalAbft, array());
        let mut hooks = (&mut corruptor, &mut protector);
        let (protected_logits, _) = model.prefill_batch(&prompts, &mut hooks).unwrap();

        let attribution = protector.sequence_attribution();
        assert_eq!(
            attribution,
            [
                SequenceAttribution::default(),
                SequenceAttribution::default(),
                SequenceAttribution {
                    detections: 1,
                    recoveries: 1
                }
            ],
            "only the corrupted sequence is charged"
        );
        assert_eq!(
            protected_logits, clean_logits,
            "classical ABFT repairs the batched run"
        );
    }

    #[test]
    fn single_sequence_runs_attribute_to_index_zero() {
        let model = Model::new(&ModelConfig::tiny_opt(), 2).unwrap();
        let mut injector = ErrorInjector::everywhere(FixedBitModel::bit30(0.2), 9);
        let mut protector =
            SchemeProtector::with_default_regions(ProtectionScheme::ClassicalAbft, array());
        let mut hooks = (&mut injector, &mut protector);
        model.prefill(&[1, 2, 3, 4], &mut hooks).unwrap();
        let attribution = protector.sequence_attribution();
        assert_eq!(attribution.len(), 1);
        let charged = attribution[0];
        assert!(charged.detections > 0);

        // Taking the charges hands them over once and zeroes the slot.
        assert_eq!(protector.take_sequence_attribution(0), charged);
        assert_eq!(protector.sequence_attribution(), [Attribution::default()]);
        assert_eq!(
            protector.take_sequence_attribution(0),
            Attribution::default()
        );
        assert_eq!(
            protector.take_sequence_attribution(7),
            Attribution::default()
        );
    }

    #[test]
    fn protection_policy_defaults_and_constructors() {
        assert_eq!(
            ProtectionPolicy::default().scheme,
            ProtectionScheme::StatisticalAbft
        );
        assert_eq!(
            ProtectionPolicy::classical().scheme,
            ProtectionScheme::ClassicalAbft
        );
        assert_eq!(
            ProtectionPolicy::new(ProtectionScheme::ApproxAbft).scheme,
            ProtectionScheme::ApproxAbft
        );
        assert!(ProtectionScheme::ClassicalAbft.strictness() > ProtectionScheme::None.strictness());
    }

    #[test]
    fn sequence_schemes_enable_protection_on_an_unprotected_base() {
        let model = Model::new(&ModelConfig::tiny_opt(), 2).unwrap();
        let (clean_logits, _) = model.prefill(&[1, 2, 3, 4], &mut NoopHook).unwrap();

        // Base scheme None would inspect nothing; a per-sequence classical policy for the
        // solo sequence (index 0) restores full protection.
        let mut injector = ErrorInjector::everywhere(FixedBitModel::bit30(0.2), 9);
        let mut protector = SchemeProtector::with_default_regions(ProtectionScheme::None, array());
        protector.set_sequence_schemes([ProtectionScheme::ClassicalAbft]);
        assert!(protector.wants_checksums());
        let mut hooks = (&mut injector, &mut protector);
        let (protected_logits, _) = model.prefill(&[1, 2, 3, 4], &mut hooks).unwrap();
        assert_eq!(protected_logits, clean_logits);
        assert!(protector.stats().recoveries_triggered > 0);
    }

    #[test]
    fn region_assignment_ranks_sensitive_components_first() {
        let assignment = RegionAssignment::new();
        let ranked = assignment.ranked_components();
        assert_eq!(ranked.len(), Component::ALL.len());
        // With default regions the three sensitive components lead the ranking.
        assert!(ranked[..3].iter().all(|c| c.is_sensitive()), "{ranked:?}");
        assert_eq!(
            assignment.sensitive_components(),
            vec![Component::O, Component::Fc2, Component::Down]
        );
        // A fitted region can promote a nominally resilient component to the front.
        let mut custom = RegionAssignment::new();
        custom.set(Component::Fc1, CriticalRegion::new(1.1, 10.0, -2.0));
        assert_eq!(custom.ranked_components()[0], Component::Fc1);
        assert!(custom.sensitive_components().contains(&Component::Fc1));
    }

    #[test]
    fn component_overlay_replaces_the_effective_scheme() {
        let model = Model::new(&ModelConfig::tiny_opt(), 2).unwrap();
        let (clean_logits, _) = model.prefill(&[1, 2, 3, 4], &mut NoopHook).unwrap();

        // An unprotected base with a classical overlay on every component behaves like a
        // classical protector: the overlay replaces, per component, what the sequence
        // policies (here: none installed, so the construction scheme) would pick.
        let mut injector = ErrorInjector::everywhere(FixedBitModel::bit30(0.2), 9);
        let mut protector = SchemeProtector::with_default_regions(ProtectionScheme::None, array());
        protector
            .set_component_schemes(Component::ALL.map(|c| (c, ProtectionScheme::ClassicalAbft)));
        assert!(protector.wants_checksums());
        let mut hooks = (&mut injector, &mut protector);
        let (protected_logits, _) = model.prefill(&[1, 2, 3, 4], &mut hooks).unwrap();
        assert_eq!(protected_logits, clean_logits);
        assert!(protector.stats().recoveries_triggered > 0);

        // Clearing the overlay reverts to the unprotected construction scheme.
        protector.set_component_schemes([]);
        assert!(!protector.wants_checksums());

        // The overlay also *weakens*: pinning one component to None on a classical base
        // leaves that component's faults unrepaired while the rest stay covered.
        let mut injector = ErrorInjector::everywhere(FixedBitModel::bit30(0.2), 9);
        let mut shed =
            SchemeProtector::with_default_regions(ProtectionScheme::ClassicalAbft, array());
        shed.set_component_schemes([(Component::Fc1, ProtectionScheme::None)]);
        let mut hooks = (&mut injector, &mut shed);
        let (shed_logits, _) = model.prefill(&[1, 2, 3, 4], &mut hooks).unwrap();
        assert_ne!(
            shed_logits, clean_logits,
            "faults on the shed component flow through"
        );
        assert!(
            shed.stats().recoveries_triggered > 0,
            "other components are still repaired"
        );
    }

    #[test]
    fn no_detector_is_reachable_when_checksums_are_declined() {
        use realm_llm::Stage;
        use ProtectionScheme::{ClassicalAbft, None as Unprotected, StatisticalAbft};

        // Installed lists: absent, empty, all-`None`, mixed, and an all-`None` list shorter
        // than the sequence indices probed below.
        let lists: [Option<&[ProtectionScheme]>; 5] = [
            None,
            Some(&[]),
            Some(&[Unprotected, Unprotected, Unprotected]),
            Some(&[Unprotected, StatisticalAbft]),
            Some(&[Unprotected]),
        ];
        let overlays: [&[(Component, ProtectionScheme)]; 3] = [
            &[],
            &[(Component::O, Unprotected)],
            &[(Component::O, Unprotected), (Component::Fc2, ClassicalAbft)],
        ];
        let origins = [
            GemmOrigin::BatchedRows,
            GemmOrigin::Sequence(0),
            GemmOrigin::Sequence(1),
            GemmOrigin::Sequence(9),
        ];
        let (mut declined, mut accepted) = (0, 0);
        for construction in ProtectionScheme::ALL {
            for list in lists {
                for overlay in overlays {
                    let mut protector =
                        SchemeProtector::with_default_regions(construction, array());
                    if let Some(schemes) = list {
                        protector.set_sequence_schemes(schemes.iter().copied());
                    }
                    protector.set_component_schemes(overlay.iter().copied());
                    if protector.wants_checksums() {
                        accepted += 1;
                        continue;
                    }
                    declined += 1;
                    for origin in origins {
                        for component in Component::ALL {
                            let ctx = GemmContext {
                                origin,
                                ..GemmContext::new(component, 0, Stage::Decode, 0)
                            };
                            let scheme = protector.effective_scheme(&ctx);
                            assert!(
                                protector.detectors.get(scheme, component).is_none(),
                                "{construction:?} / {list:?} / {overlay:?}: {ctx:?} resolves to \
                                 {scheme:?} although checksums were declined"
                            );
                        }
                    }
                }
            }
        }
        assert!(
            declined > 0 && accepted > 0,
            "{declined} declined, {accepted} accepted"
        );
    }

    #[test]
    fn mixed_policy_batch_escalates_to_the_strictest_scheme() {
        let model = Model::new(&ModelConfig::tiny_opt(), 2).unwrap();
        let prompts: Vec<Vec<u32>> = vec![vec![1, 2, 3], vec![4, 5, 6]];
        let (clean_logits, _) = model.prefill_batch(&prompts, &mut NoopHook).unwrap();

        // Sequence 0 asked for no protection, sequence 1 for classical ABFT: the
        // batch-stacked GEMMs carry both sequences' rows, so they are inspected (and
        // repaired) under the strictest request's scheme.
        let mut injector = ErrorInjector::everywhere(FixedBitModel::bit30(0.05), 13);
        let mut protector = SchemeProtector::with_default_regions(ProtectionScheme::None, array());
        protector.set_sequence_schemes([ProtectionScheme::None, ProtectionScheme::ClassicalAbft]);
        let mut hooks = (&mut injector, &mut protector);
        let (protected_logits, _) = model.prefill_batch(&prompts, &mut hooks).unwrap();
        assert!(protector.stats().gemms_inspected > 0);
        // The protected request comes out bit-clean: its private attention GEMMs run under
        // its own classical scheme and the shared projections are escalated to it. The
        // unprotected request's private GEMMs stay uninspected — escalation protects the
        // shared rows, it does not upgrade what a request runs alone.
        assert_eq!(
            protected_logits[1], clean_logits[1],
            "escalated classical ABFT repairs the protected request"
        );

        // All-None policies skip inspection entirely and leave the faults in place.
        let mut injector = ErrorInjector::everywhere(FixedBitModel::bit30(0.05), 13);
        let mut unprotected =
            SchemeProtector::with_default_regions(ProtectionScheme::None, array());
        unprotected.set_sequence_schemes([ProtectionScheme::None, ProtectionScheme::None]);
        assert!(!unprotected.wants_checksums());
        let mut hooks = (&mut injector, &mut unprotected);
        let (faulty_logits, _) = model.prefill_batch(&prompts, &mut hooks).unwrap();
        assert_eq!(unprotected.stats().gemms_inspected, 0);
        assert_ne!(faulty_logits, clean_logits);

        // The installed schemes define the batch's intent: all-unprotected skips the fused
        // checksum reductions even when the construction scheme would inspect.
        let mut statistical_base =
            SchemeProtector::with_default_regions(ProtectionScheme::StatisticalAbft, array());
        statistical_base.set_sequence_schemes([ProtectionScheme::None, ProtectionScheme::None]);
        assert!(!statistical_base.wants_checksums());

        // An under-length list (caller bug) stays self-consistent: the out-of-range
        // sequence falls back to the strictest *installed* scheme, not the construction
        // scheme, so with an all-None list nothing anywhere is inspected.
        let mut injector = ErrorInjector::everywhere(FixedBitModel::bit30(0.05), 13);
        let mut short_list =
            SchemeProtector::with_default_regions(ProtectionScheme::ClassicalAbft, array());
        short_list.set_sequence_schemes([ProtectionScheme::None]);
        assert!(!short_list.wants_checksums());
        let mut hooks = (&mut injector, &mut short_list);
        model.prefill_batch(&prompts, &mut hooks).unwrap();
        assert_eq!(
            short_list.stats().gemms_inspected,
            0,
            "no sequence of an all-None list is inspected, in range or not"
        );
    }

    #[test]
    fn fused_detections_attribute_to_the_corrupted_shard() {
        let model = Model::new(&ModelConfig::tiny_opt(), 2).unwrap();
        let clean = model.generate(&[1, 2, 3], 6, &mut NoopHook).unwrap();

        // Arm a garble on shard 1 only: the classical protector must detect every one,
        // localize it to that shard's stripe and repair the run bit-exactly.
        let mut injector = ErrorInjector::new(
            realm_inject::BitFlipModel::uniform(0.0),
            realm_inject::Target::new().shard(1),
            9,
        );
        injector.arm_shard_faults(3, realm_inject::ShardFault::Garble { seed: 21 }, 2);
        let mut protector =
            SchemeProtector::with_default_regions(ProtectionScheme::ClassicalAbft, array());
        protector.set_shard_attribution(3);
        let mut hooks = (&mut injector, &mut protector);
        let out = model.generate(&[1, 2, 3], 6, &mut hooks).unwrap();
        assert_eq!(out, clean, "the protector recovers the garble");
        let charged = Attribution {
            detections: 2,
            recoveries: 2,
        };
        assert_eq!(
            protector.shard_attribution(),
            [Attribution::default(), charged, Attribution::default()]
        );

        // Bit flips anywhere in the accumulator localize to the stripes the deviating
        // columns fall in.
        let mut protector =
            SchemeProtector::with_default_regions(ProtectionScheme::ClassicalAbft, array());
        protector.set_shard_attribution(3);
        let mut injector = ErrorInjector::everywhere(FixedBitModel::bit30(0.2), 9);
        let mut hooks = (&mut injector, &mut protector);
        let repaired = model.generate(&[1, 2, 3], 6, &mut hooks).unwrap();
        assert_eq!(repaired, clean);
        let attribution = protector.shard_attribution();
        assert_eq!(attribution.len(), 3, "one entry per shard stripe");
        let (detections, recoveries) = attribution
            .iter()
            .fold((0, 0), |(d, r), a| (d + a.detections, r + a.recoveries));
        assert!(
            detections >= recoveries && recoveries > 0,
            "accumulator corruptions localize to shard stripes"
        );

        // Attribution is pure bookkeeping: a protector without it repairs the same run.
        let mut protector =
            SchemeProtector::with_default_regions(ProtectionScheme::ClassicalAbft, array());
        let mut injector = ErrorInjector::everywhere(FixedBitModel::bit30(0.2), 9);
        let mut hooks = (&mut injector, &mut protector);
        let repaired = model.generate(&[1, 2, 3], 6, &mut hooks).unwrap();
        assert_eq!(repaired, clean);
        assert!(protector.shard_attribution().is_empty());
    }

    #[test]
    fn per_error_replay_policy_records_cycles_not_macs() {
        let model = Model::new(&ModelConfig::tiny_opt(), 2).unwrap();
        let mut injector = ErrorInjector::everywhere(FixedBitModel::bit30(0.05), 5);
        let mut protector =
            SchemeProtector::with_default_regions(ProtectionScheme::ThunderVolt, array());
        let mut hooks = (&mut injector, &mut protector);
        model.prefill(&[3, 4, 5, 6], &mut hooks).unwrap();
        let stats = protector.stats();
        assert!(stats.recoveries_triggered > 0);
        assert_eq!(
            stats.recovery_macs, 0,
            "replay does not recompute whole GEMMs"
        );
        assert!(stats.recovery_cycles > 0);
    }
}
