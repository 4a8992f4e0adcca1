//! The continuous-batching engine loop.
//!
//! [`ServeEngine`] owns a [`BatchedKvCache`] with a fixed number of *slots* and drives
//! lockstep decode over whatever sequences currently occupy them. Between decode steps —
//! never in the middle of one — completed sequences release their slot
//! ([`BatchedKvCache::release_slot`]) and queued requests are admitted into the freed
//! slots, so the batch stays full under sustained load instead of draining in lockstep.
//!
//! Admission assigns a slot but runs **no model work**: the prompt is prefilled chunk by
//! chunk by the budgeted step scheduler. Every step reserves one budget token per slot in
//! the decoding phase — decode always has priority — and spends
//! the rest of [`ServeConfig::step_token_budget`] advancing in-progress prefills, oldest
//! admission first, with every chunk stacked into one batched forward
//! ([`Model::prefill_chunks_batch_ws`], whose LM head projects only each chunk's last row,
//! the one a prompt's final chunk commits its first token from); the decode pass then
//! runs, joined by any prompt that completed within the budget. A long prompt therefore
//! never stalls concurrent decode streams for more than one budget-bounded chunk round —
//! the head-of-line blocking a monolithic admission prefill causes is gone — while a wave
//! of short admissions still costs a single forward and starts decoding the same step,
//! exactly like the old batched admission prefill.
//!
//! Both chunk and decode GEMMs run under the one shared [`SchemeProtector`] whose per-slot
//! schemes are refreshed on every admission and retirement, so each request keeps the
//! protection it asked for (batch-stacked GEMMs escalate to the strictest active policy)
//! and detections during a mid-prompt chunk are attributed to the owning slot through the
//! chunk's row window.
//!
//! Everything is bit-exact with solo inference: chunked prefill produces the same KV rows,
//! logits and fused checksums as the monolithic one (per-row quantization and
//! visible-prefix attention make the forward pass chunk-invariant), so a request admitted
//! mid-flight produces exactly the tokens [`Model::generate`] would have produced for it
//! alone — chunking changes latency distribution and detection amortisation, never output.

use crate::adaptive::{AdaptiveConfig, AdaptiveController};
use crate::queue::{QueuedRequest, RequestQueue};
use crate::request::{RequestId, RequestSummary, ServeError, ServeRequest, TokenEvent};
use realm_core::protection::{
    ProtectionPolicy, RegionAssignment, SchemeProtector, SequenceAttribution,
};
use realm_llm::batch::BatchedKvCache;
use realm_llm::model::{argmax_with_margin, PrefillChunk};
use realm_llm::{GemmHook, Model};
use realm_systolic::{Dataflow, ProtectionScheme, SystolicArray};
use realm_tensor::Workspace;
use std::ops::Range;
use std::sync::mpsc::{channel, Receiver};
use std::time::Instant;

/// Decode-latency samples retained for the percentile stats; the buffer is halved once it
/// reaches twice this size, so a long-running engine keeps a bounded, recent window.
const LATENCY_WINDOW: usize = 4096;

/// Configuration of a [`ServeEngine`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Number of concurrent batch slots (the maximum decode batch width).
    pub slots: usize,
    /// Systolic array used to account detection/recovery cost in the protector's stats.
    pub array: SystolicArray,
    /// Queue-aging interval: a waiting request gains one priority level per this many
    /// engine steps, so low-priority requests cannot starve behind a sustained
    /// high-priority stream. `0` disables aging (strict priority).
    pub aging_steps: u64,
    /// Per-step token budget for the chunked-prefill scheduler; `0` means unlimited.
    ///
    /// Each step reserves one token per slot already decoding (decode is never budgeted
    /// away) and runs the prefill pass first: the remaining `step_token_budget −
    /// decode_rows` tokens are split FIFO by admission over every in-progress prefill — the
    /// oldest takes as much as it needs, the next what is left — and all their chunks run
    /// in one batched forward. The decode pass follows: one token per slot that was
    /// already decoding, plus as many prompts completed this step as the budget still
    /// admits (the rest join the next step). A budget at or below the decode width stalls
    /// prefill for that step only — decoding sequences retire and free budget, so prefill
    /// always makes progress eventually, and when no slot is decoding the whole budget (at
    /// least one token) goes to the prefill chunks.
    pub step_token_budget: usize,
    /// Runtime-adaptive protection (escalation, hysteresis, protection-first shedding).
    /// Disabled by default: the engine then behaves bit-identically to a build without
    /// the controller. See [`crate::adaptive`].
    pub adaptive: AdaptiveConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            slots: 4,
            array: SystolicArray::small(Dataflow::WeightStationary),
            aging_steps: 32,
            step_token_budget: 0,
            adaptive: AdaptiveConfig::default(),
        }
    }
}

impl ServeConfig {
    /// A config with `slots` concurrent slots and defaults for everything else.
    pub fn with_slots(slots: usize) -> Self {
        Self {
            slots,
            ..Self::default()
        }
    }

    /// Sets the per-step token budget (see [`ServeConfig::step_token_budget`]).
    pub fn with_step_token_budget(mut self, budget: usize) -> Self {
        self.step_token_budget = budget;
        self
    }

    /// Sets the adaptive-protection configuration (see [`crate::adaptive`]).
    pub fn with_adaptive(mut self, adaptive: AdaptiveConfig) -> Self {
        self.adaptive = adaptive;
        self
    }
}

/// Operator-facing snapshot of the engine's state, returned by [`ServeEngine::stats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineStats {
    /// Requests waiting for a slot.
    pub queue_depth: usize,
    /// Slots currently decoding a sequence.
    pub active_slots: usize,
    /// Total batch slots.
    pub total_slots: usize,
    /// Lockstep decode steps executed so far.
    pub steps: u64,
    /// Tokens committed across all requests.
    pub tokens_generated: u64,
    /// Requests accepted by [`ServeEngine::submit`].
    pub requests_submitted: u64,
    /// Requests assigned a batch slot (their prompts prefill chunk by chunk from there).
    pub requests_admitted: u64,
    /// Requests that ran to completion and delivered their summary.
    pub requests_completed: u64,
    /// Requests abandoned because their receiver was dropped mid-stream.
    pub requests_cancelled: u64,
    /// Requests refused by load shedding before they ever entered the queue (counted via
    /// [`ServeEngine::note_shed`]; a network front end answers these with `429`).
    pub requests_shed: u64,
    /// Engine steps the longest-waiting queued request has spent in the queue (0 when the
    /// queue is empty). Queue aging still runs on this clock; shedding SLOs compare
    /// against [`EngineStats::queue_oldest_age_tokens`] instead.
    pub queue_oldest_age_steps: u64,
    /// Budgeted tokens processed since the longest-waiting queued request was enqueued
    /// (0 when the queue is empty). This is the age a shedding SLO is compared against —
    /// see [`ServeEngine::oldest_token_age`]: under chunked prefill a step's cost varies
    /// with the budget, so token age measures backlog in units of actual work.
    pub queue_oldest_age_tokens: u64,
    /// Cumulative tokens the engine has processed: decode rows plus prefill-chunk rows.
    /// The deterministic clock token-age shedding runs on.
    pub token_clock: u64,
    /// Prefill chunks executed by the budgeted scheduler (a monolithic prefill under an
    /// unlimited budget counts as one chunk).
    pub prefill_chunks: u64,
    /// 99th-percentile gap between consecutive decode commits on the same slot, in
    /// microseconds, over the recent window (0.0 until a slot has decoded twice). This is
    /// the head-of-line-blocking metric: a monolithic admission prefill stalls every
    /// in-flight decode for a full prompt, which lands here as a giant gap; budgeted
    /// chunking bounds it.
    pub decode_stall_p99_us: f64,
    /// Fraction of the cumulative per-step token budget actually spent (decode rows plus
    /// chunk rows over budget × steps). 0.0 when the budget is unlimited; may slightly
    /// exceed 1.0 when the decode width alone exceeds the budget, since decode is never
    /// budgeted away.
    pub step_budget_utilization: f64,
    /// ABFT detections charged to requests (completed and in-flight).
    pub detections: u64,
    /// ABFT recoveries charged to requests (completed and in-flight).
    pub recoveries: u64,
    /// Wall-clock seconds since the engine was created.
    pub elapsed_seconds: f64,
    /// Committed tokens per wall-clock second since engine creation.
    pub tokens_per_second: f64,
    /// Median per-step decode latency in microseconds over the recent window
    /// (0.0 before the first decode step).
    pub decode_p50_us: f64,
    /// 99th-percentile per-step decode latency in microseconds over the recent window
    /// (0.0 before the first decode step).
    pub decode_p99_us: f64,
    /// High-water mark of the engine's long-lived scratch workspace in bytes — the
    /// steady-state memory footprint of the allocation-free decode loop. Stabilises after
    /// warmup; growth here indicates a scratch leak.
    pub workspace_high_water_bytes: usize,
    /// Adaptive-controller stage-up transitions (Calm → Elevated, Elevated → Escalated)
    /// across all slots. 0 while adaptation is disabled.
    pub policy_escalations: u64,
    /// Adaptive-controller stage-down transitions earned by clean windows. 0 while
    /// adaptation is disabled.
    pub policy_deescalations: u64,
    /// Steps spent with resilient-component protection shed under queue pressure — the
    /// protection-first alternative to a 429. 0 while adaptation (or shedding) is off.
    pub protection_shed_steps: u64,
    /// Steps spent under each protection scheme, indexed by
    /// [`ProtectionScheme::strictness`]. A step is charged to the strictest sequence
    /// scheme any occupied slot announced that step (after adaptive escalation), i.e.
    /// the scheme the batch-stacked GEMMs ran under. Counted whether or not adaptation
    /// is enabled, so static and adaptive runs are directly comparable.
    pub steps_at_scheme: [u64; 7],
}

impl EngineStats {
    /// Mean detections charged per admitted request (0.0 before the first admission).
    ///
    /// In-flight requests count in both the numerator and the denominator, matching the
    /// [`EngineStats::detections`] field this divides.
    pub fn detections_per_request(&self) -> f64 {
        if self.requests_admitted == 0 {
            0.0
        } else {
            self.detections as f64 / self.requests_admitted as f64
        }
    }
}

/// Where a slot's sequence is in its lifecycle: the admission state machine.
///
/// ```text
///   admit (slot assignment, no model work)
///     │
///     ▼
///   Prefilling { done: 0 } ──chunk──▶ Prefilling { done } ──chunk──▶ ⋯
///     │                                                        │
///     └────────── final chunk: commit first token ─────────────┘
///                              │
///                              ▼
///                          Decoding ──budget reached / cancelled──▶ finalize
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotPhase {
    /// The prompt's first `done` tokens are resident in the slot's KV rows; the rest wait
    /// for budget. The sequence takes no part in lockstep decode yet.
    Prefilling {
        /// Prompt tokens already processed into the slot.
        done: usize,
    },
    /// Prefill is complete and the first token is committed; the slot decodes in lockstep.
    Decoding,
}

/// A sequence currently occupying a batch slot.
#[derive(Debug)]
struct ActiveSeq {
    id: RequestId,
    sender: std::sync::mpsc::Sender<TokenEvent>,
    /// Prompt tokens, retained until prefill completes (chunks index into it).
    prompt: Vec<u32>,
    /// Prefill progress / decode membership.
    phase: SlotPhase,
    /// Last committed token — the input of the next decode step (meaningful once
    /// `phase` is [`SlotPhase::Decoding`]).
    last: u32,
    tokens: Vec<u32>,
    margins: Vec<f32>,
    target: usize,
    policy: ProtectionPolicy,
    enqueue_step: u64,
    admit_step: u64,
    /// Instant of this slot's most recent token commit, once the first token exists;
    /// consecutive-commit gaps feed [`EngineStats::decode_stall_p99_us`].
    last_decode_at: Option<Instant>,
    /// The detections and recoveries settled to this request so far: the shared
    /// protector's charges to its slot, taken at the end of every step and at retirement.
    attribution: SequenceAttribution,
}

/// The continuous-batching serving engine.
///
/// See the [crate-level documentation](crate) for a worked end-to-end example. The engine
/// is synchronous and deterministic: [`ServeEngine::submit`] enqueues, [`ServeEngine::step`]
/// advances one admission + lockstep-decode round, and [`ServeEngine::run_until_idle`]
/// pumps until queue and slots are empty. Token streams are delivered through the
/// [`std::sync::mpsc::Receiver`] returned at submission, so a driving thread can hand
/// receivers to per-client consumers. The engine itself is `Send` — it can be moved into a
/// dedicated serving thread and fed between steps.
pub struct ServeEngine<'m> {
    model: &'m Model,
    config: ServeConfig,
    queue: RequestQueue,
    slots: Vec<Option<ActiveSeq>>,
    cache: BatchedKvCache,
    protector: SchemeProtector,
    /// The runtime policy machine driving escalation/de-escalation and protection
    /// shedding; a transparent no-op unless [`ServeConfig::adaptive`] enables it.
    adaptive: AdaptiveController,
    /// Reused per-step buffers for the controller's observations.
    step_detections: Vec<u64>,
    adaptive_occupied: Vec<bool>,
    /// Steps charged per scheme strictness rank (see [`EngineStats::steps_at_scheme`]).
    steps_at_scheme: [u64; 7],
    fault_hook: Option<Box<dyn GemmHook + Send + 'm>>,
    /// Long-lived scratch arena shared by every admission prefill and decode step: after
    /// the first few steps warm its pools, the steady-state loop stops allocating.
    ws: Workspace,
    /// Reused per-step buffer of pending tokens (one slot per batch slot).
    step_tokens: Vec<Option<u32>>,
    /// Reused per-step buffers of the prefill pass ([`ServeEngine::advance_prefills`]):
    /// the prefilling slots by admission, the planned `(slot, prompt range)` chunks, the
    /// chunks handed to the model (stored empty, so they borrow nothing between steps) and
    /// the slots whose prompt completed this step.
    prefill_order: Vec<(u64, RequestId, usize)>,
    prefill_plan: Vec<(usize, Range<usize>)>,
    prefill_chunks_scratch: Vec<PrefillChunk<'static>>,
    fresh: Vec<usize>,
    /// Recent per-step decode latencies in microseconds (bounded window).
    decode_us: Vec<u64>,
    /// Recent decode-to-decode commit gaps per slot in microseconds (bounded window).
    stall_us: Vec<u64>,
    started: Instant,
    steps: u64,
    /// Cumulative tokens processed: decode rows plus prefill-chunk rows.
    token_clock: u64,
    /// Prefill chunks executed by the budgeted scheduler.
    prefill_chunks: u64,
    /// Cumulative tokens spent in budgeted steps (decode rows + chunk rows).
    budget_used: u64,
    /// Cumulative budget offered across budgeted steps (`step_token_budget × steps`);
    /// 0 while the budget is unlimited.
    budget_available: u64,
    tokens_generated: u64,
    submitted: u64,
    admitted: u64,
    completed: u64,
    cancelled: u64,
    shed: u64,
    /// Charges of every retired request, completed or cancelled.
    retired_attribution: SequenceAttribution,
}

impl<'m> ServeEngine<'m> {
    /// Creates an engine with `config.slots` batch slots over `model` (slot count is
    /// clamped to at least 1).
    pub fn new(model: &'m Model, config: ServeConfig) -> Self {
        let slots = config.slots.max(1);
        // Recovery recomputes on the backend the model serves on, not the process default.
        // Built unprotected: `refresh_schemes` installs one scheme per slot (a free slot's is
        // `None`) at every admission, before any GEMM runs, so the construction scheme never
        // decides one.
        let protector = SchemeProtector::with_engine(
            ProtectionScheme::None,
            config.array,
            &RegionAssignment::new(),
            model.config().engine.build(),
        );
        Self {
            model,
            config,
            queue: RequestQueue::new(config.aging_steps),
            slots: (0..slots).map(|_| None).collect(),
            cache: model.new_batched_cache(slots),
            protector,
            adaptive: AdaptiveController::new(slots, config.adaptive, &RegionAssignment::new()),
            step_detections: vec![0; slots],
            adaptive_occupied: vec![false; slots],
            steps_at_scheme: [0; 7],
            fault_hook: None,
            ws: Workspace::new(),
            step_tokens: Vec::new(),
            prefill_order: Vec::new(),
            prefill_plan: Vec::new(),
            prefill_chunks_scratch: Vec::new(),
            fresh: Vec::new(),
            decode_us: Vec::new(),
            stall_us: Vec::new(),
            started: Instant::now(),
            steps: 0,
            token_clock: 0,
            prefill_chunks: 0,
            budget_used: 0,
            budget_available: 0,
            tokens_generated: 0,
            submitted: 0,
            admitted: 0,
            completed: 0,
            cancelled: 0,
            shed: 0,
            retired_attribution: SequenceAttribution::default(),
        }
    }

    /// Installs a fault hook (typically a `realm-inject` `ErrorInjector`) that runs ahead
    /// of the protector on every GEMM — the serving equivalent of operating the array at a
    /// scaled voltage. The box may hold a borrow (`Box::new(&mut injector)`), so a caller
    /// can read the hook's own statistics once the engine is gone.
    pub fn with_fault_hook(mut self, hook: Box<dyn GemmHook + Send + 'm>) -> Self {
        self.fault_hook = Some(hook);
        self
    }

    /// Validates `request` and enqueues it, returning the assigned id and the channel the
    /// request's [`TokenEvent`]s will stream over.
    ///
    /// Dropping the receiver cancels the request: the engine notices the closed channel at
    /// the next commit and frees the slot.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidRequest`] for an empty prompt, an out-of-vocabulary
    /// token, or a prompt plus budget exceeding the model's context window.
    pub fn submit(
        &mut self,
        request: ServeRequest,
    ) -> Result<(RequestId, Receiver<TokenEvent>), ServeError> {
        if request.prompt.is_empty() {
            return Err(ServeError::InvalidRequest {
                detail: "prompt must not be empty".into(),
            });
        }
        let vocab = self.model.config().vocab_size;
        if let Some(&bad) = request.prompt.iter().find(|&&t| t as usize >= vocab) {
            return Err(ServeError::InvalidRequest {
                detail: format!("prompt token {bad} is outside the vocabulary ({vocab})"),
            });
        }
        let max_seq_len = self.model.config().max_seq_len;
        if request.prompt.len() + request.max_new_tokens > max_seq_len {
            return Err(ServeError::InvalidRequest {
                detail: format!(
                    "prompt ({}) plus generation budget ({}) exceeds max_seq_len {max_seq_len}",
                    request.prompt.len(),
                    request.max_new_tokens
                ),
            });
        }
        let (sender, receiver) = channel();
        self.submitted += 1;
        let id = self.submitted;
        self.queue.push(QueuedRequest::new(
            id,
            request,
            sender,
            self.steps,
            self.token_clock,
        ));
        Ok((id, receiver))
    }

    /// Advances the engine by one round: assigns queued requests to free slots, spends
    /// the token budget left after reserving the decoding slots' width advancing
    /// in-progress prefills by one batched chunk forward, then runs one lockstep decode
    /// step across the decoding slots — including prompts that just completed, while the
    /// budget admits their rows. Returns `true` while work remains (occupied slots or
    /// queued requests).
    ///
    /// Decode has strict priority through the reservation: a newly admitted long prompt
    /// cannot stall in-flight streams for more than the chunk rows the budget leaves
    /// after their own. Among prefilling slots the budget is split
    /// oldest-admission-first (FIFO), so chunked admissions complete in order.
    ///
    /// # Errors
    ///
    /// Propagates model-inference errors; validation at [`ServeEngine::submit`] makes
    /// these unreachable for accepted requests in normal operation.
    pub fn step(&mut self) -> Result<bool, ServeError> {
        // Admission: assign every free slot a queued request. Assignment is pure
        // bookkeeping — the prompt is prefilled chunk by chunk below, under the shared
        // protector, so admission itself never blocks a decode.
        while let Some(slot) = self.slots.iter().position(Option::is_none) {
            let Some(queued) = self.queue.pop(self.steps) else {
                break;
            };
            self.install(slot, queued);
        }
        if self.slots.iter().all(Option::is_none) {
            return Ok(!self.queue.is_empty());
        }
        self.steps += 1;
        // Tick the step clock on the fault hook before any of the step's GEMMs run, so a
        // time-correlated injector (burst mode) sees exactly one tick per scheduler step —
        // `on_batch_begin` fires once per *forward* and a step may run two (chunk + decode).
        if let Some(hook) = self.fault_hook.as_mut() {
            hook.on_step_begin(self.steps);
        }
        // Charge the step to the scheme its batch-stacked GEMMs run under: the strictest one
        // the occupied slots announced at the last `refresh_schemes`.
        let step_scheme = self.protector.batched_scheme();
        self.steps_at_scheme[step_scheme.strictness() as usize] += 1;

        // Prefill pass first: the token budget minus the width reserved for the decoding
        // slots advances in-progress prefills, oldest admission first, in one batched
        // forward. Running prefill *before* decode lets a prompt that completes within
        // the budget join the same step's decode pass — admission costs no pipeline
        // bubble — while the reservation keeps decode's strict budget priority: in-flight
        // streams never wait on more chunk rows than the budget leaves after their own.
        let decoding_now = self
            .slots
            .iter()
            .flatten()
            .filter(|a| matches!(a.phase, SlotPhase::Decoding))
            .count();
        let budget = self.config.step_token_budget;
        let chunk_allow = if budget == 0 {
            usize::MAX
        } else {
            budget.saturating_sub(decoding_now)
        };
        self.fresh.clear();
        let chunk_rows = if chunk_allow > 0 {
            self.advance_prefills(chunk_allow)?
        } else {
            0
        };

        // Decode pass: one token for every pre-step decoding slot, plus as many freshly
        // prefilled slots as the budget still admits (their chunk rows are spent above;
        // the rest join next step). With no decoding slots the whole budget was available
        // to chunks, so a chunk of at least one token always fits and prefill can never
        // livelock.
        let Self {
            slots,
            step_tokens,
            fresh,
            ..
        } = self;
        let blocked = &fresh[if budget == 0 {
            fresh.len()
        } else {
            budget.saturating_sub(decoding_now + chunk_rows)
        }
        .min(fresh.len())..];
        step_tokens.clear();
        step_tokens.extend(slots.iter().enumerate().map(|(slot, s)| {
            s.as_ref().and_then(|a| match a.phase {
                SlotPhase::Decoding if !blocked.contains(&slot) => Some(a.last),
                _ => None,
            })
        }));
        let decode_rows = step_tokens.iter().filter(|t| t.is_some()).count();
        if decode_rows > 0 {
            let decode_started = Instant::now();
            let step_logits = {
                let Self {
                    model,
                    cache,
                    protector,
                    fault_hook,
                    ws,
                    step_tokens,
                    ..
                } = self;
                let mut hooks = (fault_hook.as_deref_mut(), protector);
                model.decode_step_batch_ws(step_tokens, cache, &mut hooks, ws)?
            };
            self.note_decode_latency(decode_started);
            for (slot, logits) in step_logits.into_iter().enumerate() {
                let Some(logits) = logits else { continue };
                let (next, margin) = argmax_with_margin(&logits);
                self.ws.recycle_vec_f32(logits);
                let active = self.slots[slot]
                    .as_mut()
                    .expect("decode produced logits for an occupied slot");
                active.last = next;
                let stall = active
                    .last_decode_at
                    .replace(Instant::now())
                    .map(|prev| prev.elapsed());
                let finished = Self::commit(active, next, margin);
                self.tokens_generated += 1;
                if let Some(stall) = stall {
                    self.note_decode_stall(stall);
                }
                if finished {
                    self.finalize(slot);
                }
            }
        }

        self.token_clock += (decode_rows + chunk_rows) as u64;
        if budget > 0 {
            self.budget_available += budget as u64;
            self.budget_used += (decode_rows + chunk_rows) as u64;
        }
        self.settle_step();
        self.ws.reset();
        Ok(self.has_work())
    }

    /// Settles the step's protection charges and advances the adaptive controller: every
    /// occupied slot takes what the shared protector charged it this step into its
    /// request's attribution, and the taken detections, with the queue pressure, feed the
    /// controller, whose moves re-announce the schemes. Runs at the end of every step,
    /// after the step's GEMMs charged their attribution, so a transition takes effect from
    /// the *next* step's first GEMM — the controller never changes protection mid-forward.
    fn settle_step(&mut self) {
        for (slot, active) in self.slots.iter_mut().enumerate() {
            let mut detections = 0;
            if let Some(active) = active {
                let charged = self.protector.take_sequence_attribution(slot);
                active.attribution += charged;
                detections = charged.detections;
            }
            self.step_detections[slot] = detections;
            self.adaptive_occupied[slot] = active.is_some();
        }
        if !self.adaptive.is_enabled() {
            return;
        }
        let pressure = self.queue.oldest_token_age(self.token_clock);
        let changed = self.adaptive.observe_step(
            self.steps,
            &self.step_detections,
            &self.adaptive_occupied,
            pressure,
        );
        if changed {
            self.refresh_schemes();
        }
    }

    /// Spends up to `budget_tokens` prompt tokens advancing every in-progress prefill,
    /// oldest admission first, in **one** batched forward under the shared protector
    /// ([`Model::prefill_chunks_batch_ws`]); returns the number of tokens processed and
    /// pushes onto `self.fresh` (which `step` clears) the slots that completed their prompt
    /// this step and are still active (FIFO order) — candidates for joining the same step's decode pass. The budget
    /// is split FIFO by admission order — the oldest prefill takes as much as it needs, the
    /// next takes what is left — so chunked admissions complete in order while a wave of
    /// admissions still costs one forward, not one per request. A slot's final chunk
    /// commits the request's first token (budget-0 requests finalize with empty output);
    /// earlier chunks only extend the slot's resident KV rows. The step's bookkeeping
    /// refills the engine's own buffers, so a warmed step allocates none of it.
    fn advance_prefills(&mut self, budget_tokens: usize) -> Result<usize, ServeError> {
        let Self {
            slots,
            prefill_order: order,
            prefill_plan: plan,
            ..
        } = self;
        order.clear();
        order.extend(
            slots
                .iter()
                .enumerate()
                .filter_map(|(slot, s)| s.as_ref().map(|a| (a, slot)))
                .filter(|(a, _)| matches!(a.phase, SlotPhase::Prefilling { .. }))
                .map(|(a, slot)| (a.admit_step, a.id, slot)),
        );
        if order.is_empty() {
            return Ok(0);
        }
        order.sort_unstable();
        let mut left = budget_tokens;
        plan.clear();
        for &(_, _, slot) in order.iter() {
            if left == 0 {
                break;
            }
            let active = slots[slot].as_ref().expect("slot is occupied");
            let SlotPhase::Prefilling { done } = active.phase else {
                unreachable!("the plan only holds prefilling slots")
            };
            let take = left.min(active.prompt.len() - done);
            plan.push((slot, done..done + take));
            left -= take;
        }
        let per_chunk = {
            let Self {
                model,
                slots,
                cache,
                protector,
                fault_hook,
                ws,
                prefill_plan: plan,
                prefill_chunks_scratch: scratch,
                ..
            } = self;
            let mut chunks = relend(std::mem::take(scratch));
            chunks.extend(plan.iter().map(|(slot, range)| PrefillChunk {
                prompt: &slots[*slot].as_ref().expect("slot is occupied").prompt,
                range: range.clone(),
                slot: *slot,
            }));
            let mut hooks = (fault_hook.as_deref_mut(), protector);
            let per_chunk = model.prefill_chunks_batch_ws(&chunks, cache, &mut hooks, ws);
            *scratch = relend(chunks);
            per_chunk?
        };
        self.prefill_chunks += self.prefill_plan.len() as u64;
        let mut rows = 0;
        for (i, logits) in per_chunk.into_iter().enumerate() {
            let (slot, range) = self.prefill_plan[i].clone();
            rows += range.len();
            // A chunk's row is its window's last position; for the final chunk that is the
            // prompt's last, so its argmax is the request's first token — bit-identical to
            // a monolithic prefill's commit.
            let (first, margin) = argmax_with_margin(&logits);
            self.ws.recycle_vec_f32(logits);
            let active = self.slots[slot].as_mut().expect("slot stays occupied");
            if range.end < active.prompt.len() {
                active.phase = SlotPhase::Prefilling { done: range.end };
                continue;
            }
            active.phase = SlotPhase::Decoding;
            active.last = first;
            active.last_decode_at = Some(Instant::now());
            if active.target == 0 {
                self.finalize(slot);
                continue;
            }
            let finished = Self::commit(active, first, margin);
            self.tokens_generated += 1;
            if finished {
                self.finalize(slot);
            } else {
                self.fresh.push(slot);
            }
        }
        Ok(rows)
    }

    /// Records one decode step's wall-clock latency in the bounded sample window.
    fn note_decode_latency(&mut self, started: Instant) {
        if self.decode_us.len() >= 2 * LATENCY_WINDOW {
            self.decode_us.drain(..LATENCY_WINDOW);
        }
        self.decode_us.push(started.elapsed().as_micros() as u64);
    }

    /// Records one slot's gap between consecutive token commits in the bounded window.
    fn note_decode_stall(&mut self, gap: std::time::Duration) {
        if self.stall_us.len() >= 2 * LATENCY_WINDOW {
            self.stall_us.drain(..LATENCY_WINDOW);
        }
        self.stall_us.push(gap.as_micros() as u64);
    }

    /// Pumps [`ServeEngine::step`] until no queued or active request remains.
    ///
    /// # Errors
    ///
    /// Propagates the first [`ServeEngine::step`] error.
    pub fn run_until_idle(&mut self) -> Result<(), ServeError> {
        while self.step()? {}
        Ok(())
    }

    /// Returns `true` while any request is queued or occupying a slot.
    pub fn has_work(&self) -> bool {
        !self.queue.is_empty() || self.slots.iter().any(Option::is_some)
    }

    /// Engine steps the longest-waiting queued request has spent in the queue, or `None`
    /// when nothing is queued.
    ///
    /// This is the queue's own age bookkeeping, exposed so an admission-control layer (the
    /// network front end's load shedder) can compare the backlog against an age SLO
    /// without duplicating enqueue-step tracking. Measured in engine steps — the same
    /// deterministic clock queue aging uses — not wall-clock time.
    pub fn oldest_queue_age(&self) -> Option<u64> {
        self.queue.oldest_age(self.steps)
    }

    /// Budgeted tokens processed since the longest-waiting queued request was enqueued,
    /// or `None` when nothing is queued.
    ///
    /// This is the age a shedding SLO should compare against: with a per-step token
    /// budget, steps are no longer uniform units of work, but the token clock — decode
    /// rows plus prefill-chunk rows — still is. A request that has watched N budgeted
    /// tokens go to other requests has waited N tokens' worth of compute, whatever the
    /// step count says. Deterministic for a given schedule, like the step clock.
    pub fn oldest_token_age(&self) -> Option<u64> {
        self.queue.oldest_token_age(self.token_clock)
    }

    /// Records one load-shed decision: a request that was refused *before* submission
    /// because the queue backlog exceeded the operator's age SLO.
    ///
    /// The engine never sheds on its own — [`ServeEngine::submit`] accepts everything
    /// valid — so the admission layer that refused the request charges the event here,
    /// keeping all serving counters in one [`EngineStats`] snapshot.
    pub fn note_shed(&mut self) {
        self.shed += 1;
    }

    /// A snapshot of queue depth, slot occupancy, throughput and reliability counters.
    pub fn stats(&self) -> EngineStats {
        let mut charged = self.retired_attribution;
        for active in self.slots.iter().flatten() {
            charged += active.attribution;
        }
        let elapsed_seconds = self.started.elapsed().as_secs_f64();
        let mut sorted_us = self.decode_us.clone();
        sorted_us.sort_unstable();
        let mut sorted_stall_us = self.stall_us.clone();
        sorted_stall_us.sort_unstable();
        EngineStats {
            queue_depth: self.queue.len(),
            active_slots: self.slots.iter().filter(|s| s.is_some()).count(),
            total_slots: self.slots.len(),
            steps: self.steps,
            tokens_generated: self.tokens_generated,
            requests_submitted: self.submitted,
            requests_admitted: self.admitted,
            requests_completed: self.completed,
            requests_cancelled: self.cancelled,
            requests_shed: self.shed,
            queue_oldest_age_steps: self.oldest_queue_age().unwrap_or(0),
            queue_oldest_age_tokens: self.oldest_token_age().unwrap_or(0),
            token_clock: self.token_clock,
            prefill_chunks: self.prefill_chunks,
            decode_stall_p99_us: percentile_us(&sorted_stall_us, 0.99),
            step_budget_utilization: if self.budget_available == 0 {
                0.0
            } else {
                self.budget_used as f64 / self.budget_available as f64
            },
            detections: charged.detections,
            recoveries: charged.recoveries,
            elapsed_seconds,
            tokens_per_second: if elapsed_seconds > 0.0 {
                self.tokens_generated as f64 / elapsed_seconds
            } else {
                0.0
            },
            decode_p50_us: percentile_us(&sorted_us, 0.50),
            decode_p99_us: percentile_us(&sorted_us, 0.99),
            workspace_high_water_bytes: self.ws.high_water_mark_bytes(),
            policy_escalations: self.adaptive.escalations(),
            policy_deescalations: self.adaptive.deescalations(),
            protection_shed_steps: self.adaptive.shed_steps(),
            steps_at_scheme: self.steps_at_scheme,
        }
    }

    /// The runtime policy machine: per-slot escalation stages, the shed flag and the
    /// transition counters. A disabled controller reports every slot Calm forever.
    pub fn adaptive(&self) -> &AdaptiveController {
        &self.adaptive
    }

    /// Installs `queued` into `slot` in the [`SlotPhase::Prefilling`] phase. No model
    /// work happens here — the budgeted scheduler prefills the prompt chunk by chunk —
    /// but the slot's protection scheme is announced to the shared protector immediately
    /// so the very first chunk GEMMs already run under the request's policy.
    fn install(&mut self, slot: usize, queued: QueuedRequest) {
        self.slots[slot] = Some(ActiveSeq {
            id: queued.id,
            sender: queued.sender,
            prompt: queued.prompt,
            phase: SlotPhase::Prefilling { done: 0 },
            last: 0,
            tokens: Vec::with_capacity(queued.max_new_tokens),
            margins: Vec::with_capacity(queued.max_new_tokens),
            target: queued.max_new_tokens,
            policy: queued.policy,
            enqueue_step: queued.enqueue_step,
            admit_step: self.steps,
            last_decode_at: None,
            attribution: SequenceAttribution::default(),
        });
        self.admitted += 1;
        self.refresh_schemes();
    }

    /// Records a committed token and streams it; returns `true` if the request finished
    /// (budget reached) or was cancelled (receiver dropped).
    fn commit(active: &mut ActiveSeq, token: u32, margin: f32) -> bool {
        active.tokens.push(token);
        active.margins.push(margin);
        let delivered = active
            .sender
            .send(TokenEvent::Token {
                id: active.id,
                index: active.tokens.len() - 1,
                token,
                margin,
            })
            .is_ok();
        !delivered || active.tokens.len() >= active.target
    }

    /// Retires the request in `slot`: releases the KV rows, delivers the summary and
    /// refreshes the per-slot protection schemes.
    fn finalize(&mut self, slot: usize) {
        let active = self.slots[slot]
            .take()
            .expect("finalizing an occupied slot");
        self.cache.release_slot(slot);
        // Prefill chunks and decode steps both run under the shared protector (a chunk
        // announces a row partition whose only non-empty group is its slot), so the
        // charges settled per step plus this step's cover the request's whole lifetime.
        let mut attribution = active.attribution;
        attribution += self.protector.take_sequence_attribution(slot);
        self.retired_attribution += attribution;
        let escalations = self.adaptive.retire_slot(slot);
        let summary = RequestSummary {
            id: active.id,
            prompt_len: active.prompt.len(),
            queued_steps: active.admit_step.saturating_sub(active.enqueue_step),
            service_steps: self.steps.saturating_sub(active.admit_step),
            attribution,
            escalations,
            policy: active.policy,
            tokens: active.tokens,
            margins: active.margins,
        };
        if active.sender.send(TokenEvent::Done(summary)).is_ok() {
            self.completed += 1;
        } else {
            self.cancelled += 1;
        }
        self.refresh_schemes();
    }

    /// Re-announces the slot → scheme map to the shared decode protector (free slots count
    /// as unprotected and never weaken an occupied slot's scheme), with adaptive
    /// escalation applied per slot, and installs the controller's per-component overlay
    /// (escalated sensitive components, shed resilient components; empty while adaptation
    /// is off).
    fn refresh_schemes(&mut self) {
        let Self {
            slots,
            adaptive,
            protector,
            ..
        } = self;
        protector.set_sequence_schemes(slots.iter().enumerate().map(|(slot, s)| {
            s.as_ref().map_or(ProtectionScheme::None, |a| {
                adaptive.slot_scheme(slot, a.policy.scheme)
            })
        }));
        protector.set_component_schemes(adaptive.component_overlay());
    }
}

/// Empties `chunks` and returns its buffer typed for another borrow, so the engine keeps
/// one allocation for every step's chunks without holding a borrow between steps. A
/// by-value `map` + `collect` into a `Vec` of the same layout reuses the buffer (std's
/// in-place collect); the map never runs, since the vector is empty.
fn relend<'b>(mut chunks: Vec<PrefillChunk<'_>>) -> Vec<PrefillChunk<'b>> {
    chunks.clear();
    chunks
        .into_iter()
        .map(|_| unreachable!("the vector is empty"))
        .collect()
}

/// Nearest-rank percentile of an ascending-sorted microsecond sample (0.0 when empty).
fn percentile_us(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)] as f64
}

impl std::fmt::Debug for ServeEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("model", &self.model.config().name)
            .field("slots", &self.slots.len())
            .field("queue_depth", &self.queue.len())
            .field("steps", &self.steps)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use realm_llm::config::ModelConfig;

    fn engine(model: &Model, slots: usize) -> ServeEngine<'_> {
        ServeEngine::new(model, ServeConfig::with_slots(slots))
    }

    fn collect_done(rx: &Receiver<TokenEvent>) -> Option<RequestSummary> {
        let mut done = None;
        while let Ok(event) = rx.try_recv() {
            if let TokenEvent::Done(summary) = event {
                done = Some(summary);
            }
        }
        done
    }

    #[test]
    fn submit_validates_requests() {
        let model = Model::new(&ModelConfig::tiny_opt(), 3).unwrap();
        let mut engine = engine(&model, 2);
        assert!(engine.submit(ServeRequest::new(vec![], 4)).is_err());
        assert!(engine.submit(ServeRequest::new(vec![100_000], 4)).is_err());
        let max = model.config().max_seq_len;
        assert!(engine.submit(ServeRequest::new(vec![1; max], 1)).is_err());
        assert!(engine.submit(ServeRequest::new(vec![1, 2], 4)).is_ok());
        assert_eq!(engine.stats().queue_depth, 1);
    }

    #[test]
    fn engine_streams_tokens_and_summary() {
        let model = Model::new(&ModelConfig::tiny_opt(), 3).unwrap();
        let mut engine = engine(&model, 2);
        let (id, rx) = engine.submit(ServeRequest::new(vec![1, 5, 9], 4)).unwrap();
        engine.run_until_idle().unwrap();
        let mut streamed = Vec::new();
        let mut summary = None;
        while let Ok(event) = rx.try_recv() {
            match event {
                TokenEvent::Token { token, .. } => streamed.push(token),
                TokenEvent::Done(s) => summary = Some(s),
            }
        }
        let summary = summary.expect("request completes");
        assert_eq!(summary.id, id);
        assert_eq!(summary.tokens, streamed);
        assert_eq!(summary.tokens.len(), 4);
        assert_eq!(summary.prompt_len, 3);
        let solo = model
            .generate(&[1, 5, 9], 4, &mut realm_llm::NoopHook)
            .unwrap();
        assert_eq!(summary.tokens, solo.tokens);
        assert_eq!(summary.margins, solo.margins);
        let stats = engine.stats();
        assert_eq!(stats.requests_completed, 1);
        assert_eq!(stats.tokens_generated, 4);
        assert_eq!(stats.active_slots, 0);
    }

    #[test]
    fn zero_and_one_token_budgets_complete_at_admission() {
        let model = Model::new(&ModelConfig::tiny_opt(), 3).unwrap();
        let mut engine = engine(&model, 1);
        let (_, rx0) = engine.submit(ServeRequest::new(vec![1, 2], 0)).unwrap();
        let (_, rx1) = engine.submit(ServeRequest::new(vec![3, 4], 1)).unwrap();
        let (_, rx2) = engine.submit(ServeRequest::new(vec![5], 2)).unwrap();
        engine.run_until_idle().unwrap();
        assert!(collect_done(&rx0).unwrap().tokens.is_empty());
        assert_eq!(collect_done(&rx1).unwrap().tokens.len(), 1);
        assert_eq!(collect_done(&rx2).unwrap().tokens.len(), 2);
        assert_eq!(engine.stats().requests_completed, 3);
    }

    #[test]
    fn dropped_receiver_cancels_the_request() {
        let model = Model::new(&ModelConfig::tiny_opt(), 3).unwrap();
        let mut engine = engine(&model, 1);
        let (_, rx) = engine.submit(ServeRequest::new(vec![1, 2], 8)).unwrap();
        drop(rx);
        let (_, rx2) = engine.submit(ServeRequest::new(vec![3], 2)).unwrap();
        engine.run_until_idle().unwrap();
        let stats = engine.stats();
        assert_eq!(stats.requests_cancelled, 1);
        assert_eq!(stats.requests_completed, 1);
        assert_eq!(collect_done(&rx2).unwrap().tokens.len(), 2);
    }

    #[test]
    fn stats_report_occupancy_and_throughput() {
        let model = Model::new(&ModelConfig::tiny_opt(), 3).unwrap();
        let mut engine = engine(&model, 2);
        let mut receivers = Vec::new();
        for i in 0..4 {
            let (_, rx) = engine.submit(ServeRequest::new(vec![1 + i, 2], 6)).unwrap();
            receivers.push(rx); // keep the channels open until idle
        }
        engine.step().unwrap();
        let mid = engine.stats();
        assert_eq!(mid.total_slots, 2);
        assert_eq!(mid.active_slots, 2);
        assert_eq!(mid.queue_depth, 2);
        engine.run_until_idle().unwrap();
        let done = engine.stats();
        assert_eq!(done.requests_completed, 4);
        assert_eq!(done.tokens_generated, 24);
        assert!(done.tokens_per_second > 0.0);
        assert_eq!(done.detections, 0, "fault-free serving detects nothing");
        assert_eq!(done.detections_per_request(), 0.0);
    }

    #[test]
    fn queue_age_and_shed_counters_surface_in_stats() {
        let model = Model::new(&ModelConfig::tiny_opt(), 3).unwrap();
        let mut engine = engine(&model, 1);
        assert_eq!(
            engine.oldest_queue_age(),
            None,
            "idle engine has no backlog"
        );
        assert_eq!(engine.stats().queue_oldest_age_steps, 0);

        // Occupy the only slot and queue two more; stepping ages the backlog.
        let mut receivers = Vec::new();
        for i in 0..3 {
            let (_, rx) = engine.submit(ServeRequest::new(vec![1 + i, 2], 8)).unwrap();
            receivers.push(rx);
        }
        engine.step().unwrap(); // admits the first, queues the rest at step 0
        engine.step().unwrap();
        engine.step().unwrap();
        let age = engine
            .oldest_queue_age()
            .expect("two requests still queued");
        assert!(
            age >= 2,
            "backlog age advances with engine steps (got {age})"
        );
        assert_eq!(engine.stats().queue_oldest_age_steps, age);

        // Shed decisions made by the admission layer land in the same snapshot.
        engine.note_shed();
        engine.note_shed();
        assert_eq!(engine.stats().requests_shed, 2);
        engine.run_until_idle().unwrap();
        assert_eq!(engine.oldest_queue_age(), None);
        assert_eq!(engine.stats().queue_oldest_age_steps, 0);
        assert_eq!(engine.stats().requests_shed, 2, "sheds are cumulative");
    }

    #[test]
    fn budgeted_prefill_chunks_long_prompts_without_stalling_decode() {
        let model = Model::new(&ModelConfig::tiny_opt(), 3).unwrap();
        let long_prompt: Vec<u32> = (0..24).map(|i| 1 + (i % 7)).collect();

        // Unbudgeted reference: one monolithic chunk per admission.
        let mut mono = ServeEngine::new(&model, ServeConfig::with_slots(2));
        let (_, mono_short) = mono.submit(ServeRequest::new(vec![1, 5, 9], 8)).unwrap();
        let (_, mono_long) = mono
            .submit(ServeRequest::new(long_prompt.clone(), 4))
            .unwrap();
        mono.run_until_idle().unwrap();
        assert_eq!(mono.stats().prefill_chunks, 2, "one chunk per admission");
        assert_eq!(
            mono.stats().step_budget_utilization,
            0.0,
            "unlimited budget reports no utilization"
        );

        // Budget 4: the 24-token prompt needs several steps, and the short request's
        // decode proceeds every step in between.
        let config = ServeConfig::with_slots(2).with_step_token_budget(4);
        let mut engine = ServeEngine::new(&model, config);
        let (_, rx_short) = engine.submit(ServeRequest::new(vec![1, 5, 9], 8)).unwrap();
        let (_, rx_long) = engine
            .submit(ServeRequest::new(long_prompt.clone(), 4))
            .unwrap();
        // Step 1: both admitted; short prefills first (FIFO), chunk of 3 completes it.
        engine.step().unwrap();
        // Step 2: short decodes (1 row), long advances by 3 — and every later step keeps
        // decoding short while long's prefill is in flight.
        let mut short_events = Vec::new();
        for _ in 0..8 {
            short_events.extend(rx_short.try_iter());
            engine.step().unwrap();
        }
        short_events.extend(rx_short.try_iter());
        let chunked_short = short_events
            .iter()
            .find_map(|e| match e {
                TokenEvent::Done(s) => Some(s.clone()),
                TokenEvent::Token { .. } => None,
            })
            .expect("short stream finished its 8 tokens while the long prompt chunked");
        engine.run_until_idle().unwrap();
        let stats = engine.stats();
        // 24 tokens at ≤ 3 per chunk (budget 4 minus one decode row) plus the short
        // prompt's single chunk: at least 9 chunks.
        assert!(
            stats.prefill_chunks >= 9,
            "long prompt was split into budgeted chunks (got {})",
            stats.prefill_chunks
        );
        assert!(
            stats.step_budget_utilization > 0.0 && stats.step_budget_utilization <= 1.0,
            "utilization is a fraction of the offered budget (got {})",
            stats.step_budget_utilization
        );
        assert_eq!(
            stats.token_clock,
            24 + 3 + stats.tokens_generated - 2,
            "token clock counts prompt rows once plus every decode row \
             (first tokens come from prefill logits, not decode rows)"
        );

        // Chunking never changes output: both requests match the monolithic engine.
        let chunked_long = collect_done(&rx_long).unwrap();
        let mono_short = collect_done(&mono_short).unwrap();
        let mono_long = collect_done(&mono_long).unwrap();
        assert_eq!(chunked_short.tokens, mono_short.tokens);
        assert_eq!(chunked_short.margins, mono_short.margins);
        assert_eq!(chunked_long.tokens, mono_long.tokens);
        assert_eq!(chunked_long.margins, mono_long.margins);
        // And both match solo generation bit-exactly.
        let solo_long = model
            .generate(&long_prompt, 4, &mut realm_llm::NoopHook)
            .unwrap();
        assert_eq!(chunked_long.tokens, solo_long.tokens);
        assert_eq!(chunked_long.margins, solo_long.margins);
    }

    #[test]
    fn token_age_tracks_budgeted_work_for_shedding() {
        let model = Model::new(&ModelConfig::tiny_opt(), 3).unwrap();
        let config = ServeConfig::with_slots(1).with_step_token_budget(2);
        let mut engine = ServeEngine::new(&model, config);
        assert_eq!(
            engine.oldest_token_age(),
            None,
            "idle engine has no backlog"
        );

        let mut receivers = Vec::new();
        for i in 0..2 {
            let (_, rx) = engine
                .submit(ServeRequest::new(vec![1 + i, 2, 3, 4], 4))
                .unwrap();
            receivers.push(rx);
        }
        // The first request occupies the only slot; the second queues at token clock 0.
        engine.step().unwrap();
        engine.step().unwrap();
        let age = engine.oldest_token_age().expect("one request still queued");
        let stats = engine.stats();
        assert_eq!(
            age, stats.token_clock,
            "the queued request has been passed over for every budgeted token so far"
        );
        assert!(
            age >= 4,
            "two budget-2 steps processed at least 4 tokens (got {age})"
        );
        assert_eq!(stats.queue_oldest_age_tokens, age);
        engine.run_until_idle().unwrap();
        assert_eq!(engine.oldest_token_age(), None);
        assert_eq!(engine.stats().queue_oldest_age_tokens, 0);
        assert_eq!(engine.stats().requests_completed, 2);
    }
}
