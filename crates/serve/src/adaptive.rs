//! Runtime-adaptive protection: escalation, hysteresis and protection-first load shedding.
//!
//! A static deployment picks one protection scheme per request and lives with it: pay
//! classical ABFT's throughput cost everywhere, or accept statistical ABFT's residual risk
//! everywhere. The [`AdaptiveController`] moves protection at runtime instead, using the
//! per-slot detection attribution the shared [`realm_core::SchemeProtector`] already
//! maintains as a *fault-rate sensor*:
//!
//! ```text
//!                 window detections ≥ elevate          window detections ≥ escalate
//!        ┌──────┐ ───────────────────────────▶ ┌──────────┐ ────────────────────────▶ ┌───────────┐
//!        │ Calm │                              │ Elevated │                           │ Escalated │
//!        └──────┘ ◀─────────────────────────── └──────────┘ ◀──────────────────────── └───────────┘
//!                   clean_window_steps clean     clean_window_steps clean
//!        (every transition additionally gated by hysteresis_steps since the last one)
//! ```
//!
//! * **Calm** — the request's own policy stands; nothing is overridden.
//! * **Elevated** — the *sensitive* components (`O`, `FC2`, `Down` under default regions —
//!   see [`RegionAssignment::sensitive_components`]) are overlaid with the escalation
//!   scheme for the whole batch. Spatial escalation first: the components whose critical
//!   regions tolerate no sporadic error get the stricter detector before anything else.
//! * **Escalated** — additionally, the slot's own *sequence* scheme is raised to the
//!   escalation scheme, so its per-sequence attention GEMMs and its share of the
//!   batch-stacked strictest-scheme escalation run fully classical.
//!
//! De-escalation retraces the same ladder one stage per clean window — resilient coverage
//! is given up first, the sensitive overlay last — and the hysteresis gate bounds the
//! transition rate of every slot to at most one per `hysteresis_steps`, so an alternating
//! fault pattern can never make the policy flap.
//!
//! **Protection-first load shedding.** When the queue's token-age approaches the 429 SLO,
//! the controller sheds *protection* before traffic: the resilient components are overlaid
//! down to [`AdaptiveConfig::shed_floor`], buying back the checksum bandwidth, and the
//! overlay is lifted the moment pressure clears. The sensitive set and the resilient set
//! are disjoint, so an escalation overlay and a shed overlay compose without conflict —
//! under simultaneous burst and overload the engine still runs classical detection exactly
//! where the paper's sensitivity analysis says faults become visible.

use realm_core::protection::RegionAssignment;
use realm_llm::Component;
use realm_systolic::ProtectionScheme;
use std::collections::VecDeque;

/// Configuration of the [`AdaptiveController`].
///
/// The default is **disabled**: an engine built from `AdaptiveConfig::default()` behaves
/// bit-identically to one without a controller. [`AdaptiveConfig::enabled`] turns the
/// policy machine on with thresholds sized for the small serving batches of this codebase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Master switch; `false` makes the controller a transparent no-op.
    pub enabled: bool,
    /// Sliding detection-window length in engine steps.
    pub window_steps: u64,
    /// Window detections at which a Calm slot becomes Elevated.
    pub elevate_detections: u64,
    /// Window detections at which an Elevated slot becomes Escalated.
    pub escalate_detections: u64,
    /// Consecutive clean (zero-detection) steps before a slot steps down one stage.
    pub clean_window_steps: u64,
    /// Minimum steps between two transitions of the same slot (the first is free).
    pub hysteresis_steps: u64,
    /// The scheme escalation raises protection to (sequence scheme and sensitive-component
    /// overlay alike). Classical ABFT by default: full checksum comparison, recovery on
    /// any mismatch.
    pub escalation_scheme: ProtectionScheme,
    /// Queue token-age at which protection shedding arms; `0` disables shedding.
    ///
    /// A front end sheds *traffic* (429) at its own SLO; setting this below that SLO
    /// sheds resilient-component *protection* first, so checksum bandwidth is given back
    /// before any request is refused.
    pub shed_pressure_tokens: u64,
    /// The scheme resilient components are overlaid down to while shedding is active.
    pub shed_floor: ProtectionScheme,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            window_steps: 16,
            elevate_detections: 3,
            escalate_detections: 8,
            clean_window_steps: 16,
            hysteresis_steps: 8,
            escalation_scheme: ProtectionScheme::ClassicalAbft,
            shed_pressure_tokens: 0,
            shed_floor: ProtectionScheme::None,
        }
    }
}

impl AdaptiveConfig {
    /// The default thresholds with the controller switched on.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// Arms protection-first load shedding: once the queue's token-age reaches
    /// `pressure_tokens`, resilient components drop to `floor` until pressure clears.
    pub fn with_shed(mut self, pressure_tokens: u64, floor: ProtectionScheme) -> Self {
        self.shed_pressure_tokens = pressure_tokens;
        self.shed_floor = floor;
        self
    }
}

/// Where a slot sits on the escalation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ProtectionStage {
    /// No recent detection burst: the request's own policy stands.
    Calm,
    /// Detection burst observed: sensitive components run the escalation scheme.
    Elevated,
    /// Sustained burst: the slot's sequence scheme is raised to the escalation scheme too.
    Escalated,
}

/// Per-slot detection history and ladder position.
#[derive(Debug, Clone)]
struct SlotState {
    stage: ProtectionStage,
    /// Per-step detection counts over the last `window_steps` steps.
    window: VecDeque<u64>,
    /// Running sum of `window`.
    window_sum: u64,
    /// Consecutive zero-detection steps.
    clean_streak: u64,
    /// Step of the slot's last stage transition (hysteresis gate).
    last_transition: Option<u64>,
    /// Escalations charged to the slot's current occupant (reported in its summary).
    occupant_escalations: u64,
}

impl SlotState {
    fn new() -> Self {
        Self {
            stage: ProtectionStage::Calm,
            window: VecDeque::new(),
            window_sum: 0,
            clean_streak: 0,
            last_transition: None,
            occupant_escalations: 0,
        }
    }
}

/// The runtime policy machine: one escalation ladder per batch slot plus a global
/// protection-shedding flag, driven once per engine step by
/// [`AdaptiveController::observe_step`]. See the [module documentation](self) for the
/// state machine and its semantics.
#[derive(Debug, Clone)]
pub struct AdaptiveController {
    config: AdaptiveConfig,
    slots: Vec<SlotState>,
    /// Components the escalation overlay strengthens (θ_freq < 1 under their regions).
    sensitive: Vec<Component>,
    /// The complement: components the shed overlay weakens first.
    resilient: Vec<Component>,
    shed_active: bool,
    escalations: u64,
    deescalations: u64,
    shed_steps: u64,
}

impl AdaptiveController {
    /// A controller for `slots` batch slots whose spatial split (sensitive vs. resilient
    /// components) is derived from `regions`.
    pub fn new(slots: usize, config: AdaptiveConfig, regions: &RegionAssignment) -> Self {
        let sensitive = regions.sensitive_components();
        let resilient = Component::ALL
            .iter()
            .copied()
            .filter(|c| !sensitive.contains(c))
            .collect();
        Self {
            config,
            slots: (0..slots).map(|_| SlotState::new()).collect(),
            sensitive,
            resilient,
            shed_active: false,
            escalations: 0,
            deescalations: 0,
            shed_steps: 0,
        }
    }

    /// Whether the policy machine is live (`false` makes every hook a no-op).
    pub fn is_enabled(&self) -> bool {
        self.config.enabled
    }

    /// Feeds one engine step's observations and advances the policy machine. Returns
    /// `true` when the protection assignment changed and the engine must re-announce
    /// schemes to the protector.
    ///
    /// `detections[slot]` is the number of detections the protector charged to the slot
    /// *this step* (what the engine took from it at the step's end), `occupied[slot]`
    /// whether a sequence currently holds it, and `queue_pressure_tokens` the token-age of
    /// the oldest queued request (`None` when the queue is empty).
    pub fn observe_step(
        &mut self,
        step: u64,
        detections: &[u64],
        occupied: &[bool],
        queue_pressure_tokens: Option<u64>,
    ) -> bool {
        if !self.config.enabled {
            return false;
        }
        let mut changed = false;
        for slot in 0..self.slots.len() {
            let charged = detections.get(slot).copied().unwrap_or(0);
            if !occupied.get(slot).copied().unwrap_or(false) {
                continue;
            }
            changed |= self.advance_slot(slot, step, charged);
        }
        let want_shed = self.config.shed_pressure_tokens > 0
            && queue_pressure_tokens.unwrap_or(0) >= self.config.shed_pressure_tokens;
        if want_shed != self.shed_active {
            self.shed_active = want_shed;
            changed = true;
        }
        if self.shed_active {
            self.shed_steps += 1;
        }
        changed
    }

    /// Advances one occupied slot's ladder for a step charged with `charged` detections.
    fn advance_slot(&mut self, slot: usize, step: u64, charged: u64) -> bool {
        let window_len = self.config.window_steps.max(1) as usize;
        let state = &mut self.slots[slot];
        state.window.push_back(charged);
        state.window_sum += charged;
        while state.window.len() > window_len {
            state.window_sum -= state.window.pop_front().expect("window is non-empty");
        }
        if charged == 0 {
            state.clean_streak += 1;
        } else {
            state.clean_streak = 0;
        }
        let gate_open = state
            .last_transition
            .is_none_or(|last| step.saturating_sub(last) >= self.config.hysteresis_steps);
        if !gate_open {
            return false;
        }
        let up = match state.stage {
            ProtectionStage::Calm => state.window_sum >= self.config.elevate_detections,
            ProtectionStage::Elevated => state.window_sum >= self.config.escalate_detections,
            ProtectionStage::Escalated => false,
        };
        if up {
            state.stage = match state.stage {
                ProtectionStage::Calm => ProtectionStage::Elevated,
                _ => ProtectionStage::Escalated,
            };
            state.last_transition = Some(step);
            state.clean_streak = 0;
            state.occupant_escalations += 1;
            self.escalations += 1;
            return true;
        }
        if state.stage != ProtectionStage::Calm
            && state.clean_streak >= self.config.clean_window_steps
        {
            state.stage = match state.stage {
                ProtectionStage::Escalated => ProtectionStage::Elevated,
                _ => ProtectionStage::Calm,
            };
            state.last_transition = Some(step);
            state.clean_streak = 0;
            // Forget the burst that drove the slot up: a de-escalation earned by a full
            // clean window must stick until *new* detections arrive, not be undone by
            // stale window entries the moment the hysteresis gate reopens.
            state.window.clear();
            state.window_sum = 0;
            self.deescalations += 1;
            return true;
        }
        false
    }

    /// The sequence scheme `slot` should announce to the protector, given the scheme its
    /// occupant `requested`. Escalated slots run the stricter of the request's scheme and
    /// the escalation scheme; adaptation strengthens sequence protection, never weakens it.
    pub fn slot_scheme(&self, slot: usize, requested: ProtectionScheme) -> ProtectionScheme {
        if !self.config.enabled {
            return requested;
        }
        match self.slots.get(slot).map(|s| s.stage) {
            Some(ProtectionStage::Escalated) => {
                if self.config.escalation_scheme.strictness() > requested.strictness() {
                    self.config.escalation_scheme
                } else {
                    requested
                }
            }
            _ => requested,
        }
    }

    /// The per-component overlay the engine should install on the shared protector:
    /// the escalation overlay on the sensitive components while any slot is at least
    /// Elevated, plus the shed overlay on the resilient components while shedding is
    /// active. The two sets are disjoint, so the overlays never conflict. Empty while the
    /// controller is disabled: it then never leaves Calm nor sheds.
    pub fn component_overlay(&self) -> impl Iterator<Item = (Component, ProtectionScheme)> + '_ {
        let escalated = self
            .slots
            .iter()
            .any(|s| s.stage >= ProtectionStage::Elevated);
        let sensitive: &[Component] = if escalated { &self.sensitive } else { &[] };
        let resilient: &[Component] = if self.shed_active {
            &self.resilient
        } else {
            &[]
        };
        let (escalation, floor) = (self.config.escalation_scheme, self.config.shed_floor);
        let sensitive = sensitive.iter().map(move |&c| (c, escalation));
        sensitive.chain(resilient.iter().map(move |&c| (c, floor)))
    }

    /// Retires `slot`'s occupant: returns the escalations charged to it (for its
    /// [`RequestSummary`](crate::RequestSummary)) and resets the slot's ladder to Calm
    /// without counting a de-escalation — the sequence that earned the stage is gone.
    pub fn retire_slot(&mut self, slot: usize) -> u64 {
        let Some(state) = self.slots.get_mut(slot) else {
            return 0;
        };
        let charged = state.occupant_escalations;
        *state = SlotState::new();
        charged
    }

    /// The ladder position of `slot` (Calm for out-of-range slots).
    pub fn stage(&self, slot: usize) -> ProtectionStage {
        self.slots
            .get(slot)
            .map_or(ProtectionStage::Calm, |s| s.stage)
    }

    /// `true` while resilient-component protection is shed under queue pressure.
    pub fn shed_active(&self) -> bool {
        self.shed_active
    }

    /// Stage-up transitions across all slots since construction.
    pub fn escalations(&self) -> u64 {
        self.escalations
    }

    /// Stage-down transitions across all slots since construction.
    pub fn deescalations(&self) -> u64 {
        self.deescalations
    }

    /// Steps spent with the shed overlay active.
    pub fn shed_steps(&self) -> u64 {
        self.shed_steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(config: AdaptiveConfig) -> AdaptiveController {
        AdaptiveController::new(2, config, &RegionAssignment::new())
    }

    fn fast_config() -> AdaptiveConfig {
        AdaptiveConfig {
            enabled: true,
            window_steps: 4,
            elevate_detections: 2,
            escalate_detections: 4,
            clean_window_steps: 3,
            hysteresis_steps: 2,
            ..AdaptiveConfig::default()
        }
    }

    /// Drives slot 0 of `c` for one step with `charged` detections.
    fn feed(c: &mut AdaptiveController, step: u64, charged: u64) -> bool {
        c.observe_step(step, &[charged, 0], &[true, false], None)
    }

    #[test]
    fn disabled_controller_is_transparent() {
        let mut c = controller(AdaptiveConfig::default());
        assert!(!c.is_enabled());
        for step in 1..=20 {
            assert!(!feed(&mut c, step, 5), "disabled controller never reacts");
        }
        assert_eq!(c.stage(0), ProtectionStage::Calm);
        assert!(c.component_overlay().next().is_none());
        assert_eq!(
            c.slot_scheme(0, ProtectionScheme::None),
            ProtectionScheme::None
        );
        assert_eq!(c.escalations(), 0);
    }

    #[test]
    fn detection_burst_climbs_the_ladder_stage_by_stage() {
        let mut c = controller(fast_config());
        // Step 1: two detections cross the elevate threshold — first transition is free.
        assert!(feed(&mut c, 1, 2));
        assert_eq!(c.stage(0), ProtectionStage::Elevated);
        // Step 2: window holds 4 detections (escalate threshold) but hysteresis gates.
        assert!(!feed(&mut c, 2, 2));
        assert_eq!(c.stage(0), ProtectionStage::Elevated);
        // Step 3: gate reopens (2 steps since step 1); the hot window escalates.
        assert!(feed(&mut c, 3, 1));
        assert_eq!(c.stage(0), ProtectionStage::Escalated);
        assert_eq!(c.escalations(), 2);
        assert_eq!(c.deescalations(), 0);
        // Escalated slots force the stricter sequence scheme, Calm slots never do.
        assert_eq!(
            c.slot_scheme(0, ProtectionScheme::StatisticalAbft),
            ProtectionScheme::ClassicalAbft
        );
        assert_eq!(
            c.slot_scheme(1, ProtectionScheme::StatisticalAbft),
            ProtectionScheme::StatisticalAbft
        );
        // A request already stricter than the escalation scheme keeps its own scheme.
        assert_eq!(
            c.slot_scheme(0, ProtectionScheme::ClassicalAbft),
            ProtectionScheme::ClassicalAbft
        );
    }

    #[test]
    fn clean_window_steps_back_down_one_stage_at_a_time() {
        let mut c = controller(fast_config());
        feed(&mut c, 1, 2);
        feed(&mut c, 2, 2);
        feed(&mut c, 3, 1);
        assert_eq!(c.stage(0), ProtectionStage::Escalated);
        // Three clean steps (the clean window) with the hysteresis gate open: down one.
        let mut transitions = Vec::new();
        for step in 4..=20 {
            if feed(&mut c, step, 0) {
                transitions.push((step, c.stage(0)));
            }
        }
        assert_eq!(
            transitions,
            vec![(6, ProtectionStage::Elevated), (9, ProtectionStage::Calm)],
            "one stage per clean window, never two at once"
        );
        assert_eq!(c.deescalations(), 2);
        assert_eq!(c.stage(0), ProtectionStage::Calm);
    }

    #[test]
    fn hysteresis_bounds_transitions_under_an_alternating_pattern() {
        let config = AdaptiveConfig {
            enabled: true,
            window_steps: 2,
            elevate_detections: 1,
            escalate_detections: u64::MAX,
            clean_window_steps: 1,
            hysteresis_steps: 4,
            ..AdaptiveConfig::default()
        };
        let mut c = controller(config);
        // Alternate hot/clean every step for 40 steps: without hysteresis this pattern
        // would flap every step; the gate bounds it to one transition per 4 steps.
        for step in 1..=40 {
            feed(&mut c, step, step % 2);
        }
        let transitions = c.escalations() + c.deescalations();
        assert!(
            transitions <= 1 + 40 / 4,
            "at most one transition per hysteresis window (got {transitions})"
        );
        assert!(
            c.escalations() >= 1 && c.deescalations() >= 1,
            "the controller still adapts in both directions"
        );
    }

    #[test]
    fn overlay_strengthens_sensitive_components_while_any_slot_is_elevated() {
        let mut c = controller(fast_config());
        assert!(
            c.component_overlay().next().is_none(),
            "calm batch has no overlay"
        );
        feed(&mut c, 1, 2);
        let overlay: Vec<_> = c.component_overlay().collect();
        assert_eq!(overlay.len(), c.sensitive.len());
        assert!(overlay.iter().all(|&(c, s)| {
            Component::ALL.contains(&c) && s == ProtectionScheme::ClassicalAbft
        }));
        let components: Vec<Component> = overlay.iter().map(|&(c, _)| c).collect();
        assert!(components.contains(&Component::O));
        assert!(components.contains(&Component::Fc2));
        assert!(!components.contains(&Component::Fc1), "resilient stays put");
        // Retiring the only elevated occupant clears the overlay without a de-escalation.
        assert_eq!(c.retire_slot(0), 1);
        assert!(c.component_overlay().next().is_none());
        assert_eq!(c.deescalations(), 0);
        assert_eq!(c.retire_slot(0), 0, "charges are per occupant");
    }

    #[test]
    fn shed_overlay_drops_resilient_components_under_queue_pressure() {
        let config = AdaptiveConfig::enabled().with_shed(100, ProtectionScheme::None);
        let mut c = controller(config);
        assert!(!c.observe_step(1, &[0, 0], &[true, true], Some(99)));
        assert!(!c.shed_active(), "below the pressure threshold");
        assert!(c.observe_step(2, &[0, 0], &[true, true], Some(100)));
        assert!(c.shed_active());
        let overlay: Vec<_> = c.component_overlay().collect();
        assert_eq!(overlay.len(), c.resilient.len());
        assert!(overlay
            .iter()
            .all(|&(comp, s)| !comp.is_sensitive() && s == ProtectionScheme::None));
        assert!(
            !c.observe_step(3, &[0, 0], &[true, true], Some(240)),
            "staying shed is not a policy change"
        );
        assert!(!c.observe_step(4, &[0, 0], &[true, true], Some(240)));
        assert_eq!(c.shed_steps(), 3, "steps 2–4 ran with protection shed");
        // Pressure clears (queue drained): the overlay lifts immediately.
        assert!(c.observe_step(5, &[0, 0], &[true, true], None));
        assert!(!c.shed_active());
        assert!(c.component_overlay().next().is_none());
        assert_eq!(c.shed_steps(), 3);
    }

    #[test]
    fn escalation_and_shed_overlays_compose_disjointly() {
        let config = AdaptiveConfig {
            shed_pressure_tokens: 10,
            ..fast_config()
        };
        let mut c = controller(config);
        c.observe_step(1, &[2, 0], &[true, true], Some(50));
        assert_eq!(c.stage(0), ProtectionStage::Elevated);
        assert!(c.shed_active());
        let overlay: Vec<_> = c.component_overlay().collect();
        assert_eq!(
            overlay.len(),
            Component::ALL.len(),
            "every component is covered exactly once"
        );
        for &(comp, scheme) in &overlay {
            if comp.is_sensitive() {
                assert_eq!(scheme, ProtectionScheme::ClassicalAbft);
            } else {
                assert_eq!(scheme, ProtectionScheme::None);
            }
        }
    }

    #[test]
    fn empty_slots_never_advance() {
        let mut c = controller(fast_config());
        for step in 1..=10 {
            c.observe_step(step, &[9, 9], &[false, false], None);
        }
        assert_eq!(c.stage(0), ProtectionStage::Calm);
        assert_eq!(c.stage(1), ProtectionStage::Calm);
        assert_eq!(c.escalations(), 0);
    }
}
