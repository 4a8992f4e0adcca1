//! Spans recorded from the benchmark's side of every boundary.
//!
//! Nothing inside the program is instrumented. The benchmark brackets its own calls
//! (`submit`, `step`) and installs [`TimingHook`] through the public fault-hook seam
//! (`ServeEngine::with_fault_hook`, `NetServer::serve_with_hook`), which the model calls
//! once per forward pass and once after every quantized GEMM. That is enough to rebuild
//! the tree
//!
//! ```text
//! request ── submit
//! step ── prefill_chunk | decode ── gemm.<Component>   (hook-to-hook windows)
//! ```
//!
//! A GEMM *window* runs from the previous hook call (or the pass start) to this GEMM's hook
//! call: it holds the GEMM itself plus the quantize before it and whatever non-GEMM work
//! preceded it, which is all an outside observer can attribute to that component. A step
//! serves several requests at once, so steps are roots of their own; request spans carry
//! the request id.

use realm::llm::{Component, GemmContext, GemmHook, Stage};
use realm::tensor::{MatI32, MatI8, RowPartition};
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Index of the request in the workload's request set.
    pub request: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// `(metric-safe name, span name)` of a component (`Component::label` carries a `^`).
fn names(component: Component) -> (&'static str, &'static str) {
    match component {
        Component::Q => ("Q", "gemm.Q"),
        Component::K => ("K", "gemm.K"),
        Component::V => ("V", "gemm.V"),
        Component::QkT => ("QKT", "gemm.QKT"),
        Component::Sv => ("SV", "gemm.SV"),
        Component::O => ("O", "gemm.O"),
        Component::Fc1 => ("FC1", "gemm.FC1"),
        Component::Fc2 => ("FC2", "gemm.FC2"),
        Component::Gate => ("Gate", "gemm.Gate"),
        Component::Up => ("Up", "gemm.Up"),
        Component::Down => ("Down", "gemm.Down"),
    }
}

/// The name a component goes by in metric names.
pub fn component_name(component: Component) -> &'static str {
    names(component).0
}

/// Prefix of every GEMM-window span name; the rest is [`component_name`].
pub const GEMM_PREFIX: &str = "gemm.";
pub const STEP: &str = "step";
pub const PREFILL_CHUNK: &str = "prefill_chunk";
pub const DECODE: &str = "decode";
pub const REQUEST: &str = "request";
pub const SUBMIT: &str = "submit";

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    /// Open step / pass spans and the end of the last GEMM window inside the open pass.
    step: Option<usize>,
    pass: Option<usize>,
    mark_ns: u64,
}

impl State {
    fn close_pass(&mut self, at_ns: u64) {
        if let Some(pass) = self.pass.take() {
            self.spans[pass].end_ns = at_ns;
        }
    }

    fn close_step(&mut self, at_ns: u64) {
        self.close_pass(at_ns);
        if let Some(step) = self.step.take() {
            self.spans[step].end_ns = at_ns;
        }
    }
}

/// The in-memory span store one traced run shares between the driver and its hook.
pub struct Recorder {
    origin: Instant,
    state: Mutex<State>,
}

impl Recorder {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            origin: Instant::now(),
            state: Mutex::new(State::default()),
        })
    }

    /// The instant span times count from, so a driver can put its own timings on the
    /// same time base.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("no recorder user panics while recording")
    }

    /// Opens a step span. The driver calls this around `ServeEngine::step`; behind a
    /// socket nobody can, and the hook's step clock opens it instead.
    pub fn step_begin(&self, at_ns: u64) {
        let mut s = self.lock();
        // A step the hook opened has no closing call: it ended with its last GEMM.
        if let Some(end) = s.step.map(|step| s.spans[step].end_ns) {
            s.close_step(end);
        }
        s.spans.push(Span {
            name: STEP,
            start_ns: at_ns,
            end_ns: at_ns,
            parent: None,
            request: None,
        });
        s.step = Some(s.spans.len() - 1);
    }

    pub fn step_end(&self, at_ns: u64) {
        self.lock().close_step(at_ns);
    }

    fn pass_begin(&self, at_ns: u64) {
        let mut s = self.lock();
        if s.step.is_none() {
            return;
        }
        s.close_pass(at_ns);
        let parent = s.step;
        s.spans.push(Span {
            // Named at its first GEMM, which carries the stage.
            name: DECODE,
            start_ns: at_ns,
            end_ns: at_ns,
            parent,
            request: None,
        });
        s.pass = Some(s.spans.len() - 1);
        s.mark_ns = at_ns;
    }

    fn gemm(&self, at_ns: u64, component: Component, stage: Stage) {
        let mut s = self.lock();
        let Some(pass) = s.pass else { return };
        s.spans[pass].name = match stage {
            Stage::Prefill => PREFILL_CHUNK,
            Stage::Decode => DECODE,
        };
        // The pass (and its step) reach at least to here; `step_end` or the next pass
        // extends them over the tail that follows the last hook call.
        s.spans[pass].end_ns = at_ns;
        if let Some(step) = s.step {
            s.spans[step].end_ns = at_ns;
        }
        let start_ns = s.mark_ns;
        s.spans.push(Span {
            name: names(component).1,
            start_ns,
            end_ns: at_ns,
            parent: Some(pass),
            request: None,
        });
        s.mark_ns = at_ns;
    }

    /// Records a finished request and the `submit` call that started it.
    pub fn request(&self, request: u64, start_ns: u64, submit_ns: (u64, u64), end_ns: u64) {
        let mut s = self.lock();
        s.spans.push(Span {
            name: REQUEST,
            start_ns,
            end_ns,
            parent: None,
            request: Some(request),
        });
        let parent = Some(s.spans.len() - 1);
        s.spans.push(Span {
            name: SUBMIT,
            start_ns: submit_ns.0,
            end_ns: submit_ns.1,
            parent,
            request: Some(request),
        });
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.lock().spans.len()
    }

    /// Takes every span recorded so far, closing whatever is still open.
    pub fn take(&self) -> Vec<Span> {
        let mut s = self.lock();
        if let Some(end) = s.step.map(|step| s.spans[step].end_ns) {
            s.close_step(end);
        }
        std::mem::take(&mut s.spans)
    }
}

/// The benchmark-owned timing hook: timestamps pass starts and GEMM completions.
pub struct TimingHook {
    recorder: Arc<Recorder>,
    /// Whether `on_step_begin` opens step spans (server side of a socket) or the driver
    /// does it around its own `step` call.
    owns_steps: bool,
}

impl TimingHook {
    pub fn new(recorder: Arc<Recorder>, owns_steps: bool) -> Self {
        Self {
            recorder,
            owns_steps,
        }
    }
}

impl GemmHook for TimingHook {
    fn on_gemm(&mut self, ctx: &GemmContext, _w: &MatI8, _x: &MatI8, _acc: &mut MatI32) {
        self.recorder
            .gemm(self.recorder.now_ns(), ctx.component, ctx.stage);
    }

    fn wants_checksums(&self) -> bool {
        false
    }

    fn on_batch_begin(&mut self, _partition: &RowPartition) {
        self.recorder.pass_begin(self.recorder.now_ns());
    }

    fn on_step_begin(&mut self, _step: u64) {
        if self.owns_steps {
            self.recorder.step_begin(self.recorder.now_ns());
        }
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Self time of every span: its duration minus the part of it its children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| span.duration_ns() - covered_ns(span.start_ns, span.end_ns, kids))
        .collect()
}

/// Writes spans as JSON lines: `{"id":..,"name":..,"start_ns":..,"end_ns":..,"parent":..,
/// "request":..,"self_ns":..}`.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let self_ns = self_times_ns(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
    for (id, (span, self_ns)) in spans.iter().zip(&self_ns).enumerate() {
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{},\"self_ns\":{self_ns}}}",
            span.name,
            span.start_ns,
            span.end_ns,
            opt(span.parent.map(|p| p as u64)),
            opt(span.request),
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let spans = vec![
            span(STEP, 0, 100, None),
            span(DECODE, 10, 90, Some(0)),
            span("gemm.Q", 10, 30, Some(1)),
            span("gemm.K", 30, 50, Some(1)),
            // Overlapping and overhanging children are counted once and clipped.
            span("gemm.V", 40, 60, Some(1)),
            span("gemm.O", 85, 120, Some(1)),
        ];
        let self_ns = self_times_ns(&spans);
        assert_eq!(self_ns[0], 20, "step: 100 minus the 80 its pass covers");
        assert_eq!(self_ns[1], 80 - (50 + 5), "pass: gaps 60..85 stay its own");
        assert_eq!(
            &self_ns[2..],
            &[20, 20, 20, 35],
            "leaves keep their whole duration"
        );
        // Self times of a tree add up to the root's duration when children stay inside.
        let tidy = vec![
            span(STEP, 0, 50, None),
            span(DECODE, 5, 45, Some(0)),
            span("gemm.Q", 5, 25, Some(1)),
        ];
        assert_eq!(self_times_ns(&tidy).iter().sum::<u64>(), 50);
    }

    #[test]
    fn hook_callbacks_build_the_step_pass_window_tree() {
        let rec = Recorder::new();
        let mut hook = TimingHook::new(Arc::clone(&rec), false);
        let ctx = |c, stage| GemmContext::new(c, 0, stage, 0);
        let (w, x, mut acc) = (MatI8::zeros(1, 1), MatI8::zeros(1, 1), MatI32::zeros(1, 1));
        rec.step_begin(rec.now_ns());
        hook.on_step_begin(1);
        hook.on_batch_begin(&RowPartition::from_lens(&[2]));
        hook.on_gemm(&ctx(Component::Q, Stage::Prefill), &w, &x, &mut acc);
        hook.on_batch_begin(&RowPartition::from_lens(&[1]));
        hook.on_gemm(&ctx(Component::QkT, Stage::Decode), &w, &x, &mut acc);
        hook.on_gemm(&ctx(Component::Sv, Stage::Decode), &w, &x, &mut acc);
        rec.step_end(rec.now_ns());
        rec.request(7, 0, (0, 1), rec.now_ns());
        let spans = rec.take();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                STEP,
                PREFILL_CHUNK,
                "gemm.Q",
                DECODE,
                "gemm.QKT",
                "gemm.SV",
                REQUEST,
                SUBMIT
            ]
        );
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        assert_eq!(spans[5].parent, Some(3));
        assert_eq!(spans[7].parent, Some(6));
        assert_eq!(spans[6].request, Some(7));
        // Windows tile their pass: each starts where the previous one ended.
        assert_eq!(spans[4].start_ns, spans[3].start_ns);
        assert_eq!(spans[5].start_ns, spans[4].end_ns);
        // Passes tile the step from the first pass on, and the step closes last.
        assert_eq!(spans[1].end_ns, spans[3].start_ns);
        assert_eq!(spans[3].end_ns, spans[0].end_ns);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
