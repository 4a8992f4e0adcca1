//! The metric and workload registry, and the self-check against `BENCHMARK.json`.
//!
//! The registry below is the single source of names, units, directions and bounds.
//! `BENCHMARK.json` at the repo root is its rendering (`--print-manifest` writes it), and
//! every run checks, in both directions, that the two still say the same thing: a name
//! the binary emits that the manifest lacks — or the reverse — is a non-zero exit, not a
//! warning.

use crate::json::{self, Value};
use crate::stats::Better;
use crate::trace::component_name;
use crate::workloads::{sweep, SERVING};
use realm::llm::Component;

/// The committed manifest, compiled in so the check does not depend on the working
/// directory.
pub const COMMITTED: &str = include_str!("../../BENCHMARK.json");

pub const RUN_SECONDS: u32 = 16;
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];
pub const PATHS: [&str; 1] = ["benchmark"];

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "decode_stream",
        why: "closed loop of 4 clients, short prompts, long generations: decode steps, the skinny packed GEMV and per-step serving bookkeeping do the work; prefill almost none",
    },
    Workload {
        name: "prefill_burst",
        why: "same loop, 96-224 token prompts, 2-4 new tokens: large-M GEMM, attention over a growing prefix and chunk scheduling do the work; decode almost none",
    },
    Workload {
        name: "mixed_open",
        why: "open loop at a fixed ~35% rate, 15% long prompts, mixed policies and priorities: queueing, aging and prefill chunks stalling live decode streams",
    },
    Workload {
        name: "faulty_sweep",
        why: "offline campaign: 3 schemes x 3 voltages under real faults through the solo entry points; every count repeats exactly, so it is also the correctness canary",
    },
    Workload {
        name: "net_loopback",
        why: "decode-heavy streams over a loopback NetServer: the model work of decode_stream plus parser, wire codec, channel hop and chunk writes",
    },
];

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may worsen; `None` for
    /// per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

fn metric(
    name: impl Into<String>,
    unit: &'static str,
    better: Better,
    bound: Option<f64>,
) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics: what a user of the system sees, on every workload.
///
/// The timing bounds are the widest the contract allows. On a quiet host ten runs of every
/// workload agree within 3%; but this shared 2-core host drifts between phases that last
/// minutes, in which whole runs of the memory-heavy workloads (`prefill_burst`,
/// `mixed_open`) read 15–35% slower, and no estimator inside a 16-second run can see past
/// a phase that outlasts it. A tighter bound would reject unchanged code.
pub fn end_to_end() -> Vec<Metric> {
    use Better::{Higher, Lower};
    vec![
        metric("setup_s", "s", Lower, Some(0.25)),
        metric("tokens_per_s", "1/s", Higher, Some(0.25)),
        metric("ttft_p50_ms", "ms", Lower, Some(0.25)),
        metric("tpot_p50_ms", "ms", Lower, Some(0.25)),
        metric("tpot_tail_ms", "ms", Lower, Some(0.25)),
        metric("peak_rss_mb", "MB", Lower, Some(0.10)),
    ]
}

/// Components of the serving model's block, in execution order.
pub const WINDOW_COMPONENTS: [Component; 9] = [
    Component::Q,
    Component::K,
    Component::V,
    Component::QkT,
    Component::Sv,
    Component::O,
    Component::Gate,
    Component::Up,
    Component::Down,
];

/// The per-layer metrics, grouped by the crate they observe.
pub fn per_layer() -> Vec<Metric> {
    use Better::{Higher, Lower};
    let mut m = Vec::new();
    let mut add = |name: String, unit, better| m.push(metric(name, unit, better, None));
    let stages = ["decode", "prefill"];
    let schemes = ["statistical", "classical"];
    let arms = ["none", "classical", "statistical"];

    for stage in stages {
        add(format!("tensor.quantize_us.{stage}"), "us", Lower);
        add(format!("tensor.gemm_packed_us.{stage}"), "us", Lower);
        add(format!("tensor.gemm_checksummed_us.{stage}"), "us", Lower);
        add(format!("tensor.checksum_overhead_pct.{stage}"), "%", Lower);
        add(format!("tensor.requantize_us.{stage}"), "us", Lower);
        add(format!("tensor.gmacs_per_s.{stage}"), "GMAC/s", Higher);
    }
    add("tensor.workspace_high_water_bytes".into(), "B", Lower);

    for scheme in schemes {
        add(format!("abft.inspect_us.{scheme}"), "us", Lower);
    }
    add("abft.detections".into(), "count", Higher);
    add("abft.clean_false_positive_rate".into(), "ratio", Lower);

    add("inject.hook_us_per_gemm".into(), "us", Lower);
    add("inject.errors_injected".into(), "count", Higher);
    add("inject.gemms_observed".into(), "count", Higher);

    for stage in stages {
        for scheme in schemes {
            add(
                format!("core.protect_overhead_pct.{stage}.{scheme}"),
                "%",
                Lower,
            );
        }
    }
    add("core.gemms_inspected".into(), "count", Higher);
    for scheme in schemes {
        add(format!("core.recoveries.{scheme}"), "count", Lower);
    }
    add("core.recover_us".into(), "us", Lower);
    for arm in arms {
        add(format!("core.arm_s.{arm}"), "s", Lower);
    }
    add("core.recovery_macs_share".into(), "ratio", Lower);

    add("llm.decode_step_us.b1".into(), "us", Lower);
    add("llm.decode_step_us.b4".into(), "us", Lower);
    add("llm.prefill_chunk_us.ctx0".into(), "us", Lower);
    add("llm.prefill_chunk_us.ctx256".into(), "us", Lower);
    for component in WINDOW_COMPONENTS {
        for stage in stages {
            add(
                format!("llm.gemm_window_us.{}.{stage}", component_name(component)),
                "us",
                Lower,
            );
        }
    }
    for stage in stages {
        add(format!("llm.attn_share.{stage}"), "ratio", Lower);
        add(format!("llm.non_gemm_share.{stage}"), "ratio", Lower);
    }
    add("llm.gemm_calls_per_step.decode".into(), "count", Lower);

    for kind in ["decode_only", "with_chunk"] {
        for p in ["p50", "p95"] {
            add(format!("serve.step_us.{kind}.{p}"), "us", Lower);
        }
    }
    add("serve.sched_self_share".into(), "ratio", Lower);
    add("serve.submit_us".into(), "us", Lower);
    add("serve.decode_rows_per_step".into(), "count", Higher);
    add("serve.slot_occupancy".into(), "ratio", Higher);
    add("serve.queue_depth.mean".into(), "count", Lower);
    add("serve.step_budget_utilization".into(), "ratio", Higher);
    add("serve.prefill_chunks".into(), "count", Lower);
    add("serve.steps".into(), "count", Lower);
    add("serve.decode_stall_p99_us".into(), "us", Lower);
    add("serve.ttft_p90_ms".into(), "ms", Lower);

    add("net.parse_request_us".into(), "us", Lower);
    add("net.encode_event_us".into(), "us", Lower);
    add("net.decode_event_us".into(), "us", Lower);
    add("net.tpot_overhead_us".into(), "us", Lower);
    add("net.ttft_overhead_ms".into(), "ms", Lower);
    add("net.connections".into(), "count", Higher);
    add("net.http_requests".into(), "count", Higher);
    add("net.streams_completed".into(), "count", Higher);

    add("eval.ppl_clean".into(), "ppl", Lower);
    for arm in arms {
        add(format!("eval.ppl.{arm}"), "ppl", Lower);
    }
    add("eval.ppl_degradation".into(), "ppl", Lower);
    add("eval.task_eval_us".into(), "us", Lower);
    for arm in arms {
        add(format!("systolic.energy_uj.{arm}"), "uJ", Lower);
    }
    add("systolic.energy_saving_pct".into(), "%", Higher);
    add(
        "systolic.recovery_cycles.statistical".into(),
        "cycles",
        Lower,
    );

    add("bench.token_match_rate".into(), "ratio", Higher);
    add("loadgen.lag_max_ms".into(), "ms", Lower);
    add("trace.overhead_pct".into(), "%", Lower);
    add("trace.spans".into(), "count", Lower);
    m
}

/// Renders the registry as the text of `BENCHMARK.json`, one metric per line.
pub fn render() -> String {
    let strings =
        |items: &[&str]| Value::Arr(items.iter().map(|s| json::str(s)).collect()).render();
    let metric_line = |m: &Metric| {
        let mut fields = vec![
            ("name".to_string(), json::str(&m.name)),
            ("unit".to_string(), json::str(m.unit)),
            ("better".to_string(), json::str(m.better.label())),
        ];
        if let Some(bound) = m.bound {
            fields.push(("bound".to_string(), json::num(bound)));
        }
        Value::Obj(fields).render()
    };
    let block = |lines: Vec<String>| format!("[\n    {}\n  ]", lines.join(",\n    "));
    let workloads = WORKLOADS
        .iter()
        .map(|w| json::obj([("name", json::str(w.name)), ("why", json::str(w.why))]).render())
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        strings(&COMMAND),
        strings(&PATHS),
        block(workloads),
        block(end_to_end().iter().map(metric_line).collect()),
        block(per_layer().iter().map(metric_line).collect()),
    )
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Checks one manifest metric list against the registry's, in both directions.
fn check_metrics(
    key: &str,
    manifest: &Value,
    registry: &[Metric],
    limit: usize,
    errors: &mut Vec<String>,
) {
    let Some(listed) = manifest.get(key).and_then(Value::as_arr) else {
        errors.push(format!("manifest has no `{key}` list"));
        return;
    };
    if listed.is_empty() || listed.len() > limit {
        errors.push(format!(
            "`{key}` lists {} metrics (1..={limit} allowed)",
            listed.len()
        ));
    }
    let mut seen = std::collections::BTreeSet::new();
    for entry in listed {
        let name = entry.get("name").and_then(Value::as_str).unwrap_or("");
        if !valid_name(name) {
            errors.push(format!("`{key}`: `{name}` is not a valid metric name"));
        }
        if !seen.insert(name) {
            errors.push(format!("`{key}`: `{name}` is listed twice"));
        }
        let unit = entry.get("unit").and_then(Value::as_str);
        let better = entry.get("better").and_then(Value::as_str);
        let bound = entry.get("bound").and_then(Value::as_f64);
        if !unit.is_some_and(valid_unit) {
            errors.push(format!("`{key}`: `{name}` has no valid unit"));
        }
        if !matches!(better, Some("higher" | "lower")) {
            errors.push(format!("`{key}`: `{name}` has no direction"));
        }
        match registry.iter().find(|m| m.name == name) {
            None => errors.push(format!(
                "`{key}`: the manifest lists `{name}`, which the binary does not emit"
            )),
            Some(m) => {
                if unit != Some(m.unit) || better != Some(m.better.label()) || bound != m.bound {
                    errors.push(format!(
                        "`{key}`: `{name}` is {unit:?}/{better:?}/{bound:?} in the manifest but {:?}/{:?}/{:?} in the binary",
                        m.unit,
                        m.better.label(),
                        m.bound
                    ));
                }
            }
        }
        if key == "end_to_end" && !bound.is_some_and(|b| b > 0.0 && b <= 0.25) {
            errors.push(format!("`{key}`: `{name}` needs a bound in (0, 0.25]"));
        }
    }
    for m in registry {
        if !seen.contains(m.name.as_str()) {
            errors.push(format!(
                "`{key}`: the binary emits `{}`, which the manifest lacks",
                m.name
            ));
        }
    }
}

/// Checks `text` (the content of `BENCHMARK.json`) against the registry. Returns every
/// mismatch found.
pub fn check(text: &str) -> Vec<String> {
    let mut errors = Vec::new();
    let manifest = match json::parse(text) {
        Ok(manifest) => manifest,
        Err(e) => return vec![format!("BENCHMARK.json does not parse: {e}")],
    };
    let keys: Vec<&str> = manifest
        .as_obj()
        .map(|fields| fields.iter().map(|(k, _)| k.as_str()).collect())
        .unwrap_or_default();
    if keys
        != [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ]
    {
        errors.push(format!("manifest keys are {keys:?}"));
    }
    if manifest.get("run_seconds").and_then(Value::as_f64) != Some(RUN_SECONDS as f64) {
        errors.push(format!("manifest run_seconds is not {RUN_SECONDS}"));
    }
    let listed: Vec<&str> = manifest
        .get("workloads")
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    let emitted: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    if listed != emitted {
        errors.push(format!(
            "manifest workloads {listed:?} differ from the binary's {emitted:?}"
        ));
    }
    if !(2..=8).contains(&emitted.len()) || emitted.iter().any(|n| !valid_name(n)) {
        errors.push("workload names or count are outside the contract".into());
    }
    // Every workload the registry names has a driver, and the reverse.
    let mut driven: Vec<&str> = SERVING.iter().map(|s| s.name).collect();
    driven.push(sweep::NAME);
    driven.sort_unstable();
    let mut named = emitted.clone();
    named.sort_unstable();
    if driven != named {
        errors.push(format!(
            "registry workloads {named:?} differ from the drivers' {driven:?}"
        ));
    }
    check_metrics("end_to_end", &manifest, &end_to_end(), 16, &mut errors);
    check_metrics("per_layer", &manifest, &per_layer(), 128, &mut errors);
    if !end_to_end()
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower)
    {
        errors.push("the end-to-end list needs `setup_s` in seconds, lower is better".into());
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_is_the_rendering_of_the_registry() {
        assert_eq!(check(COMMITTED), Vec::<String>::new());
        assert_eq!(
            COMMITTED,
            render(),
            "run `realm-benchmark --print-manifest > BENCHMARK.json`"
        );
        assert!(COMMITTED.len() < 64 * 1024);
    }

    #[test]
    fn self_check_catches_drift_in_either_direction() {
        let missing = render().replace(
            "    {\"name\": \"serve.steps\", \"unit\": \"count\", \"better\": \"lower\"},\n",
            "",
        );
        assert!(check(&missing)
            .iter()
            .any(|e| e.contains("`serve.steps`, which the manifest lacks")));
        let extra = render().replace("serve.steps", "serve.stepz");
        let errors = check(&extra);
        assert!(errors
            .iter()
            .any(|e| e.contains("`serve.stepz`, which the binary does not emit")));
        assert!(errors
            .iter()
            .any(|e| e.contains("`serve.steps`, which the manifest lacks")));
        let unit = render().replace(
            "\"name\": \"tokens_per_s\", \"unit\": \"1/s\"",
            "\"name\": \"tokens_per_s\", \"unit\": \"ms\"",
        );
        assert!(check(&unit).iter().any(|e| e.contains("tokens_per_s")));
        let workload = render().replace("\"name\": \"mixed_open\"", "\"name\": \"mixed\"");
        assert!(check(&workload).iter().any(|e| e.contains("workloads")));
        assert!(!check("{").is_empty());
    }

    #[test]
    fn names_units_and_counts_are_inside_the_contract() {
        let (e2e, layers) = (end_to_end(), per_layer());
        assert!(e2e.len() <= 16 && layers.len() <= 128 && WORKLOADS.len() <= 8);
        for m in e2e.iter().chain(&layers) {
            assert!(valid_name(&m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
        }
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(!valid_name("QK^T") && !valid_name("") && !valid_name(".x"));
    }
}
