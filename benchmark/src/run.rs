//! One workload, one process: set-up timings, warm-up, rounds, estimates, report.
//!
//! A run is `cold_starts` timed cold starts, one untimed warm-up round, then rounds of the
//! same seeded, fixed-work request set — each on a fresh engine — until `--seconds` are
//! used. The normal run makes no timing assertion: only a wrong output, a failed request
//! or a manifest mismatch makes it exit non-zero, so a noisy host can never turn into a
//! failed run.

use crate::json::{self, Value};
use crate::manifest::{self, Metric, WINDOW_COMPONENTS};
use crate::probes::{self, Metrics};
use crate::serving::{self, Latencies, Round};
use crate::stats::{quantile, sorted, tail_quantile, Better, Summary};
use crate::trace::{self, component_name, Recorder, Span};
use crate::workloads::{self, sweep as sweep_spec, Loop, ServingSpec};
use crate::{host, netloop, sweep};
use realm::llm::Model;
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// A smoke run: a quarter of each round, three rounds, one cold start. Its numbers
    /// are not comparable with anything.
    pub quick: bool,
}

/// Timed cold starts per run, before and after the rounds; `setup_s` is the fastest of
/// them. Split so that a noisy spell of the host at either end of the run cannot slow
/// them all.
const COLD_STARTS: (usize, usize) = (3, 2);
/// `--quick` keeps this fraction of a round's requests.
const QUICK_FRACTION: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Tracing off: the rounds end-to-end numbers come from.
    Plain,
    /// The timing hook installed and spans recorded.
    Traced,
    /// `net_loopback` only: the same requests replayed in-process, the base the cost of
    /// the network layer is measured against.
    Replay,
}

struct Collected {
    setup_s: Vec<f64>,
    warmup: Round,
    rounds: Vec<(Kind, Round)>,
    probes: Metrics,
    /// Seconds of the budget the probes used.
    probes_s: f64,
}

/// Runs cold starts, the warm-up round, cycles through `kinds` until the time budget is
/// used (`--quick`: one cycle, at least three rounds), then the remaining cold starts.
fn collect(
    args: &Args,
    kinds: &[Kind],
    run_probes: impl FnOnce() -> Metrics,
    mut cold_start: impl FnMut() -> f64,
    mut round: impl FnMut(Kind) -> Round,
) -> Collected {
    let (before, after) = if args.quick { (1, 0) } else { COLD_STARTS };
    let mut setup_s: Vec<f64> = (0..before).map(|_| cold_start()).collect();
    let warmup = round(Kind::Plain);
    let started = Instant::now();
    let probes = if args.trace {
        run_probes()
    } else {
        Metrics::new()
    };
    let probes_s = started.elapsed().as_secs_f64();
    let mut rounds = Vec::new();
    loop {
        let cycle_started = Instant::now();
        for &kind in kinds {
            rounds.push((kind, round(kind)));
        }
        let cycle_s = cycle_started.elapsed().as_secs_f64();
        let enough = rounds.len() >= 3;
        let out_of_time = started.elapsed().as_secs_f64() + cycle_s > args.seconds;
        if enough && (args.quick || out_of_time) {
            break;
        }
    }
    setup_s.extend((0..after).map(|_| cold_start()));
    Collected {
        setup_s,
        warmup,
        rounds,
        probes,
        probes_s,
    }
}

/// Everything a finished workload hands to the report.
struct Outcome {
    digest: u64,
    engine: String,
    collected: Collected,
    spans: Vec<Span>,
    /// How many of them the first traced round recorded: the part the span file holds.
    first_round_spans: usize,
    /// Per-layer values that belong to the whole run rather than to a round.
    extras: Metrics,
    /// Correctness findings beyond per-request failures, one line each.
    violations: Vec<String>,
}

fn serving_model() -> Model {
    Model::new(&workloads::serving_model_config(), workloads::MODEL_SEED)
        .expect("the fixed serving config is valid")
}

fn fraction(args: &Args) -> usize {
    if args.quick {
        QUICK_FRACTION
    } else {
        1
    }
}

fn run_serving(spec: &ServingSpec, args: &Args) -> Outcome {
    let config = workloads::serving_model_config();
    let model = serving_model();
    let requests = workloads::serving_requests(spec, config.vocab_size, args.seed, fraction(args));
    let digest = workloads::digest_requests(&requests);
    let reference = serving::reference_tokens(&model, &requests);
    let recorder = args.trace.then(Recorder::new);
    // Every traced round is a replica of the first, so the span file holds that one; the
    // per-layer numbers use them all.
    let first_round_spans = std::cell::Cell::new(None);
    let note_traced_round = |kind: Kind| {
        if let (Kind::Traced, None, Some(recorder)) = (kind, first_round_spans.get(), &recorder) {
            first_round_spans.set(Some(recorder.len()));
        }
    };
    let mut extras = Metrics::new();
    let mut violations = Vec::new();

    let collected = match spec.load {
        Loop::Closed { .. } | Loop::Open { .. } => {
            let kinds: &[Kind] = if args.trace {
                &[Kind::Plain, Kind::Traced]
            } else {
                &[Kind::Plain]
            };
            collect(
                args,
                kinds,
                || probes::run(&model, fraction(args)),
                || serving::cold_start(&config, spec, &requests[0]),
                |kind| {
                    let tracer = recorder.as_ref().filter(|_| kind == Kind::Traced);
                    let round = serving::run_round(&model, spec, &requests, &reference, tracer).0;
                    note_traced_round(kind);
                    round
                },
            )
        }
        Loop::Net { clients } => {
            // Never more client threads or connections than the host has hardware threads.
            let clients = clients.min(host::nproc());
            let kinds: &[Kind] = if args.trace {
                &[Kind::Plain, Kind::Traced, Kind::Replay]
            } else {
                &[Kind::Plain]
            };
            let (collected, report, agreed) =
                netloop::with_servers(&model, spec, recorder.as_ref(), |plain, traced| {
                    collect(
                        args,
                        kinds,
                        || probes::run(&model, fraction(args)),
                        || netloop::cold_start(&config, spec, &requests[0]),
                        |kind| {
                            let round = match kind {
                                Kind::Plain => {
                                    netloop::run_round(plain, clients, &requests, &reference, None)
                                }
                                Kind::Traced => netloop::run_round(
                                    traced.expect("a traced run has a traced server"),
                                    clients,
                                    &requests,
                                    &reference,
                                    recorder.as_ref(),
                                ),
                                Kind::Replay => {
                                    serving::run_round(&model, spec, &requests, &reference, None).0
                                }
                            };
                            note_traced_round(kind);
                            round
                        },
                    )
                });
            if !agreed {
                violations.push("NetReport accounting differs from the clients' counts".into());
            }
            let mut last = Round::default();
            serving::engine_extras(&mut last, &report.engine);
            extras.extend(last.extras);
            extras.push(("net.connections".into(), report.connections as f64));
            extras.push(("net.http_requests".into(), report.http_requests as f64));
            extras.push((
                "net.streams_completed".into(),
                report.streams_completed as f64,
            ));
            collected
        }
    };
    Outcome {
        digest,
        engine: model.engine().name().to_string(),
        collected,
        first_round_spans: first_round_spans.get().unwrap_or(0),
        spans: recorder.map(|r| r.take()).unwrap_or_default(),
        extras,
        violations,
    }
}

fn run_sweep(args: &Args) -> Outcome {
    let config = workloads::sweep_model_config();
    let model =
        Model::new(&config, workloads::MODEL_SEED).expect("the fixed sweep config is valid");
    let inputs = workloads::sweep_inputs(model.language(), args.seed, fraction(args));
    let digest = workloads::digest_sweep(&inputs);
    let clean_ppl = sweep::clean_perplexity(&model, &inputs);
    // The warm-up round fixes the counts every later round must repeat.
    let mut expected: Option<sweep::Signature> = None;
    let collected = collect(
        args,
        &[Kind::Plain],
        // `faulty_sweep` owns its hook chain, so it has no spans; its layer numbers are
        // the probes (on the serving model, like everywhere) and the campaign's counts.
        || probes::run(&serving_model(), fraction(args)),
        || sweep::cold_start(&config, &inputs),
        |_| {
            let (round, signature) =
                sweep::run_round(&model, &inputs, clean_ppl, expected.as_ref());
            expected.get_or_insert(signature);
            round
        },
    );
    let mut violations = Vec::new();
    let count = |name: &str| {
        collected
            .warmup
            .extras
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    };
    match (
        count("core.recoveries.statistical"),
        count("core.recoveries.classical"),
    ) {
        (Some(statistical), Some(classical)) if statistical <= classical => {}
        (statistical, classical) => violations.push(format!(
            "recoveries: statistical {statistical:?} must not exceed classical {classical:?}"
        )),
    }
    Outcome {
        digest,
        engine: model.engine().name().to_string(),
        collected,
        spans: Vec::new(),
        first_round_spans: 0,
        extras: Metrics::new(),
        violations,
    }
}

/// What the spans of the traced rounds say about each layer.
fn span_metrics(spans: &[Span]) -> Metrics {
    let mut out = Metrics::new();
    let us = |ns: u64| ns as f64 / 1e3;
    let stage_of = |span: &Span| match span.parent.map(|p| spans[p].name) {
        Some(trace::PREFILL_CHUNK) => Some("prefill"),
        Some(trace::DECODE) => Some("decode"),
        _ => None,
    };
    let mut windows: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for span in spans {
        if let (Some(component), Some(stage)) =
            (span.name.strip_prefix(trace::GEMM_PREFIX), stage_of(span))
        {
            windows
                .entry((component, stage))
                .or_default()
                .push(us(span.duration_ns()));
        }
    }
    for component in WINDOW_COMPONENTS {
        for stage in ["decode", "prefill"] {
            if let Some(samples) = windows.get(&(component_name(component), stage)) {
                out.push((
                    format!("llm.gemm_window_us.{}.{stage}", component_name(component)),
                    quantile(&sorted(samples), 0.5),
                ));
            }
        }
    }
    for (stage, pass_name) in [("decode", trace::DECODE), ("prefill", trace::PREFILL_CHUNK)] {
        let passes: Vec<&Span> = spans.iter().filter(|s| s.name == pass_name).collect();
        let pass_us: f64 = passes.iter().map(|s| us(s.duration_ns())).sum();
        if pass_us == 0.0 {
            continue;
        }
        let attention_us: f64 = ["QKT", "SV"]
            .iter()
            .filter_map(|c| windows.get(&(*c, stage)))
            .flatten()
            .sum();
        out.push((format!("llm.attn_share.{stage}"), attention_us / pass_us));
        if stage == "decode" {
            let calls: usize = windows
                .iter()
                .filter(|((_, s), _)| *s == stage)
                .map(|(_, w)| w.len())
                .sum();
            out.push((
                "llm.gemm_calls_per_step.decode".into(),
                calls as f64 / passes.len() as f64,
            ));
        }
    }
    let mut has_chunk = vec![false; spans.len()];
    for span in spans.iter().filter(|s| s.name == trace::PREFILL_CHUNK) {
        if let Some(step) = span.parent {
            has_chunk[step] = true;
        }
    }
    let mut steps: [Vec<f64>; 2] = Default::default();
    for (id, span) in spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == trace::STEP)
    {
        steps[usize::from(has_chunk[id])].push(us(span.duration_ns()));
    }
    for (kind, samples) in ["decode_only", "with_chunk"].iter().zip(&steps) {
        if samples.is_empty() {
            continue;
        }
        let samples = sorted(samples);
        out.push((format!("serve.step_us.{kind}.p50"), quantile(&samples, 0.5)));
        out.push((
            format!("serve.step_us.{kind}.p95"),
            quantile(&samples, tail_quantile(samples.len(), 0.95)),
        ));
    }
    let step_us: f64 = steps.iter().flatten().sum();
    if step_us > 0.0 {
        let window_us: f64 = windows.values().flatten().sum();
        out.push(("serve.sched_self_share".into(), 1.0 - window_us / step_us));
    }
    out.push(("trace.spans".into(), spans.len() as f64));
    out
}

fn print_summary(name: &str, unit: &str, better: Better, values: &[f64]) -> f64 {
    let s = Summary::of(values);
    let estimate = s.estimate(better);
    println!(
        "  {name:<16} {estimate:>12.4} {unit:<4} (n {} min {:.4} q1 {:.4} median {:.4} q3 {:.4} max {:.4})",
        s.n, s.min, s.q1, s.median, s.q3, s.max
    );
    estimate
}

fn metric_object(defs: &[Metric], values: &BTreeMap<String, f64>) -> Value {
    Value::Obj(
        defs.iter()
            .map(|m| {
                let value = values.get(&m.name).copied().unwrap_or(0.0);
                (
                    m.name.clone(),
                    json::obj([("value", json::num(value)), ("unit", json::str(m.unit))]),
                )
            })
            .collect(),
    )
}

/// Runs one workload and prints its report; the last line of standard output is the
/// result object. Returns the process exit code.
pub fn leaf(args: &Args) -> i32 {
    let mismatches = manifest::check(manifest::COMMITTED);
    if !mismatches.is_empty() {
        for m in &mismatches {
            eprintln!("manifest mismatch: {m}");
        }
        return 2;
    }
    let load_start = host::load_average();
    let outcome = if args.workload == sweep_spec::NAME {
        run_sweep(args)
    } else if let Some(spec) = workloads::SERVING.iter().find(|s| s.name == args.workload) {
        run_serving(spec, args)
    } else {
        eprintln!("unknown workload `{}`", args.workload);
        return 2;
    };
    report(args, outcome, (load_start, host::load_average()))
}

/// Turns what a workload measured into the printed report, the stored run record and the
/// result line. Returns the process exit code.
fn report(args: &Args, outcome: Outcome, (load_start, load_end): (f64, f64)) -> i32 {
    let Outcome {
        digest,
        engine,
        collected,
        spans,
        first_round_spans,
        extras,
        mut violations,
    } = outcome;

    let of_kind = |kind: Kind| -> Vec<&Round> {
        collected
            .rounds
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, r)| r)
            .collect()
    };
    let plain = of_kind(Kind::Plain);
    let all_rounds = || {
        collected
            .rounds
            .iter()
            .map(|(_, r)| r)
            .chain([&collected.warmup])
    };
    let attempted: u64 = collected.rounds.iter().map(|(_, r)| r.attempted).sum();
    let failed: u64 = all_rounds().map(|r| r.failed).sum();
    let generated: u64 = all_rounds().map(|r| r.generated).sum();
    let matched: u64 = all_rounds().map(|r| r.matched).sum();
    if failed > 0 {
        violations.push(format!(
            "{failed} requests failed, were refused or differ from the reference"
        ));
    }

    println!(
        "workload {} seed {} inputs_digest {digest:016x} trace {}{}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        if args.quick {
            " QUICK (numbers not comparable)"
        } else {
            ""
        }
    );
    let nproc = host::nproc();
    let host_record = host::record(&engine);
    println!(
        "host {} load_1m {load_start:.2} -> {load_end:.2}",
        host_record.render()
    );
    if load_start.max(load_end) > nproc as f64 {
        println!("warning: load average exceeds nproc {nproc}; timings are contended");
    }

    // End-to-end estimates: the best of the plain rounds.
    let latencies: Vec<Latencies> = plain.iter().map(|r| r.latencies()).collect();
    let wall_s: Vec<f64> = plain.iter().map(|r| r.wall_s).collect();
    println!(
        "end to end over {} rounds of {:.2} s (tpot tail is p{:.0} within a round):",
        plain.len(),
        Summary::of(&wall_s).median,
        latencies.first().map_or(50.0, |l| l.tail_quantile * 100.0)
    );
    let per_round = |f: fn(&Latencies) -> f64| latencies.iter().map(f).collect::<Vec<f64>>();
    let tokens_per_s: Vec<f64> = plain.iter().map(|r| r.tokens_per_s()).collect();
    let mut e2e = BTreeMap::new();
    for (name, unit, better, values) in [
        ("setup_s", "s", Better::Lower, collected.setup_s.clone()),
        ("tokens_per_s", "1/s", Better::Higher, tokens_per_s),
        (
            "ttft_p50_ms",
            "ms",
            Better::Lower,
            per_round(|l| l.ttft_p50_ms),
        ),
        (
            "tpot_p50_ms",
            "ms",
            Better::Lower,
            per_round(|l| l.tpot_p50_ms),
        ),
        (
            "tpot_tail_ms",
            "ms",
            Better::Lower,
            per_round(|l| l.tpot_tail_ms),
        ),
    ] {
        e2e.insert(name.to_string(), print_summary(name, unit, better, &values));
    }
    let rss = host::peak_rss_mb();
    println!("  {:<16} {rss:>12.4} MB", "peak_rss_mb");
    e2e.insert("peak_rss_mb".to_string(), rss);

    // Per-layer values: probes, what the rounds observed (medians), what the spans say.
    let mut layers: BTreeMap<String, f64> = BTreeMap::new();
    if args.trace {
        layers.extend(collected.probes.iter().cloned());
        let mut observed: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for (kind, round) in &collected.rounds {
            if *kind != Kind::Replay {
                for (name, value) in &round.extras {
                    observed.entry(name).or_default().push(*value);
                }
            }
        }
        for (name, values) in observed {
            layers.insert(name.to_string(), quantile(&sorted(&values), 0.5));
        }
        layers.extend(extras.iter().cloned());
        layers.extend(span_metrics(&spans));
        layers.insert(
            "bench.token_match_rate".into(),
            if generated == 0 {
                0.0
            } else {
                matched as f64 / generated as f64
            },
        );
        let pooled_ttft: Vec<f64> = plain
            .iter()
            .flat_map(|r| r.ttft_ms.iter().copied())
            .collect();
        if args.workload != sweep_spec::NAME {
            layers.insert(
                "serve.ttft_p90_ms".into(),
                quantile(&sorted(&pooled_ttft), 0.9),
            );
        }
        // The same estimator as the end-to-end numbers: the best round of each kind.
        let best = |rounds: &[&Round], better: Better, f: fn(&Round) -> f64| {
            let v: Vec<f64> = rounds.iter().map(|r| f(r)).collect();
            Summary::of(&v).estimate(better)
        };
        let traced = of_kind(Kind::Traced);
        if !traced.is_empty() {
            let (untraced_tps, traced_tps) = (
                best(&plain, Better::Higher, Round::tokens_per_s),
                best(&traced, Better::Higher, Round::tokens_per_s),
            );
            layers.insert(
                "trace.overhead_pct".into(),
                100.0 * (1.0 - traced_tps / untraced_tps),
            );
            let step_s: f64 = spans
                .iter()
                .filter(|s| s.name == trace::STEP)
                .map(|s| s.duration_ns() as f64 / 1e9)
                .sum();
            let traced_s: f64 = traced.iter().map(|r| r.wall_s).sum();
            println!(
                "traced rounds: {} spans; step spans (self time plus GEMM-window children) cover {:.1}% of {:.2} s traced wall; tokens/s {traced_tps:.1} traced vs {untraced_tps:.1} untraced",
                spans.len(),
                100.0 * step_s / traced_s,
                traced_s
            );
        }
        let replay = of_kind(Kind::Replay);
        if !replay.is_empty() {
            let (net_tpot, base_tpot) = (
                best(&plain, Better::Lower, |r| r.latencies().tpot_p50_ms),
                best(&replay, Better::Lower, |r| r.latencies().tpot_p50_ms),
            );
            let (net_ttft, base_ttft) = (
                best(&plain, Better::Lower, |r| r.latencies().ttft_p50_ms),
                best(&replay, Better::Lower, |r| r.latencies().ttft_p50_ms),
            );
            layers.insert("net.tpot_overhead_us".into(), (net_tpot - base_tpot) * 1e3);
            layers.insert("net.ttft_overhead_ms".into(), net_ttft - base_ttft);
            println!(
                "net overhead: tpot {net_tpot:.4} ms at the socket vs {base_tpot:.4} ms in-process; ttft {net_ttft:.4} ms vs {base_ttft:.4} ms"
            );
        }
        println!(
            "per layer (probes took {:.2} s of the budget; 0 = this workload does not exercise the layer):",
            collected.probes_s
        );
        for m in manifest::per_layer() {
            let value = layers.get(&m.name).copied().unwrap_or(0.0);
            println!("  {:<48} {value:>14.4} {}", m.name, m.unit);
        }
    }

    // Everything emitted is in the manifest (the reverse is `metric_object`'s zero fill,
    // and `manifest::check` above already proved the two lists equal).
    let (defs, values) = if args.trace {
        (manifest::per_layer(), &layers)
    } else {
        (manifest::end_to_end(), &e2e)
    };
    for name in values.keys() {
        if !defs.iter().any(|m| &m.name == name) {
            violations.push(format!("`{name}` was measured but is not in the manifest"));
        }
    }
    if let Some((name, value)) = values.iter().find(|(_, v)| !v.is_finite()) {
        // JSON has no spelling for it, and a measurement that is not a number is a bug.
        eprintln!("incorrect: `{name}` is {value}, not a number");
        return 1;
    }

    let round_values: Vec<Value> = collected
        .rounds
        .iter()
        .map(|(kind, r)| {
            let l = r.latencies();
            json::obj([
                ("kind", json::str(&format!("{kind:?}"))),
                ("wall_s", json::num(r.wall_s)),
                ("tokens_per_s", json::num(r.tokens_per_s())),
                ("ttft_p50_ms", json::num(l.ttft_p50_ms)),
                ("tpot_p50_ms", json::num(l.tpot_p50_ms)),
                ("tpot_tail_ms", json::num(l.tpot_tail_ms)),
            ])
        })
        .collect();
    let correct = violations.is_empty();
    let result = json::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", json::num(attempted as f64)),
        ("failed", json::num(failed as f64)),
        ("metrics", metric_object(&defs, values)),
    ]);
    let record = json::obj([
        ("workload", json::str(&args.workload)),
        ("seed", json::str(&args.seed.to_string())),
        ("inputs_digest", json::str(&format!("{digest:016x}"))),
        ("trace", Value::Bool(args.trace)),
        ("quick", Value::Bool(args.quick)),
        ("host", host_record),
        ("load_1m_start", json::num(load_start)),
        ("load_1m_end", json::num(load_end)),
        (
            "setup_s",
            Value::Arr(collected.setup_s.iter().map(|&s| json::num(s)).collect()),
        ),
        ("rounds", Value::Arr(round_values)),
        ("result", result.clone()),
    ]);
    let stored = host::out_dir().and_then(|dir| {
        std::fs::write(
            dir.join(format!("{}.run.json", args.workload)),
            record.render() + "\n",
        )?;
        if !spans.is_empty() {
            trace::write_jsonl(
                &dir.join(format!("{}.trace.jsonl", args.workload)),
                &spans[..first_round_spans],
            )?;
        }
        Ok(())
    });
    if let Err(e) = stored {
        eprintln!("could not store the run record: {e}");
    }
    for v in &violations {
        eprintln!("incorrect: {v}");
    }
    println!("{}", result.render());
    i32::from(!correct)
}
