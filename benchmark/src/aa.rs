//! Running all five workloads — one process each — and the A/A comparison of whole sets.
//!
//! `--aa <sets>` runs the full benchmark `<sets>` times on the same build and prints, per
//! workload and end-to-end metric, the spread between the sets — (max − min) / median —
//! against the metric's bound. Two sets of the same code must agree within the bound the
//! benchmark holds other changes to; a metric that cannot do that on this host does not
//! belong in the end-to-end list. This is the one mode that judges timings, and it is
//! never part of a normal run.

use crate::json::{self, Value};
use crate::manifest::{self, WORKLOADS};
use crate::stats::{quantile, sorted};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

struct Child {
    digest: String,
    metrics: BTreeMap<String, f64>,
}

/// Runs one workload in a child process of this same binary, echoing its report, and
/// parses the result object on its last line. The child is waited for before returning.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if quick {
        command.arg("--quick");
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    let last = stdout.lines().last().ok_or("no output")?;
    let result = json::parse(last)?;
    if result.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!("{workload} reported incorrect outputs"));
    }
    let metrics = result
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or("result has no metrics")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    let digest = stdout
        .lines()
        .find_map(|l| l.split("inputs_digest ").nth(1)?.split_whitespace().next())
        .unwrap_or("")
        .to_string();
    Ok(Child { digest, metrics })
}

/// Runs every workload once, one process each. Returns the exit code.
pub fn run_all(seed: u64, seconds: f64, trace: bool, quick: bool) -> i32 {
    let mut code = 0;
    for workload in &WORKLOADS {
        if let Err(e) = run_child(workload.name, seed, seconds, trace, quick) {
            eprintln!("realm-benchmark: {e}");
            code = 1;
        }
    }
    code
}

/// Runs the full benchmark `sets` times and compares the sets. Returns the exit code:
/// non-zero when a run failed, a digest differs or any spread breaches its bound.
pub fn compare_sets(sets: usize, seed: u64, seconds: f64) -> i32 {
    let mut runs: Vec<Vec<Child>> = Vec::new();
    for set in 0..sets {
        println!("=== A/A set {} of {sets} ===", set + 1);
        let mut children = Vec::new();
        for workload in &WORKLOADS {
            match run_child(workload.name, seed, seconds, false, false) {
                Ok(child) => children.push(child),
                Err(e) => {
                    eprintln!("realm-benchmark: {e}");
                    return 1;
                }
            }
        }
        runs.push(children);
    }
    println!("=== A/A spread between {sets} sets: (max - min) / median against the bound ===");
    let mut breaches = 0;
    for (w, workload) in WORKLOADS.iter().enumerate() {
        let digests: Vec<&str> = runs.iter().map(|set| set[w].digest.as_str()).collect();
        let same_inputs = digests.windows(2).all(|d| d[0] == d[1]);
        println!(
            "{}: inputs_digest {} {}",
            workload.name,
            digests[0],
            if same_inputs {
                "identical in every set"
            } else {
                "DIFFERS between sets"
            }
        );
        breaches += usize::from(!same_inputs);
        for metric in manifest::end_to_end() {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|set| set[w].metrics.get(&metric.name).copied())
                .collect();
            let bound = metric.bound.expect("end-to-end metrics carry a bound");
            let ordered = sorted(&values);
            let spread = (ordered[ordered.len() - 1] - ordered[0]) / quantile(&ordered, 0.5);
            let verdict = if spread <= bound { "ok" } else { "BREACH" };
            println!(
                "  {:<14} spread {:>7.4} bound {bound:<5} {verdict:<7} values {values:?}",
                metric.name, spread
            );
            breaches += usize::from(spread > bound);
        }
    }
    if breaches > 0 {
        println!("A/A failed: {breaches} breaches");
        return 1;
    }
    println!("A/A passed: every end-to-end metric within its bound on every workload");
    0
}
