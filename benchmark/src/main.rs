//! `realm-benchmark`: the repo benchmark.
//!
//! ```text
//! realm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload
//! realm-benchmark [--seed <n>] [--trace <0|1>]        all five, one process each
//! realm-benchmark --quick                             a smoke of all five, not comparable
//! realm-benchmark --aa <sets>                         all five <sets> times, spread vs bound
//! realm-benchmark --print-manifest                    the text of BENCHMARK.json
//! ```
//!
//! See `benchmark/README.md` for what is measured and why.

mod aa;
mod host;
mod json;
mod manifest;
mod netloop;
mod probes;
mod run;
mod serving;
mod stats;
mod sweep;
mod trace;
mod workloads;

use std::process::ExitCode;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    aa: Option<usize>,
    print_manifest: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: workloads::DEFAULT_SEED,
        seconds: manifest::RUN_SECONDS as f64,
        trace: false,
        quick: false,
        aa: None,
        print_manifest: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--aa" => {
                let sets: usize = value()?.parse().map_err(|e| format!("--aa: {e}"))?;
                if sets < 2 {
                    return Err("--aa needs at least two sets to compare".into());
                }
                cli.aa = Some(sets);
            }
            "--quick" => cli.quick = true,
            "--print-manifest" => cli.print_manifest = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("realm-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if cli.print_manifest {
        print!("{}", manifest::render());
        return ExitCode::SUCCESS;
    }
    let code = match (&cli.workload, cli.aa) {
        (Some(workload), _) => run::leaf(&run::Args {
            workload: workload.clone(),
            seed: cli.seed,
            seconds: cli.seconds,
            trace: cli.trace,
            quick: cli.quick,
        }),
        (None, Some(sets)) => aa::compare_sets(sets, cli.seed, cli.seconds),
        (None, None) => aa::run_all(cli.seed, cli.seconds, cli.trace, cli.quick),
    };
    ExitCode::from(code as u8)
}
