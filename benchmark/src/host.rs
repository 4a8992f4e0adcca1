//! What the run record says about the machine, so a surprising number can be audited
//! without re-running.

use crate::json::{self, Value};
use std::path::{Path, PathBuf};

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// The cgroup CPU quota as the kernel states it (`max 100000` means unlimited), from the
/// v2 file or the v1 pair.
fn cgroup_cpu_quota() -> String {
    read_trimmed("/sys/fs/cgroup/cpu.max")
        .or_else(|| {
            let quota = read_trimmed("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")?;
            let period = read_trimmed("/sys/fs/cgroup/cpu/cpu.cfs_period_us")?;
            Some(format!("{quota} {period}"))
        })
        .unwrap_or_else(|| "none".into())
}

/// The 1-minute load average.
pub fn load_average() -> f64 {
    read_trimmed("/proc/loadavg")
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Peak resident set size of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    read_trimmed("/proc/self/status")
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The benchmark's own directory: where it was built, which is inside the checkout.
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `benchmark/out/`, created on demand.
pub fn out_dir() -> std::io::Result<PathBuf> {
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// The checked-out commit, read from `.git` without running git; a checkout that is not a
/// repository has none.
fn commit() -> String {
    let git = bench_dir().join("../.git");
    let Some(head) = read_trimmed(&git.join("HEAD").to_string_lossy()) else {
        return "unknown".into();
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => read_trimmed(&git.join(reference).to_string_lossy()).unwrap_or(head),
        None => head,
    }
}

/// The fixed part of the run record.
pub fn record(engine: &str) -> Value {
    json::obj([
        ("nproc", json::num(nproc() as f64)),
        ("cgroup_cpu_quota", json::str(&cgroup_cpu_quota())),
        (
            "simd_tier",
            json::str(realm::tensor::simd::simd_dispatch_label()),
        ),
        ("engine", json::str(engine)),
        ("commit", json::str(&commit())),
    ])
}
