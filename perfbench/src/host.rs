//! Host metadata and peak memory. Absolute seconds differ between hosts,
//! so every result states where it was measured.

use std::fmt::Write as _;
use std::path::Path;

/// Cores the process may use.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Worker threads of the sharded trial: two, clamped to the cores.
pub fn shard_threads() -> usize {
    cores().min(2)
}

/// The host this run measured, as a JSON object.
pub fn metadata_json(seed: u64) -> String {
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"available_parallelism\": {}, \"worker_threads\": {{\"passes\": 1, \"serve\": 1, \"shard_trial\": {}}}, \"rustc\": \"{}\", \"cpu\": \"{}\", \"commit\": \"{}\", \"seed\": {seed}",
        cores(),
        shard_threads(),
        env!("PERFBENCH_RUSTC_VERSION"),
        cpu_model().replace('"', "'"),
        commit()
    );
    out.push('}');
    out
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; "unknown" outside a git checkout.
fn commit() -> String {
    let git = Path::new(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(id) = read(&git.join(reference)) {
        return id.trim().to_owned();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// This process's peak resident set, in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
