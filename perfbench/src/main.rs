//! `perfbench`: the repository benchmark's command line.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//!           [--size full|tiny] [--trace-out <file>] [--inject-oracle-mismatch]
//! ```
//!
//! Human-readable lines (host metadata, every metric with its unit and
//! how it was sampled, the span self-time table) come first; the last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is 0 only when
//! every pass matched the dense oracle.

use noc_perfbench::bench::{Metric, WorkloadBench, END_TO_END, PER_LAYER};
use noc_perfbench::host;
use noc_perfbench::pass;
use noc_perfbench::trace::Tracer;
use noc_perfbench::workloads::{self, Size, Workload, DEFAULT_SEED};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: perfbench --workload <mesh32_sparse_build|mesh16_mixed_load|serve_sweep_warm|all> \
--seed <n> --seconds <s> --trace <0|1> [--size full|tiny] [--trace-out <file>] [--inject-oracle-mismatch]";

/// Fewest timed passes per workload, whatever the time budget.
const MIN_PASSES: usize = 3;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    trace_out: Option<PathBuf>,
    corrupt_oracle: bool,
    /// Internal: run one pass and print this process's peak memory.
    rss_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        trace_out: None,
        corrupt_oracle: false,
        rss_probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workloads = if name == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::from_name(&name).ok_or(format!("unknown workload {name:?}"))?]
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--size" => {
                args.size = match value()?.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    other => return Err(format!("--size takes full or tiny, not {other:?}")),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--inject-oracle-mismatch" => args.corrupt_oracle = true,
            "--rss-probe" => args.rss_probe = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.rss_probe {
        rss_probe(&args)
    } else {
        run(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// One untraced pass of the (single) workload, then this process's peak
/// resident set — the workload's memory with nothing else in the
/// process.
fn rss_probe(args: &Args) -> Result<bool, String> {
    let workload = args.workloads[0];
    let text = workloads::generate(workload, args.seed, args.size);
    if workload.is_serve() {
        pass::serve_pass(&text, &mut Tracer::off())?;
    } else {
        pass::mesh_pass(&text, noc_scenario::StepMode::Horizon, &mut Tracer::off())?;
    }
    let rss = host::peak_rss_mb().ok_or("peak RSS is not readable on this host")?;
    println!("peak_rss_mb {rss}");
    Ok(true)
}

/// Peak memory of `workload`, measured in a child process so no other
/// workload's peak leaks into it.
fn child_peak_rss(workload: Workload, args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let size = match args.size {
        Size::Full => "full",
        Size::Tiny => "tiny",
    };
    let out = Command::new(exe)
        .args(["--rss-probe", "--workload", workload.name(), "--size", size])
        .args(["--seed", &args.seed.to_string()])
        .output()
        .map_err(|e| format!("memory probe: {e}"))?;
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("peak_rss_mb "))
        .and_then(|v| v.parse().ok())
        .filter(|_| out.status.success())
        .ok_or_else(|| {
            format!(
                "memory probe failed: {}",
                String::from_utf8_lossy(&out.stderr)
            )
        })
}

fn run(args: &Args) -> Result<bool, String> {
    println!("host {}", host::metadata_json(args.seed));
    let peak_rss = if args.trace {
        Vec::new()
    } else {
        args.workloads
            .iter()
            .map(|&w| child_peak_rss(w, args))
            .collect::<Result<Vec<_>, _>>()?
    };
    let mut benches = args
        .workloads
        .iter()
        .map(|&w| WorkloadBench::new(w, args.seed, args.size, args.corrupt_oracle))
        .collect::<Result<Vec<_>, _>>()?;

    let budget = Duration::from_secs_f64(args.seconds);
    let mut tracer = if args.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };
    // Passes interleave across workloads (and, traced, with untraced
    // twins), so drift on a shared host spreads over all of them. The
    // traced run spends half its budget on passes and half on probes.
    let passes_until = Instant::now() + if args.trace { budget / 2 } else { budget };
    let mut rounds = 0;
    while rounds < MIN_PASSES || Instant::now() < passes_until {
        for bench in &mut benches {
            bench.pass(&mut Tracer::off())?;
            if args.trace {
                bench.pass(&mut tracer)?;
            }
        }
        rounds += 1;
    }

    let mut results: Vec<(Workload, Vec<Metric>)> = Vec::new();
    let probe_budget = budget / 2 / benches.len() as u32;
    for (i, bench) in benches.iter_mut().enumerate() {
        let metrics = if args.trace {
            bench.per_layer(&mut tracer, probe_budget)?
        } else {
            bench.end_to_end(peak_rss[i])
        };
        results.push((bench.workload, metrics));
    }

    for (workload, metrics) in &results {
        for m in metrics {
            println!(
                "metric {:<20} {:<32} {:>16} {:<8} {}",
                workload.name(),
                m.name,
                m.value,
                m.unit,
                m.note
            );
        }
    }
    if args.trace {
        print_self_times(&tracer);
        let path = args.trace_out.clone().unwrap_or_else(|| {
            let names: Vec<&str> = args.workloads.iter().map(|w| w.name()).collect();
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("spans-{}-seed{}.json", names.join("+"), args.seed))
        });
        write_trace(&path, &tracer, args.seed)?;
        println!("spans written to {}", path.display());
    }

    let attempted: u64 = benches.iter().map(|b| b.attempted).sum();
    let failed: u64 = benches.iter().map(|b| b.failed).sum();
    for bench in &benches {
        for problem in &bench.problems {
            println!("FAIL {}: {problem}", bench.workload.name());
        }
    }
    let correct = failed == 0 && benches.iter().all(|b| b.problems.is_empty());
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "{}",
        result_json(correct, attempted, failed, &results, declared)?
    );
    Ok(correct)
}

fn print_self_times(tracer: &Tracer) {
    println!(
        "spans: {:<20} {:<28} {:>6} {:>12} {:>12}",
        "workload", "name", "count", "total_s", "self_s"
    );
    for ((workload, name), (total, own, count)) in tracer.summary() {
        println!("spans: {workload:<20} {name:<28} {count:>6} {total:>12.6} {own:>12.6}");
    }
}

fn write_trace(path: &PathBuf, tracer: &Tracer, seed: u64) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let body = format!(
        "{{\"host\": {},\n\"spans\": {}}}\n",
        host::metadata_json(seed),
        tracer.to_json()
    );
    std::fs::write(path, body).map_err(|e| format!("{}: {e}", path.display()))
}

/// The result line. One workload's metrics keep their declared names;
/// several workloads prefix each name with `<workload>/`.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    results: &[(Workload, Vec<Metric>)],
    declared: &[(&str, &str)],
) -> Result<String, String> {
    let mut fields = Vec::new();
    for (workload, metrics) in results {
        for &(name, unit) in declared {
            let m = metrics
                .iter()
                .find(|m| m.name == name)
                .ok_or_else(|| format!("{} did not produce {name}", workload.name()))?;
            if !m.value.is_finite() {
                return Err(format!("{} {name} is not a finite number", workload.name()));
            }
            let key = if results.len() == 1 {
                name.to_owned()
            } else {
                format!("{}/{name}", workload.name())
            };
            fields.push(format!(
                "\"{key}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                m.value
            ));
        }
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}
