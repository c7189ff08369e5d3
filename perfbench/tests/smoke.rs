//! The benchmark's own checks, at tiny sizes: every named metric is
//! printed with its unit, a wrong oracle is reported as a failure, and
//! the seed moves the inputs but not their shape.

use noc_perfbench::bench::{WorkloadBench, END_TO_END, PER_LAYER};
use noc_perfbench::trace::Tracer;
use noc_perfbench::workloads::{generate, shape_of, Size, Workload, DEFAULT_SEED, HELD_OUT_SEED};
use noc_scenario::parse_document;
use std::process::{Command, Output};

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("perfbench runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 output")
}

/// Runs every workload at tiny size and checks that each declared
/// metric appears on a `metric` line with its unit and in the result,
/// and that `also_printed` metrics appear on `metric` lines.
fn smoke(trace: &str, declared: &[(&str, &str)], also_printed: &[(&str, &str)]) {
    let trace_out = format!("{}/spans-smoke.json", env!("CARGO_TARGET_TMPDIR"));
    let out = perfbench(&[
        "--workload",
        "all",
        "--seed",
        "3",
        "--seconds",
        "0.3",
        "--trace",
        trace,
        "--size",
        "tiny",
        "--trace-out",
        &trace_out,
    ]);
    let text = stdout(&out);
    assert!(
        out.status.success(),
        "{text}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result = text.lines().last().expect("a result line");
    assert!(
        result.starts_with("{\"correct\": true, \"attempted\": "),
        "{result}"
    );
    assert!(text
        .lines()
        .any(|l| l.starts_with("host {\"available_parallelism\": ")));
    for w in Workload::ALL {
        for (name, unit) in declared.iter().chain(also_printed) {
            let printed = text.lines().any(|l| {
                let f: Vec<&str> = l.split_whitespace().collect();
                f.len() >= 5
                    && f[0] == "metric"
                    && f[1] == w.name()
                    && f[2] == *name
                    && f[4] == *unit
            });
            assert!(printed, "{} {name} [{unit}] not printed:\n{text}", w.name());
        }
        for (name, unit) in declared {
            let key = format!("\"{}/{name}\": {{\"value\": ", w.name());
            assert!(result.contains(&key), "{key} missing from {result}");
            assert!(result.contains(&format!("\"unit\": \"{unit}\"")));
        }
    }
}

#[test]
fn tiny_run_prints_every_end_to_end_metric_with_its_unit() {
    smoke("0", &END_TO_END, &[("fail_frac", "ratio")]);
}

#[test]
fn tiny_traced_run_prints_every_per_layer_metric_with_its_unit() {
    smoke("1", &PER_LAYER, &[]);
}

#[test]
fn a_wrong_oracle_fingerprint_is_reported_as_a_failure() {
    for w in Workload::ALL {
        let mut bench =
            WorkloadBench::new(w, DEFAULT_SEED, Size::Tiny, true).expect("bench sets up");
        bench.pass(&mut Tracer::off()).expect("pass runs");
        assert!(bench.failed > 0, "{}: corrupted oracle accepted", w.name());
        assert!(!bench.problems.is_empty());

        let mut honest =
            WorkloadBench::new(w, DEFAULT_SEED, Size::Tiny, false).expect("bench sets up");
        honest.pass(&mut Tracer::off()).expect("pass runs");
        assert_eq!(
            (honest.failed, honest.problems.len()),
            (0, 0),
            "{}",
            w.name()
        );
        assert!(honest.attempted > 0);
    }
    let out = perfbench(&[
        "--workload",
        "mesh32_sparse_build",
        "--seed",
        "1",
        "--seconds",
        "0.1",
        "--trace",
        "0",
        "--size",
        "tiny",
        "--inject-oracle-mismatch",
    ]);
    let text = stdout(&out);
    assert_eq!(out.status.code(), Some(1), "{text}");
    assert!(
        text.lines()
            .any(|l| l.starts_with("FAIL mesh32_sparse_build")),
        "{text}"
    );
    let result = text.lines().last().expect("a result line");
    assert!(result.starts_with("{\"correct\": false"), "{result}");
    assert!(!result.contains("\"failed\": 0,"), "{result}");
}

#[test]
fn the_seed_moves_the_inputs_but_not_their_shape() {
    for w in Workload::ALL {
        for size in [Size::Tiny, Size::Full] {
            let a = generate(w, DEFAULT_SEED, size);
            let b = generate(w, HELD_OUT_SEED, size);
            assert_eq!(
                a,
                generate(w, DEFAULT_SEED, size),
                "{}: same seed, same input",
                w.name()
            );
            assert_ne!(a, b, "{}: the seed must move the input", w.name());
            let shape = |t: &str| shape_of(&parse_document(t).expect("generated text parses"));
            assert_eq!(
                shape(&a),
                shape(&b),
                "{}: the seed must not move the shape",
                w.name()
            );
        }
    }
}

#[test]
fn full_size_workloads_have_their_documented_shape() {
    let shape = |w| shape_of(&parse_document(&generate(w, DEFAULT_SEED, Size::Full)).unwrap());
    let mesh32 = shape(Workload::Mesh32SparseBuild);
    assert_eq!((mesh32.platforms.len(), mesh32.transactions), (1, 8 * 16));
    let mesh16 = shape(Workload::Mesh16MixedLoad);
    assert_eq!(
        (mesh16.platforms.len(), mesh16.transactions),
        (1, 16 * 1000)
    );
    let serve = shape(Workload::ServeSweepWarm);
    assert_eq!((serve.platforms.len(), serve.transactions), (100, 100 * 18));
    assert!(
        serve.platforms.iter().all(|p| *p == serve.platforms[0]),
        "one shared platform"
    );
}

#[test]
fn unknown_arguments_are_rejected_without_a_result() {
    let out = perfbench(&["--workload", "nope"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stdout(&out).is_empty());
}

/// `(name, unit)` of every metric in one section of the repository's
/// `BENCHMARK.json`.
fn declared_in(section: &str) -> Vec<(String, String)> {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let quoted = |entry: &str, key: &str| {
        let rest =
            &entry[entry.find(&format!("\"{key}\": \"")).expect("key present") + key.len() + 5..];
        rest[..rest.find('"').expect("closing quote")].to_owned()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (quoted(entry, "name"), quoted(entry, "unit")))
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_the_metrics_printed() {
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared_in("end_to_end"), owned(&END_TO_END));
    assert_eq!(declared_in("per_layer"), owned(&PER_LAYER));
}
