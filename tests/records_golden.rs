//! Pins every corpus scenario's records across commits.
//!
//! Each `tests/scenarios/*.scn` file runs on every backend it compiles
//! to (sweep files: every point on its own backend). Each run becomes
//! one line of final cycle, completion count and a 64-bit hash over
//! every [`CompletionRecord`], timestamps included. The lines must equal
//! the committed `tests/scenarios/records.golden`. The other
//! differentials compare step modes within one commit; this one catches
//! a change that shifts dense and horizon stepping alike.
//!
//! On a mismatch the test prints the regenerated golden file; commit it
//! only when the behaviour change is intended.

use noc_protocols::CompletionRecord;
use noc_scenario::{parse_document, Backend, Document, ScenarioError, ScenarioSpec, StepMode};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/scenarios")
}

/// FNV-1a, 64-bit: a hash whose value never depends on the toolchain.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn record(&mut self, r: &CompletionRecord) {
        self.u64(r.index as u64);
        self.u64(r.opcode.encode() as u64);
        self.u64(r.addr);
        self.u64(r.status.encode() as u64);
        self.u64(r.data.len() as u64);
        self.bytes(&r.data);
        self.u64(r.stream.raw() as u64);
        self.u64(r.issued_at);
        self.u64(r.completed_at);
    }
}

/// One golden line for `spec` on `backend`, or `None` when the backend
/// cannot model the scenario.
fn golden_line(
    label: &str,
    spec: &ScenarioSpec,
    backend: &Backend,
    mode: StepMode,
    max_cycles: u64,
) -> Option<String> {
    let mut sim = match spec.build(backend) {
        Ok(sim) => sim,
        Err(ScenarioError::UnsupportedClock { .. } | ScenarioError::UnsupportedTarget { .. }) => {
            return None
        }
        Err(e) => panic!("{label}: {e}"),
    };
    assert!(
        sim.run_until_with(max_cycles, mode),
        "{label}: failed to drain in {max_cycles} cycles"
    );
    let mut hash = Fnv::new();
    let mut completions = 0;
    for (name, log) in sim.logs() {
        hash.bytes(name.as_bytes());
        hash.u64(log.len() as u64);
        for r in log.records() {
            hash.record(r);
        }
        completions += log.len();
    }
    Some(format!(
        "{label} cycle={} completions={completions} records={:016x}\n",
        sim.now(),
        hash.0
    ))
}

fn regenerate() -> String {
    let mut files: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("tests/scenarios exists")
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "scn"))
        .collect();
    files.sort();
    let mut out = String::new();
    for path in &files {
        let file = path.file_name().expect("file name").to_string_lossy();
        let text = std::fs::read_to_string(path).expect("readable corpus file");
        let mut doc = parse_document(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        doc.resolve_trace_paths_from(Path::new(path));
        match doc {
            Document::Scenario(spec) => {
                for backend in [Backend::noc(), Backend::bridged(), Backend::bus()] {
                    let label = format!("{file} {}", backend.label());
                    if let Some(line) =
                        golden_line(&label, &spec, &backend, StepMode::Horizon, 10_000_000)
                    {
                        out.push_str(&line);
                    } else {
                        writeln!(out, "{label} unsupported").unwrap();
                    }
                }
            }
            Document::Sweep(sweep) => {
                for p in sweep.points() {
                    let label = format!("{file} {} {}", p.label, p.backend.label());
                    let mode = p.step.unwrap_or(sweep.step_mode());
                    let line = golden_line(&label, &p.spec, &p.backend, mode, sweep.max_cycles())
                        .unwrap_or_else(|| panic!("{label}: sweep point does not compile"));
                    out.push_str(&line);
                }
            }
        }
    }
    out
}

#[test]
fn corpus_records_match_the_committed_golden() {
    let path = corpus_dir().join("records.golden");
    let committed = std::fs::read_to_string(&path).unwrap_or_default();
    let fresh = regenerate();
    if committed != fresh {
        panic!(
            "corpus records differ from {}; regenerated file:\n{fresh}",
            path.display()
        );
    }
}
