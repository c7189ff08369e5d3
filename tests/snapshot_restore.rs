//! Snapshot/restore determinism: checkpointing a simulation mid-run and
//! continuing — the original, the snapshot, either — must reproduce an
//! uninterrupted run record for record, timestamps and counters
//! included, on every backend and in both step modes. This is the
//! contract the serve layer's warm-state forking rests on.

use noc_protocols::CompletionRecord;
use noc_scenario::{Backend, ScenarioSpec, Simulation, StepMode};

/// A mixed-protocol scenario every backend can compile: no divided
/// clocks, no service or exclusive targets.
fn spec() -> ScenarioSpec {
    let text = "\
[topology]
kind = \"mesh\"
width = 2
height = 2

[[initiator]]
name = \"cpu\"
socket = \"axi\"
cmd = \"read 0x1000 4x8\"
cmd = \"write 0x2000 4x8 delay=3\"
cmd = \"read 0x1100 2x4 stream=1\"

[[initiator]]
name = \"dsp\"
socket = \"ocp\"
cmd = \"write 0x2100 6x4 delay=1\"
cmd = \"read 0x1200 3x8\"

[[memory]]
name = \"dram\"
base = 0x0
end = 0x2000
latency = 6
queue = 2

[[memory]]
name = \"sram\"
base = 0x2000
end = 0x4000
latency = 2
queue = 4
";
    ScenarioSpec::from_text(text).expect("fixture parses")
}

const BUDGET: u64 = 100_000;

/// Everything two runs must agree on to count as identical.
#[derive(Debug, PartialEq)]
struct Trace {
    now: u64,
    steps: u64,
    logs: Vec<(String, Vec<CompletionRecord>)>,
    report: String,
}

fn trace(sim: &dyn Simulation) -> Trace {
    Trace {
        now: sim.now(),
        steps: sim.executed_steps(),
        logs: sim
            .logs()
            .iter()
            .map(|(name, log)| ((*name).to_owned(), log.records().to_vec()))
            .collect(),
        report: format!("{:?}", sim.report()),
    }
}

fn backends() -> [Backend; 3] {
    [Backend::noc(), Backend::bridged(), Backend::bus()]
}

#[test]
fn interrupted_runs_match_uninterrupted_runs() {
    for backend in backends() {
        for mode in [StepMode::Dense, StepMode::Horizon] {
            let label = format!("{} / {mode:?}", backend.label());

            // Reference: one uninterrupted run.
            let mut reference = spec().build(&backend).expect("fixture compiles");
            assert!(reference.run_until_with(BUDGET, mode), "{label}: drains");
            let expected = trace(reference.as_ref());
            assert!(expected.now > 4, "{label}: long enough to interrupt");

            // Interrupted: pause mid-run, snapshot, continue BOTH the
            // original and the restored copy to completion.
            let mid = expected.now / 2;
            let mut original = spec().build(&backend).expect("fixture compiles");
            assert!(
                !original.run_until_with(mid, mode),
                "{label}: not yet drained at cycle {mid}"
            );
            let mut restored = original.snapshot();
            assert_eq!(
                trace(original.as_ref()),
                trace(restored.as_ref()),
                "{label}: a snapshot is the state it was taken from"
            );
            assert!(original.run_until_with(BUDGET, mode), "{label}: drains");
            assert!(restored.run_until_with(BUDGET, mode), "{label}: drains");
            assert_eq!(
                trace(original.as_ref()),
                expected,
                "{label}: continuing past a checkpoint must not disturb the run"
            );
            assert_eq!(
                trace(restored.as_ref()),
                expected,
                "{label}: a restored checkpoint must replay the identical future"
            );
        }
    }
}

#[test]
fn snapshots_are_independent_copies() {
    for backend in backends() {
        let label = backend.label();
        let mut sim = spec().build(&backend).expect("fixture compiles");
        assert!(!sim.run_until_with(5, StepMode::Dense), "{label}");
        let frozen = sim.snapshot();
        let at_freeze = trace(frozen.as_ref());
        // Running the parent on must not leak into the snapshot.
        assert!(sim.run_until_with(BUDGET, StepMode::Dense), "{label}");
        assert_eq!(
            trace(frozen.as_ref()),
            at_freeze,
            "{label}: snapshot mutated by its parent's progress"
        );
        assert_ne!(
            trace(sim.as_ref()),
            at_freeze,
            "{label}: parent visibly advanced past the checkpoint"
        );
    }
}

#[test]
fn program_loading_equals_building_with_programs() {
    // The serve-layer fork in miniature: a programless platform,
    // snapshotted and fed the real programs, must be indistinguishable
    // from building the full spec directly.
    let full = spec();
    for backend in backends() {
        let label = backend.label();
        let platform = full
            .without_programs()
            .build(&backend)
            .expect("fixture compiles");
        let mut forked = platform.snapshot();
        forked.load_programs(full.programs().expect("valid spec"));
        let mut direct = full.build(&backend).expect("fixture compiles");
        assert!(forked.run_until_with(BUDGET, StepMode::Horizon), "{label}");
        assert!(direct.run_until_with(BUDGET, StepMode::Horizon), "{label}");
        assert_eq!(
            trace(forked.as_ref()),
            trace(direct.as_ref()),
            "{label}: forked platform diverged from a direct build"
        );
    }
}

/// A trace file path private to one call, removed on drop: concurrent
/// tests (and concurrent test processes) never rewrite each other's
/// fixture while a trace cursor is mid-replay.
struct TempTrace(std::path::PathBuf);

impl TempTrace {
    fn new(stem: &str) -> Self {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let name = format!("noc-{stem}-{}-{n}.trace", std::process::id());
        TempTrace(std::env::temp_dir().join(name))
    }
}

impl Drop for TempTrace {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A scenario mixing all three streamed program kinds — bursty, zipf
/// and trace replay — so checkpoints must capture generator RNG state
/// and the trace cursor's file position. The trace file lives as long
/// as the returned guard.
fn stochastic_spec() -> (ScenarioSpec, TempTrace) {
    use noc_scenario::{BurstySpec, InitiatorSpec, MemorySpec, SocketSpec, TraceSpec, ZipfSpec};
    use std::io::Write;

    let trace_file = TempTrace::new("snapshot");
    let path = &trace_file.0;
    let mut f = std::fs::File::create(path).expect("trace file");
    let mut rng = noc_kernel::SplitMix64::new(0x5A17);
    let mut ts = 0u64;
    for _ in 0..150 {
        ts += rng.next_below(25);
        let addr = (rng.next_below(2) * 0x1000 + rng.next_below(0xF00)) & !0x7;
        let op = if rng.chance(0.5) { "read" } else { "write" };
        writeln!(f, "{ts} {op} {addr:#x} 2 4").unwrap();
    }
    drop(f);

    let mut bursty = BurstySpec::new(0xB07, 120, 4, 40);
    bursty.shape.streams = 2;
    bursty.shape.gap = 3;
    let zipf = ZipfSpec::new(0x21F, 150, 1200);
    let spec = ScenarioSpec::new()
        .initiator(InitiatorSpec::new(
            "burst",
            SocketSpec::Ocp {
                threads: 2,
                per_thread: 4,
            },
            bursty,
        ))
        .initiator(InitiatorSpec::new(
            "hot",
            SocketSpec::Axi {
                tags: 4,
                per_id: 2,
                total: 8,
            },
            zipf,
        ))
        .initiator(InitiatorSpec::new(
            "replay",
            SocketSpec::Ahb,
            TraceSpec::new(path.to_str().expect("utf-8 temp path")),
        ))
        .memory(MemorySpec::new("dram", 0x0, 0x1000, 5).with_queue(2))
        .memory(MemorySpec::new("sram", 0x1000, 0x2000, 2).with_queue(4));
    (spec, trace_file)
}

/// Snapshotting mid-burst — generators part-way through their RNG
/// streams, the trace cursor part-way through its file — and
/// continuing must replay exactly the uninterrupted run's records on
/// every backend and in both step modes.
#[test]
fn stochastic_interrupted_runs_match_uninterrupted_runs() {
    let (spec, _trace_file) = stochastic_spec();
    for backend in backends() {
        for mode in [StepMode::Dense, StepMode::Horizon] {
            let label = format!("{} / {mode:?} (stochastic)", backend.label());

            let mut reference = spec.build(&backend).expect("fixture compiles");
            assert!(reference.run_until_with(BUDGET, mode), "{label}: drains");
            let expected = trace(reference.as_ref());

            let mid = expected.now / 2;
            let mut original = spec.build(&backend).expect("fixture compiles");
            assert!(
                !original.run_until_with(mid, mode),
                "{label}: not yet drained at cycle {mid}"
            );
            let mut restored = original.snapshot();
            assert_eq!(
                trace(original.as_ref()),
                trace(restored.as_ref()),
                "{label}: a snapshot is the state it was taken from"
            );
            assert!(original.run_until_with(BUDGET, mode), "{label}: drains");
            assert!(restored.run_until_with(BUDGET, mode), "{label}: drains");
            assert_eq!(
                trace(original.as_ref()),
                expected,
                "{label}: continuing past a mid-burst checkpoint must not disturb the run"
            );
            assert_eq!(
                trace(restored.as_ref()),
                expected,
                "{label}: a restored mid-burst checkpoint must replay the identical future"
            );
        }
    }
}

/// The serve-layer warm start for generated programs: a programless
/// platform checkpoint fed stochastic workloads through
/// `load_programs` must be bit-identical to a cold build of the full
/// spec — the warm-vs-cold contract behind the checkpoint cache.
#[test]
fn stochastic_program_loading_equals_building_with_programs() {
    let (full, _trace_file) = stochastic_spec();
    for backend in backends() {
        let label = format!("{} (stochastic)", backend.label());
        let platform = full
            .without_programs()
            .build(&backend)
            .expect("fixture compiles");
        let mut forked = platform.snapshot();
        forked.load_programs(full.programs().expect("valid spec"));
        let mut direct = full.build(&backend).expect("fixture compiles");
        assert!(forked.run_until_with(BUDGET, StepMode::Horizon), "{label}");
        assert!(direct.run_until_with(BUDGET, StepMode::Horizon), "{label}");
        assert_eq!(
            trace(forked.as_ref()),
            trace(direct.as_ref()),
            "{label}: warm-forked stochastic workloads diverged from a cold build"
        );
    }
}
