//! The common simulation surface every backend realisation exposes.

use noc_baseline::{BridgedInterconnect, Interconnect, SharedBus};
use noc_protocols::{CommandSource, CompletionLog};
use noc_stats::Histogram;
use noc_system::{FabricReport, MasterReport, Soc};
use noc_transaction::Fingerprint;
use std::fmt;

/// How [`Simulation::run_until`] advances base time: dense stepping is
/// the oracle, horizon stepping the fast default. Both run one
/// simulation on one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StepMode {
    /// Poll every component on every base cycle. The reference
    /// semantics, and the escape hatch when debugging a backend's
    /// quiescence bookkeeping.
    Dense,
    /// Jump simulation time across provably-dead gaps (command delays,
    /// drained fabrics) via [`Simulation::advance_to`]. Bit-identical to
    /// dense stepping — pinned by the cross-backend equivalence suite —
    /// and several-fold faster on sparse workloads.
    #[default]
    Horizon,
    /// A library-only alias of [`StepMode::Horizon`]: it steps,
    /// displays and emits exactly as horizon stepping, and `threads` is
    /// ignored. The sharded runner it once selected was removed because
    /// no host ever measured it faster than horizon stepping (see the
    /// README's "Why there is no parallel stepping"). No text or
    /// command-line input produces it — asking for sharding there is a
    /// typed error. It exists only so the benchmark harness under
    /// `perfbench/` keeps compiling its shard trial, until the ROADMAP
    /// item that reworks the benchmark drops that trial.
    Sharded {
        /// Ignored.
        threads: usize,
    },
}

impl fmt::Display for StepMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StepMode::Dense => f.write_str("dense"),
            StepMode::Horizon | StepMode::Sharded { .. } => f.write_str("horizon"),
        }
    }
}

/// A runnable realisation of a scenario, independent of the backend.
///
/// All three interconnects — NoC, bridged, bus — implement this, so
/// experiment code written against the trait runs unchanged on any of
/// them: the paper's VC-neutrality claim, restated as an API.
///
/// Simulations are plain owned state: `Send` (a built simulation can
/// move across threads) and checkpointable via
/// [`Simulation::snapshot`], which the serve layer uses for warm-state
/// reuse across prefix-sharing sweep points.
pub trait Simulation: Send {
    /// Advances the whole system one base cycle.
    fn step(&mut self);
    /// The current base cycle.
    fn now(&self) -> u64;
    /// Returns `true` when every master drained and the interconnect is
    /// idle.
    fn is_done(&self) -> bool;
    /// Named per-master completion logs, in declaration order.
    fn logs(&self) -> Vec<(&str, &CompletionLog)>;
    /// A backend-neutral report of the current state.
    fn report(&self) -> ScenarioReport;

    /// Base cycles actually stepped, excluding the cycles horizon
    /// stepping jumped over. A dense run executes exactly
    /// [`Simulation::now`] steps (the default), so
    /// `dense.executed_steps() / horizon.executed_steps()` is the
    /// executed-step collapse the horizon machinery buys on a workload.
    fn executed_steps(&self) -> u64 {
        self.now()
    }

    /// The earliest base cycle at which the system's state can possibly
    /// change, or `None` when no component will ever act again.
    ///
    /// The default claims activity on every cycle — always correct, and
    /// exactly what dense stepping assumes. Backends override it with
    /// real per-component event horizons (masters' next issue cycles,
    /// in-flight link arrivals, slave `busy_until` / bridge `respond_at`
    /// stamps) min-combined so `advance_to` can skip dead time even
    /// while traffic is in flight.
    fn next_activity(&self) -> Option<u64> {
        Some(self.now())
    }

    /// Times the advance machinery queried [`Simulation::next_activity`]
    /// — the scan-side wakeup-discipline counter. With calendar-driven
    /// stepping each poll is O(1); a backend stuck rescanning shows up
    /// as polls vastly exceeding [`Simulation::calendar_pops`]. The
    /// default (no instrumentation) reports 0.
    fn horizon_polls(&self) -> u64 {
        0
    }

    /// Calendar wakeups the backend retired while answering those polls
    /// (scheduled component wakeups popped, stale entries included).
    /// The default (no calendar) reports 0.
    fn calendar_pops(&self) -> u64 {
        0
    }

    /// Advances until done or `horizon`, skipping provably-dead gaps
    /// where the backend supports it. Must leave state bit-identical to
    /// stepping every cycle. The default cannot prove any gap dead, so
    /// it steps densely.
    fn advance_to(&mut self, horizon: u64) {
        while self.now() < horizon && !self.is_done() {
            self.step();
        }
    }

    /// Runs until done or `max_cycles` with the given step mode;
    /// returns whether the system drained. [`StepMode::Sharded`] is
    /// horizon stepping.
    fn run_until_with(&mut self, max_cycles: u64, mode: StepMode) -> bool {
        match mode {
            StepMode::Dense => {
                while self.now() < max_cycles && !self.is_done() {
                    self.step();
                }
            }
            StepMode::Horizon | StepMode::Sharded { .. } => self.advance_to(max_cycles),
        }
        self.is_done()
    }

    /// Runs until done or `max_cycles` (horizon stepping); returns
    /// whether it drained.
    fn run_until(&mut self, max_cycles: u64) -> bool {
        self.run_until_with(max_cycles, StepMode::Horizon)
    }

    /// A full checkpoint of the simulation at its current cycle.
    /// Restore is implicit: continue the returned copy. Both copies
    /// replay exactly the cycles an uninterrupted run would execute —
    /// bit-identical logs and counters, pinned by the snapshot suite.
    fn snapshot(&self) -> Box<dyn Simulation>;

    /// Loads one program per master (declaration order) into a
    /// simulation that has not started executing; each master pulls its
    /// commands from its source as it runs. Builds load every workload
    /// through this hook, and warm-state forking snapshots a
    /// programless checkpoint and injects each point's real workload
    /// ([`crate::ScenarioSpec::programs`]).
    ///
    /// # Panics
    ///
    /// Panics if the simulation already stepped or the program count
    /// does not match the master count.
    fn load_programs(&mut self, programs: Vec<Box<dyn CommandSource>>);
}

/// A backend-neutral simulation report: per-master results plus fabric
/// aggregates when the backend has a fabric.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Backend label ("noc", "bridged", "bus").
    pub backend: &'static str,
    /// Base cycles simulated.
    pub cycles: u64,
    /// Base cycles actually stepped (skipped cycles excluded); equals
    /// `cycles` for dense runs, so `cycles / steps` is the horizon win.
    pub steps: u64,
    /// Whether every master drained.
    pub all_done: bool,
    /// Per-master reports, in declaration order.
    pub masters: Vec<MasterReport>,
    /// Fabric aggregates (NoC backend only).
    pub fabric: Option<FabricReport>,
    /// Times the advance machinery polled `next_activity` (0 for dense
    /// runs, which never ask).
    pub horizon_polls: u64,
    /// Calendar wakeups retired while stepping (both modes execute the
    /// same events, so this is mode-independent up to run length).
    pub calendar_pops: u64,
}

impl ScenarioReport {
    /// Finds a master report whose name contains `fragment`.
    pub fn master(&self, fragment: &str) -> Option<&MasterReport> {
        self.masters.iter().find(|m| m.name.contains(fragment))
    }

    /// Total completions across masters.
    pub fn total_completions(&self) -> usize {
        self.masters.iter().map(|m| m.completions).sum()
    }

    /// Completions per cycle.
    pub fn throughput(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_completions() as f64 / self.cycles as f64
        }
    }

    /// Mean latency across all masters, weighted by completions. With
    /// zero completions there is no latency sample at all, so this is
    /// `NaN` — not a fabricated `0.0`. The serve layer's JSON emitter
    /// turns it into `null` and the `scn` tables print `-`.
    pub fn mean_latency(&self) -> f64 {
        let total = self.total_completions();
        if total == 0 {
            return f64::NAN;
        }
        self.masters
            .iter()
            .map(|m| m.mean_latency * m.completions as f64)
            .sum::<f64>()
            / total as f64
    }

    /// Merged functional fingerprint over all masters.
    pub fn system_fingerprint(&self) -> Fingerprint {
        let mut fp = Fingerprint::new();
        for m in &self.masters {
            fp.merge(&m.fingerprint);
        }
        fp
    }
}

impl fmt::Display for ScenarioReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mean = if self.total_completions() == 0 {
            "-".to_owned()
        } else {
            format!("{:.1}cy", self.mean_latency())
        };
        writeln!(
            f,
            "{} report: {} cycles, done={}, {} completions ({:.4}/cy), mean latency {}",
            self.backend,
            self.cycles,
            self.all_done,
            self.total_completions(),
            self.throughput(),
            mean
        )?;
        for m in &self.masters {
            writeln!(f, "  {m}")?;
        }
        if let Some(fab) = &self.fabric {
            write!(
                f,
                "  fabric: {} flits, {} pkts, {} credit stalls, {} conflicts, {} lock-idle",
                fab.flits_forwarded,
                fab.packets_forwarded,
                fab.credit_stalls,
                fab.arbitration_conflicts,
                fab.lock_idle_cycles
            )?;
        }
        Ok(())
    }
}

fn master_report_from_log(name: &str, node: u16, log: &CompletionLog) -> MasterReport {
    let mut latency = Histogram::new();
    for r in log.records() {
        latency.record(r.latency());
    }
    MasterReport {
        name: name.to_owned(),
        node,
        completions: log.len(),
        errors: log.errors(),
        mean_latency: log.mean_latency(),
        latency,
        fingerprint: log.fingerprint(),
    }
}

/// The NoC realisation of a scenario (paper Fig 1).
#[derive(Debug, Clone)]
pub struct NocSim {
    soc: Soc,
}

impl NocSim {
    pub(crate) fn new(soc: Soc) -> Self {
        NocSim { soc }
    }

    /// The underlying SoC, for fabric-level inspection.
    pub fn soc(&self) -> &Soc {
        &self.soc
    }

    /// Unwraps into the lower-layer [`Soc`].
    pub fn into_inner(self) -> Soc {
        self.soc
    }
}

impl Simulation for NocSim {
    fn step(&mut self) {
        self.soc.step();
    }
    fn now(&self) -> u64 {
        self.soc.now()
    }
    fn is_done(&self) -> bool {
        self.soc.is_done()
    }
    fn logs(&self) -> Vec<(&str, &CompletionLog)> {
        self.soc.completion_logs()
    }
    fn executed_steps(&self) -> u64 {
        self.soc.executed_steps()
    }
    fn next_activity(&self) -> Option<u64> {
        self.soc.next_activity()
    }
    fn advance_to(&mut self, horizon: u64) {
        self.soc.advance_to(horizon);
    }
    fn horizon_polls(&self) -> u64 {
        self.soc.horizon_polls()
    }
    fn calendar_pops(&self) -> u64 {
        self.soc.calendar_pops()
    }
    fn report(&self) -> ScenarioReport {
        let r = self.soc.report();
        ScenarioReport {
            backend: "noc",
            cycles: r.cycles,
            steps: self.executed_steps(),
            all_done: r.all_done,
            masters: r.masters,
            fabric: Some(r.fabric),
            horizon_polls: self.horizon_polls(),
            calendar_pops: self.calendar_pops(),
        }
    }
    fn snapshot(&self) -> Box<dyn Simulation> {
        Box::new(self.clone())
    }
    fn load_programs(&mut self, programs: Vec<Box<dyn CommandSource>>) {
        self.soc.load_programs(programs);
    }
}

/// A baseline realisation of a scenario: the Fig-2 bridged
/// reference-socket interconnect ([`BridgedSim`]) or the shared bus
/// ([`BusSim`]).
#[derive(Debug, Clone)]
pub struct BaselineSim<I> {
    ic: I,
    backend: &'static str,
    names: Vec<String>,
}

/// The Fig-2 bridged reference-socket realisation of a scenario.
pub type BridgedSim = BaselineSim<BridgedInterconnect>;

/// The shared-bus realisation of a scenario.
pub type BusSim = BaselineSim<SharedBus>;

impl<I: Interconnect> BaselineSim<I> {
    pub(crate) fn new(backend: &'static str, ic: I, names: Vec<String>) -> Self {
        BaselineSim { ic, backend, names }
    }

    /// The underlying interconnect, for backend-specific counters such
    /// as [`BridgedInterconnect::chopped_bursts`] or
    /// [`SharedBus::grants`].
    pub fn inner(&self) -> &I {
        &self.ic
    }

    /// Unwraps into the lower-layer interconnect.
    pub fn into_inner(self) -> I {
        self.ic
    }
}

impl<I: Interconnect + fmt::Debug + Clone + Send + 'static> Simulation for BaselineSim<I> {
    fn step(&mut self) {
        self.ic.step();
    }
    fn now(&self) -> u64 {
        self.ic.now()
    }
    fn is_done(&self) -> bool {
        self.ic.is_done()
    }
    fn logs(&self) -> Vec<(&str, &CompletionLog)> {
        self.names
            .iter()
            .map(String::as_str)
            .zip(self.ic.logs())
            .collect()
    }
    fn executed_steps(&self) -> u64 {
        self.ic.executed_steps()
    }
    fn next_activity(&self) -> Option<u64> {
        self.ic.next_activity()
    }
    fn horizon_polls(&self) -> u64 {
        self.ic.horizon_polls()
    }
    fn calendar_pops(&self) -> u64 {
        self.ic.calendar_pops()
    }
    fn advance_to(&mut self, horizon: u64) {
        self.ic.advance_to(horizon);
    }
    fn report(&self) -> ScenarioReport {
        let ic = &self.ic;
        let masters = self
            .names
            .iter()
            .zip(ic.logs())
            .enumerate()
            .map(|(i, (name, log))| master_report_from_log(name, i as u16, log))
            .collect();
        ScenarioReport {
            backend: self.backend,
            cycles: ic.now(),
            steps: ic.executed_steps(),
            all_done: ic.is_done(),
            masters,
            fabric: None,
            horizon_polls: ic.horizon_polls(),
            calendar_pops: ic.calendar_pops(),
        }
    }
    fn snapshot(&self) -> Box<dyn Simulation> {
        Box::new(self.clone())
    }
    fn load_programs(&mut self, programs: Vec<Box<dyn CommandSource>>) {
        self.ic.load_programs(programs);
    }
}
