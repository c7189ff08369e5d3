//! The simulation contract every interconnect implements.

use crate::report::{FabricReport, MasterReport, ScenarioReport};
use noc_protocols::{CommandSource, CompletionLog};
use std::fmt;

/// How [`Simulation::run_until_with`] advances base time: dense stepping
/// is the oracle, horizon stepping the fast default. Both run one
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

/// A runnable interconnect: the one stepping and reporting contract.
///
/// The NoC ([`crate::Soc`], paper Fig 1) and the bridged and shared-bus
/// baselines (Fig 2, in `noc-baseline`) implement it directly, so
/// experiment code written against the trait runs unchanged on any of
/// them: the paper's VC-neutrality claim, restated as an API.
///
/// Backends supply single-cycle stepping, their event horizon
/// ([`Simulation::next_activity`]) and a jump across dead cycles
/// ([`Simulation::skip_to`]); the trait owns the two advance loops
/// (dense and horizon) and the report.
///
/// Simulations are plain owned state: `Send` (a built simulation can
/// move across threads) and checkpointable via
/// [`Simulation::snapshot`], which the serve layer uses for warm-state
/// reuse across prefix-sharing sweep points.
pub trait Simulation: Send {
    /// Backend label ("noc", "bridged", "bus").
    fn backend(&self) -> &'static str;
    /// Advances the whole system one base cycle.
    fn step(&mut self);
    /// The current base cycle.
    fn now(&self) -> u64;
    /// Returns `true` when every master drained and the interconnect is
    /// idle.
    fn is_done(&self) -> bool;

    /// The earliest base cycle at which the system's state can possibly
    /// change, or `None` when no component will ever act again.
    ///
    /// Backends answer from real per-component event horizons (masters'
    /// next issue cycles, in-flight link arrivals, slave `busy_until` /
    /// bridge `respond_at` stamps) min-combined so
    /// [`Simulation::advance_to`] can skip dead time even while traffic
    /// is in flight. An early answer only costs a dense-identical step;
    /// a late one would skip an event.
    fn next_activity(&self) -> Option<u64>;

    /// Jumps to `target` across cycles [`Simulation::next_activity`]
    /// proved dead. Every component keeps absolute deadlines, so the
    /// jump only sets the current cycle.
    fn skip_to(&mut self, target: u64);

    /// Base cycles actually stepped, excluding the cycles horizon
    /// stepping jumped over. A dense run executes exactly
    /// [`Simulation::now`] steps, so
    /// `dense.executed_steps() / horizon.executed_steps()` is the
    /// executed-step collapse the horizon machinery buys on a workload.
    fn executed_steps(&self) -> u64;

    /// Times [`Simulation::next_activity`] was queried — the scan-side
    /// wakeup-discipline counter. With calendar-driven stepping each
    /// poll is O(1); a backend stuck rescanning shows up as polls vastly
    /// exceeding [`Simulation::calendar_pops`].
    fn horizon_polls(&self) -> u64;

    /// Calendar wakeups the backend retired while stepping (scheduled
    /// component wakeups popped, stale entries included).
    fn calendar_pops(&self) -> u64;

    /// Named per-master completion logs, in declaration order.
    fn logs(&self) -> Vec<(&str, &CompletionLog)>;

    /// Loads one program per master (declaration order) into a
    /// simulation that has not started executing; each master pulls its
    /// commands from its source as it runs. Scenario builds load every
    /// workload through this hook, and warm-state forking snapshots a
    /// programless checkpoint and injects each point's real workload.
    ///
    /// # Panics
    ///
    /// Panics if the simulation already stepped or the program count
    /// does not match the master count.
    fn load_programs(&mut self, programs: Vec<Box<dyn CommandSource>>);

    /// A full checkpoint of the simulation at its current cycle.
    /// Restore is implicit: continue the returned copy. Both copies
    /// replay exactly the cycles an uninterrupted run would execute —
    /// bit-identical logs and counters, pinned by the snapshot suite.
    fn snapshot(&self) -> Box<dyn Simulation>;

    /// Fabric aggregates, for backends that have a switching fabric
    /// (the NoC). The baselines have none.
    fn fabric_report(&self) -> Option<FabricReport> {
        None
    }

    /// A backend-neutral report of the current state.
    fn report(&self) -> ScenarioReport {
        ScenarioReport {
            backend: self.backend(),
            cycles: self.now(),
            steps: self.executed_steps(),
            all_done: self.is_done(),
            masters: self
                .logs()
                .into_iter()
                .map(|(name, log)| MasterReport::from_log(name, log))
                .collect(),
            fabric: self.fabric_report(),
            horizon_polls: self.horizon_polls(),
            calendar_pops: self.calendar_pops(),
        }
    }

    /// Advances until done or `horizon`, jumping over quiescent gaps
    /// and stepping densely through active stretches. Bit-identical to
    /// stepping every cycle.
    fn advance_to(&mut self, horizon: u64) {
        while self.now() < horizon && !self.is_done() {
            match self.next_activity() {
                Some(t) if t > self.now() => self.skip_to(t.min(horizon)),
                Some(_) => self.step(),
                // Nothing will ever happen again (deadlock with every
                // component quiescent): dense stepping would burn no-op
                // cycles to the horizon; jump there in one hop.
                None => self.skip_to(horizon),
            }
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
}
