//! The common simulation surface every backend realisation exposes.

use crate::program::{FeedSource, Workload};
use noc_baseline::{BridgedInterconnect, Interconnect, SharedBus};
use noc_protocols::{CompletionLog, Program, SocketCommand};
use noc_stats::Histogram;
use noc_system::{
    EpochOccupancy, FabricReport, MasterReport, Partition, RegionFeeder, ShardedSoc, Soc, SocReport,
};
use noc_transaction::Fingerprint;
use std::fmt;

use crate::program::FEED_WINDOW;

/// One streamed workload being fed to master `ordinal`.
///
/// `releases[stream]` is the running sum `Σ (1 + delay_before)` over
/// every command appended so far *on that stream* — a lower bound, in
/// base cycles from 0, on when the master can drain that stream's
/// queue: each command occupies the queue front for at least
/// `delay_before` countdown ticks plus one issue tick, front occupancy
/// is sequential per stream, and a local tick spans at least one base
/// cycle (clock divisors only stretch it). Accounting is per stream
/// because multi-threaded sockets (OCP threads, AXI IDs, advanced-VCI
/// threads) count down each thread's front delay *concurrently*, so a
/// master consumes global release budget up to `streams` times faster
/// than the global sum predicts; single-queue sockets are the
/// one-stream special case. As long as every refill happens before the
/// simulation executes cycle `min(releases)`, no master observes any
/// stream of its program running dry, so *when* commands were appended
/// is unobservable and dense ≡ horizon bit-identity extends to
/// streamed workloads.
#[derive(Debug, Clone)]
struct Feeder {
    ordinal: usize,
    source: FeedSource,
    releases: std::collections::HashMap<u16, u64>,
    primed: bool,
    exhausted: bool,
}

impl Feeder {
    /// The earliest cycle any stream of this workload could drain — the
    /// feeder's advance bound.
    fn min_release(&self) -> u64 {
        self.releases.values().copied().min().unwrap_or(0)
    }

    fn account(&mut self, chunk: &[SocketCommand]) {
        for c in chunk {
            *self.releases.entry(c.stream.raw()).or_insert(0) += 1 + c.delay_before as u64;
        }
    }
}

/// The streamed-workload feeders of one simulation. Plain cloneable
/// state: a snapshot captures every generator's RNG state and every
/// trace cursor's file offset, so restored runs resume the feed
/// bit-identically.
#[derive(Debug, Clone, Default)]
pub(crate) struct FeederSet {
    feeders: Vec<Feeder>,
}

impl FeederSet {
    /// Builds feeders for the streamed workloads (fixed programs need
    /// none).
    pub(crate) fn new(workloads: &[Workload]) -> Self {
        let feeders = workloads
            .iter()
            .enumerate()
            .filter_map(|(ordinal, w)| match w {
                Workload::Fixed(_) => None,
                Workload::Streamed(source) => Some(Feeder {
                    ordinal,
                    source: source.clone(),
                    releases: std::collections::HashMap::new(),
                    primed: false,
                    exhausted: false,
                }),
            })
            .collect();
        FeederSet { feeders }
    }

    /// Tops every active feeder up to `now + FEED_WINDOW` of release on
    /// its *slowest-filling* stream, appending pulled commands through
    /// `append(ordinal, chunk)`. The first pull primes with
    /// [`FeedSource::prime_release`] so every stream's first command
    /// lands at cycle 0 (identical in both step modes). Chunk
    /// boundaries never affect the command stream's content, so refill
    /// cadence (every dense step vs. every horizon bound) is
    /// unobservable.
    pub(crate) fn refill(&mut self, now: u64, mut append: impl FnMut(usize, &[SocketCommand])) {
        for f in &mut self.feeders {
            if f.exhausted {
                continue;
            }
            if !f.primed {
                f.primed = true;
                let chunk = f.source.pull(f.source.prime_release(now + FEED_WINDOW));
                if chunk.is_empty() {
                    f.exhausted = true;
                    continue;
                }
                f.account(&chunk);
                append(f.ordinal, &chunk);
            }
            while f.min_release() < now + FEED_WINDOW {
                let chunk = f.source.pull(now + FEED_WINDOW - f.min_release());
                if chunk.is_empty() {
                    f.exhausted = true;
                    break;
                }
                f.account(&chunk);
                append(f.ordinal, &chunk);
            }
        }
    }

    /// The furthest cycle the backend may advance to before the next
    /// refill: `horizon`, capped by every active feeder's
    /// `min(releases)` bound. Stopping at the bound (exclusive of
    /// executing that cycle) guarantees the refill lands before the
    /// master could first observe any stream of its program drained.
    pub(crate) fn bound(&self, horizon: u64) -> u64 {
        self.feeders
            .iter()
            .filter(|f| !f.exhausted)
            .fold(horizon, |b, f| b.min(f.min_release()))
    }

    /// Whether every feeder has drained its source.
    pub(crate) fn exhausted(&self) -> bool {
        self.feeders.iter().all(|f| f.exhausted)
    }

    /// Splits the set into one [`FeederSet`] per region of `sharded`,
    /// each holding exactly the feeders whose master lives there, so
    /// the overlapped runner can refill regions from inside their
    /// workers. Reassemble with [`FeederSet::merge`].
    fn split_by_region(&mut self, sharded: &ShardedSoc) -> Vec<FeederSet> {
        let mut per_region: Vec<FeederSet> = (0..sharded.regions())
            .map(|_| FeederSet::default())
            .collect();
        for f in self.feeders.drain(..) {
            per_region[sharded.initiator_region(f.ordinal)]
                .feeders
                .push(f);
        }
        per_region
    }

    /// Reabsorbs region feeder sets, restoring the canonical global
    /// ordering (by master ordinal) so snapshots and later splits are
    /// bit-identical to a never-split set.
    fn merge(&mut self, parts: Vec<FeederSet>) {
        debug_assert!(self.feeders.is_empty());
        for mut part in parts {
            self.feeders.append(&mut part.feeders);
        }
        self.feeders.sort_by_key(|f| f.ordinal);
    }
}

/// The overlapped runner's view of one region's streamed workloads:
/// refill appends through global master ordinals (the runner maps them
/// to region-local ones), the bound is the set's earliest unappended
/// release, uncapped (the runner folds in its own horizon).
impl RegionFeeder for FeederSet {
    fn refill(&mut self, frontier: u64, append: &mut dyn FnMut(usize, &[SocketCommand])) {
        FeederSet::refill(self, frontier, |ordinal, tail| append(ordinal, tail));
    }
    fn bound(&self) -> u64 {
        FeederSet::bound(self, u64::MAX)
    }
    fn exhausted(&self) -> bool {
        FeederSet::exhausted(self)
    }
}

/// How [`Simulation::run_until`] advances base time.
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
    /// Partition the fabric into regions and run them on worker threads
    /// in conservative lookahead epochs (NoC backend only; the
    /// baselines, which have no fabric to partition, fall back to
    /// horizon stepping). `threads == 0` means "auto": the scenario's
    /// `[config] shards` knob if set, else the machine's available
    /// parallelism. Bit-identical to dense/horizon stepping —
    /// record-for-record and counter-for-counter — pinned by the
    /// sharded determinism suite.
    Sharded {
        /// Worker-thread / region count (0 = auto).
        threads: usize,
    },
}

impl fmt::Display for StepMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StepMode::Dense => f.write_str("dense"),
            StepMode::Horizon => f.write_str("horizon"),
            StepMode::Sharded { threads: 0 } => f.write_str("sharded"),
            StepMode::Sharded { threads } => write!(f, "sharded({threads})"),
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
    /// returns whether the system drained. The default treats
    /// [`StepMode::Sharded`] as horizon stepping — only backends with a
    /// partitionable fabric ([`NocSim`]) override it with a real
    /// parallel runner.
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

    /// Loads one workload per master (declaration order) into a
    /// simulation that has not started executing. Warm-state forking
    /// snapshots a programless checkpoint and injects each point's real
    /// workload through this hook. Fixed workloads load whole; streamed
    /// workloads install a feeder and prime its first window.
    ///
    /// # Panics
    ///
    /// Panics if the simulation already stepped or the workload count
    /// does not match the master count.
    fn load_programs(&mut self, workloads: &[Workload]);

    /// Installs the [`Partition`] a first sharded run will cut the
    /// fabric with. Warm-state forking needs this hook: the cached
    /// checkpoint is built from a *programless* spec, whose static load
    /// estimate is empty, so after [`Simulation::load_programs`] the
    /// fork re-applies the partition resolved from the full spec
    /// ([`crate::ScenarioSpec::resolve_partition`]). Backends without a
    /// fabric ignore it.
    fn set_partition(&mut self, _partition: Option<Partition>) {}
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
    /// Epoch load-balance accounting (`Σ max-region-busy / Σ
    /// total-region-busy` over conservative epochs); `None` unless the
    /// run used the sharded runner.
    pub occupancy: Option<EpochOccupancy>,
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
        if let Some(occ) = &self.occupancy {
            write!(f, "\n  occupancy: {occ}")?;
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

/// The SoC of a [`NocSim`]: monolithic until the first sharded run,
/// partitioned from then on. Both shapes expose the same stepping
/// surface with bit-identical results; `Converting` only exists for the
/// instant of the irreversible `Single → Sharded` move and is never
/// observable from outside.
#[derive(Clone)]
// One `NocSim` owns exactly one `SocState` (they are never collected),
// so the Single/Sharded size spread costs nothing and boxing would put
// a pointer hop on every step.
#[allow(clippy::large_enum_variant)]
enum SocState {
    Single(Soc),
    Sharded(ShardedSoc),
    Converting,
}

/// Dispatches over the two live [`SocState`] shapes; the methods shared
/// by [`Soc`] and [`ShardedSoc`] are name-identical by design.
macro_rules! with_soc {
    ($state:expr, $s:ident => $e:expr) => {
        match $state {
            SocState::Single($s) => $e,
            SocState::Sharded($s) => $e,
            SocState::Converting => unreachable!("transient conversion placeholder escaped"),
        }
    };
}

/// The NoC realisation of a scenario (paper Fig 1).
#[derive(Clone)]
pub struct NocSim {
    state: SocState,
    feeders: FeederSet,
    /// The scenario's `[config] shards` knob — the thread count
    /// [`StepMode::Sharded`]`{ threads: 0 }` resolves to before falling
    /// back to the machine's available parallelism.
    default_shards: Option<usize>,
    /// How the first sharded run cuts the fabric: the scenario's
    /// `[config] assignment` (explicit bands) or a static load
    /// estimate, when either is available.
    partition: Option<Partition>,
}

impl NocSim {
    pub(crate) fn new(soc: Soc) -> Self {
        NocSim {
            state: SocState::Single(soc),
            feeders: FeederSet::default(),
            default_shards: None,
            partition: None,
        }
    }

    /// Installs the scenario's `[config] shards` default (see
    /// [`StepMode::Sharded`]).
    pub(crate) fn set_default_shards(&mut self, shards: Option<usize>) {
        self.default_shards = shards;
    }

    /// Installs the [`Partition`] the first sharded run will cut the
    /// fabric with (explicit `[config] assignment` bands, or a static
    /// load estimate from the scenario's address map). `None` keeps the
    /// default: warm activity counters when present, uniform bands
    /// otherwise. Has no effect once the simulation is sharded.
    pub fn set_partition(&mut self, partition: Option<Partition>) {
        self.partition = partition;
    }

    /// The partition the first sharded run will use, if one was pinned.
    pub fn partition(&self) -> Option<&Partition> {
        self.partition.as_ref()
    }

    /// Installs the streamed-workload feeders and primes their first
    /// window (fixed programs are already loaded into the masters).
    pub(crate) fn attach_workloads(&mut self, workloads: &[Workload]) {
        self.feeders = FeederSet::new(workloads);
        let NocSim { state, feeders, .. } = self;
        with_soc!(state, soc => feeders.refill(soc.now(), |ordinal, tail| {
            soc.append_commands(ordinal, tail)
        }));
    }

    /// The underlying SoC, for fabric-level inspection.
    ///
    /// # Panics
    ///
    /// Panics after a sharded run: the monolithic SoC no longer exists
    /// (its state lives in per-region slices). Inspect via
    /// [`NocSim::soc_report`] instead, which reassembles either shape.
    pub fn soc(&self) -> &Soc {
        match &self.state {
            SocState::Single(soc) => soc,
            _ => panic!("NocSim::soc: the simulation was sharded; use soc_report()"),
        }
    }

    /// Unwraps into the lower-layer [`Soc`].
    ///
    /// # Panics
    ///
    /// Panics after a sharded run, like [`NocSim::soc`].
    pub fn into_inner(self) -> Soc {
        match self.state {
            SocState::Single(soc) => soc,
            _ => panic!("NocSim::into_inner: the simulation was sharded; use soc_report()"),
        }
    }

    /// The full NoC-native report (fabric counters included).
    pub fn soc_report(&self) -> SocReport {
        with_soc!(&self.state, soc => soc.report())
    }

    /// Resolves a [`StepMode::Sharded`] thread request: an explicit
    /// count wins, then the `[config] shards` knob, then the machine.
    fn resolve_shards(&self, threads: usize) -> usize {
        if threads > 0 {
            return threads;
        }
        if let Some(n) = self.default_shards {
            if n > 0 {
                return n;
            }
        }
        // An explicit assignment fixes the region count by itself.
        if let Some(Partition::Explicit { assignment }) = &self.partition {
            return assignment.iter().copied().max().map_or(1, |m| m + 1);
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }

    /// Partitions the SoC for sharded stepping (idempotent; the first
    /// call fixes the region count). Any step boundary is a valid split
    /// point, so this is safe mid-run.
    fn ensure_sharded(&mut self, threads: usize) {
        if let SocState::Single(_) = self.state {
            let threads = self.resolve_shards(threads);
            let SocState::Single(soc) = std::mem::replace(&mut self.state, SocState::Converting)
            else {
                unreachable!()
            };
            let sharded = match &self.partition {
                // An explicit assignment always wins. A pinned balanced
                // estimate is a cold-start signal only: once the soc has
                // run, its warm activity counters are strictly better,
                // and `ShardedSoc::new` prefers them.
                Some(p @ Partition::Explicit { .. }) => ShardedSoc::with_partition(soc, threads, p),
                Some(p) if soc.switch_activity().iter().all(|&a| a == 0) => {
                    ShardedSoc::with_partition(soc, threads, p)
                }
                _ => ShardedSoc::new(soc, threads),
            };
            self.state = SocState::Sharded(sharded);
        }
    }
}

impl Simulation for NocSim {
    fn step(&mut self) {
        let NocSim { state, feeders, .. } = self;
        with_soc!(state, soc => {
            feeders.refill(soc.now(), |ordinal, tail| {
                soc.append_commands(ordinal, tail)
            });
            soc.step();
        });
    }
    fn now(&self) -> u64 {
        with_soc!(&self.state, soc => soc.now())
    }
    fn is_done(&self) -> bool {
        self.feeders.exhausted() && with_soc!(&self.state, soc => soc.is_done())
    }
    fn logs(&self) -> Vec<(&str, &CompletionLog)> {
        with_soc!(&self.state, soc => soc.completion_logs())
    }
    fn executed_steps(&self) -> u64 {
        with_soc!(&self.state, soc => soc.executed_steps())
    }
    fn next_activity(&self) -> Option<u64> {
        with_soc!(&self.state, soc => soc.next_activity())
    }
    fn advance_to(&mut self, horizon: u64) {
        let NocSim { state, feeders, .. } = self;
        match state {
            SocState::Single(soc) => {
                while soc.now() < horizon {
                    feeders.refill(soc.now(), |ordinal, tail| {
                        soc.append_commands(ordinal, tail)
                    });
                    soc.advance_to(feeders.bound(horizon));
                    if (feeders.exhausted() && soc.is_done()) || soc.now() >= horizon {
                        break;
                    }
                }
            }
            SocState::Sharded(sharded) => {
                // The overlapped runner refills each region's feeders
                // from inside its worker; split the set along the
                // partition for the duration of the run.
                let mut region_feeders = feeders.split_by_region(sharded);
                sharded.advance_overlapped(horizon, &mut region_feeders);
                feeders.merge(region_feeders);
            }
            SocState::Converting => unreachable!("transient conversion placeholder escaped"),
        }
    }
    fn run_until_with(&mut self, max_cycles: u64, mode: StepMode) -> bool {
        if let StepMode::Sharded { threads } = mode {
            self.ensure_sharded(threads);
        }
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
    fn horizon_polls(&self) -> u64 {
        with_soc!(&self.state, soc => soc.horizon_polls())
    }
    fn calendar_pops(&self) -> u64 {
        with_soc!(&self.state, soc => soc.calendar_pops())
    }
    fn report(&self) -> ScenarioReport {
        let r = self.soc_report();
        ScenarioReport {
            backend: "noc",
            cycles: r.cycles,
            steps: self.executed_steps(),
            all_done: r.all_done,
            masters: r.masters,
            fabric: Some(r.fabric),
            horizon_polls: self.horizon_polls(),
            calendar_pops: self.calendar_pops(),
            occupancy: r.occupancy,
        }
    }
    fn snapshot(&self) -> Box<dyn Simulation> {
        Box::new(self.clone())
    }
    fn load_programs(&mut self, workloads: &[Workload]) {
        let heads: Vec<Program> = workloads.iter().map(Workload::head_program).collect();
        with_soc!(&mut self.state, soc => soc.load_programs(&heads));
        self.attach_workloads(workloads);
    }
    fn set_partition(&mut self, partition: Option<Partition>) {
        NocSim::set_partition(self, partition);
    }
}

impl fmt::Debug for NocSim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("NocSim");
        match &self.state {
            SocState::Single(soc) => d.field("soc", soc),
            SocState::Sharded(sharded) => d.field("sharded", sharded),
            SocState::Converting => unreachable!("transient conversion placeholder escaped"),
        }
        .finish()
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
    feeders: FeederSet,
}

/// The Fig-2 bridged reference-socket realisation of a scenario.
pub type BridgedSim = BaselineSim<BridgedInterconnect>;

/// The shared-bus realisation of a scenario.
pub type BusSim = BaselineSim<SharedBus>;

impl<I: Interconnect> BaselineSim<I> {
    pub(crate) fn new(backend: &'static str, ic: I, names: Vec<String>) -> Self {
        BaselineSim {
            ic,
            backend,
            names,
            feeders: FeederSet::default(),
        }
    }

    /// Installs the streamed-workload feeders and primes their first
    /// window (fixed programs are already loaded into the masters).
    pub(crate) fn attach_workloads(&mut self, workloads: &[Workload]) {
        self.feeders = FeederSet::new(workloads);
        self.refill();
    }

    /// Tops up every streamed master's program window.
    fn refill(&mut self) {
        let ic = &mut self.ic;
        self.feeders
            .refill(ic.now(), |ordinal, tail| ic.append_commands(ordinal, tail));
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
        self.refill();
        self.ic.step();
    }
    fn now(&self) -> u64 {
        self.ic.now()
    }
    fn is_done(&self) -> bool {
        self.feeders.exhausted() && self.ic.is_done()
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
        while self.ic.now() < horizon {
            self.refill();
            self.ic.advance_to(self.feeders.bound(horizon));
            if Simulation::is_done(self) || self.ic.now() >= horizon {
                break;
            }
        }
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
            occupancy: None,
        }
    }
    fn snapshot(&self) -> Box<dyn Simulation> {
        Box::new(self.clone())
    }
    fn load_programs(&mut self, workloads: &[Workload]) {
        let heads: Vec<Program> = workloads.iter().map(Workload::head_program).collect();
        self.ic.load_programs(&heads);
        self.attach_workloads(workloads);
    }
}
