//! Conservative parallel execution of a partitioned [`Soc`].
//!
//! A [`ShardedSoc`] splits one SoC into regions connected only by
//! multi-cycle channels (cross-region links and their credit-return
//! wires), then advances the regions on worker threads in *epochs*: if
//! the earliest cycle any region can act is `X` and every cross-region
//! channel imposes at least `lookahead` cycles of latency, all regions
//! may run to `X + lookahead` without communicating (see
//! [`noc_kernel::pdes`]). Cross traffic is exchanged as
//! absolute-stamped messages that always land at or beyond the window
//! bound, so no region ever sees an event early.
//!
//! # The overlapped epoch protocol
//!
//! [`ShardedSoc::advance_overlapped`] runs one worker per region and
//! crosses a *single* barrier per epoch. Everything a worker shares is
//! double-buffered by epoch parity:
//!
//! - **Mailboxes are published on send.** Each region stages its
//!   cross-region flits and credits into the destination's
//!   parity-buffered mailbox ([`noc_kernel::ParityCell`]) the moment
//!   its window work is done — not under the barrier. Because every
//!   message carries an absolute arrival stamp at or beyond the window
//!   bound, the destination may integrate it at any point before it
//!   advances past the stamp: early integration is harmless, and the
//!   window rule makes late integration impossible. Destinations
//!   opportunistically drain whatever has already arrived before they
//!   even hit the barrier, and pick up the stragglers first thing next
//!   epoch.
//! - **The window min-reduction is redundant, not serial.** Each
//!   worker publishes a small per-epoch record (frontier, next
//!   activity, drained flag, executed steps, feeder release bound) and
//!   every worker independently folds all records into the identical
//!   next window. Published-but-unintegrated traffic is folded in via
//!   per-mailbox minimum arrival stamps ([`noc_kernel::MinStamp`]), so
//!   a region that drained *after* sending can never widen the window
//!   past a staged arrival.
//! - **Feeder refill runs inside the workers.** Each region refills
//!   its own streamed workloads at its own frontier
//!   ([`RegionFeeder`]); the published release bound caps the next
//!   window exactly like the serial runner's global bound did (stale
//!   bounds are only ever smaller, hence conservative).
//!
//! # Determinism
//!
//! Results are bit-identical to single-threaded execution, for any
//! region count, worker count and partition:
//!
//! - within an epoch regions are causally independent (the registered
//!   credit-return delay removes the last same-cycle cross-switch
//!   interaction), and each region runs the ordinary sequential engine;
//! - cross flits/credits carry absolute cycles computed at the sending
//!   side; per-link FIFO order is preserved (a link's epoch batch is
//!   staged atomically and batches integrate in epoch order), and
//!   messages of different links target distinct ports or monotone
//!   counters, so integration timing is unobservable to the simulation;
//! - completion logs are region-local, counters are order-free sums,
//!   and the one floating-point fold (mean link latency) is re-run in
//!   global link order at report time;
//! - a region that drains early is *parked* at its local done cycle and
//!   a final fix-up brings every region to the exact cycle a
//!   single-threaded run stops at (every component keeps absolute
//!   deadlines, so the parked cycles need no accounting).
//!
//! Dense single-threaded stepping is the oracle the overlapped runner
//! is pinned to.

use crate::fabric::Fabric;
use crate::report::{EpochOccupancy, FabricReport, MasterReport, SocReport};
use crate::soc::{Soc, SocSplit};
use noc_kernel::{EpochPlanner, Horizon, MinStamp, ParityCell, SpinBarrier};
use noc_protocols::{CompletionLog, Program, SocketCommand};
use noc_transport::Flit;

/// How switches are assigned to regions. Every variant produces
/// contiguous index bands — mesh builders number switches row-major, so
/// bands are horizontal slabs cut by (few) vertical links. Correctness
/// never depends on the cut: any partition is bit-exact, only the
/// epoch-level load balance (and thus parallel speed-up) varies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Partition {
    /// Near-equal switch *counts* per band — the right default when
    /// nothing is known about the traffic.
    Band,
    /// Near-equal switch *load* per band: `weights[s]` estimates the
    /// work switch `s` will do (warm `flits_forwarded` counters, or a
    /// static estimate from the scenario's address map on cold starts).
    /// The band cut minimises the maximum per-band weight subject to
    /// bands staying contiguous and non-empty.
    Balanced { weights: Vec<u64> },
    /// A caller-chosen assignment: `assignment[s]` is the region of
    /// switch `s`. Must be a contiguous non-decreasing band cover that
    /// starts at region 0 and uses every region exactly once.
    Explicit { assignment: Vec<usize> },
}

impl Partition {
    /// Checks the partition against a topology of `num_switches`
    /// switches split into `regions` regions. Returns a human-readable
    /// reason on failure (scenario-text validation surfaces it with
    /// line/column info).
    pub fn validate(&self, num_switches: usize, regions: usize) -> Result<(), String> {
        match self {
            Partition::Band => Ok(()),
            Partition::Balanced { weights } => {
                if weights.len() != num_switches {
                    return Err(format!(
                        "balanced partition lists {} switch weights, topology has {}",
                        weights.len(),
                        num_switches
                    ));
                }
                Ok(())
            }
            Partition::Explicit { assignment } => {
                if assignment.len() != num_switches {
                    return Err(format!(
                        "assignment lists {} switches, topology has {}",
                        assignment.len(),
                        num_switches
                    ));
                }
                if num_switches == 0 {
                    return Ok(());
                }
                let mut cur = 0usize;
                for (s, &r) in assignment.iter().enumerate() {
                    if r >= regions {
                        return Err(format!(
                            "switch {s} assigned to region {r}, but the run has {regions} regions"
                        ));
                    }
                    if s == 0 {
                        if r != 0 {
                            return Err("assignment must start at region 0".to_string());
                        }
                    } else if r != cur && r != cur + 1 {
                        return Err(format!(
                            "assignment must be contiguous non-decreasing bands: \
                             switch {s} maps to region {r} after region {cur}"
                        ));
                    }
                    cur = r;
                }
                if cur + 1 != regions {
                    return Err(format!(
                        "assignment uses {} regions, but the run has {regions} regions",
                        cur + 1
                    ));
                }
                Ok(())
            }
        }
    }
}

/// Assigns `num_switches` switches to `regions` contiguous index bands
/// of near-equal size ([`Partition::Band`]).
fn band_partition(num_switches: usize, regions: usize) -> Vec<usize> {
    (0..num_switches)
        .map(|s| s * regions / num_switches)
        .collect()
}

/// Assigns weighted switches to `regions` contiguous bands minimising
/// the maximum band weight ([`Partition::Balanced`]): binary-search the
/// smallest cap a greedy left-to-right cut can respect, then cut with
/// that cap, closing bands early when needed so every region stays
/// non-empty.
fn balanced_band_partition(weights: &[u64], regions: usize) -> Vec<usize> {
    let n = weights.len();
    if regions <= 1 || n == 0 {
        return vec![0; n];
    }
    let regions = regions.min(n);
    let fits = |cap: u64| -> bool {
        let mut bands = 1usize;
        let mut acc = 0u64;
        for &w in weights {
            if acc + w > cap {
                bands += 1;
                acc = 0;
            }
            acc += w;
        }
        bands <= regions
    };
    let (mut lo, mut hi) = (
        weights.iter().copied().max().unwrap_or(0),
        weights.iter().sum::<u64>(),
    );
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if fits(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let cap = lo;
    let mut map = vec![0usize; n];
    let (mut region, mut acc, mut count) = (0usize, 0u64, 0usize);
    for (i, &w) in weights.iter().enumerate() {
        // Close the band when the cap would burst — or when holding on
        // to switch `i` would leave fewer switches than regions still
        // to fill (every region must own at least one switch).
        if region + 1 < regions && count > 0 && (n - i < regions - region || acc + w > cap) {
            region += 1;
            acc = 0;
            count = 0;
        }
        map[i] = region;
        acc += w;
        count += 1;
    }
    map
}

/// Per-region streamed-workload refill, driven from inside the
/// overlapped runner's worker threads.
///
/// `refill` is called once per epoch at the region's frontier with an
/// append hook taking *global* initiator ordinals; it must append every
/// command released below its look-ahead window. `bound` is the
/// exclusive cycle the epoch window may not cross (a lower bound on the
/// next unappended release — stale values are fine, they only shrink
/// windows). `exhausted` reports that no further input will ever
/// arrive. Program-driven runs (everything loaded up front) can pass
/// `()` for every region.
pub trait RegionFeeder: Send {
    /// Appends commands released before the region's look-ahead bound.
    fn refill(&mut self, frontier: u64, append: &mut dyn FnMut(usize, &[SocketCommand]));
    /// Exclusive bound the next epoch window may not cross.
    fn bound(&self) -> u64;
    /// `true` once the workload source has nothing further, ever.
    fn exhausted(&self) -> bool;
}

/// The no-op feeder for fully pre-loaded (program-driven) regions.
impl RegionFeeder for () {
    fn refill(&mut self, _frontier: u64, _append: &mut dyn FnMut(usize, &[SocketCommand])) {}
    fn bound(&self) -> u64 {
        u64::MAX
    }
    fn exhausted(&self) -> bool {
        true
    }
}

/// Cross-region routing scratch, reused across epochs.
#[derive(Debug, Clone, Default)]
struct RouteBufs {
    flits: Vec<(u32, u64, Flit)>,
    credits: Vec<(u32, u64)>,
}

/// One parity buffer of cross-region traffic bound for one region.
#[derive(Debug, Default)]
struct MailBuf {
    req_flits: Vec<(u32, u64, Flit)>,
    req_credits: Vec<(u32, u64)>,
    resp_flits: Vec<(u32, u64, Flit)>,
    resp_credits: Vec<(u32, u64)>,
}

impl MailBuf {
    fn is_empty(&self) -> bool {
        self.req_flits.is_empty()
            && self.req_credits.is_empty()
            && self.resp_flits.is_empty()
            && self.resp_credits.is_empty()
    }

    fn min_flit_arrival(&self) -> u64 {
        let req = self.req_flits.iter().map(|&(_, arrival, _)| arrival);
        let resp = self.resp_flits.iter().map(|&(_, arrival, _)| arrival);
        req.chain(resp).min().unwrap_or(u64::MAX)
    }

    fn append(&mut self, other: &mut MailBuf) {
        self.req_flits.append(&mut other.req_flits);
        self.req_credits.append(&mut other.req_credits);
        self.resp_flits.append(&mut other.resp_flits);
        self.resp_credits.append(&mut other.resp_credits);
    }
}

/// One region's inbox in the overlapped runner: parity-buffered traffic
/// plus minimum-arrival stamps of *published but unintegrated* flits.
///
/// The stamp trackers rotate over three slots (epoch mod 3), not two:
/// the slot written during epoch `e` is read by *every* worker's
/// reduction at epoch `e + 1` and may only be recycled once all those
/// reads are behind a barrier — the consumer resets slot
/// `(e + 1) mod 3` during epoch `e`, which the end-of-`e − 1` and
/// end-of-`e` barriers separate from that slot's last readers and next
/// writers.
#[derive(Debug)]
struct Mailbox {
    bufs: ParityCell<MailBuf>,
    flit_min: [MinStamp; 3],
}

impl Mailbox {
    fn new() -> Mailbox {
        Mailbox {
            bufs: ParityCell::new(MailBuf::default(), MailBuf::default()),
            flit_min: [
                MinStamp::default(),
                MinStamp::default(),
                MinStamp::default(),
            ],
        }
    }
}

/// What a region publishes at the end of each epoch, read by every
/// worker's window reduction at the start of the next.
#[derive(Debug, Clone, Copy, Default)]
struct RegionPub {
    /// The region's frontier cycle.
    now: u64,
    /// Earliest cycle the region can act, `None` when drained.
    activity: Option<u64>,
    /// Drained: endpoints done, fabrics idle (checked after refill, so
    /// it also means the feeder appended nothing at this frontier).
    done: bool,
    /// Steps executed inside the closing epoch (occupancy accounting).
    busy: u64,
    /// The region feeder's exclusive release bound.
    bound: u64,
}

/// A [`Soc`] partitioned into regions for conservative parallel
/// execution. Construct with [`ShardedSoc::new`] (activity-weighted
/// default) or [`ShardedSoc::with_partition`]; drive it densely
/// ([`ShardedSoc::step`], serial, one-cycle epochs) or with the
/// overlapped runner ([`ShardedSoc::advance_overlapped`]). `Clone`
/// remains the snapshot primitive, exactly as for [`Soc`].
#[derive(Debug, Clone)]
pub struct ShardedSoc {
    regions: Vec<Soc>,
    planner: EpochPlanner,
    /// Request-fabric global link id → region whose inbox receives its
    /// flits / region owning its replica (credit destination).
    req_flit_to: Vec<Option<usize>>,
    req_credit_to: Vec<Option<usize>>,
    /// Response-fabric equivalents.
    resp_flit_to: Vec<Option<usize>>,
    resp_credit_to: Vec<Option<usize>>,
    /// Global initiator ordinal → (region, region-local ordinal).
    initiator_map: Vec<(usize, usize)>,
    route_bufs: RouteBufs,
    /// Epoch load-balance accounting, accumulated by the overlapped
    /// runner.
    occupancy: EpochOccupancy,
}

impl ShardedSoc {
    /// Partitions `soc` into at most `threads` regions (clamped to the
    /// switch count; at least one). Any step boundary is a valid split
    /// point — the regions resume bit-identically.
    ///
    /// When the SoC has already forwarded traffic (mid-run sharding,
    /// checkpoint warm starts) the cut is load-balanced on the warm
    /// per-switch activity counters; a cold SoC gets the uniform band
    /// cut. Pass an explicit [`Partition`] through
    /// [`ShardedSoc::with_partition`] to override either.
    pub fn new(soc: Soc, threads: usize) -> ShardedSoc {
        let warm = soc.switch_activity();
        let partition = if warm.iter().any(|&w| w > 0) {
            Partition::Balanced { weights: warm }
        } else {
            Partition::Band
        };
        Self::with_partition(soc, threads, &partition)
    }

    /// Partitions `soc` into at most `threads` regions cut by
    /// `partition`.
    ///
    /// # Panics
    ///
    /// Panics if the partition does not fit the topology and region
    /// count (see [`Partition::validate`]). Scenario-level callers
    /// validate first and surface a typed error instead.
    pub fn with_partition(soc: Soc, threads: usize, partition: &Partition) -> ShardedSoc {
        let n = soc.num_switches();
        let region_count = threads.clamp(1, n.max(1));
        if let Err(why) = partition.validate(n, region_count) {
            panic!("invalid partition: {why}");
        }
        let map = match partition {
            Partition::Band => band_partition(n, region_count),
            Partition::Balanced { weights } => balanced_band_partition(weights, region_count),
            Partition::Explicit { assignment } => assignment.clone(),
        };
        let SocSplit {
            regions,
            req_flit_to,
            req_credit_to,
            resp_flit_to,
            resp_credit_to,
            lookahead,
            initiator_map,
        } = soc.shard(&map, region_count);
        ShardedSoc {
            regions,
            // A single region (or a partition nothing crosses) has
            // unbounded lookahead; the planner only needs it non-zero.
            planner: EpochPlanner::new(lookahead.max(1)),
            req_flit_to,
            req_credit_to,
            resp_flit_to,
            resp_credit_to,
            initiator_map,
            route_bufs: RouteBufs::default(),
            occupancy: EpochOccupancy::default(),
        }
    }

    /// Number of regions (= worker threads of the overlapped runner).
    pub fn regions(&self) -> usize {
        self.regions.len()
    }

    /// The cross-region lookahead the epoch planner runs with.
    pub fn lookahead(&self) -> u64 {
        self.planner.lookahead()
    }

    /// The region that hosts the `ordinal`-th initiator (global
    /// declaration order) — feeder splitting uses this to route
    /// streamed workloads to their worker.
    pub fn initiator_region(&self, ordinal: usize) -> usize {
        self.initiator_map[ordinal].0
    }

    /// Epoch load-balance accounting accumulated so far by
    /// [`ShardedSoc::advance_overlapped`]. `epochs == 0` until the
    /// overlapped runner has completed an epoch.
    pub fn occupancy(&self) -> EpochOccupancy {
        self.occupancy
    }

    /// The frontier cycle: the furthest any region has advanced. After
    /// [`ShardedSoc::step`] or a completed conservative run every
    /// region sits here, and it equals the single-threaded `now`.
    pub fn now(&self) -> u64 {
        self.regions.iter().map(Soc::now).max().unwrap_or(0)
    }

    /// Returns `true` when every region drained: all endpoints done,
    /// all fabrics idle, nothing staged between regions. (Call sites
    /// inside the runners only consult this with outboxes routed.)
    pub fn is_done(&self) -> bool {
        self.regions.iter().all(Soc::is_done)
    }

    /// Sum of executed steps over regions (the pre-split count carries
    /// on region 0).
    pub fn executed_steps(&self) -> u64 {
        self.regions.iter().map(Soc::executed_steps).sum()
    }

    /// Sum of `next_activity` polls over regions.
    pub fn horizon_polls(&self) -> u64 {
        self.regions.iter().map(Soc::horizon_polls).sum()
    }

    /// Sum of calendar wakeups retired over regions.
    pub fn calendar_pops(&self) -> u64 {
        self.regions.iter().map(Soc::calendar_pops).sum()
    }

    /// Loads one program per initiator (global declaration order) into
    /// an unstarted system, routing each to its region.
    ///
    /// # Panics
    ///
    /// Panics if the system already stepped or the program count does
    /// not match the initiator count.
    pub fn load_programs(&mut self, programs: &[Program]) {
        assert_eq!(
            programs.len(),
            self.initiator_map.len(),
            "one program per initiator endpoint"
        );
        let mut per_region: Vec<Vec<Program>> = vec![Vec::new(); self.regions.len()];
        for (ordinal, program) in programs.iter().enumerate() {
            let (r, local) = self.initiator_map[ordinal];
            debug_assert_eq!(local, per_region[r].len());
            per_region[r].push(program.clone());
        }
        for (soc, programs) in self.regions.iter_mut().zip(&per_region) {
            soc.load_programs(programs);
        }
    }

    /// Appends commands to the `ordinal`-th initiator (global
    /// declaration order), mid-run; see [`Soc::append_commands`].
    pub fn append_commands(&mut self, ordinal: usize, tail: &[SocketCommand]) {
        let (r, local) = self.initiator_map[ordinal];
        self.regions[r].append_commands(local, tail);
    }

    /// Named completion logs of all initiators, in global declaration
    /// order — byte-identical to the monolithic [`Soc`]'s logs.
    pub fn completion_logs(&self) -> Vec<(&str, &CompletionLog)> {
        let per_region: Vec<_> = self.regions.iter().map(Soc::initiator_logs).collect();
        self.initiator_map
            .iter()
            .filter_map(|&(r, local)| per_region[r][local])
            .collect()
    }

    /// Builds the global report: masters in declaration order, fabric
    /// counters summed, and the mean-link-latency fold replayed in
    /// global link order so it is bit-identical to the monolithic fold.
    pub fn report(&self) -> SocReport {
        let mut per_region: Vec<Vec<Option<MasterReport>>> = self
            .regions
            .iter()
            .map(Soc::initiator_master_reports)
            .collect();
        let masters = self
            .initiator_map
            .iter()
            .filter_map(|&(r, local)| per_region[r][local].take())
            .collect();
        let mut fabric = FabricReport {
            request_flits: 0,
            response_flits: 0,
            flits_forwarded: 0,
            packets_forwarded: 0,
            credit_stalls: 0,
            arbitration_conflicts: 0,
            lock_idle_cycles: 0,
            mean_link_latency: 0.0,
        };
        for soc in &self.regions {
            fabric.request_flits += soc.request_fabric().delivered_flits();
            fabric.response_flits += soc.response_fabric().delivered_flits();
            let now = soc.now();
            for stats in [
                soc.request_fabric().stats(now),
                soc.response_fabric().stats(now),
            ] {
                fabric.flits_forwarded += stats.flits_forwarded;
                fabric.packets_forwarded += stats.packets_forwarded;
                fabric.credit_stalls += stats.credit_stalls;
                fabric.arbitration_conflicts += stats.arbitration_conflicts;
                fabric.lock_idle_cycles += stats.lock_idle_cycles;
            }
        }
        let request_mean = merged_mean_link_latency(self.regions.iter().map(Soc::request_fabric));
        let response_mean = merged_mean_link_latency(self.regions.iter().map(Soc::response_fabric));
        fabric.mean_link_latency = (request_mean + response_mean) / 2.0;
        SocReport {
            cycles: self.now(),
            all_done: self.is_done(),
            masters,
            fabric,
            occupancy: (self.occupancy.epochs > 0).then_some(self.occupancy),
        }
    }

    /// Routes everything staged in region outboxes into the destination
    /// regions' inboxes / pending-credit queues. Regions are drained in
    /// ascending index order, so integration order is deterministic
    /// (and commutative anyway: every message targets a distinct port
    /// or a monotone counter).
    fn route_cross(&mut self) {
        let mut bufs = std::mem::take(&mut self.route_bufs);
        for response in [false, true] {
            for r in 0..self.regions.len() {
                let fabric = fabric_mut(&mut self.regions[r], response);
                fabric.take_cross_output(&mut bufs.flits, &mut bufs.credits);
            }
            let flit_to = if response {
                &self.resp_flit_to
            } else {
                &self.req_flit_to
            };
            let credit_to = if response {
                &self.resp_credit_to
            } else {
                &self.req_credit_to
            };
            for (global, arrival, flit) in bufs.flits.drain(..) {
                let dst = flit_to[global as usize].expect("outbox flit from an intra-region link");
                fabric_mut(&mut self.regions[dst], response)
                    .integrate_cross_flit(global, arrival, flit);
            }
            for (global, due) in bufs.credits.drain(..) {
                let dst =
                    credit_to[global as usize].expect("outbox credit from an intra-region link");
                fabric_mut(&mut self.regions[dst], response).integrate_cross_credit(global, due);
            }
        }
        self.route_bufs = bufs;
    }

    /// Advances the whole system one base cycle — the dense-mode
    /// entry point: every region executes exactly this cycle (serially,
    /// in region order), then cross traffic is exchanged. Within a
    /// cycle regions are causally independent, so this is bit-identical
    /// to the monolithic [`Soc::step`].
    pub fn step(&mut self) {
        let next = self.now() + 1;
        for soc in &mut self.regions {
            soc.advance_exact(next);
        }
        self.route_cross();
    }

    /// The earliest cycle at which any *non-done* region can act. Done
    /// (parked) regions contribute nothing: their calendars may hold
    /// stale entries at frozen cycles, and anything that could wake
    /// them arrives as cross traffic, which re-opens the region via its
    /// inbox before this is consulted again.
    pub fn next_activity(&self) -> Option<u64> {
        let mut horizon = Horizon::new();
        for soc in &self.regions {
            if !soc.is_done() {
                horizon.merge(soc.next_activity());
            }
        }
        horizon.earliest()
    }

    /// Runs overlapped conservative epochs until the system drains or
    /// every region reaches `horizon` — the threaded entry point; see
    /// the module docs for the protocol. `feeders` supplies one
    /// [`RegionFeeder`] per region ([`RegionFeeder::refill`] receives
    /// *global* initiator ordinals; split streamed workloads with
    /// [`ShardedSoc::initiator_region`], or pass `vec![(); regions]`
    /// for program-driven runs).
    ///
    /// On return every region sits at the exact cycle a single-threaded
    /// run would have stopped at, with bit-identical state, and
    /// [`ShardedSoc::occupancy`] has accumulated the run's epoch
    /// load-balance counters.
    ///
    /// # Panics
    ///
    /// Panics if `feeders.len() != self.regions()`.
    pub fn advance_overlapped<F: RegionFeeder>(&mut self, horizon: u64, feeders: &mut [F]) {
        assert_eq!(
            feeders.len(),
            self.regions.len(),
            "one feeder per region (use `()` for program-driven regions)"
        );
        // Anything staged by a previous dense run is integrated
        // up front, so the workers start from clean outboxes.
        self.route_cross();
        let region_count = self.regions.len();
        let planner = &self.planner;
        let initiator_map = &self.initiator_map;
        let req_flit_to = &self.req_flit_to;
        let req_credit_to = &self.req_credit_to;
        let resp_flit_to = &self.resp_flit_to;
        let resp_credit_to = &self.resp_credit_to;
        let mail: Vec<Mailbox> = (0..region_count).map(|_| Mailbox::new()).collect();
        let pubs: Vec<ParityCell<RegionPub>> = (0..region_count)
            .map(|_| ParityCell::new(RegionPub::default(), RegionPub::default()))
            .collect();
        let barrier = SpinBarrier::new(region_count);
        let run = |r: usize, soc: &mut Soc, feeder: &mut F| -> (EpochOccupancy, u64) {
            let mut occ = EpochOccupancy::default();
            let mut stage: Vec<MailBuf> = (0..region_count).map(|_| MailBuf::default()).collect();
            let mut flits: Vec<(u32, u64, Flit)> = Vec::new();
            let mut credits: Vec<(u32, u64)> = Vec::new();
            // Prime: refill at the current frontier, then publish the
            // initial snapshot where epoch 0's reduction will look.
            refill_region(soc, feeder, r, initiator_map);
            *pubs[r].lock(1) = RegionPub {
                now: soc.now(),
                activity: if soc.is_done() {
                    None
                } else {
                    soc.next_activity()
                },
                done: soc.is_done(),
                busy: 0,
                bound: feeder.bound(),
            };
            barrier.wait();
            let mut epoch: u64 = 0;
            loop {
                let parity = (epoch & 1) as usize;
                let prev = parity ^ 1;
                // Step 1: the redundant window reduction. Every worker
                // folds the identical published records (stable since
                // the last barrier) into the identical decision.
                let mut all_done = true;
                let mut all_capped = true;
                let mut max_now = 0u64;
                let mut max_busy = 0u64;
                let mut total_busy = 0u64;
                let mut bound = u64::MAX;
                let mut global = Horizon::new();
                for cell in pubs.iter() {
                    let p = *cell.lock(prev);
                    all_done &= p.done;
                    all_capped &= p.done || p.now >= horizon;
                    max_now = max_now.max(p.now);
                    if !p.done {
                        global.merge(p.activity);
                    }
                    max_busy = max_busy.max(p.busy);
                    total_busy += p.busy;
                    bound = bound.min(p.bound);
                }
                // Published-but-unintegrated traffic bounds the window
                // too — a region that drained after sending must not
                // let the window overshoot its staged arrivals.
                let staged_slot = ((epoch + 2) % 3) as usize;
                let mut flit_min = u64::MAX;
                for m in mail.iter() {
                    flit_min = flit_min.min(m.flit_min[staged_slot].get());
                }
                all_done &= flit_min == u64::MAX;
                all_capped &= flit_min >= horizon;
                if flit_min != u64::MAX {
                    global.merge(Some(flit_min));
                }
                if total_busy > 0 {
                    occ.max_busy += max_busy;
                    occ.total_busy += total_busy;
                    occ.epochs += 1;
                }
                // Step 2a: integrate last epoch's residual mail and
                // recycle the stamp slot next epoch's senders write
                // (its last readers are behind the previous barrier).
                integrate_mail(soc, &mut mail[r].bufs.lock(prev));
                mail[r].flit_min[((epoch + 1) % 3) as usize].reset();
                if all_done || all_capped {
                    // Fix-up: park every region at the exact cycle a
                    // single-threaded run stops at. Nothing new can be
                    // sent here (regions are drained or already at the
                    // horizon), so no mail is staged past this point.
                    let finish = if all_done { max_now } else { horizon };
                    soc.advance_exact(finish);
                    barrier.wait();
                    return (occ, finish);
                }
                let window = planner.window(global.earliest(), [horizon, bound]);
                // Step 2b: the epoch's real work, fully parallel.
                let before = soc.executed_steps();
                soc.advance_to(window);
                let busy = soc.executed_steps() - before;
                // Step 2c: publish cross traffic on send — stage into
                // the destinations' parity mailboxes immediately, one
                // lock per destination, recording minimum arrival
                // stamps for the next reduction.
                for response in [false, true] {
                    fabric_mut(soc, response).take_cross_output(&mut flits, &mut credits);
                    let (flit_to, credit_to) = if response {
                        (resp_flit_to, resp_credit_to)
                    } else {
                        (req_flit_to, req_credit_to)
                    };
                    for (global, arrival, flit) in flits.drain(..) {
                        let dst = flit_to[global as usize]
                            .expect("outbox flit from an intra-region link");
                        if response {
                            stage[dst].resp_flits.push((global, arrival, flit));
                        } else {
                            stage[dst].req_flits.push((global, arrival, flit));
                        }
                    }
                    for (global, due) in credits.drain(..) {
                        let dst = credit_to[global as usize]
                            .expect("outbox credit from an intra-region link");
                        if response {
                            stage[dst].resp_credits.push((global, due));
                        } else {
                            stage[dst].req_credits.push((global, due));
                        }
                    }
                }
                let stamp_slot = (epoch % 3) as usize;
                for (dst, local) in stage.iter_mut().enumerate() {
                    if local.is_empty() {
                        continue;
                    }
                    let min_arrival = local.min_flit_arrival();
                    mail[dst].bufs.lock(parity).append(local);
                    if min_arrival != u64::MAX {
                        mail[dst].flit_min[stamp_slot].record(min_arrival);
                    }
                }
                // Step 2b': refill the feeder at the new frontier so
                // the published bound covers the next epoch (serial
                // runners refilled under the barrier; here each region
                // refills its own workloads in parallel).
                refill_region(soc, feeder, r, initiator_map);
                // Step 2d: publish this region's state for the next
                // reduction.
                *pubs[r].lock(parity) = RegionPub {
                    now: soc.now(),
                    activity: if soc.is_done() {
                        None
                    } else {
                        soc.next_activity()
                    },
                    done: soc.is_done(),
                    busy,
                    bound: feeder.bound(),
                };
                // Step 2e: opportunistically integrate whatever other
                // regions have already published for us this epoch —
                // off the barrier's critical path; stragglers are
                // picked up at the next step 2a. The stamp tracker is
                // deliberately left set: the next reduction still needs
                // it.
                integrate_mail(soc, &mut mail[r].bufs.lock(parity));
                barrier.wait();
                epoch += 1;
            }
        };
        let (occ, finish) = std::thread::scope(|scope| {
            let mut pairs = self.regions.iter_mut().zip(feeders.iter_mut());
            let (soc0, feeder0) = pairs.next().expect("at least one region");
            let handles: Vec<_> = pairs
                .enumerate()
                .map(|(i, (soc, feeder))| {
                    let run = &run;
                    scope.spawn(move || run(i + 1, soc, feeder))
                })
                .collect();
            let first = run(0, soc0, feeder0);
            for handle in handles {
                handle.join().expect("epoch worker panicked");
            }
            first
        });
        self.occupancy.max_busy += occ.max_busy;
        self.occupancy.total_busy += occ.total_busy;
        self.occupancy.epochs += occ.epochs;
        debug_assert!(self.regions.iter().all(|s| s.now() == finish));
        // Workers drained every mailbox and staged nothing after the
        // fix-up; this is a no-op that re-asserts the invariant cheaply
        // and keeps the outbox-clean contract for whatever runs next.
        self.route_cross();
    }
}

/// One per-region refill round: pull everything the feeder releases
/// below its look-ahead window into this region's initiators.
fn refill_region<F: RegionFeeder>(
    soc: &mut Soc,
    feeder: &mut F,
    r: usize,
    initiator_map: &[(usize, usize)],
) {
    let frontier = soc.now();
    feeder.refill(frontier, &mut |ordinal, tail| {
        let (region, local) = initiator_map[ordinal];
        debug_assert_eq!(region, r, "feeder command routed to a foreign region");
        let _ = region;
        soc.append_commands(local, tail);
    });
}

/// Integrates one mailbox buffer into a region, draining it. Flits go
/// to inbox slots keyed by their absolute arrival cycle, credits to the
/// pending-due queues; both are commutative across links (each link is
/// a distinct port / monotone counter), so integration order between
/// regions is unobservable.
fn integrate_mail(soc: &mut Soc, buf: &mut MailBuf) {
    for (global, arrival, flit) in buf.req_flits.drain(..) {
        soc.request_fabric_mut()
            .integrate_cross_flit(global, arrival, flit);
    }
    for (global, due) in buf.req_credits.drain(..) {
        soc.request_fabric_mut().integrate_cross_credit(global, due);
    }
    for (global, arrival, flit) in buf.resp_flits.drain(..) {
        soc.response_fabric_mut()
            .integrate_cross_flit(global, arrival, flit);
    }
    for (global, due) in buf.resp_credits.drain(..) {
        soc.response_fabric_mut()
            .integrate_cross_credit(global, due);
    }
}

fn fabric_mut(soc: &mut Soc, response: bool) -> &mut Fabric {
    if response {
        soc.response_fabric_mut()
    } else {
        soc.request_fabric_mut()
    }
}

/// Replays [`Fabric::mean_link_latency`]'s fold over the merged
/// per-region latency entries in global link order — the same values in
/// the same order as the monolithic fabric would fold them.
fn merged_mean_link_latency<'a>(fabrics: impl Iterator<Item = &'a Fabric>) -> f64 {
    let mut entries: Vec<(u32, u64, f64)> = Vec::new();
    for f in fabrics {
        f.link_latency_entries(&mut entries);
    }
    entries.sort_unstable_by_key(|&(global, _, _)| global);
    let (mut sum, mut n) = (0.0, 0u64);
    for &(_, delivered, mean) in &entries {
        sum += mean * delivered as f64;
        n += delivered;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_partition_is_contiguous_and_covers() {
        let map = band_partition(16, 4);
        assert_eq!(map.len(), 16);
        assert_eq!(map[0], 0);
        assert_eq!(map[15], 3);
        assert!(map.windows(2).all(|w| w[1] == w[0] || w[1] == w[0] + 1));
    }

    #[test]
    fn balanced_partition_spreads_uniform_load() {
        // Six unit weights over four regions: the cap is 2, and the
        // forced-close rule keeps the two trailing regions non-empty.
        assert_eq!(balanced_band_partition(&[1; 6], 4), vec![0, 0, 1, 1, 2, 3]);
    }

    #[test]
    fn balanced_partition_isolates_heavy_prefix() {
        // One hot switch dominates: it gets a band of its own and the
        // cool tail is spread over the rest.
        assert_eq!(balanced_band_partition(&[10, 1, 1, 1], 3), vec![0, 1, 1, 2]);
    }

    #[test]
    fn balanced_partition_degenerate_inputs() {
        assert_eq!(balanced_band_partition(&[], 4), Vec::<usize>::new());
        assert_eq!(balanced_band_partition(&[5, 5], 1), vec![0, 0]);
        // All-zero weights still yield a full contiguous cover.
        let map = balanced_band_partition(&[0; 5], 3);
        assert_eq!(map.len(), 5);
        assert_eq!(*map.last().unwrap(), 2);
        assert!(map.windows(2).all(|w| w[1] == w[0] || w[1] == w[0] + 1));
    }

    #[test]
    fn explicit_partition_validates_shape() {
        let ok = Partition::Explicit {
            assignment: vec![0, 0, 1, 1, 2],
        };
        assert_eq!(ok.validate(5, 3), Ok(()));

        let short = Partition::Explicit {
            assignment: vec![0, 1],
        };
        assert!(short
            .validate(5, 3)
            .unwrap_err()
            .contains("lists 2 switches, topology has 5"));

        let out_of_range = Partition::Explicit {
            assignment: vec![0, 0, 1, 1, 7],
        };
        assert!(out_of_range
            .validate(5, 3)
            .unwrap_err()
            .contains("switch 4 assigned to region 7"));

        let wrong_start = Partition::Explicit {
            assignment: vec![1, 1, 2, 2, 0],
        };
        assert!(wrong_start
            .validate(5, 3)
            .unwrap_err()
            .contains("start at region 0"));

        let non_contiguous = Partition::Explicit {
            assignment: vec![0, 1, 0, 1, 2],
        };
        assert!(non_contiguous
            .validate(5, 3)
            .unwrap_err()
            .contains("contiguous non-decreasing"));

        let skips_a_region = Partition::Explicit {
            assignment: vec![0, 0, 0, 1, 1],
        };
        assert!(skips_a_region
            .validate(5, 3)
            .unwrap_err()
            .contains("uses 2 regions, but the run has 3"));
    }

    #[test]
    fn balanced_partition_validates_weight_count() {
        let p = Partition::Balanced {
            weights: vec![1, 2, 3],
        };
        assert!(p
            .validate(5, 2)
            .unwrap_err()
            .contains("lists 3 switch weights, topology has 5"));
        assert_eq!(p.validate(3, 2), Ok(()));
        assert_eq!(Partition::Band.validate(99, 7), Ok(()));
    }
}
