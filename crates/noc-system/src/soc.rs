//! The assembled SoC and its builder.

use crate::fabric::Fabric;
use crate::report::{FabricReport, MasterReport, SocReport};
use noc_kernel::{Calendar, ClockDomain, ClockId, ClockSet, WakeId};
use noc_niu::NocEndpoint;
use noc_physical::LinkConfig;
use noc_stats::Histogram;
use noc_topology::{RouteAlgorithm, Topology, TopologyError};
use noc_transport::SwitchMode;
use std::cell::Cell;
use std::fmt;

/// Transport + physical configuration of a NoC instance — everything the
/// paper says can change without the transaction layer noticing.
#[derive(Debug, Clone, Copy)]
pub struct NocConfig {
    /// Switching discipline.
    pub mode: SwitchMode,
    /// Switch input buffer depth in flits.
    pub buffer_depth: usize,
    /// Physical link configuration of the switch-to-switch link class
    /// (and, unless overridden, of the endpoint links too).
    pub link: LinkConfig,
    /// Physical link configuration of the endpoint (injection/ejection)
    /// link class; `None` uses [`NocConfig::link`]. Divisors are still
    /// derived per endpoint from its clock declaration.
    pub endpoint_link: Option<LinkConfig>,
    /// Routing algorithm.
    pub routing: RouteAlgorithm,
}

impl NocConfig {
    /// Wormhole switching, 8-flit buffers, full-width synchronous links,
    /// shortest-path routing.
    pub fn new() -> Self {
        NocConfig {
            mode: SwitchMode::Wormhole,
            buffer_depth: 8,
            link: LinkConfig::new(),
            endpoint_link: None,
            routing: RouteAlgorithm::ShortestPath,
        }
    }

    /// Sets the switching mode.
    #[must_use]
    pub fn with_mode(mut self, mode: SwitchMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the buffer depth.
    #[must_use]
    pub fn with_buffer_depth(mut self, depth: usize) -> Self {
        self.buffer_depth = depth;
        self
    }

    /// Sets the link configuration (both classes, unless an endpoint
    /// class override is also set).
    #[must_use]
    pub fn with_link(mut self, link: LinkConfig) -> Self {
        self.link = link;
        self
    }

    /// Overrides the endpoint (injection/ejection) link class, leaving
    /// switch-to-switch links on [`NocConfig::link`].
    #[must_use]
    pub fn with_endpoint_link(mut self, link: LinkConfig) -> Self {
        self.endpoint_link = Some(link);
        self
    }

    /// Sets the routing algorithm.
    #[must_use]
    pub fn with_routing(mut self, routing: RouteAlgorithm) -> Self {
        self.routing = routing;
        self
    }
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig::new()
    }
}

/// Errors assembling a SoC.
#[derive(Debug)]
pub enum BuildError {
    /// Topology/routing failure.
    Topology(TopologyError),
    /// An endpoint references a node the topology does not attach.
    UnknownNode {
        /// The missing node number.
        node: u16,
    },
    /// Two endpoints claim the same node.
    DuplicateNode {
        /// The contested node number.
        node: u16,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Topology(e) => write!(f, "topology error: {e}"),
            BuildError::UnknownNode { node } => {
                write!(f, "endpoint node {node} is not attached in the topology")
            }
            BuildError::DuplicateNode { node } => {
                write!(f, "node {node} claimed by two endpoints")
            }
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::Topology(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TopologyError> for BuildError {
    fn from(e: TopologyError) -> Self {
        BuildError::Topology(e)
    }
}

#[derive(Clone)]
struct Endpoint {
    name: String,
    node: u16,
    is_initiator: bool,
    clock_divisor: u64,
    inner: Box<dyn NocEndpoint>,
}

/// Builds a [`Soc`] from a topology, a NoC configuration and endpoints.
///
/// See the crate-level example.
pub struct SocBuilder {
    topology: Topology,
    config: NocConfig,
    endpoints: Vec<Endpoint>,
}

impl SocBuilder {
    /// Starts building over `topology` with `config`.
    pub fn new(topology: Topology, config: NocConfig) -> Self {
        SocBuilder {
            topology,
            config,
            endpoints: Vec::new(),
        }
    }

    /// Attaches an initiator NIU at `node` (base clock).
    #[must_use]
    pub fn initiator(self, name: &str, node: u16, endpoint: Box<dyn NocEndpoint>) -> Self {
        self.initiator_clocked(name, node, endpoint, 1)
    }

    /// Attaches an initiator NIU at `node` on a divided clock.
    #[must_use]
    pub fn initiator_clocked(
        mut self,
        name: &str,
        node: u16,
        mut endpoint: Box<dyn NocEndpoint>,
        clock_divisor: u64,
    ) -> Self {
        endpoint.set_clock(ClockDomain::new(clock_divisor));
        self.endpoints.push(Endpoint {
            name: name.to_owned(),
            node,
            is_initiator: true,
            clock_divisor,
            inner: endpoint,
        });
        self
    }

    /// Attaches a target NIU at `node` (base clock).
    #[must_use]
    pub fn target(self, name: &str, node: u16, endpoint: Box<dyn NocEndpoint>) -> Self {
        self.target_clocked(name, node, endpoint, 1)
    }

    /// Attaches a target NIU at `node` on a divided clock.
    #[must_use]
    pub fn target_clocked(
        mut self,
        name: &str,
        node: u16,
        mut endpoint: Box<dyn NocEndpoint>,
        clock_divisor: u64,
    ) -> Self {
        endpoint.set_clock(ClockDomain::new(clock_divisor));
        self.endpoints.push(Endpoint {
            name: name.to_owned(),
            node,
            is_initiator: false,
            clock_divisor,
            inner: endpoint,
        });
        self
    }

    /// Assembles the SoC: two fabrics (request + response) over the
    /// topology, endpoints verified against attachments.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] for unknown/duplicate nodes or routing
    /// failures.
    pub fn build(self) -> Result<Soc, BuildError> {
        // Node-indexed lookups keep the checks and the per-attachment
        // clock query linear in the endpoint count.
        let attachments = self.topology.attachments();
        let node_slots = attachments
            .iter()
            .map(|a| a.node as usize + 1)
            .max()
            .unwrap_or(0);
        let mut attached = vec![false; node_slots];
        for a in attachments {
            attached[a.node as usize] = true;
        }
        let mut seen = vec![false; node_slots];
        let mut divisor = vec![1; node_slots];
        for ep in &self.endpoints {
            let node = ep.node as usize;
            if !attached.get(node).copied().unwrap_or(false) {
                return Err(BuildError::UnknownNode { node: ep.node });
            }
            if seen[node] {
                return Err(BuildError::DuplicateNode { node: ep.node });
            }
            seen[node] = true;
            divisor[node] = ep.clock_divisor;
        }
        let clock_of = |node: u16| -> u64 { divisor[node as usize] };
        // One routing pass serves both directions: the request and
        // response fabrics share the topology, hence the tables.
        let tables = self.topology.compute_routes(self.config.routing)?;
        let endpoint_link = self.config.endpoint_link.unwrap_or(self.config.link);
        let fabric = || {
            Fabric::new(
                &self.topology,
                self.config.mode,
                self.config.buffer_depth,
                self.config.link,
                endpoint_link,
                &tables,
                &clock_of,
            )
        };
        let (request, response) = (fabric(), fabric());
        let mut clocks = ClockSet::new();
        let clock_ids: Vec<ClockId> = self
            .endpoints
            .iter()
            .map(|e| clocks.register(ClockDomain::new(e.clock_divisor)))
            .collect();
        let num_nodes = self
            .endpoints
            .iter()
            .map(|e| e.node as usize + 1)
            .max()
            .unwrap_or(0);
        let mut node_ep = vec![None; num_nodes];
        let mut ep_cal = Calendar::new();
        let mut ep_wake = Vec::with_capacity(self.endpoints.len());
        for (i, ep) in self.endpoints.iter().enumerate() {
            node_ep[ep.node as usize] = Some(i);
            ep_wake.push(ep_cal.register());
        }
        let num_endpoints = self.endpoints.len();
        let mut soc = Soc {
            endpoints: self.endpoints,
            clock_ids,
            clocks,
            request,
            response,
            node_ep,
            ep_cal,
            ep_wake,
            polls: Cell::new(0),
            done: vec![false; num_endpoints],
            not_done: num_endpoints,
            now: 0,
            steps: 0,
            touched_scratch: Vec::new(),
            eject_scratch: Vec::new(),
        };
        // Prime the calendar and done cache: every endpoint registers
        // its initial horizon (most are quiescent until programs are
        // loaded).
        for i in 0..soc.endpoints.len() {
            soc.refresh_endpoint(i);
        }
        Ok(soc)
    }
}

/// A running SoC: endpoints plus request/response fabrics.
///
/// `Clone` is the snapshot/restore primitive: a clone is a full, bit-
/// identical checkpoint of the system — continuing either copy replays
/// exactly the cycles the original would have executed.
#[derive(Clone)]
pub struct Soc {
    endpoints: Vec<Endpoint>,
    /// Per-endpoint clock domain, index-aligned with `endpoints`.
    clock_ids: Vec<ClockId>,
    clocks: ClockSet,
    request: Fabric,
    response: Fabric,
    /// Node number → index into `endpoints` (nodes are unique).
    node_ep: Vec<Option<usize>>,
    /// Wakeup calendar over endpoints; `ep_wake[i]` is endpoint `i`'s
    /// handle. Each endpoint re-registers whenever its horizon can have
    /// changed: after any cycle it was clocked on, and whenever a flit
    /// is pushed into it (the response/request arrival that can move
    /// its horizon *earlier*).
    ep_cal: Calendar,
    ep_wake: Vec<WakeId>,
    /// `next_activity` invocations — the scan-side observability
    /// counter (`Cell`: the query is `&self` but must still count).
    polls: Cell<u64>,
    /// Cached [`NocEndpoint::is_done`] per endpoint plus the count of
    /// endpoints still working, refreshed by the same invalidation
    /// discipline as the calendar: done-ness can only flip when an
    /// endpoint's state actually changes (its wakeup fired, a flit was
    /// pulled from it or pushed into it, a program was loaded) — ticks
    /// inside a proven-dead region are no-ops by construction.
    done: Vec<bool>,
    not_done: usize,
    now: u64,
    /// Base cycles actually executed (skipped cycles excluded).
    steps: u64,
    /// Step-loop scratch buffers (touched endpoints, ejected flits),
    /// reused so the hot path allocates nothing.
    touched_scratch: Vec<usize>,
    eject_scratch: Vec<(u16, noc_transport::Flit)>,
}

impl Soc {
    /// Current base cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Base cycles actually stepped, excluding the cycles horizon
    /// stepping jumped over — dense runs execute exactly [`Soc::now`]
    /// steps, so the dense/horizon ratio measures the skip win.
    pub fn executed_steps(&self) -> u64 {
        self.steps
    }

    /// Advances the whole system one base cycle.
    pub fn step(&mut self) {
        let now = self.now;
        self.steps += 1;
        // 0. Credit returns whose registered delay has elapsed become
        //    visible before anything reads a credit counter this cycle
        //    (endpoint injection checks below, switch sends inside the
        //    fabric ticks).
        self.request.apply_due_credits(now);
        self.response.apply_due_credits(now);
        // Retire due endpoint wakeups. Everything that can move an
        // endpoint's horizon (or done-ness) this cycle lands in
        // `touched`: its wakeup firing, a flit pulled from it, a flit
        // pushed into it. Clocked ticks *before* a pending wakeup are
        // provably no-ops — the same invariance that lets
        // [`Soc::advance_to`] jump them — so merely being clocked does
        // not require re-registration.
        let mut touched = std::mem::take(&mut self.touched_scratch);
        touched.clear();
        self.ep_cal.pop_due(now, |id| touched.push(id.index()));
        // 1. Endpoint compute on their clock edges, then injection:
        //    initiators feed the request network, targets the response
        //    network (one flit per endpoint per local cycle). Endpoints
        //    only interact through the fabrics — an endpoint's tick
        //    reads no fabric state and each node injects on its own
        //    link — so folding injection into the tick pass reorders
        //    nothing observable versus two full passes.
        for (i, ep) in self.endpoints.iter_mut().enumerate() {
            if !self.clocks.is_active(self.clock_ids[i], now) {
                continue;
            }
            ep.inner.tick(now);
            let fabric = if ep.is_initiator {
                &mut self.request
            } else {
                &mut self.response
            };
            if fabric.can_inject(ep.node, now) {
                if let Some(flit) = ep.inner.pull_flit() {
                    fabric.inject(ep.node, flit, now);
                    touched.push(i);
                }
            }
        }
        // 2. Fabric cycles; ejections are delivered immediately. A
        //    pushed flit can move the receiving endpoint's horizon
        //    *earlier*, so those endpoints must re-register even when
        //    they were not clocked this cycle.
        let mut eject = std::mem::take(&mut self.eject_scratch);
        eject.clear();
        self.request.tick(now, &mut eject);
        for (node, flit) in eject.drain(..) {
            let i = self.node_ep[node as usize].expect("request network ejects at targets");
            debug_assert!(!self.endpoints[i].is_initiator);
            self.endpoints[i].inner.push_flit(flit);
            touched.push(i);
        }
        self.response.tick(now, &mut eject);
        for (node, flit) in eject.drain(..) {
            let i = self.node_ep[node as usize].expect("response network ejects at initiators");
            debug_assert!(self.endpoints[i].is_initiator);
            self.endpoints[i].inner.push_flit(flit);
            touched.push(i);
        }
        self.eject_scratch = eject;
        self.now += 1;
        // 3. Invalidation discipline: every touched endpoint
        //    re-registers its wakeup and refreshes its done cache.
        //    Duplicates are harmless (unchanged horizons are calendar
        //    no-ops).
        for &i in &touched {
            self.refresh_endpoint(i);
        }
        self.touched_scratch = touched;
    }

    /// The endpoint's current horizon contribution: the first clock
    /// edge at or after both `now` and its [`NocEndpoint::wake_at`]
    /// cycle. The wake cycle is absolute, so a scheduled wakeup stays
    /// valid however far [`Soc::advance_to`] jumps.
    fn endpoint_wake_at(&self, i: usize) -> Option<u64> {
        let domain = self.clocks.domain(self.clock_ids[i]);
        self.endpoints[i]
            .inner
            .wake_at()
            .map(|t| domain.next_active(t.max(self.now)))
    }

    /// Re-registers endpoint `i`'s wakeup and refreshes its cached
    /// done-ness — the invalidation hook called for every endpoint
    /// whose state changed this cycle.
    fn refresh_endpoint(&mut self, i: usize) {
        let at = self.endpoint_wake_at(i);
        self.ep_cal.set(self.ep_wake[i], at);
        let done = self.endpoints[i].inner.is_done();
        if done != self.done[i] {
            self.done[i] = done;
            if done {
                self.not_done -= 1;
            } else {
                self.not_done += 1;
            }
        }
    }

    /// Returns `true` when every endpoint is done and both fabrics idle.
    /// O(1): endpoint done-ness is cached (see the `done` field) and
    /// the fabrics count their active components.
    pub fn is_done(&self) -> bool {
        self.not_done == 0 && self.request.is_idle() && self.response.is_idle()
    }

    /// The earliest base cycle at which the system's state can possibly
    /// change, or `None` when no component will ever act again absent
    /// external input.
    ///
    /// This no longer scans components: each fabric answers in O(1)
    /// (busy/stash sets pin it to `now`; otherwise its link calendar's
    /// earliest scheduled arrival), and the endpoints' contribution is
    /// the earliest wakeup they scheduled into the endpoint calendar
    /// ([`Soc::step`] re-registers every endpoint whose horizon can
    /// have moved). A calendar minimum may be stale — a component
    /// rescheduled *later* and the old entry has not been retired — but
    /// stale means early, and an early wakeup merely executes a step a
    /// dense run executes anyway, so logs stay bit-identical.
    pub fn next_activity(&self) -> Option<u64> {
        self.polls.set(self.polls.get() + 1);
        let mut horizon = noc_kernel::Horizon::new();
        horizon.merge(self.request.next_event_at(self.now));
        horizon.merge(self.response.next_event_at(self.now));
        horizon.merge(self.ep_cal.peek());
        horizon.earliest_from(self.now)
    }

    /// Times [`Soc::next_activity`] was called — the poll-side
    /// observability counter. With calendar stepping each poll is O(1);
    /// the companion [`Soc::calendar_pops`] counts the wakeups that
    /// drove those answers.
    pub fn horizon_polls(&self) -> u64 {
        self.polls.get()
    }

    /// Total calendar wakeups retired across the endpoint calendar and
    /// both fabrics' link calendars.
    pub fn calendar_pops(&self) -> u64 {
        self.ep_cal.pops() + self.request.calendar_pops() + self.response.calendar_pops()
    }

    /// Advances until done or `horizon`, jumping over quiescent gaps and
    /// stepping densely through active stretches. Bit-identical to
    /// stepping every cycle: every component keeps absolute deadlines,
    /// so a jump across cycles [`Soc::next_activity`] proved dead is
    /// just a new `now`.
    pub fn advance_to(&mut self, horizon: u64) {
        while self.now < horizon && !self.is_done() {
            match self.next_activity() {
                Some(t) if t > self.now => self.now = t.min(horizon),
                Some(_) => self.step(),
                // Nothing will ever happen again (deadlock with every
                // component quiescent): dense stepping would burn no-op
                // cycles to the horizon; jump there in one hop.
                None => self.now = horizon,
            }
        }
    }

    /// Advances to *exactly* `target`, continuing past global done-ness
    /// (which [`Soc::advance_to`] stops at). Used by the sharded runner:
    /// a region that finished early is parked at its local done cycle,
    /// and the final fix-up brings every region to the same cycle with
    /// accounting bit-identical to a single-threaded run — any cycle
    /// executed or skipped here is provably dead, so stepping and
    /// skipping through it are equivalent by the same invariant that
    /// makes horizon stepping exact.
    pub(crate) fn advance_exact(&mut self, target: u64) {
        while self.now < target {
            self.advance_to(target);
            if self.now >= target {
                break;
            }
            // Done before `target`: burn through the dead tail. Stale
            // calendar entries may force spurious (dense-identical)
            // steps; everything else is jumped.
            match self.next_activity() {
                Some(t) if t > self.now => self.now = t.min(target),
                Some(_) => self.step(),
                None => self.now = target,
            }
        }
    }

    /// Runs until done or `max_cycles` (horizon stepping), then reports.
    pub fn run(&mut self, max_cycles: u64) -> SocReport {
        self.advance_to(max_cycles);
        self.report()
    }

    /// Loads one socket program per initiator endpoint (build order)
    /// into a system that has not started executing. Scenario builds
    /// load every workload, explicit or streamed, through this hook,
    /// and warm-state forks inject a point's real workload into a
    /// clone of a checkpointed programless SoC.
    ///
    /// # Panics
    ///
    /// Panics if the system already stepped, or if the program count
    /// does not match the initiator count.
    pub fn load_programs(&mut self, programs: Vec<Box<dyn noc_protocols::CommandSource>>) {
        assert!(
            self.now == 0 && self.steps == 0,
            "programs can only be loaded before execution starts"
        );
        let mut programs = programs.into_iter();
        for ep in self.endpoints.iter_mut().filter(|e| e.is_initiator) {
            let program = programs.next().expect("one program per initiator endpoint");
            ep.inner.load_program(program);
        }
        assert!(
            programs.next().is_none(),
            "more programs than initiator endpoints"
        );
        // Loading a program moves initiator horizons from "quiescent"
        // to their first command's cycle — re-register everyone.
        for i in 0..self.endpoints.len() {
            self.refresh_endpoint(i);
        }
    }

    /// Named completion logs of all initiator endpoints (build order).
    pub fn completion_logs(&self) -> Vec<(&str, &noc_protocols::CompletionLog)> {
        self.endpoints
            .iter()
            .filter(|e| e.is_initiator)
            .filter_map(|e| e.inner.completion_log().map(|l| (e.name.as_str(), l)))
            .collect()
    }

    /// Per-initiator completion logs in build order, `None` where an
    /// initiator exposes no log — the ordinal-aligned form the sharded
    /// assembly needs ([`Soc::completion_logs`] filters the `None`s).
    pub(crate) fn initiator_logs(&self) -> Vec<Option<(&str, &noc_protocols::CompletionLog)>> {
        self.endpoints
            .iter()
            .filter(|e| e.is_initiator)
            .map(|e| e.inner.completion_log().map(|l| (e.name.as_str(), l)))
            .collect()
    }

    /// Per-initiator master reports in build order, ordinal-aligned like
    /// [`Soc::initiator_logs`].
    pub(crate) fn initiator_master_reports(&self) -> Vec<Option<MasterReport>> {
        self.endpoints
            .iter()
            .filter(|e| e.is_initiator)
            .map(|ep| {
                ep.inner.completion_log().map(|log| {
                    let mut latency = Histogram::new();
                    for r in log.records() {
                        latency.record(r.latency());
                    }
                    MasterReport {
                        name: ep.name.clone(),
                        node: ep.node,
                        completions: log.len(),
                        errors: log.errors(),
                        mean_latency: log.mean_latency(),
                        latency,
                        fingerprint: log.fingerprint(),
                    }
                })
            })
            .collect()
    }

    /// Builds a report from the current state.
    pub fn report(&self) -> SocReport {
        let masters: Vec<MasterReport> = self
            .initiator_master_reports()
            .into_iter()
            .flatten()
            .collect();
        let req = self.request.stats(self.now);
        let resp = self.response.stats(self.now);
        SocReport {
            cycles: self.now,
            all_done: self.is_done(),
            masters,
            fabric: FabricReport {
                request_flits: self.request.delivered_flits(),
                response_flits: self.response.delivered_flits(),
                flits_forwarded: req.flits_forwarded + resp.flits_forwarded,
                packets_forwarded: req.packets_forwarded + resp.packets_forwarded,
                credit_stalls: req.credit_stalls + resp.credit_stalls,
                arbitration_conflicts: req.arbitration_conflicts + resp.arbitration_conflicts,
                lock_idle_cycles: req.lock_idle_cycles + resp.lock_idle_cycles,
                mean_link_latency: (self.request.mean_link_latency()
                    + self.response.mean_link_latency())
                    / 2.0,
            },
            occupancy: None,
        }
    }

    /// Number of switches per fabric (the request and response fabrics
    /// share the topology).
    pub fn num_switches(&self) -> usize {
        self.request.num_switches()
    }

    /// Per-switch forwarded-flit totals over both fabrics — the warm
    /// activity profile the balanced partitioner prefers over static
    /// estimates when the system has already run.
    pub fn switch_activity(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.num_switches()];
        self.request.accumulate_switch_activity(&mut out);
        self.response.accumulate_switch_activity(&mut out);
        out
    }

    pub(crate) fn request_fabric(&self) -> &Fabric {
        &self.request
    }

    pub(crate) fn response_fabric(&self) -> &Fabric {
        &self.response
    }

    pub(crate) fn request_fabric_mut(&mut self) -> &mut Fabric {
        &mut self.request
    }

    pub(crate) fn response_fabric_mut(&mut self) -> &mut Fabric {
        &mut self.response
    }

    /// Partitions the SoC into per-region SoCs along `region_of_switch`
    /// (see [`Fabric::split`]); endpoints follow their attachment
    /// switch, so only switch-to-switch links ever cross regions. Each
    /// region resumes at the current cycle with bit-identical state.
    pub(crate) fn shard(self, region_of_switch: &[usize], regions: usize) -> SocSplit {
        let now = self.now;
        let steps = self.steps;
        let req = self.request.split(region_of_switch, regions, now);
        let resp = self.response.split(region_of_switch, regions, now);
        debug_assert_eq!(
            req.node_region, resp.node_region,
            "request/response fabrics share the topology"
        );
        let num_nodes = self.node_ep.len();
        let mut shells: Vec<Soc> = req
            .regions
            .into_iter()
            .zip(resp.regions)
            .map(|(request, response)| Soc {
                endpoints: Vec::new(),
                clock_ids: Vec::new(),
                clocks: ClockSet::new(),
                request,
                response,
                node_ep: vec![None; num_nodes],
                ep_cal: Calendar::new(),
                ep_wake: Vec::new(),
                polls: Cell::new(0),
                done: Vec::new(),
                not_done: 0,
                now,
                steps: 0,
                touched_scratch: Vec::new(),
                eject_scratch: Vec::new(),
            })
            .collect();
        // The executed-steps counter is a global sum; park it on region
        // 0 like the fabrics' delivery counters.
        shells[0].steps = steps;
        // Distribute endpoints in build order (so region-local order is
        // the global order restricted to the region) and record where
        // each initiator ordinal went.
        let mut initiator_map = Vec::new();
        let mut local_initiators = vec![0usize; regions];
        for ep in self.endpoints {
            let r = req.node_region[ep.node as usize]
                .expect("every endpoint node is attached to a switch");
            let shell = &mut shells[r];
            if ep.is_initiator {
                initiator_map.push((r, local_initiators[r]));
                local_initiators[r] += 1;
            }
            let i = shell.endpoints.len();
            shell.node_ep[ep.node as usize] = Some(i);
            shell
                .clock_ids
                .push(shell.clocks.register(ClockDomain::new(ep.clock_divisor)));
            shell.ep_wake.push(shell.ep_cal.register());
            shell.done.push(false);
            shell.not_done += 1;
            shell.endpoints.push(ep);
        }
        // Prime each region's calendar and done cache. Fresh entries may
        // drop a stale-early wakeup the monolithic calendar carried;
        // the step it would have forced is a dense-identical no-op, so
        // only the mode-dependent `steps` counter can differ.
        for shell in &mut shells {
            for i in 0..shell.endpoints.len() {
                shell.refresh_endpoint(i);
            }
        }
        SocSplit {
            regions: shells,
            req_flit_to: req.flit_to,
            req_credit_to: req.credit_to,
            resp_flit_to: resp.flit_to,
            resp_credit_to: resp.credit_to,
            lookahead: req.lookahead.min(resp.lookahead),
            initiator_map,
        }
    }
}

/// The result of sharding a [`Soc`]: per-region SoCs plus the routing
/// tables and lookahead the epoch coordinator needs.
pub(crate) struct SocSplit {
    /// One SoC per region; endpoints keep their relative build order.
    pub regions: Vec<Soc>,
    /// Request-fabric global link id → region whose inbox receives its
    /// flits (`None` for intra-region links).
    pub req_flit_to: Vec<Option<usize>>,
    /// Request-fabric global link id → region owning the replica, where
    /// credit returns are due.
    pub req_credit_to: Vec<Option<usize>>,
    /// Response-fabric equivalents.
    pub resp_flit_to: Vec<Option<usize>>,
    pub resp_credit_to: Vec<Option<usize>>,
    /// Minimum cycles between any cross-region cause and its earliest
    /// remote effect, over both fabrics; `u64::MAX` when nothing
    /// crosses.
    pub lookahead: u64,
    /// Global initiator ordinal (build order) → (region, region-local
    /// initiator ordinal).
    pub initiator_map: Vec<(usize, usize)>,
}

impl fmt::Debug for Soc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Soc")
            .field("now", &self.now)
            .field("endpoints", &self.endpoints.len())
            .field("done", &self.is_done())
            .finish()
    }
}
