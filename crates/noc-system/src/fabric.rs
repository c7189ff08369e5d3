//! One direction of the NoC: switches plus physical links, wired from a
//! topology, with end-to-end credit flow control.
//!
//! # O(active) ticking
//!
//! The fabric tracks exactly which components can act on a given cycle,
//! so both `tick` and the horizon queries cost O(active), not
//! O(components):
//!
//! - every link schedules its next arrival cycle into a
//!   [`Calendar`] (re-registered after every `send`/`deliver`, the only
//!   operations that move a link's horizon), so delivery scans touch
//!   only the links that are due *this* cycle;
//! - switches holding flits (or streaming allocations) live in a `busy`
//!   set, entered on `accept` and left when a tick ends idle; only busy
//!   switches are ticked — ticking an idle switch is a no-op except for
//!   [`noc_transport::SwitchStats::lock_idle_cycles`], which an idle
//!   switch pinned by a locked sequence accrues from the cycle it went
//!   idle, settled by its next tick or by [`Fabric::stats`];
//! - stashes with flits live in a `stashed` set.
//!
//! Active sets are iterated in ascending switch/link index order — the
//! dense loop's order restricted to the members that can act — so the
//! resulting logs and counters are bit-identical to dense ticking.

use noc_kernel::{Calendar, Horizon, WakeId};
use noc_physical::{Link, LinkConfig};
use noc_topology::{RouteAlgorithm, Topology};
use noc_transport::{Flit, PortId, RoutingTable, Switch, SwitchConfig, SwitchMode};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Where a link terminates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkEnd {
    /// A switch input/output port.
    Switch {
        /// Switch index.
        switch: usize,
        /// Port index on that switch.
        port: usize,
    },
    /// An endpoint (NIU), identified by its node number.
    Endpoint {
        /// Node number.
        node: u16,
    },
}

#[derive(Clone)]
struct FabricLink {
    link: Link<Flit>,
    src: LinkEnd,
    dst: LinkEnd,
}

/// A set of switch indices with O(1) insert/membership and iteration
/// proportional to the members, used for the busy/stashed
/// tracking that makes fabric ticks O(active).
#[derive(Clone, Default)]
struct ActiveSet {
    member: Vec<bool>,
    list: Vec<usize>,
}

impl ActiveSet {
    fn with_capacity(n: usize) -> ActiveSet {
        ActiveSet {
            member: vec![false; n],
            list: Vec::new(),
        }
    }

    fn insert(&mut self, i: usize) {
        if !self.member[i] {
            self.member[i] = true;
            self.list.push(i);
        }
    }

    fn remove(&mut self, i: usize) {
        if self.member[i] {
            self.member[i] = false;
            let pos = self
                .list
                .iter()
                .position(|&m| m == i)
                .expect("flag implies membership");
            self.list.swap_remove(pos);
        }
    }

    fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Copies the members into `out` in ascending index order — the
    /// dense iteration order restricted to the set.
    fn sorted_into(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend_from_slice(&self.list);
        out.sort_unstable();
    }
}

/// The result of partitioning a [`Fabric`] with [`Fabric::split`]: one
/// fabric per region plus the routing tables the epoch coordinator uses
/// to move cross-region traffic between them.
pub(crate) struct FabricSplit {
    /// One fabric per region, switches and links remapped to local
    /// indices in ascending global order (so per-region iteration order
    /// is the dense order restricted to the region).
    pub regions: Vec<Fabric>,
    /// Global link id → region whose inbox receives its flits (`None`
    /// for intra-region links).
    pub flit_to: Vec<Option<usize>>,
    /// Global link id → region owning the link's replica, where credit
    /// returns are due (`None` for intra-region links).
    pub credit_to: Vec<Option<usize>>,
    /// Minimum cycles between any cross-region cause (send or credit
    /// release) and its earliest remote effect; `u64::MAX` when nothing
    /// crosses.
    pub lookahead: u64,
    /// Node → region of its attachment switch.
    pub node_region: Vec<Option<usize>>,
}

/// One packet network (request or response): switches, links and credit
/// bookkeeping.
///
/// Endpoints are *not* owned by the fabric; the [`crate::Soc`] moves flits
/// between endpoints and the fabric's injection/ejection links each cycle.
#[derive(Clone)]
pub struct Fabric {
    switches: Vec<Switch>,
    links: Vec<FabricLink>,
    /// Per endpoint node: injection link index and current credits into
    /// the first switch.
    injection: Vec<(u16, usize, u32)>,
    /// Node number → index into `injection`.
    node_inj: Vec<Option<usize>>,
    /// Per switch output port: link index.
    out_wire: Vec<Vec<Option<usize>>>,
    /// Per switch input port: feeding link index.
    in_wire: Vec<Vec<Option<usize>>>,
    /// Output-register stash per (switch, out port): absorbs flits while
    /// a serialising link is busy.
    stash: Vec<Vec<VecDeque<Flit>>>,
    /// Wakeup calendar over links; `link_wake[i]` is link `i`'s handle.
    link_cal: Calendar,
    link_wake: Vec<WakeId>,
    /// Switches currently holding flits or allocations.
    busy: ActiveSet,
    /// Switches with ≥ 1 stashed flit, plus per-switch flit counts.
    stashed: ActiveSet,
    stash_flits: Vec<usize>,
    total_stashed: usize,
    /// Flits in flight on links (send minus deliver).
    in_flight: usize,
    delivered_flits: u64,
    /// Per link: credit-return latency in base cycles (the wire plus one
    /// register per forward pipeline stage). A credit released by a
    /// downstream input at cycle `t` becomes visible to the upstream
    /// sender at `t + credit_lat` — never within the releasing cycle —
    /// so credit visibility cannot depend on switch iteration order.
    /// (The dense loop used to apply releases immediately, letting a
    /// same-cycle consumer see them iff its index was higher than the
    /// releaser's: an ordering bug, and fatal for sharding.)
    credit_lat: Vec<u64>,
    /// In-flight credit returns: due cycle → local link indices, applied
    /// by [`Fabric::apply_due_credits`] at the top of each SoC step.
    /// Deliberately excluded from [`Fabric::is_idle`] and
    /// [`Fabric::next_event_at`]: a pending credit only raises a counter
    /// that nothing reads between steps, so applying it lazily at the
    /// next executed step is observation-equivalent to applying it at
    /// its due cycle (and any component that could consume it is itself
    /// keeping the system non-idle).
    pending_credits: BTreeMap<u64, Vec<u32>>,
    /// Per link: its identity in the pre-split (global) fabric. Identity
    /// for a monolithic fabric; preserved by [`Fabric::split`] so
    /// cross-region routing and latency folds stay globally ordered.
    global_ids: Vec<u32>,
    /// Per link: `Some(global)` when the link is this region's replica
    /// of a cross-region link. The replica owns sending, serialisation,
    /// occupancy and latency statistics; the real delivery happens in
    /// the destination region's inbox, so the replica's own deliveries
    /// are discarded (its `dst` is the pre-split end — never deref it).
    cross_out: Vec<Option<u32>>,
    /// Per switch input port: `Some((global, credit_lat))` when the port
    /// is fed by another region's cross link; credits released by it are
    /// published through the outbox instead of applied locally.
    cross_in_wire: Vec<Vec<Option<(u32, u64)>>>,
    /// Cross link global id → local (switch, input port) receiving its
    /// staged arrivals.
    cross_in_ports: HashMap<u32, (usize, usize)>,
    /// Cross link global id → local link index, for credits returning to
    /// replicas this region owns.
    cross_local: HashMap<u32, u32>,
    /// Staged cross-region arrivals: absolute cycle → (global link,
    /// flit), integrated at epoch barriers, delivered by `tick`.
    inbox: BTreeMap<u64, Vec<(u32, Flit)>>,
    /// Cross-region sends awaiting coordinator routing: (global link,
    /// absolute arrival cycle, flit).
    outbox_flits: Vec<(u32, u64, Flit)>,
    /// Cross-region credit returns awaiting routing: (global link, due
    /// cycle).
    outbox_credits: Vec<(u32, u64)>,
    /// Tick-loop scratch buffers (due links, active-set iteration order,
    /// per-switch tick result), reused so the hot path allocates nothing.
    due_scratch: Vec<usize>,
    order_scratch: Vec<usize>,
    tick_scratch: noc_transport::SwitchTick,
}

impl Fabric {
    /// Builds the fabric over `topology` with the given switch mode,
    /// buffer depth, per-class link configurations and routing
    /// algorithm. `link_cfg` shapes the switch-to-switch links,
    /// `endpoint_link_cfg` the injection/ejection links — the two
    /// physical link classes of the fabric.
    ///
    /// Endpoint clock divisors (`node → divisor`) shape the injection and
    /// ejection links' CDC behaviour; switches run on the base clock.
    ///
    /// # Errors
    ///
    /// Propagates routing errors from the topology.
    pub fn new(
        topology: &Topology,
        mode: SwitchMode,
        buffer_depth: usize,
        link_cfg: LinkConfig,
        endpoint_link_cfg: LinkConfig,
        routing: RouteAlgorithm,
        clock_of: &dyn Fn(u16) -> u64,
    ) -> Result<Fabric, noc_topology::TopologyError> {
        let tables = topology.compute_routes(routing)?;
        let num_nodes = topology
            .attachments()
            .iter()
            .map(|a| a.node as usize + 1)
            .max()
            .unwrap_or(0);
        // Instantiate switches.
        let mut switches = Vec::new();
        for s in 0..topology.num_switches() {
            let ports = topology.ports()[s];
            let mut table = RoutingTable::new(num_nodes);
            for (node, port) in tables.switch_table(s).iter().enumerate() {
                if let Some(p) = port {
                    table.set(node as u16, PortId(*p));
                }
            }
            let cfg = SwitchConfig {
                inputs: ports.inputs as usize,
                outputs: ports.outputs as usize,
                mode,
                buffer_depth,
            };
            switches.push(Switch::new(cfg, table));
        }
        let num_switches = switches.len();
        let mut fabric = Fabric {
            out_wire: switches
                .iter()
                .map(|sw| vec![None; sw.config().outputs])
                .collect(),
            in_wire: switches
                .iter()
                .map(|sw| vec![None; sw.config().inputs])
                .collect(),
            cross_in_wire: switches
                .iter()
                .map(|sw| vec![None; sw.config().inputs])
                .collect(),
            stash: switches
                .iter()
                .map(|sw| (0..sw.config().outputs).map(|_| VecDeque::new()).collect())
                .collect(),
            switches,
            links: Vec::new(),
            injection: Vec::new(),
            node_inj: vec![None; num_nodes],
            link_cal: Calendar::new(),
            link_wake: Vec::new(),
            busy: ActiveSet::with_capacity(num_switches),
            stashed: ActiveSet::with_capacity(num_switches),
            stash_flits: vec![0; num_switches],
            total_stashed: 0,
            in_flight: 0,
            delivered_flits: 0,
            credit_lat: Vec::new(),
            pending_credits: BTreeMap::new(),
            global_ids: Vec::new(),
            cross_out: Vec::new(),
            cross_in_ports: HashMap::new(),
            cross_local: HashMap::new(),
            inbox: BTreeMap::new(),
            outbox_flits: Vec::new(),
            outbox_credits: Vec::new(),
            due_scratch: Vec::new(),
            order_scratch: Vec::new(),
            tick_scratch: noc_transport::SwitchTick::default(),
        };
        // Inter-switch links (base clock on both ends).
        for e in topology.edges() {
            let idx = fabric.add_link(
                Link::new(link_cfg),
                LinkEnd::Switch {
                    switch: e.from,
                    port: e.from_port as usize,
                },
                LinkEnd::Switch {
                    switch: e.to,
                    port: e.to_port as usize,
                },
            );
            fabric.out_wire[e.from][e.from_port as usize] = Some(idx);
            fabric.in_wire[e.to][e.to_port as usize] = Some(idx);
            fabric.switches[e.from].set_output_credits(e.from_port as usize, buffer_depth as u32);
        }
        // Endpoint attachments: injection (endpoint → switch) and
        // ejection (switch → endpoint) links, with CDC per endpoint clock.
        for a in topology.attachments() {
            let div = clock_of(a.node);
            let inj_cfg = LinkConfig {
                src_divisor: div,
                dst_divisor: 1,
                ..endpoint_link_cfg
            };
            let ej_cfg = LinkConfig {
                src_divisor: 1,
                dst_divisor: div,
                ..endpoint_link_cfg
            };
            let inj_idx = fabric.add_link(
                Link::new(inj_cfg),
                LinkEnd::Endpoint { node: a.node },
                LinkEnd::Switch {
                    switch: a.switch,
                    port: a.in_port as usize,
                },
            );
            fabric.in_wire[a.switch][a.in_port as usize] = Some(inj_idx);
            fabric.node_inj[a.node as usize] = Some(fabric.injection.len());
            fabric
                .injection
                .push((a.node, inj_idx, buffer_depth as u32));
            let ej_idx = fabric.add_link(
                Link::new(ej_cfg),
                LinkEnd::Switch {
                    switch: a.switch,
                    port: a.out_port as usize,
                },
                LinkEnd::Endpoint { node: a.node },
            );
            fabric.out_wire[a.switch][a.out_port as usize] = Some(ej_idx);
            // Endpoint ingress is unbounded (NIUs bound it by outstanding
            // transactions); give ejection ports ample credit.
            fabric.switches[a.switch].set_output_credits(a.out_port as usize, u32::MAX / 2);
        }
        Ok(fabric)
    }

    /// Adds a link and registers it with the wakeup calendar.
    fn add_link(&mut self, link: Link<Flit>, src: LinkEnd, dst: LinkEnd) -> usize {
        let idx = self.links.len();
        // The credit-return wire is registered like the forward path:
        // one base cycle of wire plus one source-clock cycle per forward
        // pipeline stage.
        let cfg = link.config();
        self.credit_lat
            .push(1 + cfg.pipeline as u64 * cfg.src_divisor);
        self.global_ids.push(idx as u32);
        self.cross_out.push(None);
        self.links.push(FabricLink { link, src, dst });
        let wake = self.link_cal.register();
        debug_assert_eq!(wake.index(), idx);
        self.link_wake.push(wake);
        idx
    }

    /// Sends `flit` on link `li` and reschedules the link's arrival
    /// wakeup. Every send in the fabric funnels through here so no
    /// horizon change can escape the calendar. Sends on cross-region
    /// replicas also publish a copy with its absolute arrival cycle —
    /// final at send time, since link timing depends only on prior
    /// sends — for the coordinator to route at the next epoch barrier.
    fn send_on_link(&mut self, li: usize, flit: Flit, now: u64) {
        let copy = self.cross_out[li].map(|global| (global, flit.clone()));
        self.links[li]
            .link
            .send(flit, now)
            .expect("can_send checked");
        self.in_flight += 1;
        if let Some((global, flit)) = copy {
            let arrival = self.links[li]
                .link
                .last_queued_arrival()
                .expect("send just queued an arrival");
            self.outbox_flits.push((global, arrival, flit));
        }
        let next = self.links[li].link.next_event_at(now);
        self.link_cal.set(self.link_wake[li], next);
    }

    fn stash_push(&mut self, s: usize, p: usize, flit: Flit) {
        self.stash[s][p].push_back(flit);
        self.stash_flits[s] += 1;
        self.total_stashed += 1;
        self.stashed.insert(s);
    }

    /// Marks a switch as holding work; it leaves the busy set when a
    /// tick ends with it idle.
    fn mark_busy(&mut self, s: usize) {
        self.busy.insert(s);
    }

    /// Returns `true` when `node` can inject a flit this base cycle.
    pub fn can_inject(&self, node: u16, now: u64) -> bool {
        self.node_inj
            .get(node as usize)
            .copied()
            .flatten()
            .map(|i| {
                let (_, link, credits) = self.injection[i];
                credits > 0 && self.links[link].link.can_send(now)
            })
            .unwrap_or(false)
    }

    /// Injects a flit from `node`.
    ///
    /// # Panics
    ///
    /// Panics if [`Fabric::can_inject`] is false (caller must check).
    pub fn inject(&mut self, node: u16, flit: Flit, now: u64) {
        let i = self.node_inj[node as usize].expect("node attached to fabric");
        assert!(self.injection[i].2 > 0, "injection without credit");
        self.injection[i].2 -= 1;
        let link = self.injection[i].1;
        self.send_on_link(link, flit, now);
    }

    /// Advances the fabric one base cycle. Ejected flits are appended to
    /// `ejected` as `(node, flit)` pairs for the SoC to deliver to
    /// endpoints (the caller owns — and reuses — the buffer).
    pub fn tick(&mut self, now: u64, ejected: &mut Vec<(u16, Flit)>) {
        // 1. Link deliveries into switches / endpoints. Only links whose
        // scheduled arrival is due can deliver; everything else provably
        // returns `None` this cycle (the calendar entry *is*
        // `Link::next_event_at`, re-registered on every send/deliver).
        // Ascending link order = the dense scan restricted to movers.
        let mut due = std::mem::take(&mut self.due_scratch);
        due.clear();
        self.link_cal.pop_due(now, |id| due.push(id.index()));
        due.sort_unstable();
        for &li in &due {
            if let Some(flit) = self.links[li].link.deliver(now) {
                self.in_flight -= 1;
                if self.cross_out[li].is_some() {
                    // Cross-region replica: retiring here keeps the
                    // occupancy/latency statistics on exactly one link
                    // instance; the flit itself was published at send
                    // time and arrives via the destination's inbox.
                } else {
                    match self.links[li].dst {
                        LinkEnd::Switch { switch, port } => {
                            let ok = self.switches[switch].accept(port, flit);
                            assert!(ok, "credit flow control must prevent overflow");
                            self.mark_busy(switch);
                        }
                        LinkEnd::Endpoint { node } => {
                            self.delivered_flits += 1;
                            ejected.push((node, flit));
                        }
                    }
                }
            }
            let next = self.links[li].link.next_event_at(now);
            self.link_cal.set(self.link_wake[li], next);
        }
        self.due_scratch = due;
        // 1a. Staged cross-region arrivals due this cycle. Each lands on
        // its own dedicated input port (same-cycle arrivals on one link
        // are impossible — the FIFO spaces them by the destination
        // divisor), so delivery order across ports is immaterial.
        while let Some(entry) = self.inbox.first_entry() {
            if *entry.key() > now {
                break;
            }
            debug_assert_eq!(*entry.key(), now, "inbox arrival was skipped");
            for (global, flit) in entry.remove() {
                let (switch, port) = self.cross_in_ports[&global];
                let ok = self.switches[switch].accept(port, flit);
                assert!(ok, "credit flow control must prevent overflow");
                self.mark_busy(switch);
            }
        }
        // 2. Drain output stashes into links (stash-holding switches
        // only).
        let mut order = std::mem::take(&mut self.order_scratch);
        self.stashed.sorted_into(&mut order);
        for &s in &order {
            for p in 0..self.stash[s].len() {
                if self.stash[s][p].is_empty() {
                    continue;
                }
                let Some(li) = self.out_wire[s][p] else {
                    continue;
                };
                if self.links[li].link.can_send(now) {
                    let flit = self.stash[s][p].pop_front().expect("checked non-empty");
                    self.stash_flits[s] -= 1;
                    self.total_stashed -= 1;
                    if self.stash_flits[s] == 0 {
                        self.stashed.remove(s);
                    }
                    self.send_on_link(li, flit, now);
                }
            }
        }
        // 3. Switch cycles (busy switches only; an idle switch's tick
        // moves nothing and releases nothing).
        self.busy.sorted_into(&mut order);
        let mut tick = std::mem::take(&mut self.tick_scratch);
        for &s in &order {
            self.switches[s].tick_into(now, &mut tick);
            for (port, flit) in tick.sent.drain(..) {
                let p = port.index();
                let Some(li) = self.out_wire[s][p] else {
                    continue; // unreachable: every routed port is wired
                };
                if self.stash[s][p].is_empty() && self.links[li].link.can_send(now) {
                    self.send_on_link(li, flit, now);
                } else {
                    self.stash_push(s, p, flit);
                }
            }
            // 4. Credit returns to upstream, registered onto the return
            // wire: visible to the sender `credit_lat` cycles from now
            // (applied by [`Fabric::apply_due_credits`]), never within
            // this cycle. Credits for another region's link go through
            // the outbox with the same absolute due cycle.
            for input in tick.credits_released.drain(..) {
                match self.in_wire[s][input] {
                    Some(li) => {
                        let due = now + self.credit_lat[li];
                        self.pending_credits.entry(due).or_default().push(li as u32);
                    }
                    None => match self.cross_in_wire[s][input] {
                        Some((global, lat)) => {
                            self.outbox_credits.push((global, now + lat));
                        }
                        None => unreachable!("every switch input is wired"),
                    },
                }
            }
            if self.switches[s].is_idle() {
                self.busy.remove(s);
            }
        }
        self.tick_scratch = tick;
        self.order_scratch = order;
    }

    /// Applies every credit return whose due cycle has been reached.
    /// Called at the top of each SoC step, before endpoints consult
    /// injection credits and before the fabric tick, so a credit due at
    /// cycle `d` is visible to everything that executes at `d` — and to
    /// nothing earlier.
    pub(crate) fn apply_due_credits(&mut self, now: u64) {
        while let Some(entry) = self.pending_credits.first_entry() {
            if *entry.key() > now {
                break;
            }
            for li in entry.remove() {
                match self.links[li as usize].src {
                    LinkEnd::Switch { switch, port } => {
                        self.switches[switch].add_output_credit(port);
                    }
                    LinkEnd::Endpoint { node } => {
                        let i = self.node_inj[node as usize].expect("injection entry exists");
                        self.injection[i].2 += 1;
                    }
                }
            }
        }
    }

    /// Returns `true` when no flit is buffered, in flight, or staged
    /// for cross-region delivery. In-flight credit returns deliberately
    /// don't count (see the `pending_credits` field).
    pub fn is_idle(&self) -> bool {
        self.busy.is_empty()
            && self.total_stashed == 0
            && self.in_flight == 0
            && self.inbox.is_empty()
    }

    /// The fabric's event horizon: the earliest base cycle at or after
    /// `now` at which ticking it can change state, or `None` when every
    /// switch, stash and link is empty.
    ///
    /// Buffered flits demand dense ticking (switches arbitrate, stall
    /// and count every cycle) and pin the answer to `now`; a fabric
    /// whose only traffic is *in flight on links* — deep in a pipelined
    /// crossing, or waiting out a CDC synchroniser — reports the
    /// earliest scheduled arrival from the link calendar instead, in
    /// O(1). Idle switches with pinned locks constrain nothing here:
    /// they accrue their lock-idle statistics from the cycle they went
    /// idle (see [`Switch::tick_into`]).
    pub fn next_event_at(&self, now: u64) -> Option<u64> {
        if !self.busy.is_empty() || self.total_stashed > 0 {
            return Some(now);
        }
        // A stale calendar minimum is never later than the true earliest
        // arrival, so the caller may at worst execute a spurious,
        // dense-identical step.
        let mut horizon = Horizon::from(self.link_cal.peek());
        horizon.merge(self.inbox.keys().next().copied());
        horizon.earliest_from(now)
    }

    /// Stages a flit arriving from another region's replica of cross
    /// link `global` at absolute cycle `arrival`. Called between epochs;
    /// `arrival` is never in this region's past (the epoch window
    /// guarantees it).
    pub(crate) fn integrate_cross_flit(&mut self, global: u32, arrival: u64, flit: Flit) {
        debug_assert!(
            self.cross_in_ports.contains_key(&global),
            "flit routed to a region that does not terminate the link"
        );
        self.inbox.entry(arrival).or_default().push((global, flit));
    }

    /// Stages a credit released by the remote input of cross link
    /// `global`, due at absolute cycle `due` on this region's replica.
    pub(crate) fn integrate_cross_credit(&mut self, global: u32, due: u64) {
        let li = self.cross_local[&global];
        self.pending_credits.entry(due).or_default().push(li);
    }

    /// Drains the cross-region outboxes (sends and credit returns
    /// accumulated since the last drain) into the caller's buffers.
    pub(crate) fn take_cross_output(
        &mut self,
        flits: &mut Vec<(u32, u64, Flit)>,
        credits: &mut Vec<(u32, u64)>,
    ) {
        flits.append(&mut self.outbox_flits);
        credits.append(&mut self.outbox_credits);
    }

    /// Appends `(global link id, delivered flits, mean latency)` for
    /// every link that delivered, so a sharded run can reproduce
    /// [`Fabric::mean_link_latency`]'s fold bit-for-bit by sorting the
    /// merged entries on global id (cross links appear exactly once, in
    /// their owner region).
    pub(crate) fn link_latency_entries(&self, out: &mut Vec<(u32, u64, f64)>) {
        for (i, l) in self.links.iter().enumerate() {
            if l.link.delivered() > 0 {
                out.push((
                    self.global_ids[i],
                    l.link.delivered(),
                    l.link.mean_latency(),
                ));
            }
        }
    }

    /// Partitions the fabric into `regions` independent fabrics along
    /// `region_of_switch`, preserving every piece of runtime state so a
    /// mid-run split resumes bit-identically at cycle `now`.
    ///
    /// Links whose two switch ends land in different regions become
    /// *cross* links: the source region keeps the full link as a replica
    /// (owning send timing, occupancy and statistics) and publishes each
    /// send through its outbox with the absolute arrival cycle; the
    /// destination region wires the terminating input port to its inbox
    /// and publishes released credits back. Injection/ejection links
    /// never cross — endpoints belong to their attachment switch's
    /// region by construction.
    pub(crate) fn split(self, region_of_switch: &[usize], regions: usize, now: u64) -> FabricSplit {
        assert_eq!(region_of_switch.len(), self.switches.len());
        assert!(regions >= 1, "need at least one region");
        debug_assert!(
            self.inbox.is_empty() && self.outbox_flits.is_empty() && self.outbox_credits.is_empty(),
            "splitting an already-sharded fabric"
        );
        let num_nodes = self.node_inj.len();
        let num_links = self.links.len();
        // Injection credits by node, looked up when links are moved.
        let mut inj_credits = vec![0u32; num_nodes];
        for &(node, _, credits) in &self.injection {
            inj_credits[node as usize] = credits;
        }
        let mut parts: Vec<Fabric> = (0..regions)
            .map(|_| Fabric {
                switches: Vec::new(),
                links: Vec::new(),
                injection: Vec::new(),
                node_inj: vec![None; num_nodes],
                out_wire: Vec::new(),
                in_wire: Vec::new(),
                cross_in_wire: Vec::new(),
                stash: Vec::new(),
                link_cal: Calendar::new(),
                link_wake: Vec::new(),
                busy: ActiveSet::default(),
                stashed: ActiveSet::default(),
                stash_flits: Vec::new(),
                total_stashed: 0,
                in_flight: 0,
                delivered_flits: 0,
                credit_lat: Vec::new(),
                pending_credits: BTreeMap::new(),
                global_ids: Vec::new(),
                cross_out: Vec::new(),
                cross_in_ports: HashMap::new(),
                cross_local: HashMap::new(),
                inbox: BTreeMap::new(),
                outbox_flits: Vec::new(),
                outbox_credits: Vec::new(),
                due_scratch: Vec::new(),
                order_scratch: Vec::new(),
                tick_scratch: noc_transport::SwitchTick::default(),
            })
            .collect();
        // Move switches (with their stashes) in ascending global order,
        // so local order is the dense order restricted to each region.
        let mut switch_local = vec![usize::MAX; self.switches.len()];
        for ((s, switch), stash) in self.switches.into_iter().enumerate().zip(self.stash) {
            let part = &mut parts[region_of_switch[s]];
            switch_local[s] = part.switches.len();
            part.out_wire.push(vec![None; switch.config().outputs]);
            part.in_wire.push(vec![None; switch.config().inputs]);
            part.cross_in_wire.push(vec![None; switch.config().inputs]);
            let flits: usize = stash.iter().map(VecDeque::len).sum();
            part.stash_flits.push(flits);
            part.total_stashed += flits;
            part.stash.push(stash);
            part.switches.push(switch);
        }
        // Rebuild the active sets from the moved state. At a step
        // boundary membership is fully determined by it: busy iff the
        // switch holds flits or allocations, stashed iff the stash holds
        // flits.
        for part in &mut parts {
            let n = part.switches.len();
            part.busy = ActiveSet::with_capacity(n);
            part.stashed = ActiveSet::with_capacity(n);
            for s in 0..n {
                if !part.switches[s].is_idle() {
                    part.busy.insert(s);
                }
                if part.stash_flits[s] > 0 {
                    part.stashed.insert(s);
                }
            }
        }
        // Distribute links. A link lives in the region of its source
        // switch (endpoint-ended links take the switch end's region and
        // are intra by construction).
        let mut flit_to = vec![None; num_links];
        let mut credit_to = vec![None; num_links];
        let mut node_region = vec![None; num_nodes];
        // Global link id → (region, local id), for `pending_credits`.
        let mut link_place = vec![(usize::MAX, 0u32); num_links];
        let mut lookahead = u64::MAX;
        for (li, l) in self.links.into_iter().enumerate() {
            let src_region = match (l.src, l.dst) {
                (LinkEnd::Switch { switch, .. }, _) => region_of_switch[switch],
                (LinkEnd::Endpoint { .. }, LinkEnd::Switch { switch, .. }) => {
                    region_of_switch[switch]
                }
                (LinkEnd::Endpoint { .. }, LinkEnd::Endpoint { .. }) => {
                    unreachable!("no endpoint-to-endpoint links")
                }
            };
            let dst_region = match l.dst {
                LinkEnd::Switch { switch, .. } => region_of_switch[switch],
                LinkEnd::Endpoint { .. } => src_region,
            };
            let cross = src_region != dst_region;
            let credit_lat = self.credit_lat[li];
            if cross {
                flit_to[li] = Some(dst_region);
                credit_to[li] = Some(src_region);
                lookahead = lookahead.min(l.link.config().min_latency().min(credit_lat));
            }
            let part = &mut parts[src_region];
            let local = part.links.len();
            link_place[li] = (src_region, local as u32);
            part.in_flight += l.link.in_flight();
            part.credit_lat.push(credit_lat);
            part.global_ids.push(self.global_ids[li]);
            part.cross_out.push(cross.then_some(self.global_ids[li]));
            if cross {
                part.cross_local.insert(self.global_ids[li], local as u32);
            }
            // Remap the ends. A cross link's destination stays in global
            // terms (its region has no local image); it is never
            // dereferenced — step 1 discards replica deliveries first.
            let src = match l.src {
                LinkEnd::Switch { switch, port } => {
                    let sw = switch_local[switch];
                    part.out_wire[sw][port] = Some(local);
                    LinkEnd::Switch { switch: sw, port }
                }
                LinkEnd::Endpoint { node } => {
                    node_region[node as usize] = Some(src_region);
                    part.node_inj[node as usize] = Some(part.injection.len());
                    part.injection
                        .push((node, local, inj_credits[node as usize]));
                    LinkEnd::Endpoint { node }
                }
            };
            let dst = if cross {
                let LinkEnd::Switch { switch, port } = l.dst else {
                    unreachable!("cross links join two switches");
                };
                let dst_part_switch = switch_local[switch];
                let dst_part = &mut parts[dst_region];
                dst_part.cross_in_wire[dst_part_switch][port] =
                    Some((self.global_ids[li], credit_lat));
                dst_part
                    .cross_in_ports
                    .insert(self.global_ids[li], (dst_part_switch, port));
                l.dst
            } else {
                match l.dst {
                    LinkEnd::Switch { switch, port } => {
                        let sw = switch_local[switch];
                        parts[src_region].in_wire[sw][port] = Some(local);
                        LinkEnd::Switch { switch: sw, port }
                    }
                    LinkEnd::Endpoint { node } => LinkEnd::Endpoint { node },
                }
            };
            let part = &mut parts[src_region];
            let next = l.link.next_event_at(now);
            part.links.push(FabricLink {
                link: l.link,
                src,
                dst,
            });
            let wake = part.link_cal.register();
            debug_assert_eq!(wake.index(), local);
            part.link_wake.push(wake);
            part.link_cal.set(wake, next);
        }
        // In-flight credit returns follow their link.
        for (due, lis) in self.pending_credits {
            for li in lis {
                let (region, local) = link_place[li as usize];
                parts[region]
                    .pending_credits
                    .entry(due)
                    .or_default()
                    .push(local);
            }
        }
        // The scalar delivery counter is a global sum; park it on region
        // 0 so the shards' counters still total the monolithic value.
        parts[0].delivered_flits = self.delivered_flits;
        FabricSplit {
            regions: parts,
            flit_to,
            credit_to,
            lookahead,
            node_region,
        }
    }

    /// Total wakeups the link calendar has retired — the fabric's share
    /// of the `calendar_pops` observability counter.
    pub fn calendar_pops(&self) -> u64 {
        self.link_cal.pops()
    }

    /// Aggregate switch statistics as of base cycle `now`.
    pub fn stats(&self, now: u64) -> noc_transport::SwitchStats {
        let mut total = noc_transport::SwitchStats::default();
        for s in &self.switches {
            let st = s.stats_at(now);
            total.flits_forwarded += st.flits_forwarded;
            total.packets_forwarded += st.packets_forwarded;
            total.credit_stalls += st.credit_stalls;
            total.arbitration_conflicts += st.arbitration_conflicts;
            total.lock_idle_cycles += st.lock_idle_cycles;
        }
        total
    }

    /// Accumulates each switch's forwarded-flit count into `out`
    /// (indexed by switch), the activity weights the balanced
    /// partitioner cuts the mesh by. Callers size `out` to the switch
    /// count; values add so request and response fabrics can share one
    /// buffer.
    pub(crate) fn accumulate_switch_activity(&self, out: &mut [u64]) {
        for (s, sw) in self.switches.iter().enumerate() {
            out[s] += sw.stats().flits_forwarded;
        }
    }

    /// Total flits delivered to endpoints.
    pub fn delivered_flits(&self) -> u64 {
        self.delivered_flits
    }

    /// Number of switches.
    pub fn num_switches(&self) -> usize {
        self.switches.len()
    }

    /// Mean link latency across all links that delivered flits.
    pub fn mean_link_latency(&self) -> f64 {
        let (mut sum, mut n) = (0.0, 0u64);
        for l in &self.links {
            if l.link.delivered() > 0 {
                sum += l.link.mean_latency() * l.link.delivered() as f64;
                n += l.link.delivered();
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("switches", &self.switches.len())
            .field("links", &self.links.len())
            .field("idle", &self.is_idle())
            .finish()
    }
}
