//! The Fig-2 bridged interconnect baseline: a central reference-socket
//! crossbar with per-master protocol bridges.

use crate::{AttachedMaster, Interconnect, SlaveTiming};
use noc_kernel::{Calendar, Horizon, WakeId};
use noc_protocols::memory::access;
use noc_protocols::{CompletionLog, MemoryModel};
use noc_transaction::{
    AddressMap, ExclusiveMonitor, MstAddr, Opcode, RespStatus, SlvAddr, TransactionRequest,
    TransactionResponse,
};
use std::cell::Cell;
use std::collections::VecDeque;

/// Bridge and reference-socket parameters — the penalties the paper
/// attributes to Fig 2.
#[derive(Debug, Clone, Copy)]
pub struct BridgeConfig {
    /// Pipeline cycles a request spends inside a bridge.
    pub request_latency: u32,
    /// Pipeline cycles a response spends inside a bridge.
    pub response_latency: u32,
    /// The reference socket's maximum burst beats; longer socket bursts
    /// are chopped into several interconnect transactions.
    pub max_burst_beats: u32,
    /// Outstanding transactions a bridge sustains (feature clamping:
    /// multi-threaded / ID traffic is serialised to this many).
    pub bridge_outstanding: u32,
}

impl Default for BridgeConfig {
    fn default() -> Self {
        BridgeConfig {
            request_latency: 2,
            response_latency: 2,
            max_burst_beats: 4,
            bridge_outstanding: 1,
        }
    }
}

#[derive(Clone)]
struct SubRequest {
    parent_slot: usize,
    addr: u64,
    burst: noc_transaction::Burst,
    eligible_at: u64,
}

#[derive(Clone)]
struct InflightParent {
    req: TransactionRequest,
    collected: Vec<u8>,
    worst: RespStatus,
    remaining: usize,
    respond_at: u64,
    /// Exclusive-write verdict, decided once on the parent's first sub
    /// so a chopped exclusive write cannot half-land.
    exclusive_ok: Option<bool>,
}

#[derive(Clone, Default)]
struct BridgeState {
    /// In-flight socket transactions (bounded by `bridge_outstanding`).
    inflight: Vec<Option<InflightParent>>,
    /// Acceptance order of inflight slots: the reference socket is fully
    /// ordered, so responses return oldest-first.
    order: VecDeque<usize>,
    /// Chopped sub-requests awaiting crossbar service.
    subs: VecDeque<SubRequest>,
}

impl BridgeState {
    fn occupancy(&self) -> usize {
        self.inflight.iter().filter(|s| s.is_some()).count()
    }
}

#[derive(Clone)]
struct CentralSlave {
    node: SlvAddr,
    /// Base address, kept for debugging/reporting symmetry with the bus.
    #[allow(dead_code)]
    base: u64,
    mem: MemoryModel,
    timing: SlaveTiming,
    busy_until: u64,
    locked_by: Option<usize>,
}

/// The bridged interconnect: per-master bridges feeding a central
/// crossbar whose reference socket is fully ordered.
///
/// Targets may serve different masters concurrently (it is a crossbar,
/// not a bus), but each bridge clamps its master to
/// [`BridgeConfig::bridge_outstanding`] transactions and chops bursts —
/// the protocol-feature loss of Fig 2.
#[derive(Clone)]
pub struct BridgedInterconnect {
    config: BridgeConfig,
    masters: Vec<AttachedMaster>,
    bridges: Vec<BridgeState>,
    map: AddressMap,
    slaves: Vec<CentralSlave>,
    monitor: ExclusiveMonitor,
    now: u64,
    steps: u64,
    chopped: u64,
    /// Wakeup calendar over the pipeline's event sources; see
    /// [`BridgedInterconnect::refresh_calendar`] for the id layout.
    cal: Calendar,
    wakes: Vec<WakeId>,
    polls: Cell<u64>,
}

impl BridgedInterconnect {
    /// Creates the interconnect over an address map.
    pub fn new(config: BridgeConfig, map: AddressMap) -> Self {
        BridgedInterconnect {
            config,
            masters: Vec::new(),
            bridges: Vec::new(),
            map,
            slaves: Vec::new(),
            monitor: ExclusiveMonitor::new(64, 16),
            now: 0,
            steps: 0,
            chopped: 0,
            cal: Calendar::new(),
            wakes: Vec::new(),
            polls: Cell::new(0),
        }
    }

    /// Attaches a master behind a bridge.
    pub fn add_master(&mut self, master: AttachedMaster) -> &mut Self {
        self.masters.push(master);
        let mut state = BridgeState::default();
        state
            .inflight
            .resize_with(self.config.bridge_outstanding as usize, || None);
        self.bridges.push(state);
        self
    }

    /// Attaches a memory slave at crossbar port `node`, identified inside
    /// the map by `base`.
    pub fn add_slave(&mut self, node: SlvAddr, base: u64, mem: MemoryModel) -> &mut Self {
        self.add_slave_timed(node, base, mem, SlaveTiming::default())
    }

    /// Attaches a slave with explicit IP-side service timing (register
    /// blocks with a slower write path, banked AXI slave IPs).
    pub fn add_slave_timed(
        &mut self,
        node: SlvAddr,
        base: u64,
        mem: MemoryModel,
        timing: SlaveTiming,
    ) -> &mut Self {
        self.slaves.push(CentralSlave {
            node,
            base,
            mem,
            timing,
            busy_until: 0,
            locked_by: None,
        });
        self
    }

    /// Number of burst chops performed (bridge overhead indicator).
    pub fn chopped_bursts(&self) -> u64 {
        self.chopped
    }

    /// Re-registers every event source's wakeup after a step. Id layout:
    /// masters `0..M` (their wake cycles), `M + b` the front
    /// sub-request of bridge `b` (its service time), `M + B + b` the
    /// oldest in-flight parent of bridge `b` (its response delivery).
    /// [`Calendar::set`] no-ops on unchanged cycles, so a step that
    /// moved nothing costs only the comparisons. Cross-bridge staleness
    /// — a slave's `busy_until` growing after another bridge's entry was
    /// computed — only makes entries *early*, which costs a spurious
    /// dense-identical step, never a missed event.
    fn refresh_calendar(&mut self) {
        let now = self.now;
        let mcount = self.masters.len();
        let bcount = self.bridges.len();
        for (m, master) in self.masters.iter().enumerate() {
            self.cal
                .set(self.wakes[m], master.fe.wake_at().map(|t| t.max(now)));
        }
        for (b, bridge) in self.bridges.iter().enumerate() {
            let front = bridge.subs.front().map(|front| {
                // Decode misses are consumed (as DECERR) the first time
                // any free slave's crossbar pass reaches them — `now`
                // under-approximates that safely. Lock gating is also
                // ignored: both can only make the entry early.
                let slave_free_at = match self.map.decode(front.addr) {
                    Ok(dst) => self
                        .slaves
                        .iter()
                        .find(|s| s.node == dst)
                        .map_or(now, |s| s.busy_until),
                    Err(_) => now,
                };
                front.eligible_at.max(slave_free_at)
            });
            self.cal.set(self.wakes[mcount + b], front);
            let respond = bridge.order.front().and_then(|&slot| {
                bridge.inflight[slot]
                    .as_ref()
                    .filter(|p| p.remaining == 0)
                    .map(|p| p.respond_at)
            });
            self.cal.set(self.wakes[mcount + bcount + b], respond);
        }
    }

    fn worst(a: RespStatus, b: RespStatus) -> RespStatus {
        use RespStatus::*;
        let rank = |s: RespStatus| match s {
            Okay => 0,
            ExOkay => 1,
            ExFail => 2,
            SlvErr => 3,
            DecErr => 4,
        };
        if rank(b) > rank(a) {
            b
        } else {
            a
        }
    }
}

impl Interconnect for BridgedInterconnect {
    fn load_programs(&mut self, programs: Vec<Box<dyn noc_protocols::CommandSource>>) {
        assert!(
            self.now == 0 && self.steps == 0,
            "programs can only be loaded before execution starts"
        );
        assert_eq!(
            programs.len(),
            self.masters.len(),
            "one program per attached master"
        );
        for (master, program) in self.masters.iter_mut().zip(programs) {
            master.fe.load_program(program);
        }
    }

    fn step(&mut self) {
        let now = self.now;
        self.steps += 1;
        // First step: register the wakeup sources (masters and slaves
        // are all attached by the time stepping starts).
        if self.wakes.len() != self.masters.len() + 2 * self.bridges.len() {
            self.cal = Calendar::new();
            self.wakes = (0..self.masters.len() + 2 * self.bridges.len())
                .map(|_| self.cal.register())
                .collect();
        }
        // Retire due wakeups; the post-step refresh recomputes every
        // source, so the fired ids themselves need no dispatch.
        self.cal.pop_due(now, |_| {});
        for m in &mut self.masters {
            m.fe.tick(now);
        }
        // 1. Bridges accept a new socket transaction when a slot is free.
        for (midx, bridge) in self.bridges.iter_mut().enumerate() {
            if bridge.occupancy() >= self.config.bridge_outstanding as usize {
                continue;
            }
            if let Some(req) = self.masters[midx].fe.pull_request() {
                let chunks = req.burst().chop(req.address(), self.config.max_burst_beats);
                if chunks.len() > 1 {
                    self.chopped += 1;
                }
                let slot = bridge
                    .inflight
                    .iter()
                    .position(|s| s.is_none())
                    .expect("occupancy checked");
                bridge.inflight[slot] = Some(InflightParent {
                    req: req.clone(),
                    collected: Vec::new(),
                    worst: RespStatus::Okay,
                    remaining: chunks.len(),
                    respond_at: u64::MAX,
                    exclusive_ok: None,
                });
                bridge.order.push_back(slot);
                for (addr, burst) in chunks {
                    bridge.subs.push_back(SubRequest {
                        parent_slot: slot,
                        addr,
                        burst,
                        eligible_at: now + self.config.request_latency as u64,
                    });
                }
            }
        }
        // 2. Crossbar: per slave, serve one eligible sub-request at a
        //    time (reference socket is fully ordered per connection).
        for sidx in 0..self.slaves.len() {
            if self.slaves[sidx].busy_until > now {
                continue;
            }
            // find an eligible sub targeting this slave, rotating over
            // masters for fairness
            let mut chosen: Option<(usize, SubRequest)> = None;
            for (midx, bridge) in self.bridges.iter_mut().enumerate() {
                let Some(front) = bridge.subs.front() else {
                    continue;
                };
                if front.eligible_at > now {
                    continue;
                }
                let Ok(dst) = self.map.decode(front.addr) else {
                    // decode error: answered without slave service
                    let sub = bridge.subs.pop_front().expect("front exists");
                    let parent = bridge.inflight[sub.parent_slot]
                        .as_mut()
                        .expect("sub references live parent");
                    parent.worst = Self::worst(parent.worst, RespStatus::DecErr);
                    parent.remaining -= 1;
                    if parent.remaining == 0 {
                        parent.respond_at = now + self.config.response_latency as u64;
                    }
                    continue;
                };
                if dst != self.slaves[sidx].node {
                    continue;
                }
                // lock gate: exclusives emulated by target locking
                if let Some(owner) = self.slaves[sidx].locked_by {
                    if owner != midx {
                        continue;
                    }
                }
                let sub = bridge.subs.pop_front().expect("front exists");
                chosen = Some((midx, sub));
                break;
            }
            if let Some((midx, sub)) = chosen {
                let parent_req = self.bridges[midx].inflight[sub.parent_slot]
                    .as_ref()
                    .expect("sub references live parent")
                    .req
                    .clone();
                let master = MstAddr::new(midx as u16);
                let opcode = parent_req.opcode();
                // Legacy lock emulation: the READEX/LOCK sequence pins
                // the target until the unlocking write completes.
                match opcode {
                    Opcode::ReadLocked => self.slaves[sidx].locked_by = Some(midx),
                    Opcode::WriteUnlock => self.slaves[sidx].locked_by = None,
                    _ => {}
                }
                // Exclusive service: the central monitor arbitrates with
                // the same arm/try/observe semantics as the NoC's target
                // NIU and the bus, so contended exclusive outcomes agree
                // record-for-record across backends. Both sides anchor
                // at the *parent* request's address, exactly like the
                // unchopped request the other backends see: arming per
                // sub would move the master's single reservation to the
                // last chunk's granule and spuriously fail multi-granule
                // exclusive pairs.
                match opcode {
                    Opcode::ReadExclusive | Opcode::ReadLinked => {
                        self.monitor.arm(master, parent_req.address());
                    }
                    Opcode::WriteExclusive | Opcode::WriteConditional => {
                        let decided = self.bridges[midx].inflight[sub.parent_slot]
                            .as_ref()
                            .expect("sub references live parent")
                            .exclusive_ok;
                        let ok = decided.unwrap_or_else(|| {
                            self.monitor
                                .try_exclusive_write(master, parent_req.address())
                                .is_success()
                        });
                        let parent = self.bridges[midx].inflight[sub.parent_slot]
                            .as_mut()
                            .expect("sub references live parent");
                        parent.exclusive_ok = Some(ok);
                        if !ok {
                            // Reservation gone: answered by the
                            // interconnect without touching the slave —
                            // nothing lands, no occupancy.
                            parent.worst = Self::worst(parent.worst, RespStatus::ExFail);
                            parent.remaining -= 1;
                            if parent.remaining == 0 {
                                parent.respond_at = now + self.config.response_latency as u64;
                            }
                            continue;
                        }
                    }
                    op if op.is_write() => {
                        // Ordinary writes break covering reservations.
                        for a in sub.burst.beat_addresses(sub.addr) {
                            self.monitor.observe_write(a);
                        }
                    }
                    _ => {}
                }
                let slave = &mut self.slaves[sidx];
                let plain = match opcode {
                    Opcode::ReadExclusive | Opcode::ReadLinked | Opcode::ReadLocked => Opcode::Read,
                    Opcode::WriteExclusive | Opcode::WriteConditional | Opcode::WriteUnlock => {
                        Opcode::Write
                    }
                    op => op,
                };
                let wdata: Vec<u8> = if plain.is_write() {
                    // slice of parent data corresponding to this chunk
                    let off = (sub.addr.wrapping_sub(
                        parent_req.address() & !(parent_req.burst().beat_bytes() as u64 - 1),
                    )) as usize;
                    let len = sub.burst.total_bytes() as usize;
                    let data = parent_req.data();
                    if off + len <= data.len() {
                        data[off..off + len].to_vec()
                    } else {
                        vec![0; len]
                    }
                } else {
                    Vec::new()
                };
                let (mut status, data) = access(
                    &mut slave.mem,
                    plain,
                    sub.addr,
                    sub.burst,
                    &wdata,
                    None,
                    master,
                );
                if opcode.is_exclusive() && status == RespStatus::Okay {
                    // the monitor already ruled in favour of this write
                    status = RespStatus::ExOkay;
                }
                slave.busy_until = now
                    + slave
                        .timing
                        .latency_for(slave.mem.latency(), opcode, sub.addr)
                    + sub.burst.beats() as u64;
                let busy_until = slave.busy_until;
                let parent = self.bridges[midx].inflight[sub.parent_slot]
                    .as_mut()
                    .expect("sub references live parent");
                parent.collected.extend_from_slice(&data);
                parent.worst = Self::worst(parent.worst, status);
                parent.remaining -= 1;
                if parent.remaining == 0 {
                    parent.respond_at = busy_until + self.config.response_latency as u64;
                }
            }
        }
        // 3. Bridges deliver completed socket responses, oldest first
        //    (the reference socket is fully ordered).
        for (midx, bridge) in self.bridges.iter_mut().enumerate() {
            let Some(&slot) = bridge.order.front() else {
                continue;
            };
            let ready = bridge.inflight[slot]
                .as_ref()
                .map(|p| p.remaining == 0 && now >= p.respond_at)
                .unwrap_or(false);
            if !ready {
                continue;
            }
            bridge.order.pop_front();
            let parent = bridge.inflight[slot].take().expect("checked some");
            if parent.req.opcode().expects_response() {
                let resp = TransactionResponse::new(
                    parent.worst,
                    MstAddr::new(midx as u16),
                    parent.req.dst(),
                    parent.req.tag(),
                    parent.collected,
                );
                self.masters[midx]
                    .fe
                    .push_response(parent.req.stream(), parent.req.opcode(), resp);
            }
        }
        self.now += 1;
        self.refresh_calendar();
    }

    fn is_done(&self) -> bool {
        self.masters.iter().all(|m| m.fe.done())
            && self
                .bridges
                .iter()
                .all(|b| b.subs.is_empty() && b.occupancy() == 0)
    }

    fn logs(&self) -> Vec<&CompletionLog> {
        self.masters.iter().map(|m| m.fe.log()).collect()
    }

    fn now(&self) -> u64 {
        self.now
    }

    fn executed_steps(&self) -> u64 {
        self.steps
    }

    /// The true event horizon of the bridged pipeline — in-flight
    /// traffic no longer forces dense stepping. Every event source
    /// (master wake cycles, per-bridge front sub-request service times,
    /// per-bridge oldest-parent response deliveries) re-registers its
    /// wakeup after each step, so the answer is a calendar peek, not a
    /// scan. Stale entries are early, never late; an early wakeup costs
    /// one spurious dense-identical step. Before the first step the
    /// calendar is cold (masters carry pre-loaded programs), so the one
    /// cold poll recomputes the same sources directly.
    fn next_activity(&self) -> Option<u64> {
        self.polls.set(self.polls.get() + 1);
        if self.steps == 0 {
            let mut horizon = Horizon::new();
            for m in &self.masters {
                horizon.merge(m.fe.wake_at());
            }
            // Sub-requests and in-flight parents only exist once
            // stepping has started, so masters are the only cold source.
            return horizon.earliest_from(self.now);
        }
        Horizon::from(self.cal.peek()).earliest_from(self.now)
    }

    fn horizon_polls(&self) -> u64 {
        self.polls.get()
    }

    fn calendar_pops(&self) -> u64 {
        self.cal.pops()
    }

    fn skip_to(&mut self, target: u64) {
        self.now = target;
    }
}

impl std::fmt::Debug for BridgedInterconnect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BridgedInterconnect")
            .field("masters", &self.masters.len())
            .field("slaves", &self.slaves.len())
            .field("now", &self.now)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_niu::fe::{AhbInitiator, OcpInitiator};
    use noc_protocols::ahb::AhbMaster;
    use noc_protocols::ocp::OcpMaster;
    use noc_protocols::SocketCommand;
    use noc_transaction::{BurstKind, StreamId};

    fn map_two() -> AddressMap {
        let mut m = AddressMap::new();
        m.add(0x0, 0x10000, SlvAddr::new(0)).unwrap();
        m.add(0x10000, 0x20000, SlvAddr::new(1)).unwrap();
        m
    }

    fn bridged() -> BridgedInterconnect {
        let mut b = BridgedInterconnect::new(BridgeConfig::default(), map_two());
        b.add_slave(SlvAddr::new(0), 0x0, MemoryModel::new(2));
        b.add_slave(SlvAddr::new(1), 0x10000, MemoryModel::new(2));
        b
    }

    #[test]
    fn write_then_read_round_trip() {
        let program = vec![
            SocketCommand::write(0x100, 4, 5).with_burst(BurstKind::Incr, 2),
            SocketCommand::read(0x100, 4).with_burst(BurstKind::Incr, 2),
        ];
        let mut ic = bridged();
        ic.add_master(AttachedMaster::new(
            "cpu",
            Box::new(AhbInitiator::new(AhbMaster::new(program))),
        ));
        assert!(ic.run(20_000));
        let recs = ic.logs()[0].records();
        assert_eq!(recs[0].data, recs[1].data);
    }

    #[test]
    fn long_bursts_are_chopped() {
        let program = vec![SocketCommand::write(0x0, 4, 1).with_burst(BurstKind::Incr, 16)];
        let mut ic = bridged();
        ic.add_master(AttachedMaster::new(
            "dma",
            Box::new(AhbInitiator::new(AhbMaster::new(program))),
        ));
        assert!(ic.run(20_000));
        assert_eq!(ic.chopped_bursts(), 1);
        assert_eq!(ic.logs()[0].len(), 1);
    }

    #[test]
    fn bridge_latency_slower_than_direct() {
        // One single-beat read: bridged latency must include 2+2 bridge
        // cycles on top of slave latency.
        let program = vec![SocketCommand::read(0x40, 4)];
        let mut ic = bridged();
        ic.add_master(AttachedMaster::new(
            "cpu",
            Box::new(AhbInitiator::new(AhbMaster::new(program))),
        ));
        assert!(ic.run(20_000));
        let lat = ic.logs()[0].records()[0].latency();
        assert!(lat >= 7, "bridged read latency {lat} must include bridges");
    }

    #[test]
    fn different_targets_served_in_parallel() {
        let m0 = vec![SocketCommand::read(0x100, 4)];
        let m1 = vec![SocketCommand::read(0x10100, 4)];
        let mut ic = bridged();
        ic.add_master(AttachedMaster::new(
            "a",
            Box::new(AhbInitiator::new(AhbMaster::new(m0))),
        ));
        ic.add_master(AttachedMaster::new(
            "b",
            Box::new(AhbInitiator::new(AhbMaster::new(m1))),
        ));
        assert!(ic.run(20_000));
        let l0 = ic.logs()[0].records()[0].latency();
        let l1 = ic.logs()[1].records()[0].latency();
        // crossbar parallelism: neither waits for the other
        assert!(l0.abs_diff(l1) <= 2, "latencies {l0} vs {l1}");
    }

    #[test]
    fn multithreaded_master_is_serialised_by_bridge() {
        // Two threads, each reading from a different target. With the
        // clamped bridge (1 outstanding) the threads serialise; widening
        // the bridge restores the concurrency the socket offers.
        let program = vec![
            SocketCommand::read(0x000, 4).with_stream(StreamId::new(0)),
            SocketCommand::read(0x10000, 4).with_stream(StreamId::new(1)),
        ];
        let finish = |outstanding: u32| {
            let cfg = BridgeConfig {
                bridge_outstanding: outstanding,
                ..BridgeConfig::default()
            };
            let mut ic = BridgedInterconnect::new(cfg, map_two());
            ic.add_slave(SlvAddr::new(0), 0x0, MemoryModel::new(2));
            ic.add_slave(SlvAddr::new(1), 0x10000, MemoryModel::new(2));
            ic.add_master(AttachedMaster::new(
                "video",
                Box::new(OcpInitiator::new(OcpMaster::new(program.clone(), 2, 2))),
            ));
            assert!(ic.run(20_000));
            ic.logs()[0]
                .records()
                .iter()
                .map(|r| r.completed_at)
                .max()
                .unwrap()
        };
        let serial = finish(1);
        let parallel = finish(2);
        assert!(
            serial > parallel,
            "clamped bridge ({serial}) must be slower than wide bridge ({parallel})"
        );
    }

    #[test]
    fn uncontended_exclusive_pair_succeeds_via_monitor() {
        let program = vec![
            SocketCommand::read(0x40, 4)
                .with_opcode(Opcode::ReadExclusive)
                .with_stream(StreamId::new(0)),
            SocketCommand::write(0x40, 4, 9)
                .with_opcode(Opcode::WriteExclusive)
                .with_stream(StreamId::new(0)),
        ];
        let mut ic = bridged();
        ic.add_master(AttachedMaster::new(
            "cpu",
            Box::new(OcpInitiator::new(OcpMaster::new(program, 1, 1))),
        ));
        assert!(ic.run(20_000));
        let recs = ic.logs()[0].records();
        assert!(recs.iter().all(|r| r.status == RespStatus::ExOkay));
    }

    #[test]
    fn chopped_exclusive_read_keeps_the_parent_reservation() {
        // A 16-beat exclusive read is chopped at max_burst_beats = 4;
        // the reservation must stay on the parent's granule, not drift
        // to the last chunk's, so the exclusive write still wins.
        let program = vec![
            SocketCommand::read(0x20, 4)
                .with_opcode(Opcode::ReadExclusive)
                .with_burst(BurstKind::Incr, 16)
                .with_stream(StreamId::new(0)),
            SocketCommand::write(0x20, 4, 9)
                .with_opcode(Opcode::WriteExclusive)
                .with_stream(StreamId::new(0)),
        ];
        let mut ic = bridged();
        ic.add_master(AttachedMaster::new(
            "cpu",
            Box::new(OcpInitiator::new(OcpMaster::new(program, 1, 1))),
        ));
        assert!(ic.run(20_000));
        assert_eq!(ic.chopped_bursts(), 1);
        let recs = ic.logs()[0].records();
        assert!(
            recs.iter().all(|r| r.status == RespStatus::ExOkay),
            "{:?}",
            recs.iter().map(|r| r.status).collect::<Vec<_>>()
        );
    }

    #[test]
    fn contended_exclusive_pair_has_exactly_one_winner() {
        // Both masters arm before either writes (delays pin the order);
        // the first exclusive write clears the loser's reservation. OCP
        // sockets preserve the EXOKAY/EXFAIL vocabulary (AHB's HRESP
        // would collapse it).
        let pair = |offset: u32| {
            vec![
                SocketCommand::read(0x40, 4)
                    .with_opcode(Opcode::ReadExclusive)
                    .with_delay(offset),
                SocketCommand::write(0x40, 4, 9)
                    .with_opcode(Opcode::WriteExclusive)
                    .with_delay(200),
            ]
        };
        let mut ic = bridged();
        ic.add_master(AttachedMaster::new(
            "a",
            Box::new(OcpInitiator::new(OcpMaster::new(pair(0), 1, 1))),
        ));
        ic.add_master(AttachedMaster::new(
            "b",
            Box::new(OcpInitiator::new(OcpMaster::new(pair(50), 1, 1))),
        ));
        assert!(ic.run(20_000));
        let verdicts: Vec<RespStatus> = ic
            .logs()
            .iter()
            .map(|l| l.records().iter().find(|r| r.index == 1).unwrap().status)
            .collect();
        assert_eq!(
            verdicts
                .iter()
                .filter(|s| **s == RespStatus::ExOkay)
                .count(),
            1,
            "exactly one contended exclusive write may win: {verdicts:?}"
        );
        assert!(verdicts.contains(&RespStatus::ExFail));
    }
}
