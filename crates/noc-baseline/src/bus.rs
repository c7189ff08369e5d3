//! The shared pipelined bus baseline.

use crate::{AttachedMaster, Interconnect, SlaveTiming};
use noc_kernel::{Calendar, Horizon, WakeId};
use noc_protocols::memory::access;
use noc_protocols::{CompletionLog, MemoryModel};
use noc_transaction::{
    AddressMap, ExclusiveMonitor, MstAddr, Opcode, RespStatus, TransactionRequest,
    TransactionResponse,
};
use std::cell::Cell;

/// Bus timing parameters.
#[derive(Debug, Clone, Copy)]
pub struct BusConfig {
    /// Cycles from grant to address-phase completion.
    pub arbitration_cycles: u32,
    /// Extra cycles per data beat on the shared data wires.
    pub cycles_per_beat: u32,
}

impl Default for BusConfig {
    fn default() -> Self {
        BusConfig {
            arbitration_cycles: 1,
            cycles_per_beat: 1,
        }
    }
}

#[derive(Clone)]
struct BusSlave {
    base: u64,
    mem: MemoryModel,
    timing: SlaveTiming,
}

/// An AHB-style shared bus: one transaction occupies the bus at a time;
/// masters arbitrate round-robin; locked sequences hold the grant.
///
/// Multi-threaded and ID-based masters lose their concurrency here —
/// everything is serialised, which is exactly what the Fig 1 / Fig 2
/// comparison measures.
#[derive(Clone)]
pub struct SharedBus {
    config: BusConfig,
    masters: Vec<AttachedMaster>,
    map: AddressMap,
    slaves: Vec<BusSlave>,
    monitor: ExclusiveMonitor,
    rr: usize,
    lock_owner: Option<usize>,
    /// In-service transaction: (master, request, completion cycle).
    busy: Option<(usize, TransactionRequest, u64)>,
    now: u64,
    steps: u64,
    granted: u64,
    /// Wakeup calendar: ids `0..M` are the masters' wake cycles,
    /// id `M` the in-service transaction's completion cycle. Every
    /// source re-registers after each step ([`Calendar::set`] no-ops on
    /// unchanged cycles), so `next_activity` is a peek, not a scan.
    cal: Calendar,
    wakes: Vec<WakeId>,
    polls: Cell<u64>,
}

impl SharedBus {
    /// Creates a bus over the given address map.
    pub fn new(config: BusConfig, map: AddressMap) -> Self {
        SharedBus {
            config,
            masters: Vec::new(),
            map,
            slaves: Vec::new(),
            monitor: ExclusiveMonitor::new(64, 16),
            rr: 0,
            lock_owner: None,
            busy: None,
            now: 0,
            steps: 0,
            granted: 0,
            cal: Calendar::new(),
            wakes: Vec::new(),
            polls: Cell::new(0),
        }
    }

    /// Attaches a master front end.
    pub fn add_master(&mut self, master: AttachedMaster) -> &mut Self {
        self.masters.push(master);
        self
    }

    /// Attaches a memory slave serving the address range that the map
    /// assigns it (identified by base address).
    pub fn add_slave(&mut self, base: u64, mem: MemoryModel) -> &mut Self {
        self.add_slave_timed(base, mem, SlaveTiming::default())
    }

    /// Attaches a slave with explicit IP-side service timing (register
    /// blocks with a slower write path, banked AXI slave IPs).
    pub fn add_slave_timed(
        &mut self,
        base: u64,
        mem: MemoryModel,
        timing: SlaveTiming,
    ) -> &mut Self {
        self.slaves.push(BusSlave { base, mem, timing });
        self
    }

    /// Total grants issued (bus transactions).
    pub fn grants(&self) -> u64 {
        self.granted
    }

    fn slave_for(&mut self, addr: u64) -> Option<&mut BusSlave> {
        // Identify by map: find the range containing addr, then the slave
        // whose base falls inside it.
        let range = self.map.iter().find(|(r, _)| r.contains(addr))?;
        self.slaves.iter_mut().find(|s| range.0.contains(s.base))
    }

    /// Re-registers every event source's wakeup after a step; called on
    /// every exit path of [`Interconnect::step`].
    fn refresh_calendar(&mut self) {
        let now = self.now;
        for (m, master) in self.masters.iter().enumerate() {
            self.cal
                .set(self.wakes[m], master.fe.wake_at().map(|t| t.max(now)));
        }
        let busy_at = self.busy.as_ref().map(|&(_, _, done_at)| done_at);
        self.cal.set(self.wakes[self.masters.len()], busy_at);
    }
}

impl Interconnect for SharedBus {
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
        // First step: register the wakeup sources (all masters are
        // attached by the time stepping starts).
        if self.wakes.len() != self.masters.len() + 1 {
            self.cal = Calendar::new();
            self.wakes = (0..self.masters.len() + 1)
                .map(|_| self.cal.register())
                .collect();
        }
        // Retire due wakeups; the post-step refresh recomputes every
        // source, so the fired ids themselves need no dispatch.
        self.cal.pop_due(now, |_| {});
        for m in &mut self.masters {
            m.fe.tick(now);
        }
        // Complete the in-service transaction.
        if let Some((midx, req, done_at)) = &self.busy {
            if now >= *done_at {
                let (midx, req) = (*midx, req.clone());
                self.busy = None;
                let master = MstAddr::new(midx as u16);
                let (status, data) = match self.map.decode(req.address()) {
                    Err(_) => (RespStatus::DecErr, Vec::new()),
                    Ok(_) => {
                        // Monitor first (single serialisation point).
                        match req.opcode() {
                            Opcode::ReadExclusive | Opcode::ReadLinked => {
                                self.monitor.arm(master, req.address());
                            }
                            Opcode::WriteExclusive | Opcode::WriteConditional
                                if !self
                                    .monitor
                                    .try_exclusive_write(master, req.address())
                                    .is_success() =>
                            {
                                let resp = TransactionResponse::new(
                                    RespStatus::ExFail,
                                    master,
                                    req.dst(),
                                    req.tag(),
                                    Vec::new(),
                                );
                                self.masters[midx].fe.push_response(
                                    req.stream(),
                                    req.opcode(),
                                    resp,
                                );
                                self.now += 1;
                                self.refresh_calendar();
                                return;
                            }
                            op if op.is_write() => {
                                for a in req.burst().beat_addresses(req.address()) {
                                    self.monitor.observe_write(a);
                                }
                            }
                            _ => {}
                        }
                        let plain = match req.opcode() {
                            Opcode::ReadExclusive | Opcode::ReadLinked | Opcode::ReadLocked => {
                                Opcode::Read
                            }
                            Opcode::WriteExclusive
                            | Opcode::WriteConditional
                            | Opcode::WriteUnlock => Opcode::Write,
                            op => op,
                        };
                        match self.slave_for(req.address()) {
                            Some(slave) => {
                                let (st, data) = access(
                                    &mut slave.mem,
                                    plain,
                                    req.address(),
                                    req.burst(),
                                    req.data(),
                                    None,
                                    master,
                                );
                                let st = if req.opcode().is_exclusive() && st == RespStatus::Okay {
                                    RespStatus::ExOkay
                                } else {
                                    st
                                };
                                (st, data)
                            }
                            None => (RespStatus::DecErr, Vec::new()),
                        }
                    }
                };
                // Lock bookkeeping.
                match req.opcode() {
                    Opcode::ReadLocked => self.lock_owner = Some(midx),
                    Opcode::WriteUnlock => self.lock_owner = None,
                    _ => {}
                }
                if req.opcode().expects_response() {
                    let resp = TransactionResponse::new(status, master, req.dst(), req.tag(), data);
                    self.masters[midx]
                        .fe
                        .push_response(req.stream(), req.opcode(), resp);
                }
            }
        }
        // Grant the bus (round-robin, lock owner has absolute priority).
        if self.busy.is_none() {
            let n = self.masters.len();
            let order: Vec<usize> = match self.lock_owner {
                Some(owner) => vec![owner],
                None => (0..n).map(|k| (self.rr + k) % n).collect(),
            };
            for midx in order {
                if let Some(req) = self.masters[midx].fe.pull_request() {
                    let beats = req.burst().beats();
                    let (opcode, addr) = (req.opcode(), req.address());
                    let slave_latency = self
                        .map
                        .decode(addr)
                        .ok()
                        .and_then(|_| {
                            self.slave_for(addr)
                                .map(|s| s.timing.latency_for(s.mem.latency(), opcode, addr))
                        })
                        .unwrap_or(0);
                    let done_at = now
                        + self.config.arbitration_cycles as u64
                        + (beats * self.config.cycles_per_beat) as u64
                        + slave_latency;
                    self.busy = Some((midx, req, done_at));
                    self.granted += 1;
                    self.rr = (midx + 1) % n;
                    break;
                }
            }
        }
        self.now += 1;
        self.refresh_calendar();
    }

    fn is_done(&self) -> bool {
        self.busy.is_none() && self.masters.iter().all(|m| m.fe.done())
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

    /// The nearest master self-activity (a master's wake cycle) or
    /// the in-service transaction completing (`done_at`), whichever
    /// comes first — answered from the wakeup calendar once stepping
    /// has started. Before the first step the calendar is cold (masters
    /// carry pre-loaded programs), so the one cold poll scans the same
    /// sources directly.
    fn next_activity(&self) -> Option<u64> {
        self.polls.set(self.polls.get() + 1);
        if self.steps == 0 {
            let mut horizon = Horizon::new();
            for m in &self.masters {
                horizon.merge(m.fe.wake_at());
            }
            if let Some((_, _, done_at)) = self.busy {
                horizon.merge_at(done_at);
            }
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

impl std::fmt::Debug for SharedBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedBus")
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
    use noc_protocols::{Program, SocketCommand};
    use noc_transaction::SlvAddr;

    fn map_one() -> AddressMap {
        let mut m = AddressMap::new();
        m.add(0x0, 0x10000, SlvAddr::new(0)).unwrap();
        m
    }

    fn bus_with(programs: Vec<Program>) -> SharedBus {
        let mut bus = SharedBus::new(BusConfig::default(), map_one());
        for (i, p) in programs.into_iter().enumerate() {
            bus.add_master(AttachedMaster::new(
                &format!("m{i}"),
                Box::new(AhbInitiator::new(AhbMaster::new(p))),
            ));
        }
        bus.add_slave(0x0, MemoryModel::new(2));
        bus
    }

    #[test]
    fn single_master_read_write() {
        let program = vec![
            SocketCommand::write(0x100, 4, 5),
            SocketCommand::read(0x100, 4),
        ];
        let mut bus = bus_with(vec![program]);
        assert!(bus.run(10_000));
        let logs = bus.logs();
        assert_eq!(logs[0].len(), 2);
        let recs = logs[0].records();
        assert_eq!(recs[0].data, recs[1].data);
    }

    #[test]
    fn bus_serialises_masters() {
        let mk = |seed| vec![SocketCommand::write(0x100 + seed * 0x10, 4, seed)];
        let mut bus = bus_with(vec![mk(1), mk(2), mk(3)]);
        assert!(bus.run(10_000));
        assert_eq!(bus.grants(), 3);
        // completions cannot overlap: end cycles strictly ordered
        let mut ends: Vec<u64> = bus
            .logs()
            .iter()
            .map(|l| l.records()[0].completed_at)
            .collect();
        ends.sort_unstable();
        assert!(ends.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn ocp_threads_lose_concurrency_on_bus() {
        // Two threads issuing two reads each: on the bus they serialise.
        let program = vec![
            SocketCommand::read(0x000, 4).with_stream(noc_transaction::StreamId::new(0)),
            SocketCommand::read(0x100, 4).with_stream(noc_transaction::StreamId::new(1)),
            SocketCommand::read(0x004, 4).with_stream(noc_transaction::StreamId::new(0)),
            SocketCommand::read(0x104, 4).with_stream(noc_transaction::StreamId::new(1)),
        ];
        let mut bus = SharedBus::new(BusConfig::default(), map_one());
        bus.add_master(AttachedMaster::new(
            "ocp",
            Box::new(OcpInitiator::new(OcpMaster::new(program, 2, 2))),
        ));
        bus.add_slave(0x0, MemoryModel::new(2));
        assert!(bus.run(10_000));
        assert_eq!(bus.logs()[0].len(), 4);
    }

    #[test]
    fn locked_sequence_holds_grant() {
        let locker = vec![
            SocketCommand::read(0x40, 4).with_opcode(Opcode::ReadLocked),
            SocketCommand::write(0x40, 4, 7).with_opcode(Opcode::WriteUnlock),
        ];
        let other = vec![SocketCommand::read(0x80, 4)];
        let mut bus = bus_with(vec![locker, other]);
        assert!(bus.run(10_000));
        // Both finish; the locked pair is back-to-back.
        let logs = bus.logs();
        assert_eq!(logs[0].len(), 2);
        assert_eq!(logs[1].len(), 1);
    }

    #[test]
    fn exclusive_pair_on_bus() {
        let program = vec![
            SocketCommand::read(0x40, 4).with_opcode(Opcode::ReadExclusive),
            SocketCommand::write(0x40, 4, 9).with_opcode(Opcode::WriteExclusive),
        ];
        let mut bus = SharedBus::new(BusConfig::default(), map_one());
        bus.add_master(AttachedMaster::new(
            "ocp",
            Box::new(OcpInitiator::new(OcpMaster::new(
                program
                    .into_iter()
                    .map(|c| c.with_stream(noc_transaction::StreamId::new(0)))
                    .collect(),
                1,
                1,
            ))),
        ));
        bus.add_slave(0x0, MemoryModel::new(1));
        assert!(bus.run(10_000));
        let recs = bus.logs()[0].records();
        assert!(recs.iter().all(|r| r.status == RespStatus::ExOkay));
    }

    #[test]
    fn unmapped_address_decerr() {
        let program = vec![SocketCommand::read(0xDEAD_0000, 4)];
        let mut bus = bus_with(vec![program]);
        assert!(bus.run(10_000));
        assert_eq!(bus.logs()[0].records()[0].status, RespStatus::DecErr);
    }
}
