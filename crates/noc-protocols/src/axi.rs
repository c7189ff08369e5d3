//! AMBA AXI socket model.
//!
//! AXI is the paper's *ID-based* socket: every transaction carries an ID;
//! same-ID transactions (per direction) complete in order, different IDs
//! freely reorder. Reads and writes travel on **independent channels**
//! (AR/R vs AW/W/B), "further obscuring ordering constraints" as the
//! paper puts it. AXI also contributes the non-blocking **exclusive
//! access** pair ([`Opcode::ReadExclusive`] / [`Opcode::WriteExclusive`])
//! answered by `EXOKAY`.

use crate::command::{Program, SocketCommand};
use crate::handshake::Chan;
use crate::master::{Issuer, Master, Offer, Socket};
use crate::memory::{access, MemoryModel};
use noc_transaction::{Burst, ExclusiveMonitor, MstAddr, Opcode, RespStatus};
use std::fmt;

/// Read-address channel beat (`AR`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AxiAr {
    /// `ARID`.
    pub id: u16,
    /// `ARADDR`.
    pub addr: u64,
    /// Canonical burst (`ARLEN`/`ARSIZE`/`ARBURST`).
    pub burst: Burst,
    /// `ARLOCK = exclusive`.
    pub exclusive: bool,
}

/// Read-data channel bundle (`R`, full burst).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AxiR {
    /// `RID`.
    pub id: u16,
    /// `RRESP`.
    pub status: RespStatus,
    /// Read data.
    pub data: Vec<u8>,
}

/// Write-address channel beat with its data bundle (`AW` + `W`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AxiAw {
    /// `AWID`.
    pub id: u16,
    /// `AWADDR`.
    pub addr: u64,
    /// Canonical burst.
    pub burst: Burst,
    /// Write data (the `W` beats).
    pub data: Vec<u8>,
    /// `AWLOCK = exclusive`.
    pub exclusive: bool,
}

/// Write-response channel beat (`B`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AxiB {
    /// `BID`.
    pub id: u16,
    /// `BRESP`.
    pub status: RespStatus,
}

/// The five-channel AXI port (W folded into AW as a data bundle).
#[derive(Debug, Clone)]
pub struct AxiPort {
    /// Read address channel.
    pub ar: Chan<AxiAr>,
    /// Read data channel.
    pub r: Chan<AxiR>,
    /// Write address+data channel.
    pub aw: Chan<AxiAw>,
    /// Write response channel.
    pub b: Chan<AxiB>,
}

impl AxiPort {
    /// Creates a port with capacity-1 channels.
    pub fn new() -> Self {
        AxiPort {
            ar: Chan::new(1),
            r: Chan::new(1),
            aw: Chan::new(1),
            b: Chan::new(1),
        }
    }
}

impl Default for AxiPort {
    fn default() -> Self {
        AxiPort::new()
    }
}

/// An AXI master agent.
///
/// Commands issue in program order (one per channel per cycle), subject
/// to a per-ID outstanding limit and a total limit; responses retire out
/// of order across IDs and directions.
///
/// # Examples
///
/// ```
/// use noc_protocols::axi::{AxiMaster, AxiPort, AxiSlave};
/// use noc_protocols::{MemoryModel, SocketCommand};
/// use noc_transaction::StreamId;
///
/// let program = vec![
///     SocketCommand::write(0x0, 4, 1).with_stream(StreamId::new(0)),
///     SocketCommand::read(0x100, 4).with_stream(StreamId::new(1)),
/// ];
/// let mut master = AxiMaster::new(program, 4, 8);
/// let mut slave = AxiSlave::new(MemoryModel::new(2), 0);
/// let mut port = AxiPort::new();
/// for cycle in 0..100 {
///     master.tick(cycle, &mut port);
///     slave.tick(cycle, &mut port);
///     if master.done() { break; }
/// }
/// assert!(master.done());
/// ```
pub type AxiMaster = Master<AxiSocket>;

/// The AXI rules of an [`AxiMaster`]: one lane in program order (its
/// outstanding limit is the total limit), independent read and write
/// channels, and a per-ID, per-direction outstanding limit.
#[derive(Debug, Clone)]
pub struct AxiSocket {
    per_id_limit: u32,
    /// Outstanding reads and writes per ID: `busy[id][is_write]`.
    busy: Vec<[u32; 2]>,
}

impl AxiSocket {
    fn busy(&self, cmd: &SocketCommand) -> u32 {
        let dir = !cmd.opcode.is_read() as usize;
        self.busy
            .get(cmd.stream.raw() as usize)
            .map_or(0, |b| b[dir])
    }

    fn busy_mut(&mut self, id: u16, is_read: bool) -> &mut u32 {
        let id = id as usize;
        if self.busy.len() <= id {
            self.busy.resize(id + 1, [0; 2]);
        }
        &mut self.busy[id][!is_read as usize]
    }
}

impl AxiMaster {
    /// Creates a master with the given per-ID and total outstanding
    /// limits.
    ///
    /// # Panics
    ///
    /// Panics if either limit is zero.
    pub fn new(program: Program, per_id_limit: u32, total_limit: u32) -> Self {
        assert!(
            per_id_limit > 0 && total_limit > 0,
            "limits must be non-zero"
        );
        let socket = AxiSocket {
            per_id_limit,
            busy: Vec::new(),
        };
        Master::with_socket(program, socket, 1, total_limit)
    }
}

/// Position of the oldest outstanding read (`is_read`) or write with
/// ID `id`.
fn oldest_on(core: &Issuer, is_read: bool, id: u16) -> Option<usize> {
    core.outstanding(0)
        .position(|c| c.opcode.is_read() == is_read && c.stream.raw() == id)
}

impl Socket for AxiSocket {
    type Port = AxiPort;
    const STREAMS: bool = true;

    fn blocked(&self, core: &Issuer, lane: usize) -> bool {
        self.busy(core.head(lane)) >= self.per_id_limit
    }

    fn offer(&mut self, _lane: usize, cmd: &SocketCommand, port: &mut AxiPort) -> Offer {
        let id = cmd.stream.raw();
        let exclusive = cmd.opcode.is_exclusive();
        let accepted = if cmd.opcode.is_read() {
            port.ar.offer(AxiAr {
                id,
                addr: cmd.addr,
                burst: cmd.burst(),
                exclusive,
            })
        } else {
            port.aw.offer(AxiAw {
                id,
                addr: cmd.addr,
                burst: cmd.burst(),
                data: cmd.payload(),
                exclusive,
            })
        };
        if !accepted {
            return Offer::Refused;
        }
        *self.busy_mut(id, cmd.opcode.is_read()) += 1;
        Offer::Accepted
    }

    fn retire(&mut self, core: &mut Issuer, cycle: u64, port: &mut AxiPort) {
        // Read and write responses retire on independent channels.
        if let Some(r) = port.r.take() {
            let nth = oldest_on(core, true, r.id).expect("R for unknown ID");
            core.complete(0, nth, r.status, r.data, cycle);
            *self.busy_mut(r.id, true) -= 1;
        }
        if let Some(b) = port.b.take() {
            let nth = oldest_on(core, false, b.id).expect("B for unknown ID");
            core.complete(0, nth, b.status, Vec::new(), cycle);
            *self.busy_mut(b.id, false) -= 1;
        }
    }
}

impl fmt::Display for AxiSocket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("axi")
    }
}

/// An AXI slave agent: per-ID in-order, cross-ID reordering via banked
/// latency, exclusive monitor for the exclusive pair.
#[derive(Debug, Clone)]
pub struct AxiSlave {
    mem: MemoryModel,
    monitor: ExclusiveMonitor,
    bank_stagger: u32,
    /// Pending reads: (ready_at, accept order, response).
    pending_r: Vec<(u64, u64, AxiR)>,
    /// Pending writes: (ready_at, accept order, response).
    pending_b: Vec<(u64, u64, AxiB)>,
    accepts: u64,
}

impl AxiSlave {
    /// Creates a slave; `bank_stagger` models banked storage latency
    /// spread (see [`crate::ocp::OcpSlave::new`]).
    pub fn new(mem: MemoryModel, bank_stagger: u32) -> Self {
        AxiSlave {
            mem,
            monitor: ExclusiveMonitor::new(64, 8),
            bank_stagger,
            pending_r: Vec::new(),
            pending_b: Vec::new(),
            accepts: 0,
        }
    }

    /// The backing memory.
    pub fn memory(&self) -> &MemoryModel {
        &self.mem
    }

    fn ready_at(&self, cycle: u64, addr: u64, beats: u32) -> u64 {
        let extra = ((addr >> 8) % 4) as u32 * self.bank_stagger;
        cycle + self.mem.latency() as u64 + beats as u64 + extra as u64
    }

    /// Advances one socket cycle.
    pub fn tick(&mut self, cycle: u64, port: &mut AxiPort) {
        if let Some(ar) = port.ar.take() {
            self.accepts += 1;
            let op = if ar.exclusive {
                Opcode::ReadExclusive
            } else {
                Opcode::Read
            };
            let (status, data) = access(
                &mut self.mem,
                op,
                ar.addr,
                ar.burst,
                &[],
                Some(&mut self.monitor),
                MstAddr::new(ar.id),
            );
            let ready = self.ready_at(cycle, ar.addr, ar.burst.beats());
            self.pending_r.push((
                ready,
                self.accepts,
                AxiR {
                    id: ar.id,
                    status,
                    data,
                },
            ));
        }
        if let Some(aw) = port.aw.take() {
            self.accepts += 1;
            let op = if aw.exclusive {
                Opcode::WriteExclusive
            } else {
                Opcode::Write
            };
            let (status, _) = access(
                &mut self.mem,
                op,
                aw.addr,
                aw.burst,
                &aw.data,
                Some(&mut self.monitor),
                MstAddr::new(aw.id),
            );
            // AXI signals failed exclusives as plain OKAY (without the
            // EXOKAY marker); we keep ExFail in the canonical status so
            // the master can observe the failure (the NIU maps it back).
            let ready = self.ready_at(cycle, aw.addr, aw.burst.beats());
            self.pending_b
                .push((ready, self.accepts, AxiB { id: aw.id, status }));
        }
        // Emit one R and one B per cycle, each per-ID in order.
        if port.r.ready() {
            if let Some(i) = Self::pick(&self.pending_r, cycle, |r| r.id) {
                let (_, _, resp) = self.pending_r.remove(i);
                port.r.offer(resp);
            }
        }
        if port.b.ready() {
            if let Some(i) = Self::pick(&self.pending_b, cycle, |b| b.id) {
                let (_, _, resp) = self.pending_b.remove(i);
                port.b.offer(resp);
            }
        }
    }

    /// Picks the index of the response to send: ready ones whose ID has
    /// no older pending entry; among them, earliest (ready, order).
    fn pick<T>(pending: &[(u64, u64, T)], cycle: u64, id_of: impl Fn(&T) -> u16) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, (ready, order, item)) in pending.iter().enumerate() {
            if *ready > cycle {
                continue;
            }
            let blocked = pending
                .iter()
                .any(|(_, o2, it2)| id_of(it2) == id_of(item) && o2 < order);
            if blocked {
                continue;
            }
            best = match best {
                None => Some(i),
                Some(j) => {
                    let (rj, oj, _) = &pending[j];
                    if (*ready, *order) < (*rj, *oj) {
                        Some(i)
                    } else {
                        Some(j)
                    }
                }
            };
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{check_ahb_order, check_axi_order};
    use crate::command::SocketCommand;
    use noc_transaction::StreamId;

    fn run(program: Program, per_id: u32, total: u32, stagger: u32, cycles: u64) -> AxiMaster {
        let mut master = AxiMaster::new(program, per_id, total);
        let mut slave = AxiSlave::new(MemoryModel::new(2), stagger);
        let mut port = AxiPort::new();
        for cycle in 0..cycles {
            master.tick(cycle, &mut port);
            slave.tick(cycle, &mut port);
            if master.done() {
                break;
            }
        }
        master
    }

    #[test]
    fn read_write_round_trip() {
        let program = vec![
            SocketCommand::write(0x40, 4, 3),
            SocketCommand::read(0x40, 4).with_delay(20),
        ];
        let m = run(program, 2, 4, 0, 200);
        assert!(m.done());
        let recs = m.log().records();
        let w = recs.iter().find(|r| r.index == 0).unwrap();
        let r = recs.iter().find(|r| r.index == 1).unwrap();
        assert_eq!(w.data, r.data);
    }

    #[test]
    fn different_ids_reorder() {
        // ID 0 hits slow bank, ID 1 fast bank → ID 1 completes first.
        let program = vec![
            SocketCommand::read(0x300, 4).with_stream(StreamId::new(0)),
            SocketCommand::read(0x000, 4).with_stream(StreamId::new(1)),
        ];
        let m = run(program, 2, 8, 30, 1000);
        assert!(m.done());
        assert!(check_axi_order(m.log()).is_ok());
        assert!(
            check_ahb_order(m.log()).is_err(),
            "cross-ID reorder expected"
        );
    }

    #[test]
    fn same_id_stays_ordered_despite_banks() {
        // Same ID, slow bank then fast bank: must still complete in order.
        let program = vec![
            SocketCommand::read(0x300, 4).with_stream(StreamId::new(7)),
            SocketCommand::read(0x000, 4).with_stream(StreamId::new(7)),
        ];
        let m = run(program, 4, 8, 30, 1000);
        assert!(m.done());
        let order: Vec<usize> = m.log().records().iter().map(|r| r.index).collect();
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn reads_and_writes_use_independent_channels() {
        // A long read and a write issued back-to-back: the write (fast
        // bank) may finish before the read (slow bank) even with one ID.
        let program = vec![
            SocketCommand::read(0x300, 4).with_stream(StreamId::new(2)),
            SocketCommand::write(0x000, 4, 1).with_stream(StreamId::new(2)),
        ];
        let m = run(program, 2, 8, 30, 1000);
        assert!(m.done());
        assert!(check_axi_order(m.log()).is_ok());
        let order: Vec<usize> = m.log().records().iter().map(|r| r.index).collect();
        assert_eq!(order, vec![1, 0], "write overtakes read on its own channel");
    }

    #[test]
    fn exclusive_pair_exokay() {
        let program = vec![
            SocketCommand::read(0x80, 4).with_opcode(Opcode::ReadExclusive),
            SocketCommand::write(0x80, 4, 9)
                .with_opcode(Opcode::WriteExclusive)
                .with_delay(30),
        ];
        let m = run(program, 2, 4, 0, 500);
        assert!(m.done());
        let recs = m.log().records();
        assert!(recs.iter().all(|r| r.status == RespStatus::ExOkay));
    }

    #[test]
    fn exclusive_write_fails_when_broken() {
        let program = vec![
            SocketCommand::read(0x80, 4).with_opcode(Opcode::ReadExclusive),
            SocketCommand::write(0x80, 4, 1).with_delay(20), // plain write breaks it
            SocketCommand::write(0x80, 4, 9)
                .with_opcode(Opcode::WriteExclusive)
                .with_delay(40),
        ];
        let m = run(program, 4, 8, 0, 1000);
        assert!(m.done());
        let wx = m.log().records().iter().find(|r| r.index == 2).unwrap();
        assert_eq!(wx.status, RespStatus::ExFail);
    }

    #[test]
    fn per_id_limit_throttles_issue() {
        let program: Program = (0..8)
            .map(|i| SocketCommand::read(i * 4, 4).with_stream(StreamId::new(0)))
            .collect();
        let slow = run(program.clone(), 1, 8, 0, 2000);
        let fast = run(program, 8, 8, 0, 2000);
        let finish = |m: &AxiMaster| {
            m.log()
                .records()
                .iter()
                .map(|r| r.completed_at)
                .max()
                .unwrap()
        };
        assert!(finish(&fast) < finish(&slow));
    }

    #[test]
    fn total_limit_bounds_outstanding() {
        let program: Program = (0..8)
            .map(|i| SocketCommand::read(i * 4, 4).with_stream(StreamId::new(i as u16)))
            .collect();
        let m = run(program, 8, 2, 0, 2000);
        assert!(m.done());
        assert_eq!(m.log().len(), 8);
    }

    #[test]
    fn display() {
        let m = AxiMaster::new(vec![], 1, 1);
        assert!(m.to_string().contains("axi-master"));
    }
}
