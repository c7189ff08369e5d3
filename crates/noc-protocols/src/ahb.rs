//! AMBA AHB 2.0 socket model.
//!
//! AHB is the canonical *fully ordered* socket of paper §3: a single
//! outstanding transaction (pipelined address/data collapse into one
//! request/response exchange here), responses strictly in request order,
//! and locked sequences via `HMASTLOCK` — the master raises the lock with
//! a [`Opcode::ReadLocked`] and drops it with the matching
//! [`Opcode::WriteUnlock`].

use crate::command::{Program, SocketCommand};
use crate::handshake::Chan;
use crate::master::{Issuer, Master, Offer, Socket};
use crate::memory::{access, MemoryModel};
use noc_transaction::{Burst, MstAddr, Opcode, RespStatus};
use std::fmt;

/// An AHB request: address phase plus (for writes) the data phase bundle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AhbReq {
    /// Canonical opcode (AHB knows reads, writes and locked variants).
    pub opcode: Opcode,
    /// `HADDR`.
    pub addr: u64,
    /// `HBURST`/`HSIZE` as a canonical burst.
    pub burst: Burst,
    /// Write data (`HWDATA` beats), empty for reads.
    pub data: Vec<u8>,
    /// `HMASTLOCK` state during this transfer.
    pub locked: bool,
}

/// An AHB response: `HRESP` plus read data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AhbResp {
    /// Response status (AHB only distinguishes OKAY/ERROR; richer NoC
    /// statuses are mapped by the NIU before reaching the socket).
    pub status: RespStatus,
    /// Read data (`HRDATA` beats), empty for writes.
    pub data: Vec<u8>,
}

/// The AHB master↔slave port: one request and one response channel.
#[derive(Debug, Clone)]
pub struct AhbPort {
    /// Master → slave requests.
    pub req: Chan<AhbReq>,
    /// Slave → master responses.
    pub resp: Chan<AhbResp>,
}

impl AhbPort {
    /// Creates an unregistered (capacity-1) port.
    pub fn new() -> Self {
        AhbPort {
            req: Chan::new(1),
            resp: Chan::new(1),
        }
    }
}

impl Default for AhbPort {
    fn default() -> Self {
        AhbPort::new()
    }
}

/// An AHB master agent executing a [`Program`] with single-outstanding,
/// fully-ordered semantics.
///
/// # Examples
///
/// ```
/// use noc_protocols::ahb::{AhbMaster, AhbPort, AhbSlave};
/// use noc_protocols::{MemoryModel, SocketCommand};
///
/// let program = vec![
///     SocketCommand::write(0x100, 4, 1),
///     SocketCommand::read(0x100, 4),
/// ];
/// let mut master = AhbMaster::new(program);
/// let mut slave = AhbSlave::new(MemoryModel::new(2));
/// let mut port = AhbPort::new();
/// for cycle in 0..100 {
///     master.tick(cycle, &mut port);
///     slave.tick(cycle, &mut port);
///     if master.done() { break; }
/// }
/// assert!(master.done());
/// assert_eq!(master.log().len(), 2);
/// // The read observed the written data:
/// assert_eq!(master.log().records()[1].data, master.log().records()[0].data);
/// ```
pub type AhbMaster = Master<AhbSocket>;

/// The AHB rules of an [`AhbMaster`]: one lane, one outstanding
/// transfer, and the `HMASTLOCK` state a locked sequence raises.
#[derive(Debug, Clone, Default)]
pub struct AhbSocket {
    locked: bool,
}

impl AhbMaster {
    /// Creates a master that will execute `program`.
    pub fn new(program: Program) -> Self {
        Master::with_socket(program, AhbSocket::default(), 1, 1)
    }

    /// Returns `true` while the master is inside a locked sequence.
    pub fn is_locked(&self) -> bool {
        self.socket().locked
    }
}

impl Socket for AhbSocket {
    type Port = AhbPort;
    const STREAMS: bool = false;

    fn offer(&mut self, _lane: usize, cmd: &SocketCommand, port: &mut AhbPort) -> Offer {
        let req = AhbReq {
            opcode: cmd.opcode,
            addr: cmd.addr,
            burst: cmd.burst(),
            data: if cmd.opcode.is_write() {
                cmd.payload()
            } else {
                Vec::new()
            },
            locked: self.locked || cmd.opcode == Opcode::ReadLocked,
        };
        if !port.req.offer(req) {
            return Offer::Refused;
        }
        self.locked |= cmd.opcode == Opcode::ReadLocked;
        Offer::Accepted
    }

    fn retire(&mut self, core: &mut Issuer, cycle: u64, port: &mut AhbPort) {
        if core.outstanding(0).len() == 0 {
            return;
        }
        if let Some(resp) = port.resp.take() {
            if core.complete(0, 0, resp.status, resp.data, cycle).opcode == Opcode::WriteUnlock {
                self.locked = false;
            }
        }
    }
}

impl fmt::Display for AhbSocket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ahb")
    }
}

/// An AHB slave agent backed by a [`MemoryModel`].
///
/// Response timing: `latency + beats` cycles after request acceptance
/// (the beats term charges the data phases a real AHB transfer occupies).
#[derive(Debug, Clone)]
pub struct AhbSlave {
    mem: MemoryModel,
    pending: Option<(AhbReq, u64)>,
}

impl AhbSlave {
    /// Creates a slave over `mem`.
    pub fn new(mem: MemoryModel) -> Self {
        AhbSlave { mem, pending: None }
    }

    /// The backing memory (for test inspection).
    pub fn memory(&self) -> &MemoryModel {
        &self.mem
    }

    /// Advances one socket cycle.
    pub fn tick(&mut self, cycle: u64, port: &mut AhbPort) {
        if self.pending.is_none() {
            if let Some(req) = port.req.take() {
                let ready = cycle + self.mem.latency() as u64 + req.burst.beats() as u64;
                self.pending = Some((req, ready));
            }
        }
        if let Some((req, ready)) = &self.pending {
            if cycle >= *ready && port.resp.ready() {
                let (status, data) = access(
                    &mut self.mem,
                    req.opcode,
                    req.addr,
                    req.burst,
                    &req.data,
                    None,
                    MstAddr::new(0),
                );
                // AHB cannot express EXOKAY: collapse to OKAY.
                let status = match status {
                    RespStatus::ExOkay => RespStatus::Okay,
                    s => s,
                };
                port.resp.offer(AhbResp { status, data });
                self.pending = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::check_ahb_order;
    use crate::command::SocketCommand;
    use noc_transaction::BurstKind;

    fn run(program: Program, latency: u32, cycles: u64) -> (AhbMaster, AhbSlave) {
        let mut master = AhbMaster::new(program);
        let mut slave = AhbSlave::new(MemoryModel::new(latency));
        let mut port = AhbPort::new();
        for cycle in 0..cycles {
            master.tick(cycle, &mut port);
            slave.tick(cycle, &mut port);
            if master.done() {
                break;
            }
        }
        (master, slave)
    }

    #[test]
    fn single_read_completes() {
        let (m, _) = run(vec![SocketCommand::read(0x10, 4)], 1, 50);
        assert!(m.done());
        assert_eq!(m.log().len(), 1);
        assert_eq!(m.log().records()[0].status, RespStatus::Okay);
        assert_eq!(m.log().records()[0].data.len(), 4);
    }

    #[test]
    fn write_read_data_integrity() {
        let program = vec![
            SocketCommand::write(0x200, 4, 99).with_burst(BurstKind::Incr, 4),
            SocketCommand::read(0x200, 4).with_burst(BurstKind::Incr, 4),
        ];
        let (m, _) = run(program, 2, 100);
        assert!(m.done());
        let recs = m.log().records();
        assert_eq!(recs[0].data, recs[1].data, "read returns written data");
        assert_eq!(recs[1].data.len(), 16);
    }

    #[test]
    fn completions_in_program_order() {
        let program: Program = (0..10)
            .map(|i| SocketCommand::read(0x100 + i * 4, 4))
            .collect();
        let (m, _) = run(program, 1, 500);
        assert!(m.done());
        assert!(check_ahb_order(m.log()).is_ok());
        let order: Vec<usize> = m.log().records().iter().map(|r| r.index).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn single_outstanding_enforced_by_latency() {
        // With latency 10 per op, 3 ops take >= 30 cycles (no pipelining).
        let program: Program = (0..3).map(|i| SocketCommand::read(i * 4, 4)).collect();
        let (m, _) = run(program, 10, 500);
        let last = m.log().records().last().unwrap();
        assert!(
            last.completed_at >= 33,
            "completed at {}",
            last.completed_at
        );
    }

    #[test]
    fn delay_before_respected() {
        let program = vec![
            SocketCommand::read(0, 4),
            SocketCommand::read(4, 4).with_delay(20),
        ];
        let (m, _) = run(program, 1, 200);
        let recs = m.log().records();
        assert!(
            recs[1].issued_at >= recs[0].completed_at + 20,
            "second issue {} vs first completion {}",
            recs[1].issued_at,
            recs[0].completed_at
        );
    }

    #[test]
    fn locked_sequence_tracks_hmastlock() {
        let program = vec![
            SocketCommand::read(0x40, 4).with_opcode(Opcode::ReadLocked),
            SocketCommand::write(0x40, 4, 7).with_opcode(Opcode::WriteUnlock),
            SocketCommand::read(0x80, 4),
        ];
        let mut master = AhbMaster::new(program);
        let mut slave = AhbSlave::new(MemoryModel::new(1));
        let mut port = AhbPort::new();
        let mut saw_locked = false;
        for cycle in 0..200 {
            master.tick(cycle, &mut port);
            if let Some(req) = port.req.peek() {
                if req.locked {
                    saw_locked = true;
                }
                if req.opcode == Opcode::Read {
                    assert!(!req.locked, "lock must drop after WriteUnlock");
                }
            }
            slave.tick(cycle, &mut port);
            if master.done() {
                break;
            }
        }
        assert!(master.done());
        assert!(saw_locked);
        assert!(!master.is_locked());
    }

    #[test]
    fn slave_charges_burst_occupancy() {
        let one = vec![SocketCommand::read(0, 4)];
        let (m1, _) = run(one, 1, 100);
        let burst = vec![SocketCommand::read(0, 4).with_burst(BurstKind::Incr, 16)];
        let (m16, _) = run(burst, 1, 100);
        assert!(
            m16.log().records()[0].latency() > m1.log().records()[0].latency(),
            "longer bursts take longer on the socket"
        );
    }

    #[test]
    fn display() {
        let m = AhbMaster::new(vec![]);
        assert!(m.to_string().contains("ahb-master"));
    }

    #[test]
    fn wake_at_matches_dense_countdown() {
        for period in [1u64, 3] {
            let program = vec![SocketCommand::read(0, 4).with_delay(10)];
            let mut dense = AhbMaster::new(program.clone());
            let mut jumped = AhbMaster::new(program);
            dense.set_clock_period(period);
            jumped.set_clock_period(period);
            let wake = jumped.wake_at().expect("counting down");
            assert_eq!(wake, 10 * period);
            let mut port_d = AhbPort::new();
            let mut port_j = AhbPort::new();
            for c in (0..wake).step_by(period as usize) {
                dense.tick(c, &mut port_d);
                assert!(port_d.req.is_empty(), "cycle {c} is a pure countdown");
                assert_eq!(dense.wake_at(), Some(wake), "the deadline never moves");
            }
            dense.tick(wake, &mut port_d);
            jumped.tick(wake, &mut port_j);
            assert_eq!(
                port_d.req.take(),
                port_j.req.take(),
                "same issue, same cycle"
            );
            // waiting on a response / drained = quiescent until input
            assert_eq!(dense.wake_at(), None);
        }
        assert_eq!(AhbMaster::new(vec![]).wake_at(), None);
    }
}
