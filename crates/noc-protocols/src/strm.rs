//! A proprietary streaming socket (`STRM`).
//!
//! The paper's Fig 1 includes "proprietary" and "other" VC sockets; this
//! module is ours, demonstrating that the NoC transaction layer absorbs a
//! non-standard socket through nothing but an NIU. `STRM` is typical of
//! display/capture pipelines:
//!
//! - posted write bursts (`tx`) that complete on acceptance, and
//! - address-sequential read requests (`rreq`/`rdata`) with an *urgency*
//!   sideband that the NIU maps to NoC pressure (QoS) — a socket-specific
//!   feature supported per paper §2 by adding packet bits, not by
//!   touching the fabric.

use crate::command::{Program, SocketCommand};
use crate::handshake::Chan;
use crate::master::{Issuer, Master, Offer, Socket};
use crate::memory::{access, MemoryModel};
use noc_transaction::{Burst, MstAddr, Opcode, RespStatus};
use std::collections::VecDeque;
use std::fmt;

/// A posted streaming write burst.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrmWrite {
    /// Destination address of the burst.
    pub addr: u64,
    /// Canonical burst shape.
    pub burst: Burst,
    /// Payload.
    pub data: Vec<u8>,
    /// Urgency sideband (0–3), mapped to NoC pressure by the NIU.
    pub urgency: u8,
}

/// A streaming read request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrmReadReq {
    /// Source address.
    pub addr: u64,
    /// Canonical burst shape.
    pub burst: Burst,
    /// Urgency sideband.
    pub urgency: u8,
}

/// Streaming read data (whole burst).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrmReadData {
    /// The data.
    pub data: Vec<u8>,
    /// Status (streams can still hit decode errors).
    pub status: RespStatus,
}

/// The STRM port.
#[derive(Debug, Clone)]
pub struct StrmPort {
    /// Posted write stream.
    pub tx: Chan<StrmWrite>,
    /// Read request stream.
    pub rreq: Chan<StrmReadReq>,
    /// Read data stream (in request order — STRM is fully ordered).
    pub rdata: Chan<StrmReadData>,
}

impl StrmPort {
    /// Creates a port with capacity-1 channels.
    pub fn new() -> Self {
        StrmPort {
            tx: Chan::new(1),
            rreq: Chan::new(1),
            rdata: Chan::new(1),
        }
    }
}

impl Default for StrmPort {
    fn default() -> Self {
        StrmPort::new()
    }
}

/// A STRM master agent: writes are posted, reads are pipelined and fully
/// ordered.
///
/// # Examples
///
/// ```
/// use noc_protocols::strm::{StrmMaster, StrmPort, StrmSlave};
/// use noc_protocols::{MemoryModel, SocketCommand};
/// use noc_transaction::Opcode;
///
/// let program = vec![
///     SocketCommand::write(0x0, 4, 1).with_opcode(Opcode::WritePosted),
///     SocketCommand::read(0x0, 4),
/// ];
/// let mut master = StrmMaster::new(program, 4);
/// let mut slave = StrmSlave::new(MemoryModel::new(1));
/// let mut port = StrmPort::new();
/// for cycle in 0..100 {
///     master.tick(cycle, &mut port);
///     slave.tick(cycle, &mut port);
///     if master.done() { break; }
/// }
/// assert!(master.done());
/// ```
pub type StrmMaster = Master<StrmSocket>;

/// The STRM rules of a [`StrmMaster`]: one lane, posted writes, and a
/// limit on outstanding reads.
#[derive(Debug, Clone)]
pub struct StrmSocket {
    read_limit: u32,
}

impl StrmMaster {
    /// Creates a master allowing `read_limit` outstanding reads.
    ///
    /// # Panics
    ///
    /// Panics if `read_limit` is zero or the program contains opcodes the
    /// socket cannot express (anything but reads and posted writes).
    pub fn new(program: Program, read_limit: u32) -> Self {
        assert!(read_limit > 0, "read limit must be non-zero");
        // Only reads stay outstanding, and the read limit gates them at
        // issue; the lane itself always counts down.
        Master::with_socket(program, StrmSocket { read_limit }, 1, u32::MAX)
    }
}

impl Socket for StrmSocket {
    type Port = StrmPort;
    const STREAMS: bool = false;

    fn validate(&self, index: usize, cmd: &SocketCommand) {
        assert!(
            matches!(
                cmd.opcode,
                Opcode::Read | Opcode::WritePosted | Opcode::Write
            ),
            "STRM cannot express {:?} (command {index})",
            cmd.opcode
        );
    }

    fn blocked(&self, core: &Issuer, lane: usize) -> bool {
        core.outstanding(lane).len() as u32 >= self.read_limit && core.head(lane).opcode.is_read()
    }

    fn offer(&mut self, _lane: usize, cmd: &SocketCommand, port: &mut StrmPort) -> Offer {
        if cmd.opcode.is_read() {
            let req = StrmReadReq {
                addr: cmd.addr,
                burst: cmd.burst(),
                urgency: cmd.pressure,
            };
            if port.rreq.offer(req) {
                return Offer::Accepted;
            }
        } else {
            let w = StrmWrite {
                addr: cmd.addr,
                burst: cmd.burst(),
                data: cmd.payload(),
                urgency: cmd.pressure,
            };
            if port.tx.offer(w) {
                return Offer::Posted;
            }
        }
        Offer::Refused
    }

    fn retire(&mut self, core: &mut Issuer, cycle: u64, port: &mut StrmPort) {
        if let Some(rd) = port.rdata.take() {
            core.complete(0, 0, rd.status, rd.data, cycle);
        }
    }
}

impl fmt::Display for StrmSocket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("strm")
    }
}

/// A STRM slave agent (FIFO semantics over a memory).
#[derive(Debug, Clone)]
pub struct StrmSlave {
    mem: MemoryModel,
    pending: VecDeque<(u64, StrmReadData)>,
}

impl StrmSlave {
    /// Creates a slave over `mem`.
    pub fn new(mem: MemoryModel) -> Self {
        StrmSlave {
            mem,
            pending: VecDeque::new(),
        }
    }

    /// The backing memory.
    pub fn memory(&self) -> &MemoryModel {
        &self.mem
    }

    /// Advances one socket cycle.
    pub fn tick(&mut self, cycle: u64, port: &mut StrmPort) {
        if let Some(w) = port.tx.take() {
            let _ = access(
                &mut self.mem,
                Opcode::WritePosted,
                w.addr,
                w.burst,
                &w.data,
                None,
                MstAddr::new(0),
            );
        }
        if let Some(r) = port.rreq.take() {
            let ready = cycle + self.mem.latency() as u64 + r.burst.beats() as u64;
            let (status, data) = access(
                &mut self.mem,
                Opcode::Read,
                r.addr,
                r.burst,
                &[],
                None,
                MstAddr::new(0),
            );
            self.pending
                .push_back((ready, StrmReadData { data, status }));
        }
        if port.rdata.ready() {
            if let Some(&(ready, _)) = self.pending.front() {
                if ready <= cycle {
                    let (_, rd) = self.pending.pop_front().expect("front exists");
                    port.rdata.offer(rd);
                }
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

    fn run(program: Program, cycles: u64) -> (StrmMaster, StrmSlave) {
        let mut master = StrmMaster::new(program, 4);
        let mut slave = StrmSlave::new(MemoryModel::new(1));
        let mut port = StrmPort::new();
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
    fn posted_stream_writes_complete_immediately() {
        let program: Program = (0..4)
            .map(|i| {
                SocketCommand::write(i * 16, 4, i)
                    .with_opcode(Opcode::WritePosted)
                    .with_burst(BurstKind::Incr, 4)
            })
            .collect();
        let (m, s) = run(program, 100);
        assert!(m.done());
        assert!(m
            .log()
            .records()
            .iter()
            .all(|r| r.issued_at == r.completed_at));
        // 4 bursts x 4 beats = 16 beat writes land in memory
        assert_eq!(s.memory().write_count(), 16);
    }

    #[test]
    fn stream_read_returns_written_data() {
        let program = vec![
            SocketCommand::write(0x40, 4, 7)
                .with_opcode(Opcode::WritePosted)
                .with_burst(BurstKind::Incr, 2),
            SocketCommand::read(0x40, 4)
                .with_burst(BurstKind::Incr, 2)
                .with_delay(5),
        ];
        let (m, _) = run(program.clone(), 200);
        assert!(m.done());
        let read = m.log().records().iter().find(|r| r.index == 1).unwrap();
        assert_eq!(read.data, program[0].payload());
    }

    #[test]
    fn reads_fully_ordered() {
        let program: Program = (0..6).map(|i| SocketCommand::read(i * 4, 4)).collect();
        let (m, _) = run(program, 500);
        assert!(m.done());
        assert!(check_ahb_order(m.log()).is_ok());
    }

    #[test]
    fn urgency_is_carried() {
        let mut master = StrmMaster::new(vec![SocketCommand::read(0, 4).with_pressure(3)], 4);
        let mut port = StrmPort::new();
        master.tick(0, &mut port);
        assert_eq!(port.rreq.peek().unwrap().urgency, 3);
    }

    #[test]
    #[should_panic(expected = "cannot express")]
    fn rejects_exclusive_opcodes() {
        StrmMaster::new(
            vec![SocketCommand::read(0, 4).with_opcode(Opcode::ReadExclusive)],
            1,
        );
    }

    #[test]
    fn display() {
        let m = StrmMaster::new(vec![], 1);
        assert!(m.to_string().contains("strm-master"));
    }
}
