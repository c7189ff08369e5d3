//! Baseline interconnects for the Fig 1 / Fig 2 comparison.
//!
//! The paper contrasts the layered NoC (Fig 1: sockets plug straight in
//! through NIUs) with what classical interconnects force (Fig 2: the
//! interconnect has a *reference socket standard* and every foreign
//! socket goes through a bridge, paying area and latency and losing
//! protocol features). This crate implements both competitors:
//!
//! - [`SharedBus`]: an AHB-style single-transaction pipelined bus —
//!   global full ordering, one transfer at a time, native locking.
//! - [`BridgedInterconnect`]: a central crossbar speaking a fully-ordered
//!   reference socket (think BVCI), with per-master bridges that
//!   *serialise* multi-threaded/ID traffic to one outstanding
//!   transaction, *chop* long bursts to the reference maximum, add
//!   request/response pipeline latency, and *emulate* exclusives by
//!   locking the target — precisely the feature clamping the paper
//!   blames on bridges.
//!
//! Both baselines host the same [`SocketInitiator`] front ends and run
//! the same programs as the NoC, so latency/throughput/fingerprint
//! comparisons are apples-to-apples.

pub mod bridged;
pub mod bus;

pub use bridged::{BridgeConfig, BridgedInterconnect};
pub use bus::{BusConfig, SharedBus};

use noc_niu::SocketInitiator;
use noc_protocols::{CommandSource, CompletionLog};

/// Common reporting surface of the baselines.
pub trait Interconnect {
    /// Advances one cycle.
    fn step(&mut self);
    /// Returns `true` when all masters drained.
    fn is_done(&self) -> bool;
    /// Completion logs per master, in attachment order.
    fn logs(&self) -> Vec<&CompletionLog>;
    /// Cycles simulated so far.
    fn now(&self) -> u64;
    /// Loads one socket program per attached master (attachment order)
    /// into an interconnect that has not started executing — the hook
    /// scenario builds and warm-state forks load every workload through
    /// (see `Soc::load_programs` in `noc-system`).
    ///
    /// # Panics
    ///
    /// Panics if the interconnect already stepped, or if the program
    /// count does not match the master count.
    fn load_programs(&mut self, programs: Vec<Box<dyn CommandSource>>);
    /// Cycles actually stepped, excluding the cycles horizon stepping
    /// jumped over. Dense runs execute exactly [`Interconnect::now`]
    /// steps, so the dense/horizon ratio measures the skip win; the
    /// default (for backends without a skip path) reports just that.
    fn executed_steps(&self) -> u64 {
        self.now()
    }

    /// The earliest cycle at which the interconnect's state can
    /// possibly change, or `None` when nothing will ever happen again.
    /// The default claims activity on every cycle — always correct, and
    /// exactly what dense stepping assumes; backends override it with
    /// real activity horizons so [`Interconnect::advance_to`] can skip
    /// dead time.
    fn next_activity(&self) -> Option<u64> {
        Some(self.now())
    }

    /// Times [`Interconnect::next_activity`] was polled — the scan-side
    /// wakeup-discipline counter. The default (no instrumentation)
    /// reports 0.
    fn horizon_polls(&self) -> u64 {
        0
    }

    /// Calendar wakeups retired while stepping (stale entries
    /// included). The default (no calendar) reports 0.
    fn calendar_pops(&self) -> u64 {
        0
    }

    /// Jumps to `target` across cycles [`Interconnect::next_activity`]
    /// proved dead. Backends whose components keep absolute deadlines
    /// just set `now`; the default (matching the default
    /// `next_activity`, which never yields a future cycle) steps
    /// densely.
    fn skip_to(&mut self, target: u64) {
        while self.now() < target {
            self.step();
        }
    }

    /// Advances until done or `horizon`, jumping over quiescent gaps
    /// and stepping densely through active stretches.
    fn advance_to(&mut self, horizon: u64) {
        while self.now() < horizon && !self.is_done() {
            match self.next_activity() {
                Some(t) if t > self.now() => self.skip_to(t.min(horizon)),
                Some(_) => self.step(),
                // Nothing can ever happen again: dense stepping would
                // burn no-op cycles to the horizon; jump in one hop.
                None => self.skip_to(horizon),
            }
        }
    }

    /// Runs until done or `max_cycles` (horizon stepping).
    fn run(&mut self, max_cycles: u64) -> bool {
        self.advance_to(max_cycles);
        self.is_done()
    }
}

/// IP-side service timing of a baseline slave, beyond the backing
/// memory's base latency.
///
/// The scenario layer compiles non-memory target declarations (register
/// blocks, AXI slave IPs) onto the baselines with the *same IP timing*
/// the NoC target front ends model, so latency differences between
/// backends stay attributable to the interconnect, never to the IP.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlaveTiming {
    /// Separate write-path latency (service/register blocks); `None`
    /// uses the memory latency for writes too.
    pub write_latency: Option<u32>,
    /// Banked-storage latency stagger (AXI slave IP model): accesses pay
    /// `((addr >> 8) % 4) * bank_stagger` extra cycles, mirroring
    /// [`noc_protocols::axi::AxiSlave`].
    pub bank_stagger: u32,
}

impl SlaveTiming {
    /// The IP service latency for one access, excluding per-beat cost.
    pub fn latency_for(&self, mem_latency: u32, opcode: noc_transaction::Opcode, addr: u64) -> u64 {
        let base = match self.write_latency {
            Some(w) if opcode.is_write() => w,
            _ => mem_latency,
        };
        base as u64 + ((addr >> 8) % 4) * self.bank_stagger as u64
    }
}

/// A master attached to a baseline: its front end plus a name.
#[derive(Clone)]
pub struct AttachedMaster {
    /// Display name.
    pub name: String,
    /// The socket front end (same type the NoC uses).
    pub fe: Box<dyn SocketInitiator>,
}

impl AttachedMaster {
    /// Creates an attachment.
    pub fn new(name: &str, fe: Box<dyn SocketInitiator>) -> Self {
        AttachedMaster {
            name: name.to_owned(),
            fe,
        }
    }
}

impl std::fmt::Debug for AttachedMaster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AttachedMaster({})", self.name)
    }
}
