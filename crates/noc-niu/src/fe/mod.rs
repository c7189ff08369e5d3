//! Protocol-specific NIU front ends.
//!
//! Each submodule adapts one socket protocol to the neutral transaction
//! layer. An initiator front end owns the socket *master agent* and acts
//! as the socket's slave side; a target front end drives a socket *slave
//! agent* acting as the socket's master side.
//!
//! These are deliberately thin: all ordering, tagging, packetisation and
//! synchronisation machinery lives in the protocol-neutral back ends —
//! the paper's argument that socket support costs "the corresponding NIU"
//! and nothing else. A new initiator socket writes three things:
//!
//! - its port and beat types;
//! - its issue gate, as a [`noc_protocols::Socket`] implementation;
//! - its request/response mapping, as a [`FrontEnd`] implementation.
//!
//! It inherits the rest. The shared [`noc_protocols::Master`] brings the
//! program cursor, issue deadlines, clock and program-load guards,
//! streamed appends, `wake_at` and completion records. The generic
//! [`Initiator`] brings the [`SocketInitiator`] implementation:
//! response buffering, draining and the dead-time contract.

pub mod ahb;
pub mod axi;
pub mod axi_target;
pub mod ocp;
pub mod strm;
pub mod vci;

pub use ahb::AhbInitiator;
pub use axi::AxiInitiator;
pub use axi_target::AxiTargetFe;
pub use ocp::OcpInitiator;
pub use strm::StrmInitiator;
pub use vci::VciInitiator;

use crate::initiator::SocketInitiator;
use noc_protocols::{CompletionLog, Master, Program, Socket, SocketCommand};
use noc_transaction::{Opcode, StreamId, TransactionRequest, TransactionResponse};
use std::fmt;

/// The request/response mapping one socket protocol adds to the generic
/// [`Initiator`] front end.
pub trait FrontEnd: Socket<Port: Send> + Send + 'static {
    /// Responses buffered until the port's response channels take them.
    type Pending: Default + fmt::Debug + Clone + Send;
    /// Moves buffered responses onto free response channels.
    fn deliver(pending: &mut Self::Pending, port: &mut Self::Port);
    /// Converts the next request on the port into a neutral
    /// transaction. Routing fields are left default.
    fn pull_request(port: &mut Self::Port) -> Option<TransactionRequest>;
    /// Buffers the socket beat for a response to a request on `stream`
    /// with the original `opcode`.
    fn push_response(
        pending: &mut Self::Pending,
        stream: StreamId,
        opcode: Opcode,
        resp: TransactionResponse,
    );
    /// `true` while requests wait on the port or responses wait in
    /// `pending`: the front end is not done.
    fn holds_traffic(pending: &Self::Pending, port: &Self::Port) -> bool;
    /// `true` while a response sits on the port's response channels.
    fn responding(port: &Self::Port) -> bool;
}

/// An initiator front end: a socket master, its port, and the responses
/// buffered for it. Each protocol names its front end as an alias
/// (`AhbInitiator = Initiator<AhbSocket>`, …).
#[derive(Debug, Clone)]
pub struct Initiator<S: FrontEnd> {
    master: Master<S>,
    port: S::Port,
    pending: S::Pending,
}

impl<S: FrontEnd> Initiator<S> {
    /// Creates the front end around a program-driven master.
    pub fn new(master: Master<S>) -> Self {
        Initiator {
            master,
            port: S::Port::default(),
            pending: S::Pending::default(),
        }
    }
}

impl<S: FrontEnd> SocketInitiator for Initiator<S> {
    fn tick(&mut self, cycle: u64) {
        // Drain buffered responses into the socket first so the master
        // can retire and issue in the same cycle sequence a real slave
        // would allow.
        S::deliver(&mut self.pending, &mut self.port);
        self.master.tick(cycle, &mut self.port);
    }

    fn pull_request(&mut self) -> Option<TransactionRequest> {
        S::pull_request(&mut self.port)
    }

    fn push_response(&mut self, stream: StreamId, opcode: Opcode, resp: TransactionResponse) {
        S::push_response(&mut self.pending, stream, opcode, resp);
    }

    fn done(&self) -> bool {
        self.master.done() && !S::holds_traffic(&self.pending, &self.port)
    }

    fn log(&self) -> &CompletionLog {
        self.master.log()
    }

    fn wake_at(&self) -> Option<u64> {
        if S::holds_traffic(&self.pending, &self.port) || S::responding(&self.port) {
            return Some(0); // buffered traffic keeps the front end hot
        }
        self.master.wake_at()
    }

    fn set_clock_period(&mut self, period: u64) {
        self.master.set_clock_period(period);
    }

    fn load_program(&mut self, program: Program) {
        self.master.load_program(program);
    }

    fn append_commands(&mut self, tail: &[SocketCommand], now: u64) {
        self.master.append_commands(tail, now);
    }

    fn clone_box(&self) -> Box<dyn SocketInitiator> {
        Box::new(self.clone())
    }
}

/// Moves the head of `queue` onto `chan` if the channel has room.
fn deliver_one<T>(queue: &mut std::collections::VecDeque<T>, chan: &mut noc_protocols::Chan<T>) {
    if !queue.is_empty() && chan.ready() {
        chan.offer(queue.pop_front().expect("checked non-empty"));
    }
}
