//! Network Interface Units (NIUs): the paper's conversion points between
//! VC socket protocols and the VC-neutral NoC transaction layer.
//!
//! *"A Network Interface Unit (NIU) is responsible for converting the
//! foreign IP protocol to the NoC transaction layer."* (§1)
//!
//! Every NIU splits into:
//!
//! - a protocol-specific **front end** ([`SocketInitiator`] /
//!   [`SocketTarget`] implementations in [`fe`]) that speaks the socket's
//!   beat-level language and produces/consumes neutral
//!   [`Request`]s and [`Response`]s; and
//! - a protocol-neutral **back end** ([`InitiatorNiu`] / [`TargetNiu`])
//!   that owns the paper's machinery: the address decoder (`SlvAddr`
//!   assignment), the [ordering policy](noc_transaction::OrderingPolicy)
//!   (`Tag` assignment), the [transaction state lookup
//!   table](noc_transaction::TransactionTable), packetisation, and — on
//!   the target side — the [exclusive
//!   monitor](noc_transaction::ExclusiveMonitor) plus legacy lock state.
//!
//! Supporting a new socket means writing a front end only; the back ends,
//! the packet format and the entire fabric stay untouched — that is the
//! paper's §2 claim, and this crate is its proof by construction.

pub mod codec;
pub mod fe;
pub mod initiator;
pub mod target;

pub use codec::{decode_request, decode_response, encode_request, encode_response, CodecError};
pub use initiator::{InitiatorNiu, InitiatorNiuConfig, NiuStats, SocketInitiator};
pub use target::{MemoryTarget, ServiceTarget, SocketTarget, TargetNiu, TargetNiuConfig};

use noc_kernel::ClockDomain;
use noc_transaction::{TransactionRequest, TransactionResponse};

/// Object-safe endpoint view used by the system assembler: everything a
/// fabric port needs from an NIU, regardless of socket protocol.
///
/// Endpoints are plain owned state (`Send`) and cloneable behind the
/// trait object ([`NocEndpoint::clone_box`]), so a whole built system
/// can be checkpointed mid-run and the checkpoint moved across threads.
pub trait NocEndpoint: Send {
    /// Advances the endpoint (socket agent + front end + back end) one
    /// cycle of its local clock.
    fn tick(&mut self, cycle: u64);
    /// Takes the next flit destined for the fabric, if any.
    fn pull_flit(&mut self) -> Option<noc_transport::Flit>;
    /// Returns the flit to the endpoint's egress queue (the link refused
    /// it this cycle — no credit). Must be re-pulled later.
    fn unpull_flit(&mut self, flit: noc_transport::Flit);
    /// Delivers a flit arriving from the fabric.
    fn push_flit(&mut self, flit: noc_transport::Flit);
    /// Returns `true` once the endpoint has no further work.
    fn is_done(&self) -> bool;
    /// The socket completion log, for initiator endpoints.
    fn completion_log(&self) -> Option<&noc_protocols::CompletionLog> {
        None
    }
    /// The single dead-time contract: the earliest *base* cycle at
    /// which the endpoint can change state if no flit is pushed into it
    /// meanwhile, or `None` when it is quiescent until input. Every
    /// local tick strictly before that cycle is a provable no-op, so a
    /// caller may jump straight to it — the answer is absolute, so it
    /// stays valid however far the caller jumps and needs no
    /// accounting for the skipped ticks. A cycle at or before the
    /// current one means "tick on the next clock edge": endpoints with
    /// buffered work answer `Some(0)`, which is also the conservative
    /// default. Callers re-query after every tick that touched the
    /// endpoint and after every pushed flit.
    fn wake_at(&self) -> Option<u64> {
        Some(0)
    }
    /// Binds the endpoint to its clock domain, so deadlines it counts in
    /// local ticks land on the right base cycles. The system assembler
    /// calls this once, before execution starts; endpoints that count
    /// no local ticks ignore it.
    fn set_clock(&mut self, clock: ClockDomain) {
        let _ = clock;
    }
    /// Replaces the program of an initiator endpoint's socket before
    /// execution starts (warm-state forking). Target endpoints never
    /// receive this call.
    ///
    /// # Panics
    ///
    /// Panics by default: only initiator endpoints execute programs.
    fn load_program(&mut self, program: noc_protocols::Program) {
        let _ = program;
        panic!("this endpoint does not execute a socket program");
    }
    /// Appends commands to the end of an initiator endpoint's socket
    /// program at base cycle `now`, mid-run (see
    /// [`SocketInitiator::append_commands`](crate::initiator::SocketInitiator::append_commands)).
    /// Target endpoints never receive this call.
    ///
    /// # Panics
    ///
    /// Panics by default: only initiator endpoints execute programs.
    fn append_commands(&mut self, tail: &[noc_protocols::SocketCommand], now: u64) {
        let _ = (tail, now);
        panic!("this endpoint does not execute a socket program");
    }
    /// Clones the endpoint behind the object-safe interface, enabling
    /// `Clone` for `Box<dyn NocEndpoint>` and therefore whole-system
    /// snapshots.
    fn clone_box(&self) -> Box<dyn NocEndpoint>;
}

impl Clone for Box<dyn NocEndpoint> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Convenience alias for the request type NIUs translate.
pub type Request = TransactionRequest;
/// Convenience alias for the response type NIUs translate.
pub type Response = TransactionResponse;

#[cfg(test)]
mod tests;
