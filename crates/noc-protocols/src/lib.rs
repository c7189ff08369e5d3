//! Cycle-level models of the VC socket protocols the paper's transaction
//! layer must absorb: **AHB 2.0**, **AXI**, **OCP 2.x**, the **VCI**
//! flavours (PVCI / BVCI / AVCI) and a **proprietary streaming** socket
//! (`STRM`).
//!
//! Each protocol module provides:
//!
//! - beat-level request/response types and a port struct built from
//!   bounded [`Chan`] handshake channels;
//! - a *master agent* that executes a [`Program`] of [`SocketCommand`]s
//!   while obeying the protocol's ordering and outstanding rules
//!   (AHB: single outstanding, fully ordered; OCP: per-thread order;
//!   AXI: per-ID order with independent read/write channels; VCI per
//!   flavour);
//! - a *slave agent* backed by a [`MemoryModel`] (used for direct
//!   loopback tests and by the bridged/bus baselines);
//! - log-level *checkers* ([`checker`]) asserting each protocol's
//!   ordering contract over completion logs.
//!
//! ## Adding a socket
//!
//! Every master is the one generic [`Master`] over a protocol's
//! [`Socket`] rules (`AhbMaster = Master<AhbSocket>`, …). A new socket
//! writes its port and beat types, its issue gate ([`Socket::blocked`],
//! plus a per-lane outstanding limit) and how a command becomes a
//! request and a response retires a command ([`Socket::offer`],
//! [`Socket::retire`]). It inherits the shared [`Issuer`]: the
//! [`CommandSource`] it pulls commands from and the per-thread lanes
//! that own them, issue deadlines and the round-robin that issues them,
//! the clock and program-load guards, `wake_at`, and every
//! [`CompletionRecord`], posted writes included.
//!
//! ## Modelling granularity
//!
//! Socket *data* phases are bundled with their command (a burst's write
//! data rides with the request; read data returns in one response
//! message). Beat-by-beat timing is modelled where it matters for
//! contention — inside the NoC, where payloads travel as flit streams —
//! and charged as occupancy cycles at sockets and on the baseline bus.
//! Ordering, threading, ID, exclusive and locking semantics are modelled
//! exactly; those are what the paper's transaction layer is about.

pub mod ahb;
pub mod axi;
pub mod checker;
pub mod command;
pub mod handshake;
pub mod master;
pub mod memory;
pub mod ocp;
pub mod strm;
pub mod vci;

pub use checker::{check_ahb_order, check_axi_order, check_ocp_order, OrderingViolation};
pub use command::{
    gen_data, CommandSource, CompletionLog, CompletionRecord, Program, ProtocolKind, SocketCommand,
};
pub use handshake::Chan;
pub use master::{Issuer, Master, Offer, Socket};
pub use memory::MemoryModel;
