//! Declarative, protocol-neutral scenario descriptions compiled to any
//! interconnect.
//!
//! The paper's central claim is that the VC-neutral transaction layer
//! lets the same IP sockets run unchanged over any interconnect. This
//! crate turns that claim into an API: one [`ScenarioSpec`] — a list of
//! initiator sockets with their traffic programs and a list of target
//! declarations (memories, AXI slave IPs, register/service blocks — see
//! [`TargetSpec`]) — compiles to a runnable simulation on the NoC (paper Fig 1),
//! on the bridged reference-socket interconnect (Fig 2) or on a shared
//! bus, selected by a [`Backend`] value. Node numbers and the
//! [`noc_transaction::AddressMap`] are derived automatically from the
//! declaration order and the declared memory regions; all three
//! realisations are driven through one [`Simulation`] trait.
//!
//! [`Sweep`] expands parameter grids (command counts, seeds, buffer
//! depths, topologies, backends) into batched simulations for the
//! experiment binaries.
//!
//! Scenarios and sweeps also round-trip through a zero-dependency text
//! format (see [`text`]): [`ScenarioSpec::from_text`]/[`ScenarioSpec::to_text`]
//! and [`Sweep::from_text`]/[`Sweep::to_text`] make the experiment grid
//! data-driven — files, not recompiles.
//!
//! # Examples
//!
//! ```
//! use noc_protocols::SocketCommand;
//! use noc_scenario::{Backend, InitiatorSpec, MemorySpec, ScenarioSpec, SocketSpec};
//!
//! let program = vec![
//!     SocketCommand::write(0x100, 4, 0xBEEF),
//!     SocketCommand::read(0x100, 4),
//! ];
//! let spec = ScenarioSpec::new()
//!     .initiator(InitiatorSpec::new("cpu", SocketSpec::Ahb, program))
//!     .memory(MemorySpec::new("mem", 0x0, 0x1000, 2));
//! // The same spec runs on all three interconnects.
//! for backend in [Backend::noc(), Backend::bridged(), Backend::bus()] {
//!     let mut sim = spec.build(&backend)?;
//!     assert!(sim.run_until(100_000), "{backend} must drain");
//!     assert_eq!(sim.report().masters[0].completions, 2);
//! }
//! # Ok::<(), noc_scenario::ScenarioError>(())
//! ```

pub mod program;
pub mod sim;
pub mod spec;
pub mod sweep;
pub mod text;

pub use noc_system::{EpochOccupancy, Partition};
pub use program::{
    BurstySpec, Discipline, ProgramSpec, StochasticShape, TraceCursor, TraceSpec, ZipfSpec,
};
pub use sim::{BaselineSim, BridgedSim, BusSim, NocSim, ScenarioReport, Simulation, StepMode};
pub use spec::{
    Backend, InitiatorSpec, LinkClassSpec, MemorySpec, NocConfigSpec, ScenarioError, ScenarioSpec,
    SocketSpec, TargetSpec, TopologySpec,
};
pub use sweep::{Sweep, SweepPoint, SweepResult};
pub use text::{parse_document, Document, ParseError, ParseErrorKind};
