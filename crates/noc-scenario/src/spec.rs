//! The declarative scenario description and its compilers.

use crate::program::{
    BurstyGen, ProgramSpec, StochasticShape, TraceCursor, TraceSpec, ZipfGen, ZipfSpec,
};
use crate::sim::{BridgedSim, BusSim, NocSim, Simulation};
use noc_baseline::{
    AttachedMaster, BridgeConfig, BridgedInterconnect, BusConfig, SharedBus, SlaveTiming,
};
use noc_niu::fe::{
    AhbInitiator, AxiInitiator, AxiTargetFe, OcpInitiator, StrmInitiator, VciInitiator,
};
use noc_niu::{
    InitiatorNiu, InitiatorNiuConfig, MemoryTarget, ServiceTarget, SocketInitiator, TargetNiu,
    TargetNiuConfig,
};
use noc_physical::LinkConfig;
use noc_protocols::ahb::AhbMaster;
use noc_protocols::axi::{AxiMaster, AxiSlave};
use noc_protocols::ocp::OcpMaster;
use noc_protocols::strm::StrmMaster;
use noc_protocols::vci::{VciFlavor, VciMaster};
use noc_protocols::{CommandSource, MemoryModel, Program, ProtocolKind};
use noc_system::{NocConfig, Partition, SocBuilder};
use noc_topology::{RouteAlgorithm, Topology, TopologyBuilder};
use noc_transaction::{AddressMap, MstAddr, Opcode, OrderingModel, SlvAddr};
use std::fmt;

/// Which interconnect a [`ScenarioSpec`] compiles to.
#[derive(Debug, Clone, Copy)]
pub enum Backend {
    /// The layered NoC of paper Fig 1 (sockets behind NIUs).
    Noc(NocConfig),
    /// The Fig-2 reference-socket interconnect with per-master bridges.
    Bridged(BridgeConfig),
    /// An AHB-style shared bus.
    Bus(BusConfig),
}

impl Backend {
    /// The NoC backend with default transport/physical configuration.
    pub fn noc() -> Self {
        Backend::Noc(NocConfig::new())
    }

    /// The bridged backend with default bridge parameters.
    pub fn bridged() -> Self {
        Backend::Bridged(BridgeConfig::default())
    }

    /// The bus backend with default timing.
    pub fn bus() -> Self {
        Backend::Bus(BusConfig::default())
    }

    /// A short label for tables and sweep rows.
    pub fn label(&self) -> &'static str {
        match self {
            Backend::Noc(_) => "noc",
            Backend::Bridged(_) => "bridged",
            Backend::Bus(_) => "bus",
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The socket protocol (and protocol-specific agent parameters) of a
/// declared initiator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketSpec {
    /// AHB master: fully ordered, single outstanding stream.
    Ahb,
    /// OCP master with `threads` threads, each allowing `per_thread`
    /// outstanding requests.
    Ocp {
        /// Socket thread count.
        threads: u8,
        /// Per-thread outstanding budget of the master agent.
        per_thread: u32,
    },
    /// AXI master using `tags` transaction IDs, `per_id` outstanding per
    /// ID and `total` outstanding overall.
    Axi {
        /// NoC tag pool size for ID renaming.
        tags: u8,
        /// Per-ID outstanding budget of the master agent.
        per_id: u32,
        /// Total outstanding budget of the master agent.
        total: u32,
    },
    /// Proprietary streaming socket with `read_limit` outstanding reads.
    Strm {
        /// Outstanding read budget of the master agent.
        read_limit: u32,
    },
    /// A VCI master of the given flavor with `pipeline` request depth.
    Vci {
        /// PVCI, BVCI or AVCI.
        flavor: VciFlavor,
        /// Request pipeline depth of the master agent.
        pipeline: u32,
    },
}

impl SocketSpec {
    /// OCP with 2 threads, 4 outstanding per thread.
    pub fn ocp() -> Self {
        SocketSpec::Ocp {
            threads: 2,
            per_thread: 4,
        }
    }

    /// AXI with 4 IDs, 4 outstanding per ID, 16 total.
    pub fn axi() -> Self {
        SocketSpec::Axi {
            tags: 4,
            per_id: 4,
            total: 16,
        }
    }

    /// STRM with 4 outstanding reads.
    pub fn strm() -> Self {
        SocketSpec::Strm { read_limit: 4 }
    }

    /// Peripheral VCI (single outstanding, single beat).
    pub fn pvci() -> Self {
        SocketSpec::Vci {
            flavor: VciFlavor::Peripheral,
            pipeline: 1,
        }
    }

    /// Basic VCI with a 2-deep request pipeline.
    pub fn bvci() -> Self {
        SocketSpec::Vci {
            flavor: VciFlavor::Basic,
            pipeline: 2,
        }
    }

    /// Advanced VCI with 2 threads and a 2-deep request pipeline.
    pub fn avci() -> Self {
        SocketSpec::Vci {
            flavor: VciFlavor::Advanced { threads: 2 },
            pipeline: 2,
        }
    }

    /// The protocol this socket speaks (drives area models and defaults).
    pub fn kind(&self) -> ProtocolKind {
        match self {
            SocketSpec::Ahb => ProtocolKind::Ahb,
            SocketSpec::Ocp { .. } => ProtocolKind::Ocp,
            SocketSpec::Axi { .. } => ProtocolKind::Axi,
            SocketSpec::Strm { .. } => ProtocolKind::Strm,
            SocketSpec::Vci { flavor, .. } => match flavor {
                VciFlavor::Peripheral => ProtocolKind::Pvci,
                VciFlavor::Basic => ProtocolKind::Bvci,
                VciFlavor::Advanced { .. } => ProtocolKind::Avci,
            },
        }
    }

    /// The NIU ordering model matching this socket (paper §3).
    pub fn default_ordering(&self) -> OrderingModel {
        match self {
            SocketSpec::Ahb | SocketSpec::Strm { .. } => OrderingModel::FullyOrdered,
            SocketSpec::Ocp { threads, .. } => OrderingModel::Threaded { threads: *threads },
            SocketSpec::Axi { tags, .. } => OrderingModel::IdBased { tags: *tags },
            SocketSpec::Vci { flavor, .. } => match flavor {
                VciFlavor::Advanced { threads } => OrderingModel::Threaded { threads: *threads },
                _ => OrderingModel::FullyOrdered,
            },
        }
    }

    /// The default NIU outstanding budget — scaled to the socket's
    /// expected performance, as the paper prescribes.
    pub fn default_outstanding(&self) -> u32 {
        match self.kind() {
            ProtocolKind::Ocp | ProtocolKind::Axi => 8,
            ProtocolKind::Avci => 4,
            _ => 2,
        }
    }

    /// The stream (thread) capacity of the socket's master agent, when
    /// the protocol hard-limits it: commands routed to a stream beyond
    /// this count have no queue to land in. `None` means the agent
    /// accepts any `u16` stream id (AXI IDs are renamed by the NIU;
    /// STRM streams are ordering tags only).
    pub fn max_streams(&self) -> Option<u16> {
        match self {
            SocketSpec::Ahb => Some(1),
            SocketSpec::Ocp { threads, .. } => Some(*threads as u16),
            SocketSpec::Vci { flavor, .. } => match flavor {
                VciFlavor::Advanced { threads } => Some(*threads as u16),
                _ => Some(1),
            },
            SocketSpec::Axi { .. } | SocketSpec::Strm { .. } => None,
        }
    }

    /// Instantiates the programless socket master agent plus its NIU
    /// front end; the build loads the program afterwards.
    pub fn build_fe(&self) -> Box<dyn SocketInitiator> {
        let program = Program::new();
        match *self {
            SocketSpec::Ahb => Box::new(AhbInitiator::new(AhbMaster::new(program))),
            SocketSpec::Ocp {
                threads,
                per_thread,
            } => Box::new(OcpInitiator::new(OcpMaster::new(
                program, threads, per_thread,
            ))),
            SocketSpec::Axi { per_id, total, .. } => {
                Box::new(AxiInitiator::new(AxiMaster::new(program, per_id, total)))
            }
            SocketSpec::Strm { read_limit } => {
                Box::new(StrmInitiator::new(StrmMaster::new(program, read_limit)))
            }
            SocketSpec::Vci { flavor, pipeline } => {
                Box::new(VciInitiator::new(VciMaster::new(program, flavor, pipeline)))
            }
        }
    }
}

/// Physical-link knob overrides for one link class of the NoC fabric
/// (`[config]` section keys). A knob left `None` keeps the value the
/// backend configuration already carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkClassSpec {
    /// Pipeline register stages (pure latency) along the wire.
    pub pipeline: Option<u32>,
    /// Phits per flit (serialisation ratio; 1 = full width).
    pub phits: Option<u32>,
    /// Synchroniser depth of asynchronous (CDC) crossings, in
    /// destination cycles.
    pub cdc_latency: Option<u32>,
    /// Maximum flits in flight per link.
    pub capacity: Option<usize>,
}

impl LinkClassSpec {
    /// Returns `true` when no knob is set.
    pub fn is_empty(&self) -> bool {
        *self == LinkClassSpec::default()
    }

    fn apply(&self, mut link: LinkConfig) -> LinkConfig {
        if let Some(p) = self.pipeline {
            link.pipeline = p;
        }
        if let Some(p) = self.phits {
            link.phits_per_flit = p;
        }
        if let Some(c) = self.cdc_latency {
            link.cdc_latency = c;
        }
        if let Some(c) = self.capacity {
            link.capacity = c;
        }
        link
    }
}

/// Spec-level NoC configuration — the serializable first slice of
/// [`NocConfig`], carried by the `[config]` text section so that
/// deep-pipeline and CDC-heavy scenarios are files, not recompiles.
///
/// The knobs cover what the event-horizon machinery makes matter:
/// switch buffering plus the physical shape of the two link classes
/// (switch-to-switch wires and the endpoint injection/ejection links,
/// whose CDC *divisors* still come from each endpoint's declared
/// `clock_divisor`). Values are applied on top of the [`NocConfig`]
/// passed to [`ScenarioSpec::build_noc`]; the baselines have no fabric,
/// so — like the `routing` knob — the section is NoC-only and ignored
/// elsewhere.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NocConfigSpec {
    /// Switch input buffer depth in flits.
    pub buffer_depth: Option<usize>,
    /// Knobs for the switch-to-switch link class (and the default for
    /// the endpoint class).
    pub link: LinkClassSpec,
    /// Endpoint (injection/ejection) link class overrides; a knob left
    /// `None` falls back to the (possibly overridden) switch class.
    pub endpoint: LinkClassSpec,
    /// Default region/thread count for sharded stepping
    /// (`StepMode::Sharded { threads: 0 }` resolves to this before
    /// falling back to the machine's available parallelism). Purely a
    /// stepping default — it never changes simulated behaviour, which
    /// the sharded determinism suite pins.
    pub shards: Option<usize>,
    /// Explicit sharded-stepping region assignment: `assignment[s]` is
    /// the region of switch `s` (contiguous non-decreasing bands
    /// starting at region 0). Fixes the region count by itself, so it
    /// must agree with `shards` when both are set. Like `shards`, a
    /// stepping knob only — simulated behaviour is partition-invariant,
    /// which the sharded determinism suite pins.
    pub assignment: Option<Vec<usize>>,
}

impl NocConfigSpec {
    /// No overrides.
    pub fn new() -> Self {
        NocConfigSpec::default()
    }

    /// Sets the pipeline depth of both link classes.
    #[must_use]
    pub fn with_link_pipeline(mut self, stages: u32) -> Self {
        self.link.pipeline = Some(stages);
        self
    }

    /// Sets the CDC synchroniser depth of both link classes.
    #[must_use]
    pub fn with_cdc_latency(mut self, stages: u32) -> Self {
        self.link.cdc_latency = Some(stages);
        self
    }

    /// Sets the in-flight capacity of both link classes.
    #[must_use]
    pub fn with_link_capacity(mut self, capacity: usize) -> Self {
        self.link.capacity = Some(capacity);
        self
    }

    /// Sets the switch buffer depth.
    #[must_use]
    pub fn with_buffer_depth(mut self, depth: usize) -> Self {
        self.buffer_depth = Some(depth);
        self
    }

    /// Sets the default sharded-stepping region count.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Pins the sharded-stepping region assignment (switch → region,
    /// contiguous non-decreasing bands starting at 0).
    #[must_use]
    pub fn with_assignment(mut self, assignment: Vec<usize>) -> Self {
        self.assignment = Some(assignment);
        self
    }

    /// Applies the overrides to a backend configuration. The `link`
    /// knobs cover both classes; `endpoint` knobs then override the
    /// endpoint class on top.
    pub fn apply(&self, mut config: NocConfig) -> NocConfig {
        if let Some(depth) = self.buffer_depth {
            config.buffer_depth = depth;
        }
        config.link = self.link.apply(config.link);
        if !self.endpoint.is_empty() || config.endpoint_link.is_some() {
            let base = self.link.apply(config.endpoint_link.unwrap_or(config.link));
            config.endpoint_link = Some(self.endpoint.apply(base));
        }
        config
    }
}

/// A declared initiator: a socket, its traffic program and NIU knobs.
///
/// The node number is *not* part of the declaration — the spec assigns
/// nodes automatically (initiators first, then memories, in declaration
/// order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InitiatorSpec {
    /// Display name (must be unique in the scenario).
    pub name: String,
    /// Socket protocol and agent parameters.
    pub socket: SocketSpec,
    /// The deterministic traffic program this initiator issues: an
    /// explicit command list or a generated (streamed) workload.
    pub program: ProgramSpec,
    /// NIU ordering override; defaults to the socket's natural model.
    pub ordering: Option<OrderingModel>,
    /// NIU outstanding budget override.
    pub outstanding: Option<u32>,
    /// Default packet pressure (QoS class) override.
    pub pressure: Option<u8>,
    /// Flit payload bytes override (packetisation width).
    pub flit_bytes: Option<usize>,
    /// Local clock divisor relative to the base clock.
    pub clock_divisor: u64,
}

impl InitiatorSpec {
    /// Declares an initiator. `program` accepts a plain
    /// [`Program`] (explicit commands) or any [`ProgramSpec`] kind.
    pub fn new(name: &str, socket: SocketSpec, program: impl Into<ProgramSpec>) -> Self {
        InitiatorSpec {
            name: name.to_owned(),
            socket,
            program: program.into(),
            ordering: None,
            outstanding: None,
            pressure: None,
            flit_bytes: None,
            clock_divisor: 1,
        }
    }

    /// Overrides the NIU ordering model.
    #[must_use]
    pub fn with_ordering(mut self, ordering: OrderingModel) -> Self {
        self.ordering = Some(ordering);
        self
    }

    /// Overrides the NIU outstanding budget.
    #[must_use]
    pub fn with_outstanding(mut self, outstanding: u32) -> Self {
        self.outstanding = Some(outstanding);
        self
    }

    /// Sets the default packet pressure (QoS class).
    #[must_use]
    pub fn with_pressure(mut self, pressure: u8) -> Self {
        self.pressure = Some(pressure);
        self
    }

    /// Sets the flit payload width used for packetisation.
    #[must_use]
    pub fn with_flit_bytes(mut self, bytes: usize) -> Self {
        self.flit_bytes = Some(bytes);
        self
    }

    /// Runs this initiator on a divided clock.
    #[must_use]
    pub fn with_clock_divisor(mut self, divisor: u64) -> Self {
        self.clock_divisor = divisor.max(1);
        self
    }

    fn niu_config(&self, node: u16) -> InitiatorNiuConfig {
        let mut cfg = InitiatorNiuConfig::new(MstAddr::new(node))
            .with_ordering(
                self.ordering
                    .unwrap_or_else(|| self.socket.default_ordering()),
            )
            .with_outstanding(
                self.outstanding
                    .unwrap_or_else(|| self.socket.default_outstanding()),
            );
        if let Some(bytes) = self.flit_bytes {
            cfg = cfg.with_flit_bytes(bytes);
        }
        if let Some(p) = self.pressure {
            cfg = cfg.with_pressure(p);
        }
        cfg
    }
}

/// The target-side protocol (and IP model) of a declared target — the
/// counterpart of [`SocketSpec`] for the slave side of the paper's
/// VC-neutrality claim: any target socket plugs into the same NoC
/// through its NIU front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TargetSpec {
    /// The native NoC memory target ([`MemoryTarget`]): pipelined up to
    /// the declared queue depth, one latency for reads and writes.
    #[default]
    Memory,
    /// An AXI slave IP behind an [`AxiTargetFe`] — the typical
    /// DRAM-controller attachment. `bank_stagger` spreads access latency
    /// across four address banks (`((addr >> 8) % 4) * bank_stagger`
    /// extra cycles), modelling banked storage.
    AxiSlave {
        /// Banked-latency stagger in cycles (0 = uniform latency).
        bank_stagger: u32,
    },
    /// A register/service block ([`ServiceTarget`]): serially served,
    /// with a separate write-path latency. `exclusive` declares that the
    /// block accepts synchronisation traffic (exclusive/locked opcodes);
    /// plain register files reject it at validation time.
    Service {
        /// Write-path latency in cycles (reads use the base latency).
        write_latency: u32,
        /// Whether exclusive/locked opcodes may address this block.
        exclusive: bool,
    },
}

impl TargetSpec {
    /// Short grammar label ("memory", "axi", "service").
    pub fn label(&self) -> &'static str {
        match self {
            TargetSpec::Memory => "memory",
            TargetSpec::AxiSlave { .. } => "axi",
            TargetSpec::Service { .. } => "service",
        }
    }

    /// Whether exclusive/locked (synchronisation) opcodes may address
    /// this target. Memories and AXI slaves always accept them (the
    /// monitor state lives in backend machinery); a service block only
    /// when declared `exclusive`.
    pub fn accepts_sync(&self) -> bool {
        match self {
            TargetSpec::Memory | TargetSpec::AxiSlave { .. } => true,
            TargetSpec::Service { exclusive, .. } => *exclusive,
        }
    }

    /// The baseline IP timing equivalent of this target kind.
    fn slave_timing(&self) -> SlaveTiming {
        match *self {
            TargetSpec::Memory => SlaveTiming::default(),
            TargetSpec::AxiSlave { bank_stagger } => SlaveTiming {
                write_latency: None,
                bank_stagger,
            },
            TargetSpec::Service { write_latency, .. } => SlaveTiming {
                write_latency: Some(write_latency),
                bank_stagger: 0,
            },
        }
    }
}

impl fmt::Display for TargetSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A declared target: a named address region with an IP model behind a
/// target socket ([`TargetSpec`]).
///
/// The owning `SlvAddr` and the scenario [`AddressMap`] entry are derived
/// from the declaration — this is the paper's address decoder table, now
/// computed instead of hand-maintained. The default target kind is the
/// native memory; [`MemorySpec::with_target`] declares protocol targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemorySpec {
    /// Display name (must be unique in the scenario).
    pub name: String,
    /// First byte of the region.
    pub base: u64,
    /// One past the last byte of the region.
    pub end: u64,
    /// Access latency of the IP model in cycles (read latency for
    /// service blocks).
    pub latency: u32,
    /// Target NIU request queue capacity (memory targets; protocol
    /// targets flow-control through their own socket machinery).
    pub queue: usize,
    /// Local clock divisor relative to the base clock.
    pub clock_divisor: u64,
    /// The target-side socket/IP kind.
    pub target: TargetSpec,
}

impl MemorySpec {
    /// Declares a memory serving `[base, end)` with the given latency.
    pub fn new(name: &str, base: u64, end: u64, latency: u32) -> Self {
        MemorySpec {
            name: name.to_owned(),
            base,
            end,
            latency,
            queue: 8,
            clock_divisor: 1,
            target: TargetSpec::Memory,
        }
    }

    /// Declares a memory over a `(base, end)` range tuple.
    pub fn over(name: &str, range: (u64, u64), latency: u32) -> Self {
        Self::new(name, range.0, range.1, latency)
    }

    /// Declares an AXI-slave-backed target (shorthand for
    /// [`MemorySpec::with_target`]).
    pub fn axi_slave(name: &str, base: u64, end: u64, latency: u32, bank_stagger: u32) -> Self {
        Self::new(name, base, end, latency).with_target(TargetSpec::AxiSlave { bank_stagger })
    }

    /// Declares a register/service block target (shorthand for
    /// [`MemorySpec::with_target`]).
    pub fn service(name: &str, base: u64, end: u64, latency: u32, write_latency: u32) -> Self {
        Self::new(name, base, end, latency).with_target(TargetSpec::Service {
            write_latency,
            exclusive: false,
        })
    }

    /// Sets the target NIU queue capacity.
    #[must_use]
    pub fn with_queue(mut self, queue: usize) -> Self {
        self.queue = queue;
        self
    }

    /// Runs this target on a divided clock.
    #[must_use]
    pub fn with_clock_divisor(mut self, divisor: u64) -> Self {
        self.clock_divisor = divisor.max(1);
        self
    }

    /// Sets the target-side socket/IP kind.
    #[must_use]
    pub fn with_target(mut self, target: TargetSpec) -> Self {
        self.target = target;
        self
    }

    /// Marks a service block as accepting synchronisation traffic.
    ///
    /// # Panics
    ///
    /// Panics when the declared target is not a service block — the flag
    /// has no meaning elsewhere (memories and AXI slaves always accept
    /// synchronisation opcodes).
    #[must_use]
    pub fn with_exclusive(mut self) -> Self {
        match &mut self.target {
            TargetSpec::Service { exclusive, .. } => *exclusive = true,
            other => panic!("with_exclusive applies to service targets, not {other}"),
        }
        self
    }

    /// Instantiates the NoC target NIU for this declaration.
    fn build_niu(&self, node: u16) -> Box<dyn noc_niu::NocEndpoint> {
        let config = TargetNiuConfig::new(SlvAddr::new(node));
        match self.target {
            TargetSpec::Memory => Box::new(TargetNiu::new(
                MemoryTarget::new(MemoryModel::new(self.latency), self.queue),
                config,
            )),
            TargetSpec::AxiSlave { bank_stagger } => Box::new(TargetNiu::new(
                AxiTargetFe::new(AxiSlave::new(MemoryModel::new(self.latency), bank_stagger)),
                config,
            )),
            TargetSpec::Service { write_latency, .. } => Box::new(TargetNiu::new(
                ServiceTarget::new(MemoryModel::new(self.latency), write_latency, self.queue),
                config,
            )),
        }
    }
}

/// How scenario endpoints map onto a switching fabric (NoC backend only —
/// the baselines have their structure fixed by definition).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TopologySpec {
    /// One switch, every endpoint attached to it (the degenerate NoC).
    #[default]
    Crossbar,
    /// A bidirectional ring of `switches`; endpoints are spread
    /// round-robin.
    Ring {
        /// Switch count (≥ 2).
        switches: usize,
    },
    /// A `width` × `height` mesh; endpoints are spread round-robin in
    /// row-major switch order.
    Mesh {
        /// Mesh width.
        width: usize,
        /// Mesh height.
        height: usize,
    },
    /// An explicit fabric: `links` are bidirectional switch pairs and
    /// `placement[i]` is the switch of the `i`-th endpoint (initiators
    /// first, then memories, in declaration order).
    Custom {
        /// Switch count.
        switches: usize,
        /// Bidirectional links between switches.
        links: Vec<(usize, usize)>,
        /// Per-endpoint switch assignment.
        placement: Vec<usize>,
    },
}

impl TopologySpec {
    /// Number of switches this shape builds — also the length a sharded
    /// `assignment` must have.
    pub fn switch_count(&self) -> usize {
        match self {
            TopologySpec::Crossbar => 1,
            TopologySpec::Ring { switches } => *switches,
            TopologySpec::Mesh { width, height } => width * height,
            TopologySpec::Custom { switches, .. } => *switches,
        }
    }

    /// The deadlock-safe routing algorithm for this fabric shape, used
    /// when the [`NocConfig`] still carries the default
    /// (`ShortestPath`) choice.
    pub fn recommended_routing(&self) -> RouteAlgorithm {
        match self {
            TopologySpec::Crossbar => RouteAlgorithm::ShortestPath,
            TopologySpec::Ring { .. } | TopologySpec::Custom { .. } => RouteAlgorithm::UpDown,
            TopologySpec::Mesh { width, height } => RouteAlgorithm::XyMesh {
                width: *width,
                height: *height,
            },
        }
    }

    fn build(&self, endpoints: usize) -> Result<Topology, ScenarioError> {
        let switches = self.switch_count();
        if switches == 0 {
            return Err(ScenarioError::BadTopology {
                reason: "topology needs at least one switch".into(),
            });
        }
        let mut b = TopologyBuilder::new(switches);
        match self {
            TopologySpec::Crossbar => {}
            TopologySpec::Ring { switches } => {
                if *switches < 2 {
                    return Err(ScenarioError::BadTopology {
                        reason: "ring needs at least two switches".into(),
                    });
                }
                for s in 0..*switches {
                    b.connect_bidir(s, (s + 1) % switches);
                }
            }
            TopologySpec::Mesh { width, height } => {
                for y in 0..*height {
                    for x in 0..*width {
                        let s = y * width + x;
                        if x + 1 < *width {
                            b.connect_bidir(s, s + 1);
                        }
                        if y + 1 < *height {
                            b.connect_bidir(s, s + width);
                        }
                    }
                }
            }
            TopologySpec::Custom { links, .. } => {
                for (a, z) in links {
                    if *a >= switches || *z >= switches {
                        return Err(ScenarioError::BadTopology {
                            reason: format!("link ({a},{z}) references a missing switch"),
                        });
                    }
                    b.connect_bidir(*a, *z);
                }
            }
        }
        for (endpoint, switch) in self.placement(endpoints)?.into_iter().enumerate() {
            b.attach(endpoint as u16, switch)
                .map_err(|e| ScenarioError::BadTopology {
                    reason: format!("attaching node {endpoint}: {e}"),
                })?;
        }
        Ok(b.build())
    }

    fn placement(&self, endpoints: usize) -> Result<Vec<usize>, ScenarioError> {
        match self {
            TopologySpec::Custom {
                switches,
                placement,
                ..
            } => {
                if placement.len() != endpoints {
                    return Err(ScenarioError::BadTopology {
                        reason: format!(
                            "placement lists {} endpoints, scenario declares {endpoints}",
                            placement.len()
                        ),
                    });
                }
                if let Some(bad) = placement.iter().find(|s| **s >= *switches) {
                    return Err(ScenarioError::BadTopology {
                        reason: format!("placement references missing switch {bad}"),
                    });
                }
                Ok(placement.clone())
            }
            _ => {
                let switches = self.switch_count();
                Ok((0..endpoints).map(|i| i % switches).collect())
            }
        }
    }
}

/// Errors in a scenario declaration, caught before anything is built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// The scenario declares no initiators or no memories.
    Empty,
    /// Two endpoints share a display name.
    DuplicateName {
        /// The contested name.
        name: String,
    },
    /// Two memory regions overlap.
    OverlappingRegions {
        /// First region's name.
        a: String,
        /// Second region's name.
        b: String,
    },
    /// A memory region is empty or inverted.
    EmptyRegion {
        /// The offending region's name.
        name: String,
    },
    /// A command addresses bytes outside every declared memory region.
    UnmappedAddress {
        /// The issuing initiator.
        initiator: String,
        /// The unmapped address.
        addr: u64,
    },
    /// The topology cannot host the declared endpoints.
    BadTopology {
        /// Why.
        reason: String,
    },
    /// The chosen backend cannot model a non-unit clock divisor: the bus
    /// and bridged baselines run every endpoint on the base clock, so
    /// compiling a clocked spec to them would silently change timing.
    UnsupportedClock {
        /// The backend that rejected the spec ("bus" or "bridged").
        backend: &'static str,
        /// The endpoint declared with a divided clock.
        endpoint: String,
        /// Its declared divisor.
        divisor: u64,
    },
    /// The chosen backend cannot model a declared target kind: the
    /// shared bus centralises exclusive arbitration in its own monitor,
    /// so a service block that owns its exclusive port cannot attach —
    /// compiling it would silently drop the declared semantics.
    UnsupportedTarget {
        /// The backend that rejected the spec.
        backend: &'static str,
        /// The offending target declaration's name.
        target: String,
        /// The rejected target kind ("service+exclusive", …).
        kind: String,
    },
    /// A program sends synchronisation traffic (exclusive or locked
    /// opcodes) to a target whose declaration does not accept it (a
    /// service block without the `exclusive` flag).
    SyncUnsupported {
        /// The issuing initiator.
        initiator: String,
        /// The addressed target.
        target: String,
        /// The rejected opcode.
        opcode: Opcode,
    },
    /// A generated (stochastic or trace) program declaration is
    /// inconsistent: shape out of range, streams beyond the socket's
    /// capacity, a burst that cannot fit a declared region, …
    BadProgram {
        /// The declaring initiator.
        initiator: String,
        /// Why.
        reason: String,
    },
    /// A trace file failed build-time validation: unreadable, a
    /// malformed record, decreasing timestamps, or a record violating
    /// the scenario's containment rules. `line` is `0` for file-level
    /// failures.
    Trace {
        /// The trace file path.
        path: String,
        /// The offending line (1-based; `0` = whole file).
        line: usize,
        /// Why.
        reason: String,
    },
    /// The declared sharded-stepping partition is malformed: an
    /// assignment that is not a contiguous non-decreasing band cover, a
    /// switch index outside the topology, or a region count that
    /// disagrees with the `shards` knob.
    BadPartition {
        /// Why.
        reason: String,
    },
    /// A scenario text file failed to parse (see [`crate::text`]); the
    /// inner error pinpoints the offending line and column.
    Parse(crate::text::ParseError),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Empty => {
                write!(f, "scenario needs at least one initiator and one memory")
            }
            ScenarioError::DuplicateName { name } => {
                write!(f, "endpoint name {name:?} declared twice")
            }
            ScenarioError::OverlappingRegions { a, b } => {
                write!(f, "memory regions {a:?} and {b:?} overlap")
            }
            ScenarioError::EmptyRegion { name } => {
                write!(f, "memory region {name:?} is empty")
            }
            ScenarioError::UnmappedAddress { initiator, addr } => {
                write!(
                    f,
                    "{initiator:?} addresses {addr:#x} outside every memory region"
                )
            }
            ScenarioError::BadTopology { reason } => write!(f, "bad topology: {reason}"),
            ScenarioError::UnsupportedClock {
                backend,
                endpoint,
                divisor,
            } => write!(
                f,
                "{backend} backend cannot model {endpoint:?}'s clk/{divisor} \
                 (baselines run everything on the base clock)"
            ),
            ScenarioError::UnsupportedTarget {
                backend,
                target,
                kind,
            } => write!(
                f,
                "{backend} backend cannot model {target:?}'s {kind} target"
            ),
            ScenarioError::SyncUnsupported {
                initiator,
                target,
                opcode,
            } => write!(
                f,
                "{initiator:?} sends {opcode} to {target:?}, which does not \
                 accept synchronisation traffic (declare the target exclusive)"
            ),
            ScenarioError::BadProgram { initiator, reason } => {
                write!(f, "{initiator:?}'s program: {reason}")
            }
            ScenarioError::Trace { path, line, reason } => {
                if *line == 0 {
                    write!(f, "trace {path}: {reason}")
                } else {
                    write!(f, "trace {path}:{line}: {reason}")
                }
            }
            ScenarioError::BadPartition { reason } => {
                write!(f, "bad partition: {reason}")
            }
            ScenarioError::Parse(e) => write!(f, "scenario text: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<crate::text::ParseError> for ScenarioError {
    fn from(e: crate::text::ParseError) -> Self {
        ScenarioError::Parse(e)
    }
}

/// A complete, interconnect-neutral scenario description.
///
/// See the crate-level example. Construction is fluent and infallible;
/// every consistency rule is checked by [`ScenarioSpec::validate`], which
/// all compilers call first.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScenarioSpec {
    /// Declared initiators, in node order.
    pub initiators: Vec<InitiatorSpec>,
    /// Declared memories, in node order after the initiators.
    pub memories: Vec<MemorySpec>,
    /// Fabric shape for the NoC backend.
    pub topology: TopologySpec,
    /// Explicit routing choice; `None` derives it from the topology.
    pub routing: Option<RouteAlgorithm>,
    /// Spec-level NoC configuration overrides (the `[config]` section);
    /// `None` keeps whatever the backend configuration carries.
    pub config: Option<NocConfigSpec>,
}

impl ScenarioSpec {
    /// An empty scenario on a crossbar fabric.
    pub fn new() -> Self {
        ScenarioSpec {
            initiators: Vec::new(),
            memories: Vec::new(),
            topology: TopologySpec::Crossbar,
            routing: None,
            config: None,
        }
    }

    /// Adds an initiator (assigned the next initiator node).
    #[must_use]
    pub fn initiator(mut self, spec: InitiatorSpec) -> Self {
        self.initiators.push(spec);
        self
    }

    /// Adds a memory (assigned the next node after all initiators).
    #[must_use]
    pub fn memory(mut self, spec: MemorySpec) -> Self {
        self.memories.push(spec);
        self
    }

    /// Sets the NoC fabric shape.
    #[must_use]
    pub fn with_topology(mut self, topology: TopologySpec) -> Self {
        self.topology = topology;
        self
    }

    /// Forces a routing algorithm, overriding both the [`NocConfig`]
    /// passed to [`ScenarioSpec::build_noc`] and the topology-derived
    /// default — the escape hatch for running e.g. `ShortestPath` on a
    /// fabric the spec would otherwise route conservatively.
    #[must_use]
    pub fn with_routing(mut self, routing: RouteAlgorithm) -> Self {
        self.routing = Some(routing);
        self
    }

    /// Declares spec-level NoC configuration overrides (serialized as
    /// the `[config]` section), applied on top of the [`NocConfig`]
    /// passed to [`ScenarioSpec::build_noc`].
    #[must_use]
    pub fn with_config(mut self, config: NocConfigSpec) -> Self {
        self.config = Some(config);
        self
    }

    /// The node number the spec assigns to the `i`-th initiator.
    pub fn initiator_node(&self, i: usize) -> u16 {
        i as u16
    }

    /// The node number the spec assigns to the `i`-th memory.
    pub fn memory_node(&self, i: usize) -> u16 {
        (self.initiators.len() + i) as u16
    }

    /// Total endpoint count.
    pub fn num_endpoints(&self) -> usize {
        self.initiators.len() + self.memories.len()
    }

    /// Checks every consistency rule of the declaration.
    ///
    /// # Errors
    ///
    /// Returns the first [`ScenarioError`] found: an empty scenario,
    /// duplicate endpoint names, empty or overlapping memory regions,
    /// commands addressing unmapped bytes, or an unusable topology.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.initiators.is_empty() || self.memories.is_empty() {
            return Err(ScenarioError::Empty);
        }
        let mut names: Vec<&str> = Vec::new();
        for name in self
            .initiators
            .iter()
            .map(|i| i.name.as_str())
            .chain(self.memories.iter().map(|m| m.name.as_str()))
        {
            if names.contains(&name) {
                return Err(ScenarioError::DuplicateName {
                    name: name.to_owned(),
                });
            }
            names.push(name);
        }
        for m in &self.memories {
            if m.base >= m.end {
                return Err(ScenarioError::EmptyRegion {
                    name: m.name.clone(),
                });
            }
        }
        for (i, a) in self.memories.iter().enumerate() {
            for b in &self.memories[i + 1..] {
                if a.base < b.end && b.base < a.end {
                    return Err(ScenarioError::OverlappingRegions {
                        a: a.name.clone(),
                        b: b.name.clone(),
                    });
                }
            }
        }
        for ini in &self.initiators {
            match &ini.program {
                ProgramSpec::Explicit(program) => {
                    for cmd in program {
                        // Every beat of the burst must land in one declared
                        // region (bursts never cross region boundaries).
                        let region = self
                            .memories
                            .iter()
                            .find(|m| cmd.addr >= m.base && cmd.addr < m.end);
                        let contained = region.is_some_and(|m| {
                            cmd.burst()
                                .beat_addresses(cmd.addr)
                                .all(|a| a >= m.base && a + cmd.beat_bytes as u64 <= m.end)
                        });
                        if !contained {
                            return Err(ScenarioError::UnmappedAddress {
                                initiator: ini.name.clone(),
                                addr: cmd.addr,
                            });
                        }
                        // Synchronisation traffic needs a target that accepts it.
                        if cmd.opcode.is_exclusive() || cmd.opcode.is_locking() {
                            let region = region.expect("containment checked above");
                            if !region.target.accepts_sync() {
                                return Err(ScenarioError::SyncUnsupported {
                                    initiator: ini.name.clone(),
                                    target: region.name.clone(),
                                    opcode: cmd.opcode,
                                });
                            }
                        }
                    }
                }
                ProgramSpec::Bursty(b) => {
                    self.check_shape(ini, &b.shape)?;
                    if b.burst_len == 0 {
                        return Err(self.bad_program(ini, "burst_len must be at least 1"));
                    }
                }
                ProgramSpec::Zipf(z) => {
                    self.check_shape(ini, &z.shape)?;
                    if z.exponent_milli > ZipfSpec::MAX_EXPONENT_MILLI {
                        return Err(self.bad_program(
                            ini,
                            format!(
                                "exponent_milli {} out of range (0..={})",
                                z.exponent_milli,
                                ZipfSpec::MAX_EXPONENT_MILLI
                            ),
                        ));
                    }
                }
                ProgramSpec::Trace(t) => {
                    if t.path.is_empty() {
                        return Err(self.bad_program(ini, "trace_file must not be empty"));
                    }
                }
            }
        }
        self.topology.placement(self.num_endpoints())?;
        self.resolve_partition()?;
        Ok(())
    }

    fn bad_program(&self, ini: &InitiatorSpec, reason: impl Into<String>) -> ScenarioError {
        ScenarioError::BadProgram {
            initiator: ini.name.clone(),
            reason: reason.into(),
        }
    }

    /// Consistency rules for a stochastic command shape: the generated
    /// commands must pass the same containment and capacity checks an
    /// explicit program would, but proved once over the parameters
    /// instead of per command.
    fn check_shape(
        &self,
        ini: &InitiatorSpec,
        shape: &StochasticShape,
    ) -> Result<(), ScenarioError> {
        if shape.read_pct > 100 {
            return Err(self.bad_program(
                ini,
                format!("read_pct {} out of range (0..=100)", shape.read_pct),
            ));
        }
        if shape.beats == 0 {
            return Err(self.bad_program(ini, "beats must be at least 1"));
        }
        if shape.beat_bytes == 0 || !shape.beat_bytes.is_power_of_two() {
            return Err(self.bad_program(
                ini,
                format!("beat_bytes {} must be a power of two", shape.beat_bytes),
            ));
        }
        if shape.streams == 0 {
            return Err(self.bad_program(ini, "streams must be at least 1"));
        }
        if let Some(max) = ini.socket.max_streams() {
            if shape.streams > max {
                return Err(self.bad_program(
                    ini,
                    format!(
                        "streams {} exceeds the socket's {} stream(s)",
                        shape.streams, max
                    ),
                ));
            }
        }
        if matches!(ini.socket.kind(), ProtocolKind::Pvci) && shape.beats != 1 {
            return Err(self.bad_program(ini, "PVCI sockets issue single-beat commands only"));
        }
        // Generators may target any declared region, so every region
        // must be able to contain one whole burst.
        let burst_bytes = (shape.beats as u64) * shape.beat_bytes as u64;
        for m in &self.memories {
            if m.end - m.base < burst_bytes {
                return Err(self.bad_program(
                    ini,
                    format!(
                        "a {}x{} burst ({burst_bytes} bytes) cannot fit region {:?}",
                        shape.beats, shape.beat_bytes, m.name
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Rebases every relative `trace_file` path against `base` — called
    /// by file-loading front ends (`scn`, the serve layer, tests) after
    /// parsing, so paths in a `.scn` file resolve relative to the file
    /// rather than the process working directory. Emission round-trips
    /// are done on the unresolved spec.
    pub fn resolve_trace_paths(&mut self, base: &std::path::Path) {
        for ini in &mut self.initiators {
            if let ProgramSpec::Trace(t) = &mut ini.program {
                let p = std::path::Path::new(&t.path);
                if p.is_relative() {
                    t.path = base.join(p).to_string_lossy().into_owned();
                }
            }
        }
    }

    /// Opens the trace `ini` replays, validating the whole file: each
    /// record parses, timestamps are non-decreasing, and each record
    /// passes the containment and shape rules explicit commands are
    /// held to. Kept out of [`ScenarioSpec::validate`] so validation of
    /// a spec stays I/O-free.
    fn open_trace(&self, ini: &InitiatorSpec, t: &TraceSpec) -> Result<TraceCursor, ScenarioError> {
        let max_streams = ini.socket.max_streams();
        let is_pvci = matches!(ini.socket.kind(), ProtocolKind::Pvci);
        TraceCursor::open(&t.path, |rec| {
            let burst_bytes = rec.beats as u64 * rec.beat_bytes as u64;
            let contained = self
                .memories
                .iter()
                .any(|m| rec.addr >= m.base && rec.addr + burst_bytes <= m.end);
            if !contained {
                return Err(format!(
                    "{:#x}+{burst_bytes} lands outside every memory region",
                    rec.addr
                ));
            }
            if let Some(max) = max_streams {
                if rec.stream >= max {
                    return Err(format!(
                        "stream {} exceeds the socket's {max} stream(s)",
                        rec.stream
                    ));
                }
            }
            if is_pvci && rec.beats != 1 {
                return Err("PVCI sockets issue single-beat commands only".into());
            }
            Ok(())
        })
        .map_err(|(line, reason)| ScenarioError::Trace {
            path: t.path.clone(),
            line,
            reason,
        })
    }

    /// The address map derived from the declared memory regions.
    ///
    /// # Errors
    ///
    /// Propagates validation failures (overlaps, empty regions, …).
    pub fn address_map(&self) -> Result<AddressMap, ScenarioError> {
        self.validate()?;
        let mut map = AddressMap::new();
        for (i, m) in self.memories.iter().enumerate() {
            map.add(m.base, m.end, SlvAddr::new(self.memory_node(i)))
                .expect("regions validated disjoint");
        }
        Ok(map)
    }

    /// Names of all masters in node order (= log order on every backend).
    pub fn master_names(&self) -> Vec<String> {
        self.initiators.iter().map(|i| i.name.clone()).collect()
    }

    /// The per-initiator command sources, in declaration order — what
    /// every build, and every warm fork, loads via
    /// [`Simulation::load_programs`]. Stochastic kinds target the
    /// declared memory regions; trace kinds open their file, which
    /// validates it whole.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Trace`] for an unreadable or invalid
    /// trace file.
    pub fn programs(&self) -> Result<Vec<Box<dyn CommandSource>>, ScenarioError> {
        let regions: Vec<(u64, u64)> = self.memories.iter().map(|m| (m.base, m.end)).collect();
        self.initiators
            .iter()
            .map(|ini| -> Result<Box<dyn CommandSource>, ScenarioError> {
                Ok(match &ini.program {
                    ProgramSpec::Explicit(p) => Box::new(p.clone()),
                    ProgramSpec::Bursty(b) => Box::new(BurstyGen::new(*b, regions.clone())),
                    ProgramSpec::Zipf(z) => Box::new(ZipfGen::new(*z, regions.clone())),
                    ProgramSpec::Trace(t) => Box::new(self.open_trace(ini, t)?),
                })
            })
            .collect()
    }

    /// Estimates per-switch traffic weights from the declaration alone
    /// — the cold-start signal for [`Partition::Balanced`] band cuts
    /// before any warm activity counters exist. Initiator load is the
    /// declared command count; memory load distributes those commands by
    /// each program's target model (explicit: exact per-region address
    /// counts; zipf: the generator's own rank weights; bursty: uniform).
    /// Trace programs have no static model, so any trace in the scenario
    /// yields `None` and callers fall back to the naive band partition.
    pub fn static_switch_weights(&self) -> Option<Vec<u64>> {
        let placement = self.topology.placement(self.num_endpoints()).ok()?;
        let mut ini_load = vec![0f64; self.initiators.len()];
        let mut mem_load = vec![0f64; self.memories.len()];
        for (i, ini) in self.initiators.iter().enumerate() {
            match &ini.program {
                ProgramSpec::Explicit(program) => {
                    ini_load[i] = program.len() as f64;
                    for cmd in program {
                        if let Some(m) = self
                            .memories
                            .iter()
                            .position(|m| cmd.addr >= m.base && cmd.addr < m.end)
                        {
                            mem_load[m] += 1.0;
                        }
                    }
                }
                ProgramSpec::Bursty(b) => {
                    ini_load[i] = b.commands as f64;
                    let share = b.commands as f64 / self.memories.len() as f64;
                    for load in &mut mem_load {
                        *load += share;
                    }
                }
                ProgramSpec::Zipf(z) => {
                    ini_load[i] = z.commands as f64;
                    // Mirror ZipfGen's integer CDF (rank^-s scaled to
                    // 2^32, clamped ≥ 1) so the estimate matches the
                    // traffic the generator will actually emit.
                    let s = z.exponent_milli as f64 / 1000.0;
                    let weights: Vec<u64> = (1..=self.memories.len())
                        .map(|rank| (((rank as f64).powf(-s) * (1u64 << 32) as f64) as u64).max(1))
                        .collect();
                    let total: f64 = weights.iter().map(|&w| w as f64).sum();
                    for (load, &w) in mem_load.iter_mut().zip(&weights) {
                        *load += z.commands as f64 * w as f64 / total;
                    }
                }
                ProgramSpec::Trace(_) => return None,
            }
        }
        let mut weights = vec![0u64; self.topology.switch_count()];
        for (i, load) in ini_load.iter().enumerate() {
            weights[placement[i]] += load.round() as u64;
        }
        for (m, load) in mem_load.iter().enumerate() {
            weights[placement[self.initiators.len() + m]] += load.round() as u64;
        }
        weights.iter().any(|&w| w > 0).then_some(weights)
    }

    /// Resolves the sharded-stepping partition the compiled sim pins: an
    /// explicit `assignment` wins (validated against the topology and
    /// the `shards` knob), else the static load estimate yields a
    /// balanced cut, else `None` (naive band fallback). Public so
    /// warm-state forking (which builds its cached checkpoint from
    /// [`ScenarioSpec::without_programs`], whose load estimate is
    /// empty) can re-apply the full spec's partition to a fork via
    /// [`crate::Simulation::set_partition`].
    pub fn resolve_partition(&self) -> Result<Option<Partition>, ScenarioError> {
        let config = self.config.as_ref();
        if let Some(assignment) = config.and_then(|c| c.assignment.clone()) {
            let regions = match config.and_then(|c| c.shards) {
                Some(shards) => shards,
                None => assignment.iter().copied().max().map_or(1, |m| m + 1),
            };
            let partition = Partition::Explicit { assignment };
            partition
                .validate(self.topology.switch_count(), regions)
                .map_err(|reason| ScenarioError::BadPartition { reason })?;
            return Ok(Some(partition));
        }
        Ok(self
            .static_switch_weights()
            .map(|weights| Partition::Balanced { weights }))
    }

    /// The spec with every initiator program removed — explicit,
    /// stochastic and trace kinds alike map to the empty explicit
    /// program: the shareable "prefix" (topology, `[config]`, routing,
    /// endpoint shapes and NIU knobs). Two grid points that differ only
    /// in their workloads have equal stripped specs, so one compiled
    /// checkpoint serves both.
    #[must_use]
    pub fn without_programs(&self) -> ScenarioSpec {
        let mut stripped = self.clone();
        for ini in &mut stripped.initiators {
            ini.program = ProgramSpec::default();
        }
        stripped
    }

    /// A stable key identifying the compiled prefix this spec shares
    /// with other grid points on `backend`: the program-stripped spec's
    /// canonical text plus the backend's full configuration. Equal keys
    /// guarantee that [`ScenarioSpec::without_programs`] compiles to
    /// identical simulations, so a checkpoint cache may serve either
    /// point from one warmed entry.
    pub fn prefix_key(&self, backend: &Backend) -> String {
        format!("{:?}\n{}", backend, self.without_programs().to_text())
    }

    /// Compiles the spec for the given backend.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] if the declaration is inconsistent.
    pub fn build(&self, backend: &Backend) -> Result<Box<dyn Simulation>, ScenarioError> {
        Ok(match backend {
            Backend::Noc(cfg) => Box::new(self.build_noc(*cfg)?),
            Backend::Bridged(cfg) => Box::new(self.build_bridged(*cfg)?),
            Backend::Bus(cfg) => Box::new(self.build_bus(*cfg)?),
        })
    }

    /// Compiles the spec onto the NoC (paper Fig 1): every socket behind
    /// its NIU on the declared fabric.
    ///
    /// Routing resolution, most explicit wins:
    /// [`ScenarioSpec::with_routing`] if set; otherwise a non-default
    /// algorithm carried by `config`; otherwise — since the config
    /// default (`ShortestPath`) is indistinguishable from "unspecified"
    /// and can deadlock on non-crossbar fabrics — the topology's
    /// [recommended](TopologySpec::recommended_routing) deadlock-safe
    /// algorithm. To force `ShortestPath` on a non-crossbar fabric, use
    /// `with_routing`.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] if the declaration is inconsistent.
    pub fn build_noc(&self, mut config: NocConfig) -> Result<NocSim, ScenarioError> {
        let map = self.address_map()?;
        let programs = self.programs()?;
        if let Some(overrides) = &self.config {
            config = overrides.apply(config);
        }
        if let Some(routing) = self.routing {
            config.routing = routing;
        } else if matches!(config.routing, RouteAlgorithm::ShortestPath)
            && !matches!(self.topology, TopologySpec::Crossbar)
        {
            config.routing = self.topology.recommended_routing();
        }
        let topology = self.topology.build(self.num_endpoints())?;
        let mut builder = SocBuilder::new(topology, config);
        for (i, ini) in self.initiators.iter().enumerate() {
            let node = self.initiator_node(i);
            let niu = InitiatorNiu::new(ini.socket.build_fe(), ini.niu_config(node), map.clone());
            builder = builder.initiator_clocked(&ini.name, node, Box::new(niu), ini.clock_divisor);
        }
        for (i, mem) in self.memories.iter().enumerate() {
            let node = self.memory_node(i);
            builder =
                builder.target_clocked(&mem.name, node, mem.build_niu(node), mem.clock_divisor);
        }
        let soc = builder.build().map_err(|e| ScenarioError::BadTopology {
            reason: e.to_string(),
        })?;
        let mut sim = NocSim::new(soc);
        sim.set_default_shards(self.config.as_ref().and_then(|c| c.shards));
        sim.set_partition(self.resolve_partition()?);
        sim.load_programs(programs);
        Ok(sim)
    }

    /// Rejects specs that declare divided endpoint clocks, which the
    /// baseline backends cannot model (they tick everything on the base
    /// clock — compiling such a spec would silently change its timing).
    fn reject_clocked(&self, backend: &'static str) -> Result<(), ScenarioError> {
        let clocked = self
            .initiators
            .iter()
            .map(|i| (&i.name, i.clock_divisor))
            .chain(self.memories.iter().map(|m| (&m.name, m.clock_divisor)))
            .find(|&(_, d)| d != 1);
        match clocked {
            Some((name, divisor)) => Err(ScenarioError::UnsupportedClock {
                backend,
                endpoint: name.clone(),
                divisor,
            }),
            None => Ok(()),
        }
    }

    /// Rejects target declarations the bus cannot model: its exclusive
    /// arbitration is centralised in the bus monitor, so a service block
    /// that owns its exclusive port has no honest bus attachment.
    fn reject_bus_targets(&self) -> Result<(), ScenarioError> {
        for mem in &self.memories {
            if let TargetSpec::Service {
                exclusive: true, ..
            } = mem.target
            {
                return Err(ScenarioError::UnsupportedTarget {
                    backend: "bus",
                    target: mem.name.clone(),
                    kind: "service+exclusive".into(),
                });
            }
        }
        Ok(())
    }

    /// Compiles the spec onto the Fig-2 bridged reference-socket
    /// interconnect.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] if the declaration is inconsistent or
    /// declares divided clocks ([`ScenarioError::UnsupportedClock`]).
    pub fn build_bridged(&self, config: BridgeConfig) -> Result<BridgedSim, ScenarioError> {
        self.reject_clocked("bridged")?;
        let map = self.address_map()?;
        let programs = self.programs()?;
        let mut ic = BridgedInterconnect::new(config, map);
        for ini in &self.initiators {
            ic.add_master(AttachedMaster::new(&ini.name, ini.socket.build_fe()));
        }
        for (i, mem) in self.memories.iter().enumerate() {
            ic.add_slave_timed(
                SlvAddr::new(self.memory_node(i)),
                mem.base,
                MemoryModel::new(mem.latency),
                mem.target.slave_timing(),
            );
        }
        let mut sim = BridgedSim::new("bridged", ic, self.master_names());
        sim.load_programs(programs);
        Ok(sim)
    }

    /// Compiles the spec onto the shared-bus baseline.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] if the declaration is inconsistent,
    /// declares divided clocks ([`ScenarioError::UnsupportedClock`]) or
    /// declares a target kind the bus cannot model
    /// ([`ScenarioError::UnsupportedTarget`]).
    pub fn build_bus(&self, config: BusConfig) -> Result<BusSim, ScenarioError> {
        self.reject_clocked("bus")?;
        self.reject_bus_targets()?;
        let map = self.address_map()?;
        let programs = self.programs()?;
        let mut bus = SharedBus::new(config, map);
        for ini in &self.initiators {
            bus.add_master(AttachedMaster::new(&ini.name, ini.socket.build_fe()));
        }
        for mem in &self.memories {
            bus.add_slave_timed(
                mem.base,
                MemoryModel::new(mem.latency),
                mem.target.slave_timing(),
            );
        }
        let mut sim = BusSim::new("bus", bus, self.master_names());
        sim.load_programs(programs);
        Ok(sim)
    }
}
