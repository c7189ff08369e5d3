//! The protocol-neutral initiator NIU back end.

use crate::codec::{decode_response, encode_request};
use noc_protocols::{CommandSource, CompletionLog};
use noc_transaction::{
    AddressMap, MstAddr, Opcode, OrderingModel, OrderingPolicy, RespStatus, ServiceBits,
    ServiceConfig, StreamId, TargetRule, TransactionRequest, TransactionResponse, TransactionTable,
};
use noc_transport::{Flit, PacketAssembler};
use std::collections::VecDeque;
use std::fmt;

/// The protocol-specific front half of an initiator NIU: a socket master
/// agent plus the logic converting its beats to neutral transactions.
///
/// Implementations live in [`crate::fe`]; writing one of these is *all*
/// it takes to plug a new socket protocol into the NoC (paper §2).
///
/// Front ends are plain owned state (`Send`), so built simulations can
/// be checkpointed and moved across threads — the enabler for snapshot/
/// restore and warm-state forking in the serve layer.
pub trait SocketInitiator: Send {
    /// Advances the socket agent and conversion logic one cycle.
    fn tick(&mut self, cycle: u64);
    /// Takes the next neutral request, if the socket produced one.
    /// Routing fields (`src`, `dst`, `tag`) are left default — the back
    /// end assigns them.
    fn pull_request(&mut self) -> Option<TransactionRequest>;
    /// Delivers a response for the socket stream `stream`; `opcode` is
    /// the original request opcode (front ends need it to pick the right
    /// socket response channel).
    fn push_response(&mut self, stream: StreamId, opcode: Opcode, resp: TransactionResponse);
    /// Returns `true` when the socket has no further work.
    fn done(&self) -> bool;
    /// The socket's completion log (for statistics and fingerprints).
    fn log(&self) -> &CompletionLog;
    /// The earliest base cycle at which the front end can change state
    /// absent new responses, `None` when quiescent until input — the
    /// [`crate::NocEndpoint::wake_at`] contract. Defaults to `Some(0)`
    /// (tick densely).
    fn wake_at(&self) -> Option<u64> {
        Some(0)
    }
    /// Sets the socket clock: the front end ticks every `period` base
    /// cycles (see [`crate::NocEndpoint::set_clock`]). Front ends that
    /// report no deadlines ignore it.
    fn set_clock_period(&mut self, period: u64) {
        let _ = period;
    }
    /// Replaces the socket's program before execution starts with the
    /// commands `program` streams (see
    /// [`noc_protocols::Master::load_program`] for the contract).
    /// Scenario builds and warm-state forks load every workload,
    /// explicit or streamed, into programless front ends through this
    /// hook.
    ///
    /// # Panics
    ///
    /// Panics if the socket already issued or completed a command, or
    /// if a pulled command violates the socket's constraints.
    fn load_program(&mut self, program: Box<dyn CommandSource>);
    /// Clones the front end behind the object-safe interface, enabling
    /// `Clone` for `Box<dyn SocketInitiator>` and therefore snapshots of
    /// whole simulations.
    fn clone_box(&self) -> Box<dyn SocketInitiator>;
}

impl Clone for Box<dyn SocketInitiator> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// A boxed front end is itself a front end, so one NIU type can host
/// heterogeneous sockets.
impl SocketInitiator for Box<dyn SocketInitiator> {
    fn tick(&mut self, cycle: u64) {
        (**self).tick(cycle)
    }
    fn pull_request(&mut self) -> Option<TransactionRequest> {
        (**self).pull_request()
    }
    fn push_response(&mut self, stream: StreamId, opcode: Opcode, resp: TransactionResponse) {
        (**self).push_response(stream, opcode, resp)
    }
    fn done(&self) -> bool {
        (**self).done()
    }
    fn log(&self) -> &CompletionLog {
        (**self).log()
    }
    fn wake_at(&self) -> Option<u64> {
        (**self).wake_at()
    }
    fn set_clock_period(&mut self, period: u64) {
        (**self).set_clock_period(period)
    }
    fn load_program(&mut self, program: Box<dyn CommandSource>) {
        (**self).load_program(program)
    }
    fn clone_box(&self) -> Box<dyn SocketInitiator> {
        (**self).clone_box()
    }
}

/// Configuration of an initiator NIU back end.
#[derive(Debug, Clone)]
pub struct InitiatorNiuConfig {
    /// This NIU's node number (the packet `MstAddr`).
    pub node: MstAddr,
    /// Ordering model matching the socket (paper §3).
    pub ordering: OrderingModel,
    /// Transaction table capacity = max outstanding transactions — the
    /// gate-count/performance knob.
    pub max_outstanding: u32,
    /// How same-tag multi-target ordering is preserved.
    pub target_rule: TargetRule,
    /// Which optional NoC services this NoC instance activates.
    pub services: ServiceConfig,
    /// Flit payload width in bytes (physical-layer parameter used for
    /// packetisation).
    pub flit_bytes: usize,
    /// Pressure for packets whose command carries no explicit hint.
    pub default_pressure: u8,
}

impl InitiatorNiuConfig {
    /// A sensible default configuration for `node`: fully ordered, 4
    /// outstanding, exclusive service on, 8-byte flits.
    pub fn new(node: MstAddr) -> Self {
        InitiatorNiuConfig {
            node,
            ordering: OrderingModel::FullyOrdered,
            max_outstanding: 4,
            target_rule: TargetRule::StallOnSwitch,
            services: ServiceConfig::new()
                .enable(ServiceBits::EXCLUSIVE)
                .enable(ServiceBits::LOCKED)
                .enable(ServiceBits::POSTED),
            flit_bytes: 8,
            default_pressure: 0,
        }
    }

    /// Sets the ordering model.
    #[must_use]
    pub fn with_ordering(mut self, ordering: OrderingModel) -> Self {
        self.ordering = ordering;
        self
    }

    /// Sets the outstanding budget.
    #[must_use]
    pub fn with_outstanding(mut self, n: u32) -> Self {
        self.max_outstanding = n;
        self
    }

    /// Sets the target rule.
    #[must_use]
    pub fn with_target_rule(mut self, rule: TargetRule) -> Self {
        self.target_rule = rule;
        self
    }

    /// Sets the default pressure.
    #[must_use]
    pub fn with_pressure(mut self, pressure: u8) -> Self {
        self.default_pressure = pressure;
        self
    }

    /// Sets the flit payload width.
    #[must_use]
    pub fn with_flit_bytes(mut self, bytes: usize) -> Self {
        self.flit_bytes = bytes;
        self
    }
}

/// Counters exposed by NIU back ends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NiuStats {
    /// Request packets injected into the fabric.
    pub requests_sent: u64,
    /// Response packets received from the fabric.
    pub responses_received: u64,
    /// Cycles the head request was stalled by the ordering policy.
    pub policy_stalls: u64,
    /// Requests answered locally with `DECERR` (address decode miss).
    pub decode_errors: u64,
    /// Posted writes (fire-and-forget, no table entry).
    pub posted_writes: u64,
}

/// The initiator NIU: socket front end + neutral back end.
///
/// # Examples
///
/// Loopback through a [`crate::TargetNiu`] is exercised in the crate
/// tests; system-level wiring lives in `noc-system`.
#[derive(Clone)]
pub struct InitiatorNiu<FE: SocketInitiator> {
    fe: FE,
    config: InitiatorNiuConfig,
    policy: OrderingPolicy,
    table: TransactionTable,
    map: AddressMap,
    pending: Option<TransactionRequest>,
    egress: VecDeque<Flit>,
    assembler: PacketAssembler,
    pkt_seq: u64,
    stats: NiuStats,
}

impl<FE: SocketInitiator> InitiatorNiu<FE> {
    /// Creates an initiator NIU around front end `fe`.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configuration (zero outstanding budget or
    /// zero-tag ordering model).
    pub fn new(fe: FE, config: InitiatorNiuConfig, map: AddressMap) -> Self {
        let policy = OrderingPolicy::with_rules(
            config.ordering,
            config.max_outstanding,
            config.max_outstanding,
            config.target_rule,
        )
        .expect("valid ordering configuration");
        let table = TransactionTable::new(config.max_outstanding as usize);
        InitiatorNiu {
            fe,
            policy,
            table,
            map,
            pending: None,
            egress: VecDeque::new(),
            assembler: PacketAssembler::new(),
            pkt_seq: 0,
            config,
            stats: NiuStats::default(),
        }
    }

    /// The front end (for log access).
    pub fn fe(&self) -> &FE {
        &self.fe
    }

    /// Back-end counters.
    pub fn stats(&self) -> &NiuStats {
        &self.stats
    }

    /// The transaction table (occupancy inspection).
    pub fn table(&self) -> &TransactionTable {
        &self.table
    }

    /// Advances socket, front end and back end one cycle.
    pub fn tick(&mut self, cycle: u64) {
        self.fe.tick(cycle);
        if self.pending.is_none() {
            self.pending = self.fe.pull_request();
        }
        let Some(req) = self.pending.take() else {
            return;
        };
        // 1. Address decode → SlvAddr (DECERR locally on miss).
        let dst = match self.map.decode_span(req.address(), req.last_address()) {
            Ok(dst) => dst,
            Err(_) => {
                self.stats.decode_errors += 1;
                if req.opcode().expects_response() {
                    let resp = TransactionResponse::new(
                        RespStatus::DecErr,
                        self.config.node,
                        noc_transaction::SlvAddr::new(u16::MAX),
                        noc_transaction::Tag::ZERO,
                        Vec::new(),
                    );
                    self.fe.push_response(req.stream(), req.opcode(), resp);
                }
                return;
            }
        };
        // 2. Posted writes: no table entry, no tag state — fire and forget.
        if !req.opcode().expects_response() {
            let routed = req.with_route(self.config.node, dst, noc_transaction::Tag::ZERO);
            self.emit(routed);
            self.stats.posted_writes += 1;
            return;
        }
        // 3. Tag assignment via the ordering policy.
        match self.policy.try_issue(req.stream(), dst) {
            Ok(tag) => {
                let routed = req.with_route(self.config.node, dst, tag);
                let entry = self.table.allocate(
                    tag,
                    routed.stream(),
                    dst,
                    routed.opcode(),
                    routed.burst().beats(),
                    cycle,
                    0,
                );
                entry.expect("policy budget equals table capacity");
                self.emit(routed);
            }
            Err(_) => {
                self.stats.policy_stalls += 1;
                self.pending = Some(req); // retry next cycle
            }
        }
    }

    /// Stamps service bits and packetises onto the egress queue.
    fn emit(&mut self, req: TransactionRequest) {
        let mut services = ServiceBits::NONE;
        if req.opcode().is_exclusive() {
            services |= ServiceBits::EXCLUSIVE;
        }
        if req.opcode().is_locking() {
            services |= ServiceBits::LOCKED;
        }
        if !req.opcode().expects_response() {
            services |= ServiceBits::POSTED;
        }
        self.config
            .services
            .check(services)
            .expect("socket requires a NoC service this configuration disables");
        let req = req.with_services(services);
        let req = if req.pressure() == 0 {
            // apply NIU default pressure when the command carried none
            let p = self.config.default_pressure;
            if p > 0 {
                TransactionRequest::builder(req.opcode())
                    .address(req.address())
                    .burst(req.burst())
                    .source(req.src())
                    .destination(req.dst())
                    .tag(req.tag())
                    .stream(req.stream())
                    .services(req.services())
                    .pressure(p)
                    .data(if req.opcode().is_write() {
                        req.data().to_vec()
                    } else {
                        Vec::new()
                    })
                    .build()
                    .expect("rebuilding a valid request")
            } else {
                req
            }
        } else {
            req
        };
        let packet = encode_request(&req);
        let id = (self.config.node.raw() as u64) << 48 | self.pkt_seq;
        self.pkt_seq += 1;
        for flit in packet.to_flits_with_id(self.config.flit_bytes, id) {
            self.egress.push_back(flit);
        }
        self.stats.requests_sent += 1;
    }

    /// Takes the next flit bound for the request network.
    pub fn pull_flit(&mut self) -> Option<Flit> {
        self.egress.pop_front()
    }

    /// Returns a refused flit to the head of the egress queue.
    pub fn unpull_flit(&mut self, flit: Flit) {
        self.egress.push_front(flit);
    }

    /// Delivers a response-network flit.
    ///
    /// # Panics
    ///
    /// Panics on malformed packets or responses that match no outstanding
    /// transaction — both indicate fabric corruption, which must never
    /// happen silently in a simulator.
    pub fn push_flit(&mut self, flit: Flit) {
        let Some(packet) = self
            .assembler
            .push(flit)
            .expect("well-formed flit stream from fabric")
        else {
            return;
        };
        let resp = decode_response(&packet).expect("well-formed response packet");
        let entry_id = self
            .table
            .match_response(resp.tag())
            .expect("response matches an outstanding transaction");
        let entry = self.table.free(entry_id).expect("entry just matched");
        self.policy
            .complete(resp.tag())
            .expect("policy tracks this tag");
        self.stats.responses_received += 1;
        self.fe.push_response(entry.stream, entry.opcode, resp);
    }

    /// Returns `true` when socket, table and egress are all drained.
    pub fn is_done(&self) -> bool {
        self.fe.done()
            && self.pending.is_none()
            && self.table.occupancy() == 0
            && self.egress.is_empty()
    }

    /// The earliest base cycle at which the NIU can change state absent
    /// incoming flits (the [`crate::NocEndpoint::wake_at`] contract).
    /// With a stalled request or queued egress flits the NIU must tick
    /// densely (the stall retries and the flits inject every cycle);
    /// otherwise it is whatever the socket front end reports.
    /// Outstanding transactions alone do *not* force dense ticking — a
    /// front end waiting on responses reports its own quiescence, and
    /// the wait is the fabric's and target's business.
    pub fn wake_at(&self) -> Option<u64> {
        if self.pending.is_some() || !self.egress.is_empty() {
            return Some(0);
        }
        self.fe.wake_at()
    }
}

impl<FE: SocketInitiator + Clone + 'static> crate::NocEndpoint for InitiatorNiu<FE> {
    fn tick(&mut self, cycle: u64) {
        InitiatorNiu::tick(self, cycle);
    }
    fn pull_flit(&mut self) -> Option<Flit> {
        InitiatorNiu::pull_flit(self)
    }
    fn unpull_flit(&mut self, flit: Flit) {
        InitiatorNiu::unpull_flit(self, flit);
    }
    fn push_flit(&mut self, flit: Flit) {
        InitiatorNiu::push_flit(self, flit);
    }
    fn is_done(&self) -> bool {
        InitiatorNiu::is_done(self)
    }
    fn completion_log(&self) -> Option<&noc_protocols::CompletionLog> {
        Some(self.fe.log())
    }
    fn wake_at(&self) -> Option<u64> {
        InitiatorNiu::wake_at(self)
    }
    fn set_clock(&mut self, clock: noc_kernel::ClockDomain) {
        self.fe.set_clock_period(clock.divisor());
    }
    fn load_program(&mut self, program: Box<dyn CommandSource>) {
        self.fe.load_program(program);
    }
    fn clone_box(&self) -> Box<dyn crate::NocEndpoint> {
        Box::new(self.clone())
    }
}

impl<FE: SocketInitiator> fmt::Debug for InitiatorNiu<FE> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InitiatorNiu")
            .field("node", &self.config.node)
            .field("ordering", &self.config.ordering)
            .field("outstanding", &self.table.occupancy())
            .field("egress", &self.egress.len())
            .finish()
    }
}
