//! Socket-neutral command programs and completion logs.
//!
//! Workload generators emit [`Program`]s of [`SocketCommand`]s, or
//! stream them through a [`CommandSource`]; each protocol's master agent
//! executes a program under its own ordering rules and records
//! [`CompletionRecord`]s, from which experiments compute latency
//! statistics and functional fingerprints.

use noc_transaction::{Burst, BurstKind, Fingerprint, Opcode, RespStatus, StreamId};
use std::fmt;

/// The socket protocol an IP block speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// AMBA AHB 2.0.
    Ahb,
    /// AMBA AXI.
    Axi,
    /// OCP 2.x.
    Ocp,
    /// Peripheral VCI.
    Pvci,
    /// Basic VCI.
    Bvci,
    /// Advanced VCI.
    Avci,
    /// Proprietary streaming socket.
    Strm,
}

impl ProtocolKind {
    /// All protocol kinds, for sweeps.
    pub const ALL: [ProtocolKind; 7] = [
        ProtocolKind::Ahb,
        ProtocolKind::Axi,
        ProtocolKind::Ocp,
        ProtocolKind::Pvci,
        ProtocolKind::Bvci,
        ProtocolKind::Avci,
        ProtocolKind::Strm,
    ];
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProtocolKind::Ahb => "AHB",
            ProtocolKind::Axi => "AXI",
            ProtocolKind::Ocp => "OCP",
            ProtocolKind::Pvci => "PVCI",
            ProtocolKind::Bvci => "BVCI",
            ProtocolKind::Avci => "AVCI",
            ProtocolKind::Strm => "STRM",
        };
        f.write_str(s)
    }
}

/// One socket-level operation for a master agent to perform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SocketCommand {
    /// The canonical opcode.
    pub opcode: Opcode,
    /// Byte address.
    pub addr: u64,
    /// Beats in the burst.
    pub beats: u32,
    /// Bytes per beat.
    pub beat_bytes: u32,
    /// Burst address progression.
    pub burst_kind: BurstKind,
    /// Socket stream (OCP thread / AXI ID); ignored by ordered sockets.
    pub stream: StreamId,
    /// Seed for deterministic write-data generation.
    pub data_seed: u64,
    /// Idle cycles the master waits before issuing this command.
    pub delay_before: u32,
    /// QoS pressure hint carried to the NIU.
    pub pressure: u8,
}

impl SocketCommand {
    /// A single-beat read of `beat_bytes` at `addr`.
    pub fn read(addr: u64, beat_bytes: u32) -> Self {
        SocketCommand {
            opcode: Opcode::Read,
            addr,
            beats: 1,
            beat_bytes,
            burst_kind: BurstKind::Incr,
            stream: StreamId::ZERO,
            data_seed: 0,
            delay_before: 0,
            pressure: 0,
        }
    }

    /// A single-beat write at `addr` with data from `seed`.
    pub fn write(addr: u64, beat_bytes: u32, seed: u64) -> Self {
        SocketCommand {
            opcode: Opcode::Write,
            data_seed: seed,
            ..SocketCommand::read(addr, beat_bytes)
        }
    }

    /// Sets the burst shape.
    #[must_use]
    pub fn with_burst(mut self, kind: BurstKind, beats: u32) -> Self {
        self.burst_kind = kind;
        self.beats = beats;
        self
    }

    /// Sets the stream (thread/ID).
    #[must_use]
    pub fn with_stream(mut self, stream: StreamId) -> Self {
        self.stream = stream;
        self
    }

    /// Sets the opcode.
    #[must_use]
    pub fn with_opcode(mut self, opcode: Opcode) -> Self {
        self.opcode = opcode;
        self
    }

    /// Sets the issue delay.
    #[must_use]
    pub fn with_delay(mut self, cycles: u32) -> Self {
        self.delay_before = cycles;
        self
    }

    /// Sets the pressure hint.
    #[must_use]
    pub fn with_pressure(mut self, pressure: u8) -> Self {
        self.pressure = pressure;
        self
    }

    /// The canonical burst descriptor.
    ///
    /// # Panics
    ///
    /// Panics if the command's burst parameters are invalid — programs are
    /// produced by generators that must only emit valid bursts.
    pub fn burst(&self) -> Burst {
        Burst::new(self.burst_kind, self.beat_bytes, self.beats)
            .expect("socket command carries a valid burst")
    }

    /// Deterministic write payload for this command.
    pub fn payload(&self) -> Vec<u8> {
        gen_data(self.data_seed, self.burst().total_bytes() as usize)
    }
}

impl fmt::Display for SocketCommand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} @{:#x} {}x{}B s{}",
            self.opcode,
            self.addr,
            self.beats,
            self.beat_bytes,
            self.stream.raw()
        )
    }
}

/// A master's workload: the command sequence it issues in order.
pub type Program = Vec<SocketCommand>;

/// A master's command stream, pulled by the master itself as its lanes
/// run dry (see [`Master`](crate::Master)). A [`Program`] is the
/// simplest source: its first pull hands over every command.
/// Generated and traced workloads stream their commands chunk by chunk,
/// so an unbounded workload never has to be resident.
///
/// Sources are plain cloneable state behind an object-safe interface:
/// cloning a master clones its source at the exact stream position,
/// which is what makes whole-simulation snapshots resume the stream
/// bit-identically.
///
/// # Examples
///
/// ```
/// use noc_protocols::{CommandSource, SocketCommand};
///
/// let mut program = vec![SocketCommand::read(0x0, 4), SocketCommand::read(0x8, 4)];
/// assert_eq!(program.pull().len(), 2);
/// assert!(program.pull().is_empty(), "an empty pull ends the stream");
/// ```
pub trait CommandSource: fmt::Debug + Send {
    /// The next commands of the stream, in stream order: at least one,
    /// or none once the stream has ended.
    fn pull(&mut self) -> Vec<SocketCommand>;
    /// `false` if the stream never carries a command on `stream`. A
    /// threaded master never pulls on behalf of a lane its source does
    /// not feed, so a source that answers precisely is not drained
    /// ahead of need. The default claims every stream.
    fn feeds(&self, stream: StreamId) -> bool {
        let _ = stream;
        true
    }
    /// Clones the source behind the object-safe interface.
    fn clone_box(&self) -> Box<dyn CommandSource>;
}

impl Clone for Box<dyn CommandSource> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

impl CommandSource for Program {
    fn pull(&mut self) -> Vec<SocketCommand> {
        std::mem::take(self)
    }
    fn clone_box(&self) -> Box<dyn CommandSource> {
        Box::new(self.clone())
    }
}

/// Deterministic pseudo-random bytes from a seed (SplitMix64 stream).
///
/// # Examples
///
/// ```
/// use noc_protocols::gen_data;
/// assert_eq!(gen_data(1, 4), gen_data(1, 4));
/// assert_ne!(gen_data(1, 4), gen_data(2, 4));
/// ```
pub fn gen_data(seed: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    let mut state = seed;
    while out.len() < len {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        out.extend_from_slice(&z.to_le_bytes());
    }
    out.truncate(len);
    out
}

/// One completed socket command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletionRecord {
    /// Index of the command in the program.
    pub index: usize,
    /// The opcode performed.
    pub opcode: Opcode,
    /// Byte address.
    pub addr: u64,
    /// Final status.
    pub status: RespStatus,
    /// Data observed: read data for reads, written data for writes.
    pub data: Vec<u8>,
    /// Socket stream.
    pub stream: StreamId,
    /// Cycle the command was issued on the socket.
    pub issued_at: u64,
    /// Cycle the completion was observed.
    pub completed_at: u64,
}

impl CompletionRecord {
    /// Socket-observed latency in cycles.
    pub fn latency(&self) -> u64 {
        self.completed_at - self.issued_at
    }
}

/// A master's completion history plus derived statistics.
#[derive(Debug, Clone, Default)]
pub struct CompletionLog {
    records: Vec<CompletionRecord>,
}

impl CompletionLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        CompletionLog::default()
    }

    /// Appends a record.
    pub fn push(&mut self, record: CompletionRecord) {
        self.records.push(record);
    }

    /// The records, in completion order.
    pub fn records(&self) -> &[CompletionRecord] {
        &self.records
    }

    /// Number of completions.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` when nothing completed yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The order-insensitive functional fingerprint of everything that
    /// completed (see [`Fingerprint`]).
    pub fn fingerprint(&self) -> Fingerprint {
        let mut fp = Fingerprint::new();
        for r in &self.records {
            fp.record(r.opcode.encode(), r.addr, &r.data, r.status.encode());
        }
        fp
    }

    /// Mean completion latency in cycles.
    pub fn mean_latency(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(|r| r.latency()).sum::<u64>() as f64 / self.records.len() as f64
    }

    /// Count of error completions.
    pub fn errors(&self) -> usize {
        self.records.iter().filter(|r| r.status.is_err()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_builders() {
        let c = SocketCommand::read(0x100, 4)
            .with_burst(BurstKind::Wrap, 4)
            .with_stream(StreamId::new(2))
            .with_delay(5)
            .with_pressure(3);
        assert_eq!(c.opcode, Opcode::Read);
        assert_eq!(c.burst().beats(), 4);
        assert_eq!(c.burst().kind(), BurstKind::Wrap);
        assert_eq!(c.stream, StreamId::new(2));
        assert_eq!(c.delay_before, 5);
        assert_eq!(c.pressure, 3);
    }

    #[test]
    fn write_payload_is_deterministic() {
        let c = SocketCommand::write(0x0, 4, 42).with_burst(BurstKind::Incr, 2);
        assert_eq!(c.payload(), c.payload());
        assert_eq!(c.payload().len(), 8);
        let c2 = SocketCommand::write(0x0, 4, 43).with_burst(BurstKind::Incr, 2);
        assert_ne!(c.payload(), c2.payload());
    }

    #[test]
    fn gen_data_len_and_determinism() {
        assert_eq!(gen_data(7, 0), Vec::<u8>::new());
        assert_eq!(gen_data(7, 3).len(), 3);
        assert_eq!(gen_data(7, 100), gen_data(7, 100));
    }

    #[test]
    fn completion_latency() {
        let r = CompletionRecord {
            index: 0,
            opcode: Opcode::Read,
            addr: 0,
            status: RespStatus::Okay,
            data: vec![],
            stream: StreamId::ZERO,
            issued_at: 10,
            completed_at: 25,
        };
        assert_eq!(r.latency(), 15);
    }

    #[test]
    fn log_statistics() {
        let mut log = CompletionLog::new();
        assert!(log.is_empty());
        for (i, lat) in [(0usize, 10u64), (1, 20)] {
            log.push(CompletionRecord {
                index: i,
                opcode: Opcode::Read,
                addr: i as u64,
                status: if i == 1 {
                    RespStatus::SlvErr
                } else {
                    RespStatus::Okay
                },
                data: vec![],
                stream: StreamId::ZERO,
                issued_at: 0,
                completed_at: lat,
            });
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.mean_latency(), 15.0);
        assert_eq!(log.errors(), 1);
    }

    #[test]
    fn log_fingerprint_order_insensitive() {
        let rec = |addr: u64| CompletionRecord {
            index: 0,
            opcode: Opcode::Read,
            addr,
            status: RespStatus::Okay,
            data: vec![addr as u8],
            stream: StreamId::ZERO,
            issued_at: 0,
            completed_at: 0,
        };
        let mut a = CompletionLog::new();
        a.push(rec(1));
        a.push(rec(2));
        let mut b = CompletionLog::new();
        b.push(rec(2));
        b.push(rec(1));
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn protocol_kind_display_all() {
        let names: Vec<String> = ProtocolKind::ALL.iter().map(|p| p.to_string()).collect();
        assert_eq!(names, ["AHB", "AXI", "OCP", "PVCI", "BVCI", "AVCI", "STRM"]);
    }

    #[test]
    fn command_display() {
        let c = SocketCommand::read(0x40, 8);
        assert!(c.to_string().contains("RD"));
        assert!(c.to_string().contains("0x40"));
    }
}
