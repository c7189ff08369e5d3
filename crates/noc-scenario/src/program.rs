//! Stochastic and trace-driven traffic programs.
//!
//! An [`InitiatorSpec`](crate::InitiatorSpec) carries a [`ProgramSpec`]:
//! either an explicit command list (the classic `cmd =` lines) or a
//! *generated* workload — seeded on/off bursty arrivals
//! ([`BurstySpec`]), Zipf-popularity target selection ([`ZipfSpec`]) or
//! a timestamped trace replayed from a file ([`TraceSpec`]). Generated
//! workloads are **streamed**: each is a [`CommandSource`] the master
//! pulls from whenever one of its lanes runs dry, a chunk at a time, so
//! a million-command trace never lives in memory. The command stream is
//! a pure function of the seed (or file), and the master's pull rule
//! makes streaming unobservable: the same spec produces
//! record-for-record identical completion logs on every backend, in
//! every step mode, and identical to its materialised explicit program.
//!
//! All randomness comes from the kernel's [`SplitMix64`]; no generator
//! ever reads simulation time.

use noc_kernel::SplitMix64;
use noc_protocols::{CommandSource, Program, SocketCommand};
use noc_transaction::{BurstKind, Opcode, StreamId};
use std::collections::BTreeSet;
use std::fmt;
use std::fs::File;
use std::io::{BufRead, BufReader, Seek, SeekFrom};

/// Commands a generator or trace cursor hands the master per pull:
/// enough to amortise a trace file's reopen and seek, few enough that
/// the read-ahead a master holds stays small.
const PULL_CHUNK: usize = 64;

/// How a generator spaces consecutive commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Discipline {
    /// Open-loop injection: gaps model an *arrival* process, so a drawn
    /// gap of zero is legal (back-to-back arrivals) and the offered load
    /// does not react to congestion. This is the MMPP-style law.
    #[default]
    Open,
    /// Closed-loop injection: gaps model *think time* after the
    /// previous command, floored at one cycle — the master always rests
    /// at least a cycle between issues, approximating a request-reply
    /// loop. (True closed-loop reactivity — waiting for the reply —
    /// already emerges from the socket's outstanding limits; the floor
    /// is the generator-side half of the discipline.)
    Closed,
}

impl Discipline {
    /// Grammar label ("open" / "closed").
    pub fn label(&self) -> &'static str {
        match self {
            Discipline::Open => "open",
            Discipline::Closed => "closed",
        }
    }
}

impl fmt::Display for Discipline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Command-shape parameters shared by the stochastic program kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StochasticShape {
    /// Percentage of reads (0–100); the rest are writes.
    pub read_pct: u8,
    /// Beats per burst.
    pub beats: u32,
    /// Bytes per beat.
    pub beat_bytes: u32,
    /// Socket streams (threads/IDs) commands round-robin over.
    pub streams: u16,
    /// Mean idle cycles between commands (uniform over `0..=2*gap`).
    pub gap: u32,
    /// Open- or closed-loop gap law.
    pub discipline: Discipline,
}

impl Default for StochasticShape {
    fn default() -> Self {
        StochasticShape {
            read_pct: 70,
            beats: 4,
            beat_bytes: 4,
            streams: 1,
            gap: 2,
            discipline: Discipline::Open,
        }
    }
}

/// A seeded on/off bursty (MMPP-style) arrival program: bursts of
/// closely spaced commands separated by long idle gaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstySpec {
    /// Generator seed.
    pub seed: u64,
    /// Total commands the program emits.
    pub commands: usize,
    /// Mean burst length in commands (uniform over `1..=2*burst_len`).
    pub burst_len: u32,
    /// Mean idle cycles between bursts (uniform over `0..=2*idle_gap`),
    /// added to the first command of each burst.
    pub idle_gap: u32,
    /// Command shape.
    pub shape: StochasticShape,
}

impl BurstySpec {
    /// A bursty program with the default shape.
    pub fn new(seed: u64, commands: usize, burst_len: u32, idle_gap: u32) -> Self {
        BurstySpec {
            seed,
            commands,
            burst_len,
            idle_gap,
            shape: StochasticShape::default(),
        }
    }
}

/// A seeded Zipf-popularity target-selection program: command `i` picks
/// its target region with probability proportional to
/// `1 / rank^(exponent_milli/1000)`, rank being the region's declaration
/// order (first declared = hottest). High exponents concentrate traffic
/// on the first region — the hotspot-storm workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZipfSpec {
    /// Generator seed.
    pub seed: u64,
    /// Total commands the program emits.
    pub commands: usize,
    /// Zipf exponent in milli-units (`1500` = 1.5); at most
    /// [`ZipfSpec::MAX_EXPONENT_MILLI`]. Integer so the text format
    /// stays float-free and `Eq` holds.
    pub exponent_milli: u32,
    /// Command shape.
    pub shape: StochasticShape,
}

impl ZipfSpec {
    /// The largest accepted `exponent_milli` (an exponent of 8.0 —
    /// beyond it the distribution is numerically a delta on rank 1).
    pub const MAX_EXPONENT_MILLI: u32 = 8000;

    /// A Zipf program with the default shape.
    pub fn new(seed: u64, commands: usize, exponent_milli: u32) -> Self {
        ZipfSpec {
            seed,
            commands,
            exponent_milli,
            shape: StochasticShape::default(),
        }
    }
}

/// A trace-replay program: timestamped command records streamed from a
/// text file (see [`TraceCursor`] for the line format). The path is
/// stored as declared;
/// [`ScenarioSpec::resolve_trace_paths`](crate::ScenarioSpec::resolve_trace_paths)
/// rebases relative paths against the `.scn` file's directory before
/// building.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpec {
    /// The trace file path.
    pub path: String,
}

impl TraceSpec {
    /// A trace-replay program reading `path`.
    pub fn new(path: impl Into<String>) -> Self {
        TraceSpec { path: path.into() }
    }
}

/// The traffic program of one initiator: explicit commands or a
/// generated (streamed) workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramSpec {
    /// An explicit command list (`cmd =` lines).
    Explicit(Program),
    /// Seeded on/off bursty arrivals (`kind = "bursty"`).
    Bursty(BurstySpec),
    /// Seeded Zipf target selection (`kind = "zipf"`).
    Zipf(ZipfSpec),
    /// Trace replay from a file (`kind = "trace"`).
    Trace(TraceSpec),
}

impl Default for ProgramSpec {
    fn default() -> Self {
        ProgramSpec::Explicit(Vec::new())
    }
}

impl From<Program> for ProgramSpec {
    fn from(program: Program) -> Self {
        ProgramSpec::Explicit(program)
    }
}

impl From<BurstySpec> for ProgramSpec {
    fn from(spec: BurstySpec) -> Self {
        ProgramSpec::Bursty(spec)
    }
}

impl From<ZipfSpec> for ProgramSpec {
    fn from(spec: ZipfSpec) -> Self {
        ProgramSpec::Zipf(spec)
    }
}

impl From<TraceSpec> for ProgramSpec {
    fn from(spec: TraceSpec) -> Self {
        ProgramSpec::Trace(spec)
    }
}

impl ProgramSpec {
    /// The explicit command list, when this is an [`ProgramSpec::Explicit`]
    /// program.
    pub fn explicit(&self) -> Option<&Program> {
        match self {
            ProgramSpec::Explicit(p) => Some(p),
            _ => None,
        }
    }

    /// Mutable access to the explicit command list, when this is an
    /// [`ProgramSpec::Explicit`] program.
    pub fn explicit_mut(&mut self) -> Option<&mut Program> {
        match self {
            ProgramSpec::Explicit(p) => Some(p),
            _ => None,
        }
    }

    /// The command-shape parameters, for the stochastic kinds.
    pub fn shape(&self) -> Option<&StochasticShape> {
        match self {
            ProgramSpec::Bursty(b) => Some(&b.shape),
            ProgramSpec::Zipf(z) => Some(&z.shape),
            _ => None,
        }
    }
}

/// Draws a gap from the uniform `0..=2*mean` law, then applies the
/// discipline (closed-loop floors it at one cycle).
fn draw_gap(rng: &mut SplitMix64, mean: u32, discipline: Discipline) -> u32 {
    let gap = if mean == 0 {
        0
    } else {
        rng.next_below(2 * mean as u64 + 1) as u32
    };
    match discipline {
        Discipline::Open => gap,
        Discipline::Closed => gap.max(1),
    }
}

/// Builds one shaped command targeting `(start, end)`. Replicates the
/// `noc-workloads` pattern idiom: beat-aligned address with the whole
/// burst contained in the region, round-robin stream, per-command data
/// seed derived from the program seed and index.
fn shaped_command(
    rng: &mut SplitMix64,
    shape: &StochasticShape,
    (start, end): (u64, u64),
    index: usize,
    seed: u64,
    delay: u32,
) -> SocketCommand {
    let burst_bytes = (shape.beats * shape.beat_bytes) as u64;
    let span = (end - start).saturating_sub(burst_bytes).max(1);
    let addr = start + (rng.next_below(span) & !(shape.beat_bytes as u64 - 1));
    let is_read = rng.next_below(100) < shape.read_pct as u64;
    SocketCommand {
        opcode: if is_read { Opcode::Read } else { Opcode::Write },
        addr,
        beats: shape.beats,
        beat_bytes: shape.beat_bytes,
        burst_kind: BurstKind::Incr,
        stream: StreamId::new(index as u16 % shape.streams.max(1)),
        data_seed: seed ^ (index as u64) << 8,
        delay_before: delay,
        pressure: 0,
    }
}

/// The running state of a [`BurstySpec`] program.
#[derive(Debug, Clone)]
pub struct BurstyGen {
    spec: BurstySpec,
    regions: Vec<(u64, u64)>,
    rng: SplitMix64,
    emitted: usize,
    left_in_burst: u32,
}

impl BurstyGen {
    /// Starts the generator at the head of its stream.
    pub fn new(spec: BurstySpec, regions: Vec<(u64, u64)>) -> Self {
        assert!(!regions.is_empty(), "need at least one target region");
        BurstyGen {
            rng: SplitMix64::new(spec.seed),
            spec,
            regions,
            emitted: 0,
            left_in_burst: 0,
        }
    }

    fn next_command(&mut self) -> Option<SocketCommand> {
        if self.emitted >= self.spec.commands {
            return None;
        }
        let shape = self.spec.shape;
        // Burst bookkeeping first, so the draw order is fixed: burst
        // length (when a burst starts), inter-burst idle, region, then
        // the shaped command's own draws.
        let mut extra = 0u32;
        if self.left_in_burst == 0 {
            self.left_in_burst =
                self.rng
                    .next_range(1, 2 * self.spec.burst_len.max(1) as u64) as u32;
            if self.emitted > 0 && self.spec.idle_gap > 0 {
                extra = self.rng.next_below(2 * self.spec.idle_gap as u64 + 1) as u32;
            }
        }
        self.left_in_burst -= 1;
        let region = self.regions[self.rng.next_below(self.regions.len() as u64) as usize];
        let gap = draw_gap(&mut self.rng, shape.gap, shape.discipline);
        let delay = gap.saturating_add(extra);
        let cmd = shaped_command(
            &mut self.rng,
            &shape,
            region,
            self.emitted,
            self.spec.seed,
            delay,
        );
        self.emitted += 1;
        Some(cmd)
    }
}

impl CommandSource for BurstyGen {
    fn pull(&mut self) -> Vec<SocketCommand> {
        (0..PULL_CHUNK).map_while(|_| self.next_command()).collect()
    }
    fn feeds(&self, stream: StreamId) -> bool {
        stream.raw() < self.spec.shape.streams.max(1)
    }
    fn clone_box(&self) -> Box<dyn CommandSource> {
        Box::new(self.clone())
    }
}

/// The running state of a [`ZipfSpec`] program.
#[derive(Debug, Clone)]
pub struct ZipfGen {
    spec: ZipfSpec,
    regions: Vec<(u64, u64)>,
    /// Cumulative integer popularity weights over the regions.
    cumulative: Vec<u64>,
    rng: SplitMix64,
    emitted: usize,
}

impl ZipfGen {
    /// Starts the generator at the head of its stream.
    pub fn new(spec: ZipfSpec, regions: Vec<(u64, u64)>) -> Self {
        assert!(!regions.is_empty(), "need at least one target region");
        // Integer CDF table: weights 1/rank^s scaled into u64 and
        // clamped to ≥ 1 so every region stays reachable. The f64 powf
        // is evaluated once here; selection below is pure integer.
        let s = spec.exponent_milli as f64 / 1000.0;
        let mut cumulative = Vec::with_capacity(regions.len());
        let mut total = 0u64;
        for rank in 1..=regions.len() {
            let w = ((rank as f64).powf(-s) * (1u64 << 32) as f64) as u64;
            total += w.max(1);
            cumulative.push(total);
        }
        ZipfGen {
            rng: SplitMix64::new(spec.seed),
            spec,
            regions,
            cumulative,
            emitted: 0,
        }
    }

    fn next_command(&mut self) -> Option<SocketCommand> {
        if self.emitted >= self.spec.commands {
            return None;
        }
        let shape = self.spec.shape;
        let total = *self.cumulative.last().expect("regions non-empty");
        let x = self.rng.next_below(total);
        let idx = self.cumulative.partition_point(|&c| c <= x);
        let region = self.regions[idx];
        let delay = draw_gap(&mut self.rng, shape.gap, shape.discipline);
        let cmd = shaped_command(
            &mut self.rng,
            &shape,
            region,
            self.emitted,
            self.spec.seed,
            delay,
        );
        self.emitted += 1;
        Some(cmd)
    }
}

impl CommandSource for ZipfGen {
    fn pull(&mut self) -> Vec<SocketCommand> {
        (0..PULL_CHUNK).map_while(|_| self.next_command()).collect()
    }
    fn feeds(&self, stream: StreamId) -> bool {
        stream.raw() < self.spec.shape.streams.max(1)
    }
    fn clone_box(&self) -> Box<dyn CommandSource> {
        Box::new(self.clone())
    }
}

/// One parsed trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Absolute issue-intent cycle (non-decreasing across the file).
    pub cycle: u64,
    /// `read` or `write`.
    pub opcode: Opcode,
    /// Byte address.
    pub addr: u64,
    /// Beats in the burst.
    pub beats: u32,
    /// Bytes per beat.
    pub beat_bytes: u32,
    /// Socket stream (0 when omitted).
    pub stream: u16,
}

/// Parses one trace line: `cycle op addr beats beat_bytes [stream]`,
/// where `op` is `read`/`r` or `write`/`w`, integers accept `0x` hex
/// and `_` separators. Returns `Ok(None)` for blank and `#`-comment
/// lines.
pub fn parse_trace_line(line: &str) -> Result<Option<TraceRecord>, String> {
    let line = line.split('#').next().unwrap_or("").trim();
    if line.is_empty() {
        return Ok(None);
    }
    let fields: Vec<&str> = line.split_whitespace().collect();
    if fields.len() < 5 || fields.len() > 6 {
        return Err(format!(
            "expected `cycle op addr beats beat_bytes [stream]`, got {} fields",
            fields.len()
        ));
    }
    let int = |s: &str, what: &str| -> Result<u64, String> {
        let clean: String = s.chars().filter(|c| *c != '_').collect();
        let parsed = match clean
            .strip_prefix("0x")
            .or_else(|| clean.strip_prefix("0X"))
        {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => clean.parse::<u64>(),
        };
        parsed.map_err(|_| format!("malformed {what} {s:?}"))
    };
    let cycle = int(fields[0], "cycle")?;
    let opcode = match fields[1] {
        "read" | "r" | "R" => Opcode::Read,
        "write" | "w" | "W" => Opcode::Write,
        other => return Err(format!("unknown op {other:?} (read|write)")),
    };
    let addr = int(fields[2], "address")?;
    let beats = int(fields[3], "beat count")?;
    if beats == 0 || beats > u32::MAX as u64 {
        return Err(format!("beat count {beats} out of range"));
    }
    let beat_bytes = int(fields[4], "beat bytes")?;
    if beat_bytes == 0 || beat_bytes > u32::MAX as u64 {
        return Err(format!("beat bytes {beat_bytes} out of range"));
    }
    let stream = match fields.get(5) {
        Some(s) => {
            let v = int(s, "stream")?;
            if v > u16::MAX as u64 {
                return Err(format!("stream {v} out of range"));
            }
            v as u16
        }
        None => 0,
    };
    Ok(Some(TraceRecord {
        cycle,
        opcode,
        addr,
        beats: beats as u32,
        beat_bytes: beat_bytes as u32,
        stream,
    }))
}

fn record_to_command(rec: &TraceRecord, prev_ts: u64, line_no: usize) -> SocketCommand {
    SocketCommand {
        opcode: rec.opcode,
        addr: rec.addr,
        beats: rec.beats,
        beat_bytes: rec.beat_bytes,
        burst_kind: BurstKind::Incr,
        stream: StreamId::new(rec.stream),
        // Deterministic per-record write data: the record's position and
        // address (traces carry no payloads).
        data_seed: (line_no as u64) << 32 ^ rec.addr,
        delay_before: (rec.cycle - prev_ts) as u32,
        pressure: 0,
    }
}

/// A streaming cursor over a trace file. Holds a path and a byte
/// offset, not an open handle — cloning (= checkpointing) is trivial
/// and each pull reopens, seeks and reads one bounded chunk, so the
/// full trace is never resident.
///
/// Trace timestamps are issue-*intent* cycles: consecutive deltas
/// become each command's `delay_before`, so the replay preserves the
/// trace's inter-arrival spacing while actual issue still flows through
/// the socket's outstanding limits and backpressure.
#[derive(Debug, Clone)]
pub struct TraceCursor {
    path: String,
    offset: u64,
    line_no: usize,
    prev_ts: u64,
    /// Every stream the file carries, learnt by the opening scan.
    streams: Vec<u16>,
}

impl TraceCursor {
    /// Validates the whole file once and opens a cursor at its head:
    /// every record parses, timestamps are non-decreasing with deltas
    /// fitting `delay_before`, and every record passes `check` (the
    /// scenario layer's containment and shape rules). The scan also
    /// learns the file's stream set, so a threaded master never pulls
    /// on behalf of a thread the trace does not carry. Returns
    /// `(line, reason)` on the first failure.
    pub fn open(
        path: &str,
        mut check: impl FnMut(&TraceRecord) -> Result<(), String>,
    ) -> Result<TraceCursor, (usize, String)> {
        let file = File::open(path).map_err(|e| (0, e.to_string()))?;
        let mut prev_ts = 0u64;
        let mut streams = BTreeSet::new();
        for (i, line) in BufReader::new(file).lines().enumerate() {
            let no = i + 1;
            let line = line.map_err(|e| (no, e.to_string()))?;
            let Some(rec) = parse_trace_line(&line).map_err(|e| (no, e))? else {
                continue;
            };
            if rec.cycle < prev_ts {
                return Err((no, "timestamps must be non-decreasing".into()));
            }
            if rec.cycle - prev_ts > u32::MAX as u64 {
                return Err((no, format!("gap {} exceeds u32::MAX", rec.cycle - prev_ts)));
            }
            check(&rec).map_err(|e| (no, e))?;
            streams.insert(rec.stream);
            prev_ts = rec.cycle;
        }
        Ok(TraceCursor {
            path: path.to_owned(),
            offset: 0,
            line_no: 0,
            prev_ts: 0,
            streams: streams.into_iter().collect(),
        })
    }

    /// The trace file path.
    pub fn path(&self) -> &str {
        &self.path
    }
}

impl CommandSource for TraceCursor {
    /// Reads the next chunk of records.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors or malformed records: the file was fully
    /// validated when the cursor opened, so a failure here means it
    /// changed mid-run.
    fn pull(&mut self) -> Vec<SocketCommand> {
        let file = File::open(&self.path)
            .unwrap_or_else(|e| panic!("trace {}: {e} (validated at build time)", self.path));
        let mut reader = BufReader::new(file);
        reader
            .seek(SeekFrom::Start(self.offset))
            .unwrap_or_else(|e| panic!("trace {}: seek: {e}", self.path));
        let mut out = Vec::new();
        let mut line = String::new();
        while out.len() < PULL_CHUNK {
            line.clear();
            let n = reader
                .read_line(&mut line)
                .unwrap_or_else(|e| panic!("trace {}: read: {e}", self.path));
            if n == 0 {
                break;
            }
            self.offset += n as u64;
            self.line_no += 1;
            let rec = parse_trace_line(&line)
                .unwrap_or_else(|e| panic!("trace {}:{}: {e}", self.path, self.line_no));
            let Some(rec) = rec else { continue };
            assert!(
                rec.cycle >= self.prev_ts,
                "trace {}:{}: timestamps must be non-decreasing",
                self.path,
                self.line_no
            );
            out.push(record_to_command(&rec, self.prev_ts, self.line_no));
            self.prev_ts = rec.cycle;
        }
        out
    }
    fn feeds(&self, stream: StreamId) -> bool {
        self.streams.binary_search(&stream.raw()).is_ok()
    }
    fn clone_box(&self) -> Box<dyn CommandSource> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn regions() -> Vec<(u64, u64)> {
        vec![(0x0, 0x1000), (0x1000, 0x2000), (0x2000, 0x3000)]
    }

    /// Everything `source` streams, pulled chunk by chunk.
    fn drain(mut source: impl CommandSource) -> Vec<SocketCommand> {
        let mut out = Vec::new();
        loop {
            let chunk = source.pull();
            if chunk.is_empty() {
                return out;
            }
            out.extend(chunk);
        }
    }

    #[test]
    fn bursty_stream_is_seed_deterministic_and_chunking_invariant() {
        let spec = BurstySpec::new(7, 100, 4, 50);
        let whole = drain(BurstyGen::new(spec, regions()));
        assert_eq!(whole.len(), 100);
        assert_eq!(whole, drain(BurstyGen::new(spec, regions())));
        let mut one_by_one = BurstyGen::new(spec, regions());
        let single: Vec<_> = std::iter::from_fn(|| one_by_one.next_command()).collect();
        assert_eq!(whole, single, "chunk boundaries must not affect content");
        for cmd in &whole {
            assert!(regions().iter().any(|&(s, e)| {
                cmd.addr >= s && cmd.addr + (cmd.beats * cmd.beat_bytes) as u64 <= e
            }));
        }
    }

    #[test]
    fn bursty_has_on_off_structure() {
        let spec = BurstySpec::new(11, 200, 4, 200);
        let cmds = drain(BurstyGen::new(spec, regions()));
        let long_gaps = cmds.iter().filter(|c| c.delay_before > 50).count();
        assert!(long_gaps > 5, "expected inter-burst idle gaps");
        let short_gaps = cmds.iter().filter(|c| c.delay_before <= 4).count();
        assert!(short_gaps > 100, "expected dense in-burst arrivals");
    }

    #[test]
    fn zipf_concentrates_on_first_region() {
        let spec = ZipfSpec::new(3, 1000, 2000);
        let cmds = drain(ZipfGen::new(spec, regions()));
        let hot = cmds.iter().filter(|c| c.addr < 0x1000).count();
        assert!(
            hot > 700,
            "exponent 2.0 should send most traffic to rank 1, got {hot}/1000"
        );
        let cold = cmds.iter().filter(|c| c.addr >= 0x2000).count();
        assert!(cold > 0, "every region stays reachable");
    }

    #[test]
    fn zipf_exponent_zero_is_uniform() {
        let spec = ZipfSpec::new(3, 3000, 0);
        let cmds = drain(ZipfGen::new(spec, regions()));
        let hot = cmds.iter().filter(|c| c.addr < 0x1000).count();
        assert!(
            (800..1200).contains(&hot),
            "exponent 0 is uniform, got {hot}/3000"
        );
    }

    #[test]
    fn closed_discipline_floors_gaps() {
        let mut spec = BurstySpec::new(9, 50, 4, 0);
        spec.shape.gap = 1;
        spec.shape.discipline = Discipline::Closed;
        let cmds = drain(BurstyGen::new(spec, regions()));
        assert!(cmds.iter().all(|c| c.delay_before >= 1));
    }

    #[test]
    fn trace_lines_parse() {
        assert_eq!(parse_trace_line("# comment").unwrap(), None);
        assert_eq!(parse_trace_line("   ").unwrap(), None);
        let rec = parse_trace_line("120 read 0x1_00 4 8 2").unwrap().unwrap();
        assert_eq!(
            rec,
            TraceRecord {
                cycle: 120,
                opcode: Opcode::Read,
                addr: 0x100,
                beats: 4,
                beat_bytes: 8,
                stream: 2,
            }
        );
        assert!(parse_trace_line("120 read 0x100 4").is_err());
        assert!(parse_trace_line("120 flush 0x100 4 8").is_err());
        assert!(parse_trace_line("x read 0x100 4 8").is_err());
    }
}
