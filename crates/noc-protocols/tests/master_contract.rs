//! The contract every socket master keeps, checked table-driven for
//! AHB, AXI, OCP, PVCI, BVCI, AVCI and STRM against their slaves at
//! socket clock periods 1 and 3. Each case must produce the identical
//! completion log, timestamps included, when:
//!
//! - (a) ticked densely, or only on ticks where the port holds traffic
//!   or `wake_at` has come due (how a front end jumps dead time);
//! - (b) given the whole program up front, or fed it in chunks through
//!   `append_commands` while every lane still has unissued commands;
//! - (c) constructed with the program, or given it by `load_program`.

use noc_protocols::ahb::{AhbMaster, AhbPort, AhbSlave};
use noc_protocols::axi::{AxiMaster, AxiPort, AxiSlave};
use noc_protocols::ocp::{OcpMaster, OcpPort, OcpSlave};
use noc_protocols::strm::{StrmMaster, StrmPort, StrmSlave};
use noc_protocols::vci::{VciFlavor, VciMaster, VciPort, VciSlave};
use noc_protocols::{CompletionLog, CompletionRecord, MemoryModel, Program, SocketCommand};
use noc_transaction::{BurstKind, Opcode, StreamId};

/// A master wired to its slave through one port.
trait Rig {
    fn set_clock_period(&mut self, period: u64);
    fn load_program(&mut self, program: Program);
    fn append_commands(&mut self, tail: &[SocketCommand], now: u64);
    fn wake_at(&self) -> Option<u64>;
    fn done(&self) -> bool;
    fn log(&self) -> &CompletionLog;
    /// Ticks the master; returns the lane of the request it issued.
    fn tick_master(&mut self, cycle: u64) -> Option<usize>;
    fn tick_slave(&mut self, cycle: u64);
    /// Any channel holds traffic, so a front end would tick densely.
    fn port_busy(&self) -> bool;
}

macro_rules! rig {
    ($name:ident, $master:ty, $slave:ty, $port:ty, req: [$($req:ident),+],
     resp: [$($resp:ident),+], lane: |$p:ident| $lane:expr) => {
        struct $name {
            master: $master,
            slave: $slave,
            port: $port,
        }

        impl Rig for $name {
            fn set_clock_period(&mut self, period: u64) {
                self.master.set_clock_period(period);
            }
            fn load_program(&mut self, program: Program) {
                self.master.load_program(program);
            }
            fn append_commands(&mut self, tail: &[SocketCommand], now: u64) {
                self.master.append_commands(tail, now);
            }
            fn wake_at(&self) -> Option<u64> {
                self.master.wake_at()
            }
            fn done(&self) -> bool {
                self.master.done()
            }
            fn log(&self) -> &CompletionLog {
                self.master.log()
            }
            fn tick_master(&mut self, cycle: u64) -> Option<usize> {
                let before = 0 $(+ self.port.$req.accepted())+;
                self.master.tick(cycle, &mut self.port);
                let after = 0 $(+ self.port.$req.accepted())+;
                let $p = &self.port;
                (after > before).then(|| $lane)
            }
            fn tick_slave(&mut self, cycle: u64) {
                self.slave.tick(cycle, &mut self.port);
            }
            fn port_busy(&self) -> bool {
                false $(|| self.port.$req.valid())+ $(|| self.port.$resp.valid())+
            }
        }
    };
}

rig!(AhbRig, AhbMaster, AhbSlave, AhbPort, req: [req], resp: [resp], lane: |_p| 0);
rig!(AxiRig, AxiMaster, AxiSlave, AxiPort, req: [ar, aw], resp: [r, b], lane: |_p| 0);
rig!(StrmRig, StrmMaster, StrmSlave, StrmPort, req: [tx, rreq], resp: [rdata], lane: |_p| 0);
rig!(OcpRig, OcpMaster, OcpSlave, OcpPort, req: [req], resp: [resp],
     lane: |p| p.req.peek().map_or(0, |r| r.thread as usize));
rig!(VciRig, VciMaster, VciSlave, VciPort, req: [req], resp: [resp],
     lane: |p| p.req.peek().map_or(0, |r| r.thread as usize));

/// One protocol under test.
struct Case {
    name: &'static str,
    /// Issue lanes: threads for OCP/AVCI, 1 otherwise.
    lanes: usize,
    /// Opcodes the socket can express.
    opcodes: &'static [Opcode],
    /// Longest burst the socket accepts.
    max_beats: u32,
    build: fn(Program) -> Box<dyn Rig>,
}

const CASES: [Case; 7] = [
    Case {
        name: "AHB",
        lanes: 1,
        opcodes: &[Opcode::Read, Opcode::Write],
        max_beats: 4,
        build: |p| {
            Box::new(AhbRig {
                master: AhbMaster::new(p),
                slave: AhbSlave::new(MemoryModel::new(2)),
                port: AhbPort::new(),
            })
        },
    },
    Case {
        name: "AXI",
        lanes: 1,
        opcodes: &[Opcode::Read, Opcode::Write],
        max_beats: 4,
        build: |p| {
            Box::new(AxiRig {
                master: AxiMaster::new(p, 2, 4),
                slave: AxiSlave::new(MemoryModel::new(2), 3),
                port: AxiPort::new(),
            })
        },
    },
    Case {
        name: "OCP",
        lanes: 3,
        opcodes: &[Opcode::Read, Opcode::Write, Opcode::WritePosted],
        max_beats: 4,
        build: |p| {
            Box::new(OcpRig {
                master: OcpMaster::new(p, 3, 2),
                slave: OcpSlave::new(MemoryModel::new(2), 3),
                port: OcpPort::new(),
            })
        },
    },
    Case {
        name: "PVCI",
        lanes: 1,
        opcodes: &[Opcode::Read, Opcode::Write],
        max_beats: 1,
        build: |p| {
            Box::new(VciRig {
                master: VciMaster::new(p, VciFlavor::Peripheral, 1),
                slave: VciSlave::new(MemoryModel::new(2), VciFlavor::Peripheral, 0),
                port: VciPort::new(),
            })
        },
    },
    Case {
        name: "BVCI",
        lanes: 1,
        opcodes: &[Opcode::Read, Opcode::Write],
        max_beats: 4,
        build: |p| {
            Box::new(VciRig {
                master: VciMaster::new(p, VciFlavor::Basic, 2),
                slave: VciSlave::new(MemoryModel::new(2), VciFlavor::Basic, 0),
                port: VciPort::new(),
            })
        },
    },
    Case {
        name: "AVCI",
        lanes: 2,
        opcodes: &[Opcode::Read, Opcode::Write],
        max_beats: 4,
        build: |p| {
            let flavor = VciFlavor::Advanced { threads: 2 };
            Box::new(VciRig {
                master: VciMaster::new(p, flavor, 2),
                slave: VciSlave::new(MemoryModel::new(2), flavor, 3),
                port: VciPort::new(),
            })
        },
    },
    Case {
        name: "STRM",
        lanes: 1,
        opcodes: &[Opcode::Read, Opcode::WritePosted],
        max_beats: 4,
        build: |p| {
            Box::new(StrmRig {
                master: StrmMaster::new(p, 2),
                slave: StrmSlave::new(MemoryModel::new(2)),
                port: StrmPort::new(),
            })
        },
    },
];

const PERIODS: [u64; 2] = [1, 3];
const COMMANDS: usize = 48;
const BUDGET: u64 = 100_000;

/// A deterministic program the case can express: mixed opcodes, burst
/// lengths and issue delays, streams round-robin over 0..4 (one per
/// lane on threaded sockets, so each lane gets every `lanes`-th command).
fn program(case: &Case) -> Program {
    let mut state = 0x5EED_u64;
    let mut next = |n: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % n
    };
    (0..COMMANDS)
        .map(|i| {
            let addr = next(4) * 0x100 + next(16) * 0x10;
            let opcode = case.opcodes[next(case.opcodes.len() as u64) as usize];
            let beats = 1 + next(case.max_beats as u64) as u32;
            let stream = if case.lanes > 1 {
                i % case.lanes
            } else {
                i % 4
            };
            SocketCommand::read(addr, 4)
                .with_opcode(opcode)
                .with_burst(BurstKind::Incr, beats)
                .with_stream(StreamId::new(stream as u16))
                .with_delay(next(4).saturating_sub(1) as u32 * 3)
                .with_pressure(next(4) as u8)
        })
        .map(|cmd| SocketCommand {
            data_seed: cmd.addr ^ 0xDA7A,
            ..cmd
        })
        .collect()
}

/// The outcome of a run: every record plus the cycle it drained on.
type Outcome = (Vec<CompletionRecord>, u64);

/// Runs `rig` to completion on ticks `0, period, 2*period, ...`. The
/// slave sits out every fourth tick, so requests back up in the port
/// and threaded masters see a busy port. The master ticks on every tick
/// when `dense`, otherwise only where the port holds traffic or
/// `wake_at` is due.
/// `feed` (the tail left to append, in chunks) is appended before any
/// tick on which some lane is down to its last unissued command.
/// Returns the outcome and how many master ticks ran.
fn run(
    case: &Case,
    rig: &mut dyn Rig,
    period: u64,
    dense: bool,
    mut feed: Vec<Program>,
    fed: &[SocketCommand],
) -> (Outcome, u64) {
    let lane_of = |cmd: &SocketCommand| {
        if case.lanes > 1 {
            cmd.stream.raw() as usize
        } else {
            0
        }
    };
    let mut unissued = vec![0usize; case.lanes];
    for cmd in fed {
        unissued[lane_of(cmd)] += 1;
    }
    feed.reverse();
    let mut master_ticks = 0;
    let mut cycle = 0;
    while !(rig.done() && feed.is_empty()) {
        assert!(cycle < BUDGET, "{}: no drain by cycle {BUDGET}", case.name);
        if unissued.iter().any(|&n| n <= 1) {
            if let Some(chunk) = feed.pop() {
                for cmd in &chunk {
                    unissued[lane_of(cmd)] += 1;
                }
                rig.append_commands(&chunk, cycle);
            }
        }
        if dense || rig.port_busy() || rig.wake_at().is_some_and(|t| t <= cycle) {
            master_ticks += 1;
            if let Some(lane) = rig.tick_master(cycle) {
                unissued[lane] -= 1;
            }
        }
        if (cycle / period) % 4 != 3 {
            rig.tick_slave(cycle);
        }
        cycle += period;
    }
    ((rig.log().records().to_vec(), cycle), master_ticks)
}

fn built(case: &Case, program: Program, period: u64) -> Box<dyn Rig> {
    let mut rig = (case.build)(program);
    rig.set_clock_period(period);
    rig
}

fn dense_reference(case: &Case, period: u64) -> Outcome {
    let program = program(case);
    let mut rig = built(case, program.clone(), period);
    let (outcome, _) = run(case, rig.as_mut(), period, true, Vec::new(), &program);
    assert_eq!(
        outcome.0.len(),
        COMMANDS,
        "{}: every command completes",
        case.name
    );
    outcome
}

#[test]
fn jumping_to_wake_at_matches_dense_ticking() {
    for case in &CASES {
        for period in PERIODS {
            let label = format!("{} @ period {period}", case.name);
            let program = program(case);
            let mut dense = built(case, program.clone(), period);
            let mut jumped = built(case, program.clone(), period);
            let (d, dense_ticks) = run(case, dense.as_mut(), period, true, Vec::new(), &program);
            let (j, jumped_ticks) = run(case, jumped.as_mut(), period, false, Vec::new(), &program);
            assert_eq!(d, j, "{label}: jumping changed the records");
            assert!(
                jumped_ticks < dense_ticks,
                "{label}: the jumped run skipped no master tick"
            );
        }
    }
}

#[test]
fn appending_in_chunks_matches_the_full_program() {
    for case in &CASES {
        for period in PERIODS {
            for chunk in [2 * case.lanes, 5, 16] {
                let label = format!("{} @ period {period}, chunks of {chunk}", case.name);
                let program = program(case);
                let head = program[..chunk].to_vec();
                let tail: Vec<Program> =
                    program[chunk..].chunks(chunk).map(<[_]>::to_vec).collect();
                let mut rig = built(case, head.clone(), period);
                let (fed, _) = run(case, rig.as_mut(), period, true, tail, &head);
                assert_eq!(
                    fed,
                    dense_reference(case, period),
                    "{label}: appending was observable"
                );
            }
        }
    }
}

#[test]
fn load_program_matches_construction() {
    for case in &CASES {
        for period in PERIODS {
            let program = program(case);
            let mut loaded = built(case, Vec::new(), period);
            loaded.load_program(program.clone());
            assert_eq!(
                loaded.wake_at(),
                built(case, program.clone(), period).wake_at(),
                "{} @ period {period}: first deadline differs",
                case.name
            );
            let (outcome, _) = run(case, loaded.as_mut(), period, true, Vec::new(), &program);
            assert_eq!(
                outcome,
                dense_reference(case, period),
                "{} @ period {period}: load_program differs from construction",
                case.name
            );
        }
    }
}
