//! Property-style tests over the core data structures and invariants.
//!
//! Cases are generated from a seeded [`SplitMix64`] stream (no external
//! property-testing dependency), so every run explores the same, fully
//! reproducible sample of the input space. On failure, the iteration
//! index pinpoints the case.

use noc_kernel::SplitMix64;
use noc_niu::{decode_request, decode_response, encode_request, encode_response};
use noc_transaction::{
    AddressMap, Burst, BurstKind, Fingerprint, MstAddr, Opcode, OrderingModel, OrderingPolicy,
    RespStatus, ServiceBits, SlvAddr, StreamId, Tag, TransactionRequest, TransactionResponse,
};
use noc_transport::{Flit, FlitFifo, Header, Packet};

const CASES: usize = 300;

/// A trace file path private to one call, removed on drop: concurrent
/// tests (and concurrent test processes) never rewrite each other's
/// fixture while a trace cursor is mid-replay.
struct TempTrace(std::path::PathBuf);

impl TempTrace {
    fn new(stem: &str) -> Self {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let name = format!("noc-{stem}-{}-{n}.trace", std::process::id());
        TempTrace(std::env::temp_dir().join(name))
    }
}

impl Drop for TempTrace {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn arb_burst(rng: &mut SplitMix64) -> Burst {
    loop {
        let kind = match rng.next_below(4) {
            0 => BurstKind::Incr,
            1 => BurstKind::Wrap,
            2 => BurstKind::Fixed,
            _ => BurstKind::Stream,
        };
        let beat_bytes = 1u32 << rng.next_below(8);
        let beats = rng.next_range(1, 257) as u32;
        if let Ok(burst) = Burst::new(kind, beat_bytes, beats) {
            return burst;
        }
    }
}

fn arb_opcode(rng: &mut SplitMix64) -> Opcode {
    const OPS: [Opcode; 10] = [
        Opcode::Read,
        Opcode::Write,
        Opcode::WritePosted,
        Opcode::ReadExclusive,
        Opcode::WriteExclusive,
        Opcode::ReadLinked,
        Opcode::WriteConditional,
        Opcode::ReadLocked,
        Opcode::WriteUnlock,
        Opcode::Broadcast,
    ];
    OPS[rng.next_below(OPS.len() as u64) as usize]
}

fn arb_bytes(rng: &mut SplitMix64, max_len: usize) -> Vec<u8> {
    let len = rng.next_below(max_len as u64 + 1) as usize;
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

#[test]
fn burst_addresses_count_matches_beats() {
    let mut rng = SplitMix64::new(0xB0157);
    for case in 0..CASES {
        let burst = arb_burst(&mut rng);
        let base = rng.next_below(1 << 40);
        let addrs: Vec<u64> = burst.beat_addresses(base).collect();
        assert_eq!(addrs.len() as u32, burst.beats(), "case {case}: {burst:?}");
        for a in &addrs {
            assert_eq!(a % burst.beat_bytes() as u64, 0, "case {case}: {burst:?}");
        }
    }
}

#[test]
fn burst_chop_preserves_address_sequence() {
    let mut rng = SplitMix64::new(0xC40B);
    for case in 0..CASES {
        let burst = arb_burst(&mut rng);
        let base = rng.next_below(1 << 32);
        let max = rng.next_range(1, 32) as u32;
        let chunks = burst.chop(base, max);
        let chopped: Vec<u64> = chunks
            .iter()
            .flat_map(|(b, c)| c.beat_addresses(*b))
            .collect();
        let original: Vec<u64> = burst.beat_addresses(base).collect();
        assert_eq!(chopped, original, "case {case}: {burst:?} chopped at {max}");
        for (_, c) in &chunks {
            assert!(c.beats() <= max, "case {case}");
        }
    }
}

#[test]
fn request_codec_round_trips() {
    let mut rng = SplitMix64::new(0x2E9);
    for case in 0..CASES {
        let opcode = arb_opcode(&mut rng);
        let burst = arb_burst(&mut rng);
        let mut b = TransactionRequest::builder(opcode)
            .address(rng.next_below(1 << 40))
            .burst(burst)
            .source(MstAddr::new(rng.next_below(64) as u16))
            .destination(SlvAddr::new(rng.next_below(64) as u16))
            .tag(Tag::new(rng.next_u64() as u8))
            .stream(StreamId::new(rng.next_below(1024) as u16))
            .services(ServiceBits::EXCLUSIVE)
            .pressure(rng.next_below(4) as u8);
        if opcode.is_write() {
            b = b.data(vec![0xA5; burst.total_bytes() as usize]);
        }
        let Ok(req) = b.build() else {
            continue; // opcode/burst combination rejected by the builder
        };
        let packet = encode_request(&req);
        let back = decode_request(&packet).expect("decodes");
        assert_eq!(back, req, "case {case}");
    }
}

#[test]
fn response_codec_round_trips() {
    let mut rng = SplitMix64::new(0x4E59);
    for case in 0..CASES {
        let data = arb_bytes(&mut rng, 128);
        let dst = MstAddr::new(rng.next_below(64) as u16);
        let origin = SlvAddr::new(rng.next_below(64) as u16);
        let tag = Tag::new(rng.next_u64() as u8);
        for status in [
            RespStatus::Okay,
            RespStatus::ExOkay,
            RespStatus::ExFail,
            RespStatus::SlvErr,
            RespStatus::DecErr,
        ] {
            let resp = TransactionResponse::new(status, dst, origin, tag, data.clone());
            let back = decode_response(&encode_response(&resp, 0)).expect("decodes");
            assert_eq!(back, resp, "case {case}");
        }
    }
}

#[test]
fn packet_flit_round_trip() {
    let mut rng = SplitMix64::new(0xF117);
    for case in 0..CASES {
        let payload = arb_bytes(&mut rng, 256);
        let width = rng.next_range(1, 32) as usize;
        let pkt = Packet::new(Header::request(1, 2, 3), payload);
        let back = Packet::from_flits(&pkt.to_flits(width)).expect("reassembles");
        assert_eq!(back, pkt, "case {case}: width {width}");
    }
}

#[test]
fn fingerprint_is_permutation_invariant() {
    let mut rng = SplitMix64::new(0xF12);
    for case in 0..CASES {
        let n = rng.next_range(1, 20) as usize;
        let mut records: Vec<(u8, u64, u8)> = (0..n)
            .map(|_| (rng.next_u64() as u8, rng.next_u64(), rng.next_u64() as u8))
            .collect();
        let mut fp1 = Fingerprint::new();
        for (op, addr, st) in &records {
            fp1.record(*op, *addr, &[], *st);
        }
        let a = rng.next_below(n as u64) as usize;
        let b = rng.next_below(n as u64) as usize;
        records.swap(a, b);
        let mut fp2 = Fingerprint::new();
        for (op, addr, st) in &records {
            fp2.record(*op, *addr, &[], *st);
        }
        assert_eq!(fp1, fp2, "case {case}: swap {a}<->{b}");
    }
}

#[test]
fn address_map_decode_agrees_with_ranges() {
    let mut rng = SplitMix64::new(0xADD2);
    for case in 0..CASES {
        // build adjacent ranges [0,c1),[c1,c2)... targets 0,1,2...
        let n_cuts = rng.next_range(1, 6) as usize;
        let mut cuts: Vec<u64> = (0..n_cuts).map(|_| rng.next_range(1, 1 << 20)).collect();
        cuts.sort_unstable();
        cuts.dedup();
        let probe = rng.next_below(1 << 20);
        let mut map = AddressMap::new();
        let mut bounds = cuts;
        bounds.insert(0, 0);
        for (i, pair) in bounds.windows(2).enumerate() {
            map.add(pair[0], pair[1], SlvAddr::new(i as u16))
                .expect("disjoint by construction");
        }
        let last = *bounds.last().expect("non-empty");
        match map.decode(probe) {
            Ok(target) => {
                let i = target.index();
                assert!(
                    probe >= bounds[i] && probe < bounds[i + 1],
                    "case {case}: probe {probe:#x} decoded to {i}"
                );
            }
            Err(_) => assert!(probe >= last, "case {case}: probe {probe:#x} undecoded"),
        }
    }
}

#[test]
fn ordering_policy_never_exceeds_budget() {
    let mut rng = SplitMix64::new(0x02DE2);
    for case in 0..CASES {
        let budget = rng.next_range(1, 16) as u32;
        let n_ops = rng.next_range(1, 200) as usize;
        let mut policy =
            OrderingPolicy::new(OrderingModel::IdBased { tags: 4 }, budget).expect("valid config");
        let mut live: Vec<Tag> = Vec::new();
        for op in 0..n_ops {
            let stream = rng.next_below(8) as u16;
            let dst = rng.next_below(4) as u16;
            let complete = rng.chance(0.5);
            if complete && !live.is_empty() {
                let tag = live.remove(0);
                policy.complete(tag).expect("live tag completes");
            } else if let Ok(tag) = policy.try_issue(StreamId::new(stream), SlvAddr::new(dst)) {
                live.push(tag);
            }
            assert!(policy.outstanding() <= budget, "case {case} op {op}");
            assert_eq!(
                policy.outstanding() as usize,
                live.len(),
                "case {case} op {op}"
            );
        }
    }
}

#[test]
fn fifo_preserves_order_and_capacity() {
    let mut rng = SplitMix64::new(0xF1F0);
    for case in 0..CASES {
        let capacity = rng.next_range(1, 16) as usize;
        let n_ops = rng.next_range(1, 100) as usize;
        let mut fifo = FlitFifo::new(capacity);
        let mut model: std::collections::VecDeque<u64> = Default::default();
        let mut next_id = 0u64;
        for op in 0..n_ops {
            if rng.chance(0.5) {
                let flit = Flit::head_tail(next_id, Header::request(0, 0, 0));
                let accepted = fifo.push(flit);
                assert_eq!(accepted, model.len() < capacity, "case {case} op {op}");
                if accepted {
                    model.push_back(next_id);
                }
                next_id += 1;
            } else if let Some(flit) = fifo.pop() {
                let expect = model.pop_front().expect("model in sync");
                assert_eq!(flit.packet_id(), expect, "case {case} op {op}");
            } else {
                assert!(model.is_empty(), "case {case} op {op}");
            }
            assert_eq!(fifo.len(), model.len(), "case {case} op {op}");
        }
    }
}

#[test]
fn endianness_is_involution() {
    use noc_transaction::Endianness;
    let mut rng = SplitMix64::new(0xE2D);
    for case in 0..CASES {
        let data = arb_bytes(&mut rng, 64);
        let w = 1usize << rng.next_below(4);
        let once = Endianness::Big.converted(&data, w);
        let twice = Endianness::Big.converted(&once, w);
        assert_eq!(twice, data, "case {case}: width {w}");
    }
}

/// A random valid scenario exercising every serializable knob: socket
/// mixes and parameters, target kinds (memory, AXI slave, service
/// block), ordering/outstanding/pressure/flit overrides, clock
/// divisors, burst kinds, delays, `[config]` link-class overrides
/// (pipeline depth, CDC synchroniser depth, per-class splits) and all
/// four topology shapes. Half the time the programs issue back-to-back
/// (no delays), so the dense ≡ horizon property is checked *while
/// traffic is in flight*, not just across quiescent gaps.
#[cfg(test)]
fn arb_scenario(rng: &mut SplitMix64, clocked: bool) -> noc_scenario::ScenarioSpec {
    use noc_protocols::SocketCommand;
    use noc_scenario::{
        InitiatorSpec, MemorySpec, NocConfigSpec, ScenarioSpec, SocketSpec, TargetSpec,
        TopologySpec,
    };
    use noc_transaction::Opcode;

    let masters = rng.next_range(1, 4) as usize;
    // Back-to-back mode: no inter-command delays anywhere, so horizon
    // skips can only come from in-flight horizons (links, service
    // windows), never from quiescent gaps.
    let back_to_back = rng.chance(0.5);
    let mut spec = ScenarioSpec::new();
    for m in 0..masters {
        let base = m as u64 * 0x1000;
        let n_cmds = rng.next_range(1, 7) as usize;
        let socket = match rng.next_below(7) {
            0 => SocketSpec::Ahb,
            1 => SocketSpec::Ocp {
                threads: rng.next_range(1, 3) as u8,
                per_thread: rng.next_range(1, 5) as u32,
            },
            2 => SocketSpec::Axi {
                tags: rng.next_range(1, 5) as u8,
                per_id: rng.next_range(1, 4) as u32,
                total: rng.next_range(2, 8) as u32,
            },
            3 => SocketSpec::Strm {
                read_limit: rng.next_range(1, 5) as u32,
            },
            4 => SocketSpec::pvci(),
            5 => SocketSpec::bvci(),
            _ => SocketSpec::avci(),
        };
        let single_beat = matches!(socket, SocketSpec::Vci { .. });
        // Streams must fit the socket's thread/ID space; posted writes
        // are an OCP/STRM feature.
        let streams = match socket {
            SocketSpec::Ocp { threads, .. } => threads as u64,
            SocketSpec::Axi { tags, .. } => tags as u64,
            SocketSpec::Vci {
                flavor: noc_protocols::vci::VciFlavor::Advanced { threads },
                ..
            } => threads as u64,
            _ => 1,
        };
        let posted_ok = matches!(socket, SocketSpec::Ocp { .. } | SocketSpec::Strm { .. });
        let program: Vec<SocketCommand> = (0..n_cmds)
            .map(|i| {
                let addr = (base + 0x40 + rng.next_below(0xE00)) & !0x3F;
                let cmd = if rng.chance(0.5) {
                    SocketCommand::read(addr, 4)
                } else {
                    SocketCommand::write(addr, 4, rng.next_u64())
                };
                let beats = if single_beat {
                    1
                } else {
                    1 << rng.next_below(3)
                };
                let kind = if beats > 1 && rng.chance(0.2) {
                    BurstKind::Wrap
                } else {
                    BurstKind::Incr
                };
                let delay = if back_to_back {
                    0
                } else {
                    rng.next_below(200) as u32 * (i as u32 % 3)
                };
                let mut cmd = cmd
                    .with_burst(kind, beats)
                    .with_delay(delay)
                    .with_stream(StreamId::new(rng.next_below(streams) as u16));
                if posted_ok && cmd.opcode == Opcode::Write && rng.chance(0.3) {
                    cmd = cmd.with_opcode(Opcode::WritePosted);
                }
                cmd
            })
            .collect();
        let mut ini = InitiatorSpec::new(&format!("m{m}"), socket, program);
        if rng.chance(0.4) {
            ini = ini.with_outstanding(rng.next_range(1, 9) as u32);
        }
        if rng.chance(0.3) {
            ini = ini.with_pressure(rng.next_below(4) as u8);
        }
        if rng.chance(0.3) {
            ini = ini.with_flit_bytes(1 << rng.next_range(2, 5));
        }
        if clocked {
            ini = ini.with_clock_divisor(rng.next_range(1, 4));
        }
        spec = spec.initiator(ini);
    }
    for m in 0..masters {
        let mut mem = MemorySpec::new(
            &format!("mem{m}"),
            m as u64 * 0x1000,
            (m as u64 + 1) * 0x1000,
            rng.next_range(1, 6) as u32,
        )
        .with_queue(rng.next_range(2, 10) as usize);
        // Half the targets are plain memories; the rest exercise the
        // declarative target sockets.
        match rng.next_below(4) {
            0 | 1 => {}
            2 => {
                mem = mem.with_target(TargetSpec::AxiSlave {
                    bank_stagger: rng.next_below(3) as u32,
                })
            }
            _ => {
                mem = mem.with_target(TargetSpec::Service {
                    write_latency: rng.next_range(1, 6) as u32,
                    exclusive: rng.chance(0.3),
                })
            }
        }
        if clocked && rng.chance(0.3) {
            mem = mem.with_clock_divisor(rng.next_range(1, 3));
        }
        spec = spec.memory(mem);
    }
    // The `[config]` section: random link pipeline depths, CDC
    // synchroniser depths and a per-class endpoint split — the knobs
    // the event-horizon machinery must time-warp through exactly.
    if rng.chance(0.5) {
        let mut cfg = NocConfigSpec::new();
        if rng.chance(0.8) {
            cfg.link.pipeline = Some(rng.next_below(13) as u32);
        }
        if rng.chance(0.3) {
            cfg.link.phits = Some(1 << rng.next_below(2));
        }
        if rng.chance(0.4) {
            cfg.link.cdc_latency = Some(rng.next_range(1, 6) as u32);
        }
        if rng.chance(0.4) {
            cfg.endpoint.pipeline = Some(rng.next_below(5) as u32);
        }
        // Ample capacity keeps deep pipelines from starving on the
        // default 16-flit window (back-pressure is still correct, just
        // slower to simulate densely).
        cfg.link.capacity = Some(64);
        if rng.chance(0.3) {
            cfg.buffer_depth = Some(rng.next_range(4, 17) as usize);
        }
        spec = spec.with_config(cfg);
    }
    let endpoints = 2 * masters;
    spec.with_topology(match rng.next_below(4) {
        0 => TopologySpec::Crossbar,
        1 => TopologySpec::Ring {
            switches: rng.next_range(2, 5) as usize,
        },
        2 => TopologySpec::Mesh {
            width: 2,
            height: rng.next_range(1, 3) as usize,
        },
        _ => TopologySpec::Custom {
            switches: 2,
            links: vec![(0, 1)],
            placement: (0..endpoints).map(|i| i % 2).collect(),
        },
    })
}

/// Text round-trip: `parse(emit(spec))` reproduces random specs —
/// target declarations included — knob-for-knob with `emit` a fixpoint,
/// and the round-tripped spec runs record-identically (timestamps
/// included) to the original on every backend that models it, under
/// dense *and* horizon stepping.
#[test]
fn scenario_text_round_trips_and_runs_identically() {
    use noc_scenario::{Backend, ScenarioSpec, StepMode, TargetSpec};

    let mut rng = SplitMix64::new(0x7E47);
    for case in 0..40 {
        let clocked = rng.chance(0.3);
        let spec = arb_scenario(&mut rng, clocked);
        let text = spec.to_text();
        let back = ScenarioSpec::from_text(&text)
            .unwrap_or_else(|e| panic!("case {case}: emitted text must parse: {e}\n{text}"));
        assert_eq!(back, spec, "case {case}: round-trip changed the spec");
        assert_eq!(back.to_text(), text, "case {case}: emit is not a fixpoint");

        // Only a subset needs the (much slower) execution comparison.
        if case % 4 != 0 {
            continue;
        }
        // The bus cannot host a target-owned exclusive port; it must say
        // so with the typed error instead of running the spec wrong.
        let bus_ok = !spec.memories.iter().any(|m| {
            matches!(
                m.target,
                TargetSpec::Service {
                    exclusive: true,
                    ..
                }
            )
        });
        let mut backends = vec![Backend::noc()];
        if !clocked {
            backends.push(Backend::bridged());
            if bus_ok {
                backends.push(Backend::bus());
            } else {
                assert!(
                    matches!(
                        spec.build(&Backend::bus()),
                        Err(noc_scenario::ScenarioError::UnsupportedTarget { .. })
                    ),
                    "case {case}: bus must reject the exclusive service target"
                );
            }
        }
        for backend in &backends {
            let run = |s: &ScenarioSpec, mode: StepMode| {
                let mut sim = s.build(backend).expect("valid random spec");
                let drained = sim.run_until_with(3_000_000, mode);
                let logs: Vec<Vec<noc_protocols::CompletionRecord>> = sim
                    .logs()
                    .iter()
                    .map(|(_, log)| log.records().to_vec())
                    .collect();
                (drained, sim.now(), logs)
            };
            let original = run(&spec, StepMode::Horizon);
            let round_tripped = run(&back, StepMode::Horizon);
            let dense = run(&spec, StepMode::Dense);
            assert!(original.0, "case {case}: {backend} must drain\n{text}");
            assert_eq!(
                original, round_tripped,
                "case {case}: round-tripped spec diverges on {backend}"
            );
            assert_eq!(
                original, dense,
                "case {case}: dense and horizon stepping diverge on {backend}"
            );
        }
    }
}

/// The calendar queue against a linear-scan model: across random
/// register/set/advance sequences, `pop_due` must fire exactly the set
/// of wakeups scheduled at or before `now` (each at most once — heap
/// delivery order is (cycle, id), so callers sort; the set is what
/// matters), `scheduled` must mirror the model's slot state, and `peek`
/// must never exceed the true earliest pending wakeup — lazy
/// cancellation may surface a stale *early* minimum, but a late one
/// would let the advance loop sleep through work.
#[test]
fn calendar_fires_exactly_the_due_set_and_never_peeks_late() {
    use noc_kernel::Calendar;

    let mut rng = SplitMix64::new(0xCA1E);
    for case in 0..CASES {
        let slots = rng.next_range(1, 12) as usize;
        let mut cal = Calendar::new();
        let ids: Vec<_> = (0..slots).map(|_| cal.register()).collect();
        let mut model: Vec<Option<u64>> = vec![None; slots];
        let mut now = 0u64;
        for op in 0..rng.next_range(10, 120) {
            if rng.chance(0.6) {
                // Reschedule a random slot: later, earlier, or cleared —
                // all three exercise lazy cancellation.
                let i = rng.next_below(slots as u64) as usize;
                let at = if rng.chance(0.2) {
                    None
                } else {
                    Some(now + rng.next_below(50))
                };
                cal.set(ids[i], at);
                model[i] = at;
            } else {
                now += rng.next_below(30);
                let mut fired = Vec::new();
                cal.pop_due(now, |id| fired.push(id.index()));
                fired.sort_unstable();
                let expect: Vec<usize> = (0..slots)
                    .filter(|&i| model[i].is_some_and(|at| at <= now))
                    .collect();
                for &i in &expect {
                    model[i] = None;
                }
                assert_eq!(fired, expect, "case {case} op {op} now {now}");
            }
            for (i, &id) in ids.iter().enumerate() {
                assert_eq!(cal.scheduled(id), model[i], "case {case} op {op}");
            }
            let true_min = model.iter().flatten().min().copied();
            match (cal.peek(), true_min) {
                // A peek may be stale-early (a cancelled or rescheduled
                // entry still in the heap) but never later than the
                // earliest live wakeup.
                (Some(peeked), Some(min)) => {
                    assert!(peeked <= min, "case {case} op {op}: {peeked} > {min}")
                }
                (None, Some(min)) => panic!("case {case} op {op}: empty peek hides {min}"),
                _ => {}
            }
        }
    }
}

/// Randomised scenarios: horizon stepping must be record-identical
/// (timestamps included) to dense polling on every backend, across
/// random programs, gaps, socket mixes, target kinds, clock divisors
/// and `[config]` link shapes — including the back-to-back cases where
/// every skipped cycle lies *inside* an in-flight transaction (deep
/// pipelined crossings, CDC synchronisers, memory service windows)
/// rather than in a quiescent gap.
#[test]
fn horizon_stepping_equals_dense_on_random_scenarios() {
    use noc_scenario::{Backend, StepMode, TargetSpec};

    let mut rng = SplitMix64::new(0x40712);
    for case in 0..30 {
        let clocked = rng.chance(0.4); // divided clocks → NoC only
        let spec = arb_scenario(&mut rng, clocked);
        // The bus rejects target-owned exclusive ports with a typed
        // error; skip it for those specs (covered in scenario_api.rs).
        let bus_ok = !spec.memories.iter().any(|m| {
            matches!(
                m.target,
                TargetSpec::Service {
                    exclusive: true,
                    ..
                }
            )
        });
        let mut backends = vec![Backend::noc()];
        if !clocked {
            backends.push(Backend::bridged());
            if bus_ok {
                backends.push(Backend::bus());
            }
        }
        for backend in &backends {
            let run = |mode: StepMode| {
                let mut sim = spec.build(backend).expect("valid random spec");
                let drained = sim.run_until_with(3_000_000, mode);
                let logs: Vec<Vec<noc_protocols::CompletionRecord>> = sim
                    .logs()
                    .iter()
                    .map(|(_, log)| log.records().to_vec())
                    .collect();
                let counters = (sim.horizon_polls(), sim.calendar_pops());
                ((drained, sim.now(), logs), counters)
            };
            let (dense, _) = run(StepMode::Dense);
            let (horizon, (polls, pops)) = run(StepMode::Horizon);
            assert!(dense.0, "case {case}: {backend} dense must drain");
            assert_eq!(dense, horizon, "case {case}: divergence on {backend}");
            // Wakeup discipline: the advance loop must be paying for
            // its next_activity polls with calendar traffic, the same
            // bound `scn --assert-wakeup-discipline` enforces on the
            // corpus. A rescan-style loop polls once per cycle and
            // blows through this immediately.
            assert!(
                polls <= pops * 4 + 64,
                "case {case}: {backend} polled {polls} times against {pops} pops"
            );
        }
    }
}

/// A random scenario whose every initiator runs a *generated* program
/// (bursty or zipf) — shapes constrained exactly as `validate` demands,
/// so every draw is a legal spec. With `clocks`, every initiator runs on
/// a divided clock (divisor 1–3) drawn from that separate stream, so the
/// streamed commands are pulled mid-run by masters that count down in
/// local ticks, while the rest of the draw stays exactly what `rng`
/// yields without clocks. Divided clocks are NoC-only.
fn arb_stochastic_scenario(
    rng: &mut SplitMix64,
    mut clocks: Option<&mut SplitMix64>,
) -> noc_scenario::ScenarioSpec {
    use noc_scenario::{
        BurstySpec, Discipline, InitiatorSpec, MemorySpec, ScenarioSpec, SocketSpec,
        StochasticShape, ZipfSpec,
    };

    let masters = rng.next_range(1, 4) as usize;
    let regions = rng.next_range(2, 5) as usize;
    let mut spec = ScenarioSpec::new();
    for m in 0..masters {
        let socket = match rng.next_below(5) {
            0 => SocketSpec::Ahb,
            1 => SocketSpec::Ocp {
                threads: rng.next_range(1, 3) as u8,
                per_thread: rng.next_range(1, 5) as u32,
            },
            2 => SocketSpec::Axi {
                tags: rng.next_range(1, 5) as u8,
                per_id: rng.next_range(1, 4) as u32,
                total: rng.next_range(2, 8) as u32,
            },
            3 => SocketSpec::bvci(),
            _ => SocketSpec::avci(),
        };
        let shape = StochasticShape {
            read_pct: rng.next_below(101) as u8,
            beats: if matches!(socket, SocketSpec::Vci { .. }) {
                1
            } else {
                1 << rng.next_below(3)
            },
            beat_bytes: 4,
            streams: match socket.max_streams() {
                Some(limit) => rng.next_range(1, limit as u64) as u16,
                None => rng.next_range(1, 4) as u16,
            },
            gap: rng.next_below(8) as u32,
            discipline: if rng.chance(0.5) {
                Discipline::Open
            } else {
                Discipline::Closed
            },
        };
        let commands = rng.next_range(10, 40) as usize;
        let program: noc_scenario::ProgramSpec = if rng.chance(0.5) {
            let mut b = BurstySpec::new(
                rng.next_u64(),
                commands,
                rng.next_range(1, 6) as u32,
                rng.next_below(60) as u32,
            );
            b.shape = shape;
            b.into()
        } else {
            let mut z = ZipfSpec::new(rng.next_u64(), commands, rng.next_below(3001) as u32);
            z.shape = shape;
            z.into()
        };
        let mut ini = InitiatorSpec::new(&format!("m{m}"), socket, program);
        if rng.chance(0.4) {
            ini = ini.with_outstanding(rng.next_range(1, 9) as u32);
        }
        if let Some(clocks) = clocks.as_deref_mut() {
            ini = ini.with_clock_divisor(clocks.next_range(1, 3));
        }
        spec = spec.initiator(ini);
    }
    for t in 0..regions {
        spec = spec.memory(
            MemorySpec::new(
                &format!("mem{t}"),
                t as u64 * 0x1000,
                (t as u64 + 1) * 0x1000,
                rng.next_range(1, 6) as u32,
            )
            .with_queue(rng.next_range(2, 10) as usize),
        );
    }
    spec
}

/// The tentpole determinism pin: random stochastic specs round-trip
/// through the text format (`parse(emit(x)) == x`, emit a fixpoint) and
/// the same seed produces record-for-record identical completion logs:
/// timestamps included across dense/horizon stepping on one backend,
/// and the same functional records (index, opcode, address, status,
/// data, stream) across all three backends — whose fabrics time the
/// same traffic differently — with every commanded completion
/// accounted for.
#[test]
fn stochastic_specs_round_trip_and_run_identically() {
    use noc_scenario::{Backend, ProgramSpec, ScenarioSpec, StepMode};

    type Logs = Vec<Vec<noc_protocols::CompletionRecord>>;
    // The seed-determined command stream: per-master records in program
    // order, without the cycle stamps and completion interleaving that
    // legitimately differ between fabrics.
    fn functional(logs: &Logs) -> Vec<Vec<(usize, noc_transaction::Opcode, u64, u16)>> {
        logs.iter()
            .map(|log| {
                let mut cmds: Vec<_> = log
                    .iter()
                    .map(|r| (r.index, r.opcode, r.addr, r.stream.raw()))
                    .collect();
                cmds.sort_unstable_by_key(|c| c.0);
                cmds
            })
            .collect()
    }

    let mut rng = SplitMix64::new(0x570C);
    for case in 0..30 {
        let spec = arb_stochastic_scenario(&mut rng, None);
        let text = spec.to_text();
        let back = ScenarioSpec::from_text(&text)
            .unwrap_or_else(|e| panic!("case {case}: emitted text must parse: {e}\n{text}"));
        assert_eq!(back, spec, "case {case}: round-trip changed the spec");
        assert_eq!(back.to_text(), text, "case {case}: emit is not a fixpoint");

        if case % 3 != 0 {
            continue;
        }
        let expected: usize = spec
            .initiators
            .iter()
            .map(|i| match &i.program {
                ProgramSpec::Bursty(b) => b.commands,
                ProgramSpec::Zipf(z) => z.commands,
                _ => unreachable!("arb emits only stochastic kinds"),
            })
            .sum();
        let mut cross_backend = None;
        for backend in [Backend::noc(), Backend::bridged(), Backend::bus()] {
            let mut timed = None;
            for mode in [StepMode::Dense, StepMode::Horizon] {
                let mut sim = back.build(&backend).expect("valid stochastic spec");
                let drained = sim.run_until_with(3_000_000, mode);
                assert!(
                    drained,
                    "case {case}: {backend} {mode:?} must drain\n{text}"
                );
                let logs: Logs = sim
                    .logs()
                    .iter()
                    .map(|(_, log)| log.records().to_vec())
                    .collect();
                let completions: usize = logs.iter().map(Vec::len).sum();
                assert_eq!(
                    completions, expected,
                    "case {case}: {backend} {mode:?} lost commands"
                );
                match &timed {
                    None => timed = Some(logs),
                    Some(r) => assert_eq!(
                        r, &logs,
                        "case {case}: dense and horizon diverge on {backend}\n{text}"
                    ),
                }
            }
            let records = functional(timed.as_ref().expect("both modes ran"));
            match &cross_backend {
                None => cross_backend = Some(records),
                Some(r) => assert_eq!(
                    r, &records,
                    "case {case}: {backend} replays different records than the reference\n{text}"
                ),
            }
        }
    }
}

/// Trace replay: a generated trace file streams through the cursor
/// (bounded pulls, never resident) and replays record-identically on
/// all three backends and both step modes, preserving the trace's
/// inter-arrival spacing in the issue stream.
#[test]
fn trace_replay_is_identical_across_backends_and_modes() {
    use noc_scenario::{
        Backend, InitiatorSpec, MemorySpec, ScenarioSpec, SocketSpec, StepMode, TraceSpec,
    };
    use std::io::Write;

    let trace_file = TempTrace::new("prop");
    let path = &trace_file.0;
    let mut rng = SplitMix64::new(0x7AACE);
    let mut f = std::fs::File::create(path).expect("trace file");
    writeln!(f, "# generated by the property suite").unwrap();
    let mut ts = 0u64;
    for i in 0..300 {
        ts += rng.next_below(40);
        let addr = (rng.next_below(2) * 0x1000 + rng.next_below(0xF00)) & !0xF;
        let op = if rng.chance(0.6) { "read" } else { "write" };
        let stream = i % 2;
        writeln!(f, "{ts} {op} {addr:#x} 4 4 {stream}").unwrap();
    }
    drop(f);

    let spec = ScenarioSpec::new()
        .initiator(InitiatorSpec::new(
            "replay",
            SocketSpec::Ocp {
                threads: 2,
                per_thread: 4,
            },
            TraceSpec::new(path.to_str().expect("utf-8 temp path")),
        ))
        .memory(MemorySpec::new("m0", 0x0, 0x1000, 2))
        .memory(MemorySpec::new("m1", 0x1000, 0x2000, 4));
    let mut cross_backend = None;
    for backend in [Backend::noc(), Backend::bridged(), Backend::bus()] {
        let mut timed = None;
        for mode in [StepMode::Dense, StepMode::Horizon] {
            let mut sim = spec.build(&backend).expect("trace spec builds");
            assert!(
                sim.run_until_with(3_000_000, mode),
                "{backend} {mode:?} must drain the trace"
            );
            let logs: Vec<Vec<noc_protocols::CompletionRecord>> = sim
                .logs()
                .iter()
                .map(|(_, log)| log.records().to_vec())
                .collect();
            assert_eq!(logs[0].len(), 300, "{backend} {mode:?} lost trace records");
            match &timed {
                None => timed = Some(logs),
                Some(r) => assert_eq!(r, &logs, "{backend}: dense and horizon replay diverge"),
            }
        }
        // Across backends the cycle stamps and cross-stream completion
        // interleaving differ (different fabrics); the replayed command
        // stream — records in program order — must not.
        let records: Vec<
            Vec<(
                usize,
                noc_transaction::Opcode,
                u64,
                noc_transaction::StreamId,
            )>,
        > = timed
            .expect("both modes ran")
            .iter()
            .map(|log| {
                let mut cmds: Vec<_> = log
                    .iter()
                    .map(|r| (r.index, r.opcode, r.addr, r.stream))
                    .collect();
                cmds.sort_unstable_by_key(|c| c.0);
                cmds
            })
            .collect();
        match &cross_backend {
            None => cross_backend = Some(records),
            Some(r) => assert_eq!(r, &records, "{backend} replays a different record sequence"),
        }
    }
}

/// Runs a spec on the NoC backend in one step mode and captures
/// everything observable: drain flag, final cycle, every completion
/// record (timestamps included), and the report counters — fabric
/// totals, per-master histograms and fingerprints. Mode-dependent
/// accounting (executed steps, poll/pop counters) is deliberately
/// excluded: those measure *how* time advanced, not what the hardware
/// did.
#[cfg(test)]
fn run_noc_observable(
    spec: &noc_scenario::ScenarioSpec,
    mode: noc_scenario::StepMode,
) -> (bool, u64, Vec<Vec<noc_protocols::CompletionRecord>>, String) {
    let mut sim = spec
        .build(&noc_scenario::Backend::noc())
        .expect("valid spec");
    let drained = sim.run_until_with(3_000_000, mode);
    let logs = sim
        .logs()
        .iter()
        .map(|(_, log)| log.records().to_vec())
        .collect();
    let r = sim.report();
    let counters = format!(
        "cycles={} done={} fabric={:?} masters={:?}",
        r.cycles, r.all_done, r.fabric, r.masters
    );
    (drained, sim.now(), logs, counters)
}

/// The tentpole determinism bar: conservative sharded execution must be
/// record-for-record and counter-for-counter bit-identical to
/// single-thread dense and horizon stepping, for *any* region count —
/// including counts that do not divide the switch count and counts
/// exceeding it (clamped). Random fixed-program scenarios alternate
/// with stochastic (bursty/Zipf) ones so streamed programs cross the
/// epoch barrier too.
#[test]
fn sharded_stepping_equals_dense_and_horizon_on_random_scenarios() {
    use noc_scenario::StepMode;

    let mut rng = SplitMix64::new(0x5AA5D);
    let mut clocks = SplitMix64::new(0xC10C5);
    for case in 0..12 {
        let spec = if case % 2 == 0 {
            let clocked = rng.chance(0.4);
            arb_scenario(&mut rng, clocked)
        } else {
            arb_stochastic_scenario(&mut rng, Some(&mut clocks))
        };
        let dense = run_noc_observable(&spec, StepMode::Dense);
        assert!(dense.0, "case {case}: dense must drain");
        let horizon = run_noc_observable(&spec, StepMode::Horizon);
        assert_eq!(dense, horizon, "case {case}: horizon diverges from dense");
        for threads in [2, 4, 7] {
            let sharded = run_noc_observable(&spec, StepMode::Sharded { threads });
            assert_eq!(
                dense, sharded,
                "case {case}: sharded({threads}) diverges from dense"
            );
        }
    }
}

/// Sharded trace replay plus checkpointing under sharding: a snapshot
/// taken mid-run of a sharded simulation — regions parked at the epoch
/// frontier — must resume bit-identically, and so must the original it
/// was forked from.
#[test]
fn sharded_trace_replay_and_snapshots_resume_identically() {
    use noc_protocols::SocketCommand;
    use noc_scenario::{
        Backend, InitiatorSpec, MemorySpec, ScenarioSpec, SocketSpec, StepMode, TraceSpec,
    };
    use std::io::Write;

    let trace_file = TempTrace::new("prop-shard");
    let path = &trace_file.0;
    let mut rng = SplitMix64::new(0xC0FFEE5);
    let mut f = std::fs::File::create(path).expect("trace file");
    let mut ts = 0u64;
    for i in 0..200 {
        ts += rng.next_below(50);
        let addr = (rng.next_below(2) * 0x1000 + rng.next_below(0xF00)) & !0xF;
        let op = if rng.chance(0.6) { "read" } else { "write" };
        writeln!(f, "{ts} {op} {addr:#x} 4 4 {}", i % 2).unwrap();
    }
    drop(f);

    let spec = ScenarioSpec::new()
        .initiator(InitiatorSpec::new(
            "replay",
            SocketSpec::Ocp {
                threads: 2,
                per_thread: 4,
            },
            TraceSpec::new(path.to_str().expect("utf-8 temp path")),
        ))
        .initiator(InitiatorSpec::new(
            "dma",
            SocketSpec::Ahb,
            vec![
                SocketCommand::write(0x2000, 4, 0xD5),
                SocketCommand::read(0x2040, 4).with_delay(9),
            ],
        ))
        .memory(MemorySpec::new("m0", 0x0, 0x1000, 2))
        .memory(MemorySpec::new("m1", 0x1000, 0x2000, 4))
        .memory(MemorySpec::new("m2", 0x2000, 0x3000, 3))
        .with_topology(noc_scenario::TopologySpec::Mesh {
            width: 3,
            height: 2,
        });

    let reference = run_noc_observable(&spec, StepMode::Dense);
    assert!(reference.0, "dense trace replay must drain");
    for threads in [2, 4] {
        let sharded = run_noc_observable(&spec, StepMode::Sharded { threads });
        assert_eq!(
            reference, sharded,
            "sharded({threads}) trace replay diverges"
        );
    }

    // Snapshot/restore under sharding: stop a sharded run mid-flight,
    // fork it, and finish both; each must land exactly on the
    // single-thread run's records.
    let mid = (reference.1 / 2).max(1);
    let mut sim = spec.build(&Backend::noc()).expect("trace spec builds");
    let stopped = sim.run_until_with(mid, StepMode::Sharded { threads: 3 });
    assert!(!stopped, "the run must still be in flight at cycle {mid}");
    let mut fork = sim.snapshot();
    assert!(sim.run_until_with(3_000_000, StepMode::Sharded { threads: 3 }));
    assert!(fork.run_until(3_000_000), "forked run must drain");
    for (tag, finished) in [("original", &sim), ("fork", &fork)] {
        let logs: Vec<Vec<noc_protocols::CompletionRecord>> = finished
            .logs()
            .iter()
            .map(|(_, log)| log.records().to_vec())
            .collect();
        assert_eq!(
            reference.2, logs,
            "{tag}: sharded snapshot run diverges from the dense reference"
        );
        assert_eq!(reference.1, finished.now(), "{tag}: finish cycle differs");
    }
}

/// Epoch-order invariance of the overlapped runner: the single-barrier
/// protocol `StepMode::Sharded` drives (mailboxes published on send)
/// must stay record- and
/// counter-identical to single-thread dense stepping — for region
/// counts 2, 4 and 7, a prime count included so bands never align with
/// the topology.
#[test]
fn overlapped_sharding_matches_dense() {
    use noc_scenario::StepMode;

    let mut rng = SplitMix64::new(0xB0A7ED);
    let mut clocks = SplitMix64::new(0xC10C7);
    for case in 0..8 {
        let spec = if case % 2 == 0 {
            let clocked = rng.chance(0.4);
            arb_scenario(&mut rng, clocked)
        } else {
            arb_stochastic_scenario(&mut rng, Some(&mut clocks))
        };
        let dense = run_noc_observable(&spec, StepMode::Dense);
        assert!(dense.0, "case {case}: dense must drain");
        for threads in [2, 4, 7] {
            let overlapped = run_noc_observable(&spec, StepMode::Sharded { threads });
            assert_eq!(
                dense, overlapped,
                "case {case}: overlapped sharded({threads}) diverges from dense"
            );
        }
    }
}

/// Runs `spec` on `backend` in `mode` and captures the drain flag, the
/// final cycle and every completion record, timestamps included.
fn run_records(
    spec: &noc_scenario::ScenarioSpec,
    backend: &noc_scenario::Backend,
    mode: noc_scenario::StepMode,
) -> (bool, u64, Vec<Vec<noc_protocols::CompletionRecord>>) {
    let mut sim = spec.build(backend).expect("valid spec");
    let drained = sim.run_until_with(3_000_000, mode);
    let logs = sim
        .logs()
        .iter()
        .map(|(_, log)| log.records().to_vec())
        .collect();
    (drained, sim.now(), logs)
}

/// `spec` with every generated or traced program replaced by the
/// explicit command list its source yields.
fn materialized(spec: &noc_scenario::ScenarioSpec) -> noc_scenario::ScenarioSpec {
    let mut explicit = spec.clone();
    let sources = spec.programs().expect("valid spec");
    for (ini, mut source) in explicit.initiators.iter_mut().zip(sources) {
        let mut program = Vec::new();
        loop {
            let chunk = source.pull();
            if chunk.is_empty() {
                break;
            }
            program.extend(chunk);
        }
        ini.program = program.into();
    }
    explicit
}

/// A streamed program runs exactly like the explicit command list its
/// source yields: records, timestamps and final cycle agree on every
/// backend that models the spec (the NoC alone once a clock is
/// divided), in dense and horizon stepping, and on the NoC sharded in
/// two.
fn assert_streamed_equals_explicit(case: &str, spec: &noc_scenario::ScenarioSpec) {
    use noc_scenario::{Backend, StepMode};

    let explicit = materialized(spec);
    let clocked = spec.initiators.iter().any(|i| i.clock_divisor != 1);
    let mut runs = vec![
        (Backend::noc(), StepMode::Dense),
        (Backend::noc(), StepMode::Horizon),
        (Backend::noc(), StepMode::Sharded { threads: 2 }),
    ];
    if !clocked {
        for backend in [Backend::bridged(), Backend::bus()] {
            runs.push((backend, StepMode::Dense));
            runs.push((backend, StepMode::Horizon));
        }
    }
    for (backend, mode) in runs {
        let streamed = run_records(spec, &backend, mode);
        assert!(streamed.0, "{case}: {backend} {mode} must drain");
        assert_eq!(
            streamed,
            run_records(&explicit, &backend, mode),
            "{case}: streamed and explicit programs diverge on {backend} {mode}"
        );
    }
}

/// Streaming is unobservable: random bursty/zipf specs (multi-thread
/// OCP and advanced VCI, AXI, half of them on divided clocks) and trace
/// replays run record- and timestamp-identically to the same specs with
/// every program materialised up front.
#[test]
fn streamed_programs_equal_their_explicit_materialisation() {
    use noc_scenario::{
        InitiatorSpec, MemorySpec, ProgramSpec, ScenarioSpec, SocketSpec, TraceSpec,
    };
    use std::io::Write;

    let mut rng = SplitMix64::new(0xE0_1F);
    let mut clocks = SplitMix64::new(0xC10C9);
    for case in 0..12 {
        let mut spec = arb_stochastic_scenario(&mut rng, (case % 2 == 1).then_some(&mut clocks));
        // Longer programs, so masters pull mid-run, not just at load.
        for ini in &mut spec.initiators {
            match &mut ini.program {
                ProgramSpec::Bursty(b) => b.commands *= 5,
                ProgramSpec::Zipf(z) => z.commands *= 5,
                _ => unreachable!("arb emits only stochastic kinds"),
            }
        }
        assert_streamed_equals_explicit(&format!("stochastic case {case}"), &spec);
    }

    // Traces: a two-thread OCP replay with interleaved threads, an AXI
    // replay over four IDs, and a two-thread advanced-VCI replay whose
    // thread 1 first appears after more than 1024 release cycles
    // (`Σ 1 + delay`) of thread 0 alone. The second variant divides the
    // OCP and VCI masters' clocks.
    let write_trace = |file: &TempTrace, records: &[(u64, u64, u16)]| {
        let mut f = std::fs::File::create(&file.0).expect("trace file");
        for &(ts, addr, stream) in records {
            let op = if addr & 0x10 == 0 { "read" } else { "write" };
            writeln!(f, "{ts} {op} {addr:#x} 4 4 {stream}").unwrap();
        }
    };
    let random_records = |rng: &mut SplitMix64, n: usize, streams: u64| {
        let mut ts = 0u64;
        (0..n)
            .map(|_| {
                ts += rng.next_below(30);
                let addr = (rng.next_below(2) * 0x1000 + rng.next_below(0xF00)) & !0xF;
                (ts, addr, rng.next_below(streams) as u16)
            })
            .collect::<Vec<_>>()
    };
    let ocp_trace = TempTrace::new("equiv-ocp");
    write_trace(&ocp_trace, &random_records(&mut rng, 150, 2));
    let axi_trace = TempTrace::new("equiv-axi");
    write_trace(&axi_trace, &random_records(&mut rng, 150, 4));
    let late_trace = TempTrace::new("equiv-late");
    let mut late: Vec<(u64, u64, u16)> = (0..60).map(|i| (i * 25, i * 0x20, 0)).collect();
    late.extend(
        random_records(&mut rng, 80, 2)
            .into_iter()
            .map(|(ts, addr, stream)| (ts + 1500, addr, stream)),
    );
    write_trace(&late_trace, &late);
    let path = |t: &TempTrace| t.0.to_str().expect("utf-8 temp path").to_owned();
    for divisor in [1, 2] {
        let spec = ScenarioSpec::new()
            .initiator(
                InitiatorSpec::new(
                    "ocp",
                    SocketSpec::Ocp {
                        threads: 2,
                        per_thread: 3,
                    },
                    TraceSpec::new(path(&ocp_trace)),
                )
                .with_clock_divisor(divisor),
            )
            .initiator(InitiatorSpec::new(
                "axi",
                SocketSpec::Axi {
                    tags: 4,
                    per_id: 2,
                    total: 6,
                },
                TraceSpec::new(path(&axi_trace)),
            ))
            .initiator(
                InitiatorSpec::new(
                    "late",
                    SocketSpec::avci(),
                    TraceSpec::new(path(&late_trace)),
                )
                .with_clock_divisor(divisor),
            )
            .memory(MemorySpec::new("m0", 0x0, 0x1000, 2))
            .memory(MemorySpec::new("m1", 0x1000, 0x2000, 4));
        assert_streamed_equals_explicit(&format!("trace clk/{divisor}"), &spec);
    }
}
