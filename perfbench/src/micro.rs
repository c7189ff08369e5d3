//! Microbenchmarks of single layers' public hot-path functions, on
//! inputs shaped like `mesh16_mixed_load` traffic: 8-beat x 4-byte
//! bursts, 8-byte flits, two streams, eight targets.
//!
//! Each returns host nanoseconds per operation, the median over timed
//! batches, so a noisy batch does not move it.

use noc_kernel::Calendar;
use noc_niu::{decode_request, encode_request};
use noc_transaction::{
    Burst, MstAddr, Opcode, OrderingModel, OrderingPolicy, SlvAddr, StreamId, Tag,
    TransactionRequest,
};
use noc_transport::{Flit, Header, Packet, PortId, RoutingTable, Switch, SwitchConfig};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Bytes of one mixed-load burst: 8 beats x 4 bytes.
const BURST_BYTES: usize = 32;
/// The NIU's default flit width.
const FLIT_BYTES: usize = 8;

/// Runs `batch` (which returns the operations it did) repeatedly for
/// `budget` after one warm-up batch; returns the median ns per operation.
fn ns_per_op(budget: Duration, mut batch: impl FnMut() -> u64) -> f64 {
    black_box(batch());
    let end = Instant::now() + budget;
    let mut samples = Vec::new();
    while samples.len() < 5 || Instant::now() < end {
        let t = Instant::now();
        let ops = batch();
        samples.push(t.elapsed().as_nanos() as f64 / ops.max(1) as f64);
    }
    crate::stats::median(&samples)
}

/// `Switch::tick` on a 5x5 wormhole switch whose inputs are kept full of
/// 5-flit packets (a 32-byte payload at 8 bytes per flit).
pub fn switch_tick_ns(budget: Duration) -> f64 {
    let mut table = RoutingTable::new(8);
    for d in 0..8 {
        table.set(d, PortId((d % 5) as u8));
    }
    let mut sw = Switch::new(SwitchConfig::wormhole(5, 5), table);
    for o in 0..5 {
        // Enough credit that no tick of the run stalls on it.
        sw.set_output_credits(o, 1 << 30);
    }
    let streams: Vec<Vec<Flit>> = (0..5u16)
        .map(|i| {
            let pkt = Packet::new(Header::request((i * 3) % 8, i, 0), vec![0; BURST_BYTES]);
            pkt.to_flits_with_id(FLIT_BYTES, u64::from(i))
        })
        .collect();
    let mut cursor = [0usize; 5];
    ns_per_op(budget, || {
        for _ in 0..256 {
            for (port, flits) in streams.iter().enumerate() {
                while sw.can_accept(port) {
                    sw.accept(port, flits[cursor[port]].clone());
                    cursor[port] = (cursor[port] + 1) % flits.len();
                }
            }
            black_box(sw.tick());
        }
        256
    })
}

/// `encode_request` + `decode_request` of an 8-beat x 4-byte write.
pub fn codec_ns(budget: Duration) -> f64 {
    let req = TransactionRequest::builder(Opcode::Write)
        .address(0x1_2340)
        .burst(Burst::incr(8, 4).expect("8x4 is a legal burst"))
        .source(MstAddr::new(1))
        .destination(SlvAddr::new(2))
        .tag(Tag::new(3))
        .data(vec![0xAB; BURST_BYTES])
        .build()
        .expect("well-formed request");
    ns_per_op(budget, || {
        for _ in 0..256 {
            let pkt = encode_request(black_box(&req));
            black_box(decode_request(&pkt).expect("round trip"));
        }
        256
    })
}

/// `Packet::to_flits` of a 32-byte payload at 8 bytes per flit.
pub fn to_flits_ns(budget: Duration) -> f64 {
    let pkt = Packet::new(Header::request(1, 2, 3), vec![0xCD; BURST_BYTES]);
    ns_per_op(budget, || {
        for _ in 0..256 {
            black_box(pkt.to_flits(black_box(FLIT_BYTES)));
        }
        256
    })
}

/// One `OrderingPolicy::try_issue` + `complete` pair under ID-based
/// ordering, two streams over eight targets, up to 8 outstanding.
pub fn ordering_ns(budget: Duration) -> f64 {
    let mut policy =
        OrderingPolicy::new(OrderingModel::IdBased { tags: 4 }, 16).expect("valid ordering policy");
    let mut outstanding = VecDeque::new();
    let mut i = 0u16;
    ns_per_op(budget, || {
        let mut pairs = 0;
        for _ in 0..256 {
            i = i.wrapping_add(1);
            if let Ok(tag) = policy.try_issue(StreamId::new(i % 2), SlvAddr::new(i % 8)) {
                outstanding.push_back(tag);
            }
            if outstanding.len() >= 8 || i.is_multiple_of(3) {
                if let Some(tag) = outstanding.pop_front() {
                    policy.complete(tag).expect("completing an issued tag");
                    pairs += 1;
                }
            }
        }
        pairs
    })
}

/// One `Calendar` schedule plus its share of `pop_due`, over 512
/// components (a 16x16 mesh's two fabrics) waking 1..=16 cycles ahead.
pub fn calendar_op_ns(budget: Duration) -> f64 {
    let mut cal = Calendar::new();
    let ids: Vec<_> = (0..512).map(|_| cal.register()).collect();
    let mut rng = crate::workloads::Rng::new(0xCA1E);
    let mut now = 0u64;
    ns_per_op(budget, || {
        for _ in 0..256 {
            for _ in 0..8 {
                let r = rng.next_u64();
                let id = ids[(r % 512) as usize];
                cal.set(id, Some(now + 1 + (r >> 32) % 16));
            }
            now += 1;
            cal.pop_due(now, |id| {
                black_box(id);
            });
        }
        256 * 8
    })
}
