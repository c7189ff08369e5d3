//! The paper's §1 claim made executable: *"wormhole or store-and-forward
//! packet handling makes no difference at the transaction level"* — and
//! neither do flit width, link pipelining or clock ratios.
//!
//! Each master works in a private address window (so no cross-master
//! write/read races exist), which makes the transaction-level outcome a
//! pure function of the programs. We then sweep transport and physical
//! configurations and assert the per-master functional fingerprints are
//! bit-identical, while timing is free to (and does) change.

use noc_niu::fe::{AhbInitiator, AxiInitiator, OcpInitiator};
use noc_niu::{InitiatorNiu, InitiatorNiuConfig, MemoryTarget, TargetNiu, TargetNiuConfig};
use noc_physical::LinkConfig;
use noc_protocols::ahb::AhbMaster;
use noc_protocols::axi::AxiMaster;
use noc_protocols::ocp::OcpMaster;
use noc_protocols::{MemoryModel, Program, SocketCommand};
use noc_system::{NocConfig, Simulation, Soc, SocBuilder};
use noc_topology::{RouteAlgorithm, Topology};
use noc_transaction::{
    AddressMap, BurstKind, Fingerprint, MstAddr, OrderingModel, SlvAddr, StreamId,
};
use noc_transport::SwitchMode;

/// Per-stream-private program: stream `s` of master `m` owns window
/// `base + (m*4+s)*0x1000`, eliminating all races.
fn private_program(master: usize, streams: u16, n: usize) -> Program {
    let mut program = Vec::new();
    for i in 0..n {
        let s = (i as u16) % streams;
        let base = (master as u64 * 4 + s as u64) * 0x1000;
        let addr = base + ((i as u64 / streams as u64) * 16) % 0x800;
        let cmd = if i % 3 == 0 {
            SocketCommand::write(addr, 4, (master as u64) << 32 | i as u64)
                .with_burst(BurstKind::Incr, 4)
        } else {
            SocketCommand::read(addr, 4).with_burst(BurstKind::Incr, 4)
        };
        program.push(cmd.with_stream(StreamId::new(s)));
    }
    program
}

/// Builds a 3-master mixed-protocol SoC on a 2x2 mesh with the given
/// transport/physical config.
fn build(noc: NocConfig, n: usize) -> Soc {
    let mut map = AddressMap::new();
    map.add(0x0, 0x100_0000, SlvAddr::new(3)).unwrap();
    let topo = Topology::mesh(2, 2); // nodes 0..3, one per switch
    let ahb = InitiatorNiu::new(
        AhbInitiator::new(AhbMaster::new(private_program(0, 1, n))),
        InitiatorNiuConfig::new(MstAddr::new(0)),
        map.clone(),
    );
    let ocp = InitiatorNiu::new(
        OcpInitiator::new(OcpMaster::new(private_program(1, 2, n), 2, 2)),
        InitiatorNiuConfig::new(MstAddr::new(1))
            .with_ordering(OrderingModel::Threaded { threads: 2 })
            .with_outstanding(4),
        map.clone(),
    );
    let axi = InitiatorNiu::new(
        AxiInitiator::new(AxiMaster::new(private_program(2, 4, n), 2, 8)),
        InitiatorNiuConfig::new(MstAddr::new(2))
            .with_ordering(OrderingModel::IdBased { tags: 4 })
            .with_outstanding(8),
        map,
    );
    let mem = TargetNiu::new(
        MemoryTarget::new(MemoryModel::new(4), 8),
        TargetNiuConfig::new(SlvAddr::new(3)),
    );
    SocBuilder::new(topo, noc)
        .initiator("ahb", 0, Box::new(ahb))
        .initiator("ocp", 1, Box::new(ocp))
        .initiator("axi", 2, Box::new(axi))
        .target("mem", 3, Box::new(mem))
        .build()
        .expect("valid wiring")
}

fn run(noc: NocConfig) -> (Vec<Fingerprint>, u64) {
    let mut soc = build(noc, 30);
    soc.run_until(2_000_000);
    let report = soc.report();
    assert!(report.all_done, "config must drain: {report}");
    (
        report.masters.iter().map(|m| m.fingerprint).collect(),
        report.cycles,
    )
}

fn base_config() -> NocConfig {
    NocConfig::new().with_routing(RouteAlgorithm::XyMesh {
        width: 2,
        height: 2,
    })
}

#[test]
fn wormhole_vs_store_and_forward_same_transactions() {
    let (wh, wh_cycles) = run(base_config().with_mode(SwitchMode::Wormhole));
    let (saf, saf_cycles) = run(
        base_config()
            .with_mode(SwitchMode::StoreAndForward)
            .with_buffer_depth(32), // SAF needs whole packets buffered
    );
    assert_eq!(wh, saf, "switching mode must be invisible to transactions");
    assert_ne!(
        wh_cycles, saf_cycles,
        "but timing should differ (SAF is slower)"
    );
    assert!(saf_cycles > wh_cycles, "store-and-forward adds latency");
}

#[test]
fn flit_width_is_invisible_to_transactions() {
    // Narrower links: 2 phits per flit (half width), 4 phits (quarter).
    let (full, t_full) = run(base_config());
    let (half, t_half) = run(base_config().with_link(LinkConfig::new().with_phits_per_flit(2)));
    let (quarter, t_quarter) =
        run(base_config().with_link(LinkConfig::new().with_phits_per_flit(4)));
    assert_eq!(full, half);
    assert_eq!(full, quarter);
    assert!(t_half > t_full, "narrower links cost time");
    assert!(t_quarter > t_half);
}

#[test]
fn link_pipelining_is_invisible_to_transactions() {
    let (p0, t0) = run(base_config());
    let (p3, t3) = run(base_config().with_link(LinkConfig::new().with_pipeline(3)));
    assert_eq!(p0, p3);
    assert!(t3 > t0, "pipeline stages add latency");
}

#[test]
fn buffer_depth_is_invisible_to_transactions() {
    let (small, _) = run(base_config().with_buffer_depth(2));
    let (large, _) = run(base_config().with_buffer_depth(32));
    assert_eq!(small, large);
}

#[test]
fn routing_algorithm_is_invisible_to_transactions() {
    let (xy, _) = run(base_config());
    let (sp, _) = run(NocConfig::new().with_routing(RouteAlgorithm::ShortestPath));
    let (ud, _) = run(NocConfig::new().with_routing(RouteAlgorithm::UpDown));
    assert_eq!(xy, sp);
    assert_eq!(xy, ud);
}

#[test]
fn clock_ratios_are_invisible_to_transactions() {
    // Run the same SoC with the memory endpoint on a /2 clock via CDC
    // links (built manually since the scenario helper fixes clocks).
    let mut map = AddressMap::new();
    map.add(0x0, 0x100_0000, SlvAddr::new(3)).unwrap();
    let build_clocked = |div: u64| {
        let topo = Topology::mesh(2, 2);
        let ahb = InitiatorNiu::new(
            AhbInitiator::new(AhbMaster::new(private_program(0, 1, 20))),
            InitiatorNiuConfig::new(MstAddr::new(0)),
            map.clone(),
        );
        let mem = TargetNiu::new(
            MemoryTarget::new(MemoryModel::new(4), 8),
            TargetNiuConfig::new(SlvAddr::new(3)),
        );
        SocBuilder::new(topo, base_config())
            .initiator("ahb", 0, Box::new(ahb))
            .target_clocked("mem", 3, Box::new(mem), div)
            .build()
            .expect("valid wiring")
    };
    let run_clocked = |div: u64| {
        let mut soc = build_clocked(div);
        soc.run_until(2_000_000);
        soc.report()
    };
    let fast = run_clocked(1);
    let slow = run_clocked(2);
    assert!(fast.all_done && slow.all_done);
    assert_eq!(
        fast.masters[0].fingerprint, slow.masters[0].fingerprint,
        "clock ratio must be invisible to transactions"
    );
    assert!(
        slow.cycles > fast.cycles,
        "slow memory clock costs time: {} vs {}",
        slow.cycles,
        fast.cycles
    );
}
