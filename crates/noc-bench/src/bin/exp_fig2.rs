//! Experiment `exp_fig2` — paper Fig 2: the same SoC forced through a
//! reference-socket interconnect with per-IP bridges, and through a
//! shared bus. Quantifies the bridge latency/area/feature penalties.
//!
//! All three realisations compile from the one set-top `ScenarioSpec`;
//! per-master rows are looked up by name, never by log position.
//! `--scenario FILE` substitutes a scenario text file for the set-top
//! spec (the latency table then reports the two highest-traffic masters
//! it finds by name, falling back to the first two).

use noc_area::{bridge_gates, niu_gates, NiuAreaConfig};
use noc_protocols::ProtocolKind;
use noc_scenario::{Backend, ScenarioReport, Simulation};
use noc_stats::Table;
use noc_workloads::{SetTop, SetTopConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = SetTopConfig::new(32, 2005);
    // A loaded scenario runs on default backend configurations (like the
    // `scn` runner), so its topology picks its own recommended routing;
    // the built-in set-top spec keeps its tuned configurations.
    let (spec, noc_backend) = match noc_bench::scenario_path_arg()? {
        Some(path) => {
            println!("exp_fig2: scenario file {}", path.display());
            (noc_bench::load_scenario(&path)?, Backend::noc())
        }
        None => (SetTop::new(cfg).spec(), Backend::Noc(cfg.noc)),
    };

    let run =
        |backend: Backend, budget: u64| -> Result<ScenarioReport, Box<dyn std::error::Error>> {
            let mut sim = spec.build(&backend)?;
            assert!(sim.run_until(budget), "{backend} must drain");
            Ok(sim.report())
        };
    let noc_report = run(noc_backend, 5_000_000)?;
    let mut bridged = spec.build_bridged(cfg.bridge)?;
    assert!(bridged.run_until(10_000_000));
    let bridged_report = bridged.report();
    let bus_report = run(Backend::Bus(cfg.bus), 10_000_000)?;

    // Two named columns: the set-top's dma/video when present, else the
    // first two declared masters.
    let col = |tag: &str, fallback: usize| -> String {
        noc_report
            .master(tag)
            .map(|m| m.name.clone())
            .or_else(|| noc_report.masters.get(fallback).map(|m| m.name.clone()))
            .unwrap_or_default()
    };
    let col_a = col("dma", 0);
    let col_b = col("video", 1.min(noc_report.masters.len().saturating_sub(1)));

    println!("exp_fig2: Fig 1 (NoC+NIUs) vs Fig 2 (bridged) vs shared bus\n");
    let mut t = Table::new(&[
        "interconnect",
        "makespan (cy)",
        "mean lat (cy)",
        &format!("{col_a} mean (cy)"),
        &format!("{col_b} mean (cy)"),
    ]);
    t.numeric();
    let rows = [
        ("NoC + NIUs (Fig 1)", &noc_report),
        ("bridged ref-socket (Fig 2)", &bridged_report),
        ("shared bus", &bus_report),
    ];
    for (label, report) in rows {
        let by_name = |name: &str| report.master(name).map_or(0.0, |m| m.mean_latency);
        t.row(&[
            label.into(),
            report.cycles.to_string(),
            format!("{:.1}", report.mean_latency()),
            format!("{:.1}", by_name(&col_a)),
            format!("{:.1}", by_name(&col_b)),
        ]);
    }
    println!("{t}");
    println!(
        "bridged interconnect chopped {} long bursts (feature loss)\n",
        bridged.chopped_bursts()
    );

    println!("per-socket adaptation area (NIU vs bridge to reference socket):");
    let mut a = Table::new(&["socket", "NIU gates", "bridge gates", "bridge overhead"]);
    a.numeric();
    let mix = [
        (ProtocolKind::Ahb, 2u32),
        (ProtocolKind::Ocp, 8),
        (ProtocolKind::Axi, 8),
        (ProtocolKind::Strm, 2),
        (ProtocolKind::Pvci, 1),
        (ProtocolKind::Bvci, 2),
        (ProtocolKind::Avci, 4),
    ];
    for (p, out) in mix {
        let n = niu_gates(&NiuAreaConfig::new(p, out)).total();
        let b = bridge_gates(p, ProtocolKind::Bvci, 8, 4).total();
        a.row(&[
            p.to_string(),
            n.to_string(),
            b.to_string(),
            format!("{:.2}x", b as f64 / n as f64),
        ]);
    }
    println!("{a}");
    Ok(())
}
