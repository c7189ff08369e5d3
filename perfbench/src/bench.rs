//! Measurement of one workload: checked passes, the metrics they give,
//! and the traced run's per-layer probes.

use crate::pass::{self, merge_families, Oracle, Phases, PointRecord, SimOutcome, MAX_CYCLES};
use crate::stats::{label, median, percentile, tail_quantile};
use crate::trace::Tracer;
use crate::workloads::{self, Shape, Size, Workload, DEFAULT_SEED, HELD_OUT_SEED};
use crate::{host, micro};
use noc_scenario::{parse_document, Backend, Document, ScenarioReport, ScenarioSpec, StepMode};
use noc_stats::Histogram;
use noc_topology::{RouteAlgorithm, TopologyBuilder};
use std::time::{Duration, Instant};

/// One named metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How to read the value (sample count, percentile), for the human
    /// lines only.
    pub note: String,
}

/// The end-to-end metrics, measured with tracing off. `fail_frac` is
/// printed with them but is not a benchmark metric (it is 0 whenever the
/// run is correct); `failed`/`attempted` carry it in the result.
pub const END_TO_END: [(&str, &str); 10] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_cycles_per_s", "cycles/s"),
    ("txn_per_s", "txn/s"),
    ("point_p50_s", "s"),
    ("point_p90_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_cycles", "cycles"),
    ("txn_lat_p50_cy", "cycles"),
    ("txn_lat_tail_cy", "cycles"),
];

/// The per-layer metrics of the traced run.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("scenario.parse_s", "s"),
    ("topology.routes_s", "s"),
    ("scenario.build_s", "s"),
    ("scenario.snapshot_s", "s"),
    ("scenario.run_s", "s"),
    ("scenario.report_s", "s"),
    ("serve.point_s", "s"),
    ("scenario.parse_share", "ratio"),
    ("scenario.build_share", "ratio"),
    ("scenario.run_share", "ratio"),
    ("transport.switch_tick_ns", "ns"),
    ("niu.codec_ns", "ns"),
    ("transport.to_flits_ns", "ns"),
    ("transaction.ordering_ns", "ns"),
    ("kernel.calendar_op_ns", "ns"),
    ("kernel.steps", "count"),
    ("kernel.calendar_pops", "count"),
    ("kernel.horizon_polls", "count"),
    ("kernel.skip_ratio", "ratio"),
    ("kernel.polls_per_pop", "ratio"),
    ("transport.flits_forwarded", "count"),
    ("transport.packets_forwarded", "count"),
    ("transport.credit_stalls", "count"),
    ("transport.arb_conflicts", "count"),
    ("transport.stalls_per_flit", "ratio"),
    ("physical.mean_link_latency_cy", "cycles"),
    ("protocols.ahb.lat_p50_cy", "cycles"),
    ("protocols.axi.lat_p50_cy", "cycles"),
    ("protocols.ocp.lat_p50_cy", "cycles"),
    ("protocols.vci.lat_p50_cy", "cycles"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("run_ns_per_flit", "ns"),
    ("run_ns_per_step", "ns"),
    ("run_ns_per_txn", "ns"),
    ("shard.run_s", "s"),
    ("shard.speedup", "ratio"),
    ("shard.threads", "count"),
    ("trace.overhead_s", "s"),
];

/// Consecutive blocks the untraced passes are split into; see
/// [`WorkloadBench::end_to_end`].
pub const BLOCKS: usize = 5;

/// Per-pass measurements (host seconds unless named otherwise).
#[derive(Debug, Clone)]
struct Sample {
    wall: f64,
    setup: f64,
    /// The run phase (serve: `execute_request`), for cycles/s.
    run: f64,
    /// Mesh phases; serve passes fill `parse` only.
    phases: Phases,
    /// Per-point record times (a mesh pass is one point).
    points: Vec<f64>,
    outcome: SimOutcome,
    /// Self time of the pass span: host time outside the layer calls.
    pass_self: f64,
    /// Checkpoint-cache hits and misses (serve only).
    cache_hits: u64,
    cache_misses: u64,
}

/// Deterministic counters read from the reports of one run.
#[derive(Debug, Clone, Default)]
struct Counters {
    cycles: u64,
    steps: u64,
    calendar_pops: u64,
    horizon_polls: u64,
    flits: u64,
    packets: u64,
    credit_stalls: u64,
    arb_conflicts: u64,
    link_latency_sum: f64,
    fabrics: u64,
    completions: u64,
    families: [Histogram; 4],
}

impl Counters {
    fn add(&mut self, report: &ScenarioReport) -> Result<(), String> {
        self.cycles += report.cycles;
        self.steps += report.steps;
        self.calendar_pops += report.calendar_pops;
        self.horizon_polls += report.horizon_polls;
        self.completions += report.total_completions() as u64;
        let fabric = report
            .fabric
            .as_ref()
            .ok_or("NoC report without fabric counters")?;
        self.flits += fabric.flits_forwarded;
        self.packets += fabric.packets_forwarded;
        self.credit_stalls += fabric.credit_stalls;
        self.arb_conflicts += fabric.arbitration_conflicts;
        self.link_latency_sum += fabric.mean_link_latency;
        self.fabrics += 1;
        merge_families(report, &mut self.families)
    }
}

/// One workload under measurement: its generated input, its oracle, the
/// passes so far and their tally.
pub struct WorkloadBench {
    pub workload: Workload,
    text: String,
    shape: Shape,
    oracle: Oracle,
    /// Transactions (serve: points) the timed passes attempted.
    pub attempted: u64,
    /// Of those, how many failed the oracle check.
    pub failed: u64,
    /// Each kind of failure seen, once, for the human lines.
    pub problems: Vec<String>,
    untraced: Vec<Sample>,
    traced: Vec<Sample>,
    counters: Option<Counters>,
    reps: u32,
}

impl WorkloadBench {
    /// Generates the workload's input for `seed`, checks that the seed
    /// leaves its shape alone, and computes its dense oracle (outside
    /// any timed window). `corrupt_oracle` plants a wrong reference
    /// fingerprint, to show that mismatches are caught.
    pub fn new(
        workload: Workload,
        seed: u64,
        size: Size,
        corrupt_oracle: bool,
    ) -> Result<Self, String> {
        let text = workloads::generate(workload, seed, size);
        let other_seed = if seed == HELD_OUT_SEED {
            DEFAULT_SEED
        } else {
            HELD_OUT_SEED
        };
        let other = workloads::generate(workload, other_seed, size);
        let shape = shape_of_text(&text)?;
        if text == other || shape != shape_of_text(&other)? {
            return Err(format!(
                "seeds {seed} and {other_seed} must give different inputs of the same shape"
            ));
        }
        let mut oracle = Oracle::compute(&text, workload.is_serve())?;
        if corrupt_oracle {
            oracle.corrupt();
        }
        Ok(WorkloadBench {
            workload,
            text,
            shape,
            oracle,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            untraced: Vec::new(),
            traced: Vec::new(),
            counters: None,
            reps: 0,
        })
    }

    /// Records a kind of failure once; `failed` counts each occurrence.
    fn note(&mut self, problem: &str) {
        if !self.problems.iter().any(|p| p == problem) {
            self.problems.push(problem.to_owned());
        }
    }

    /// Runs one checked pass, traced when `tracer` records. Returns an
    /// error only when the pass could not run at all.
    pub fn pass(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        self.reps += 1;
        tracer.set_context(self.workload.name(), self.reps);
        let (sample, ok, report) = if self.workload.is_serve() {
            let p = pass::serve_pass(&self.text, tracer)?;
            let failures = self.oracle.serve_failures(&p.points);
            self.attempted += self.shape.platforms.len() as u64;
            self.failed += failures;
            let sample = Sample {
                wall: p.wall,
                setup: p.setup,
                run: p.execute,
                phases: Phases {
                    parse: p.parse,
                    ..Phases::default()
                },
                points: p.points.iter().map(|r| r.interarrival).collect(),
                outcome: p.outcome(),
                pass_self: 0.0,
                cache_hits: p.cache_hits,
                cache_misses: p.cache_misses,
            };
            (sample, failures == 0, None)
        } else {
            let p = pass::mesh_pass(&self.text, StepMode::Horizon, tracer)?;
            let ok = self.oracle.accepts_mesh(&p.outcome);
            self.attempted += self.shape.transactions as u64;
            if !ok {
                self.failed += self.shape.transactions as u64;
            }
            let sample = Sample {
                wall: p.wall,
                setup: p.phases.parse + p.phases.build,
                run: p.phases.run,
                phases: p.phases,
                points: vec![p.wall],
                outcome: p.outcome,
                pass_self: 0.0,
                cache_hits: 0,
                cache_misses: 0,
            };
            (sample, ok, Some(p.report))
        };
        if !ok {
            self.note("a timed pass does not match the dense oracle");
        }
        if tracer.is_on() {
            let pass_self = tracer.last_self_time("pass").unwrap_or(0.0);
            if self.counters.is_none() {
                if let Some(report) = report {
                    let mut c = Counters::default();
                    c.add(&report)?;
                    self.counters = Some(c);
                }
            }
            self.traced.push(Sample {
                pass_self,
                ..sample
            });
        } else {
            self.untraced.push(sample);
        }
        Ok(())
    }

    /// The end-to-end metrics of the untraced passes, plus `fail_frac`.
    ///
    /// Host noise on a shared machine only ever slows a pass, and comes
    /// in bursts lasting seconds. So each host-time metric is the median,
    /// over [`BLOCKS`] consecutive blocks of passes, of the block's best
    /// pass; point percentiles are taken per pass first.
    pub fn end_to_end(&self, peak_rss_mb: f64) -> Vec<Metric> {
        let s = &self.untraced;
        let block = s.len().div_ceil(BLOCKS);
        let blocks: Vec<&[Sample]> = s.chunks(block).collect();
        let best = |f: &dyn Fn(&Sample) -> f64| {
            let minima: Vec<f64> = blocks
                .iter()
                .map(|b| b.iter().map(f).fold(f64::INFINITY, f64::min))
                .collect();
            median(&minima)
        };
        let latency = &s[0].outcome.latency;
        let tail = tail_quantile(latency.len());
        let passes = format!(
            "median of {} blocks' best pass, {} passes",
            blocks.len(),
            s.len()
        );
        let points = format!("{}, per pass of {} points", passes, s[0].points.len());
        let lat_note = |q: f64| format!("{} of {} samples", label(q), latency.len());
        vec![
            metric("wall_s", best(&|x| x.wall), &passes),
            metric("setup_s", best(&|x| x.setup), &passes),
            metric(
                "sim_cycles_per_s",
                1.0 / best(&|x| x.run / x.outcome.cycles as f64),
                &passes,
            ),
            metric(
                "txn_per_s",
                1.0 / best(&|x| x.wall / x.outcome.completions as f64),
                &passes,
            ),
            metric(
                "point_p50_s",
                best(&|x| percentile(&x.points, 0.5)),
                &format!("p50 {points}"),
            ),
            metric(
                "point_p90_s",
                best(&|x| percentile(&x.points, 0.9)),
                &format!("p90 {points}"),
            ),
            metric("peak_rss_mb", peak_rss_mb, "one pass in a fresh process"),
            metric("sim_cycles", s[0].outcome.cycles as f64, "simulated"),
            metric("txn_lat_p50_cy", percentile(latency, 0.5), &lat_note(0.5)),
            metric(
                "txn_lat_tail_cy",
                percentile(latency, tail),
                &lat_note(tail),
            ),
            Metric {
                name: "fail_frac",
                value: self.failed as f64 / self.attempted.max(1) as f64,
                unit: "ratio",
                note: format!("{} of {} failed", self.failed, self.attempted),
            },
        ]
    }

    /// Runs the traced run's probes within `budget` and returns every
    /// per-layer metric. Needs at least one traced and one untraced
    /// pass.
    pub fn per_layer(
        &mut self,
        tracer: &mut Tracer,
        budget: Duration,
    ) -> Result<Vec<Metric>, String> {
        let deadline = Instant::now() + budget;
        let share = |part: f64| budget.mul_f64(part);
        self.reps += 1;
        tracer.set_context(self.workload.name(), self.reps);
        // The first point of a serve sweep stands in for the platform.
        let spec = match parse_document(&self.text).map_err(|e| e.to_string())? {
            Document::Scenario(spec) => spec,
            Document::Sweep(sweep) => sweep.points()[0].spec.clone(),
        };
        let routes = repeat_median(share(0.05), tracer, "topology.routes", || {
            let (topology, routing) = topology_of(&spec)?;
            let t = Instant::now();
            topology
                .compute_routes(routing)
                .map_err(|e| e.to_string())?;
            Ok(t.elapsed().as_secs_f64())
        })?;
        let snapshot = repeat_median(share(0.05), tracer, "scenario.snapshot", || {
            let sim = spec.build(&Backend::noc()).map_err(|e| e.to_string())?;
            let t = Instant::now();
            std::hint::black_box(sim.snapshot());
            Ok(t.elapsed().as_secs_f64())
        })?;
        let (horizon_run, shard_run) = self.shard_trial(&spec, tracer, share(0.3))?;

        let traced = &self.traced;
        let med = |f: &dyn Fn(&Sample) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        let wall = med(&|x| x.wall);
        let parse = med(&|x| x.phases.parse);
        let spans = format!("median of {} traced passes", traced.len());
        let (mut replay_failures, mut replay_points) = (0, 0);
        let (build, run, report, counters, split) = if self.workload.is_serve() {
            // Replays of the sweep through the checkpoint cache, at least
            // three, within a tenth of the budget.
            let until = Instant::now() + share(0.1);
            let mut replays = Vec::new();
            while replays.len() < 3 || Instant::now() < until {
                replays.push(pass::serve_layers(&self.text, tracer)?);
            }
            for replay in &replays {
                let records: Vec<PointRecord> = replay
                    .reports
                    .iter()
                    .map(PointRecord::from_report)
                    .collect();
                replay_failures += self.oracle.serve_failures(&records);
                replay_points += records.len() as u64;
            }
            let mut c = Counters::default();
            for r in &replays[0].reports {
                c.add(r)?;
            }
            let med = |f: &dyn Fn(&pass::ServeLayers) -> f64| {
                median(&replays.iter().map(f).collect::<Vec<_>>())
            };
            let split = format!("median of {} checkpoint-cache replays", replays.len());
            (
                med(&|l| l.build),
                med(&|l| l.run),
                med(&|l| l.report),
                c,
                split,
            )
        } else {
            let c = self
                .counters
                .clone()
                .ok_or("no traced pass recorded counters")?;
            let split = spans.clone();
            (
                med(&|x| x.phases.build),
                med(&|x| x.phases.run),
                med(&|x| x.phases.report),
                c,
                split,
            )
        };
        let points: Vec<f64> = traced
            .iter()
            .flat_map(|x| x.points.iter().copied())
            .collect();
        // Untraced and traced passes ran in interleaved pairs.
        let overhead: Vec<f64> = self
            .untraced
            .iter()
            .zip(traced)
            .map(|(u, t)| t.wall - u.wall)
            .collect();
        let cache_hits = med(&|x| x.cache_hits as f64);
        let cache_misses = med(&|x| x.cache_misses as f64);

        let micro_budget = deadline
            .saturating_duration_since(Instant::now())
            .max(Duration::from_millis(100))
            / 5;
        let micro = [
            (
                "transport.switch_tick_ns",
                micro::switch_tick_ns as fn(Duration) -> f64,
            ),
            ("niu.codec_ns", micro::codec_ns),
            ("transport.to_flits_ns", micro::to_flits_ns),
            ("transaction.ordering_ns", micro::ordering_ns),
            ("kernel.calendar_op_ns", micro::calendar_op_ns),
        ]
        .map(|(name, f)| {
            let t = Instant::now();
            let value = f(micro_budget);
            tracer.record(name, t, Instant::now(), None);
            value
        });

        let family_p50 = |f: usize| counters.families[f].percentile(0.5).unwrap_or(0) as f64;
        let c = &counters;
        let per = |num: f64, den: u64| num / den.max(1) as f64;
        let metrics = vec![
            metric("scenario.parse_s", parse, &spans),
            metric(
                "topology.routes_s",
                routes,
                &format!(
                    "Topology::compute_routes, median; one per fabric, so 2x is {:.0} % of build_s",
                    200.0 * routes / build
                ),
            ),
            metric("scenario.build_s", build, &split),
            metric("scenario.snapshot_s", snapshot, "snapshot of the built platform, median"),
            metric("scenario.run_s", run, &split),
            metric("scenario.report_s", report, &split),
            metric("serve.point_s", median(&points), "median point record time"),
            metric("scenario.parse_share", parse / wall, "of traced wall_s"),
            metric("scenario.build_share", build / wall, "of traced wall_s"),
            metric("scenario.run_share", run / wall, "of traced wall_s"),
            metric("transport.switch_tick_ns", micro[0], "per Switch::tick"),
            metric("niu.codec_ns", micro[1], "per encode+decode"),
            metric("transport.to_flits_ns", micro[2], "per packet"),
            metric("transaction.ordering_ns", micro[3], "per try_issue+complete"),
            metric("kernel.calendar_op_ns", micro[4], "per scheduled wakeup"),
            metric("kernel.steps", c.steps as f64, "executed steps"),
            metric("kernel.calendar_pops", c.calendar_pops as f64, ""),
            metric("kernel.horizon_polls", c.horizon_polls as f64, ""),
            metric("kernel.skip_ratio", per(c.cycles as f64, c.steps), "cycles per step"),
            metric("kernel.polls_per_pop", per(c.horizon_polls as f64, c.calendar_pops), ""),
            metric("transport.flits_forwarded", c.flits as f64, ""),
            metric("transport.packets_forwarded", c.packets as f64, ""),
            metric("transport.credit_stalls", c.credit_stalls as f64, ""),
            metric("transport.arb_conflicts", c.arb_conflicts as f64, ""),
            metric("transport.stalls_per_flit", per(c.credit_stalls as f64, c.flits), ""),
            metric("physical.mean_link_latency_cy", per(c.link_latency_sum, c.fabrics), ""),
            metric("protocols.ahb.lat_p50_cy", family_p50(0), "0 = family absent"),
            metric("protocols.axi.lat_p50_cy", family_p50(1), "0 = family absent"),
            metric("protocols.ocp.lat_p50_cy", family_p50(2), "0 = family absent"),
            metric("protocols.vci.lat_p50_cy", family_p50(3), "0 = family absent"),
            metric("serve.cache_hits", cache_hits, "per execute_request"),
            metric("serve.cache_misses", cache_misses, "per execute_request"),
            metric("run_ns_per_flit", per(run * 1e9, c.flits), ""),
            metric("run_ns_per_step", per(run * 1e9, c.steps), ""),
            metric("run_ns_per_txn", per(run * 1e9, c.completions), ""),
            metric(
                "shard.run_s",
                shard_run,
                &format!("horizon run {horizon_run:.6} s (serve: its first point)"),
            ),
            metric("shard.speedup", horizon_run / shard_run, "horizon run_s / sharded run_s"),
            metric("shard.threads", host::shard_threads() as f64, &format!("on {} cores", host::cores())),
            metric(
                "trace.overhead_s",
                median(&overhead),
                &format!(
                    "median traced - untraced wall_s over {} interleaved pairs; pass self time {:.6} s",
                    overhead.len(),
                    med(&|x| x.pass_self)
                ),
            ),
        ];
        self.attempted += replay_points;
        if replay_failures > 0 {
            self.note("a checkpoint-cache replay differs from the dense oracle");
            self.failed += replay_failures;
        }
        Ok(metrics)
    }

    /// Times the run phase of `spec` under horizon and sharded stepping,
    /// alternating, and checks that the sharded run reproduces the
    /// horizon one. Returns (horizon, sharded) median run seconds.
    fn shard_trial(
        &mut self,
        spec: &ScenarioSpec,
        tracer: &mut Tracer,
        budget: Duration,
    ) -> Result<(f64, f64), String> {
        let threads = host::shard_threads();
        let deadline = Instant::now() + budget;
        let (mut horizon, mut sharded) = (Vec::new(), Vec::new());
        while horizon.len() < 2 || Instant::now() < deadline {
            let mut run =
                |mode: StepMode, name: &'static str| -> Result<(f64, ScenarioReport), String> {
                    let mut sim = spec.build(&Backend::noc()).map_err(|e| e.to_string())?;
                    let t = Instant::now();
                    let drained = sim.run_until_with(MAX_CYCLES, mode);
                    let end = Instant::now();
                    tracer.record(name, t, end, None);
                    if !drained {
                        return Err(format!("{mode} run did not drain"));
                    }
                    Ok(((end - t).as_secs_f64(), sim.report()))
                };
            let (h, reference) = run(StepMode::Horizon, "shard.horizon_run")?;
            let (s, report) = run(StepMode::Sharded { threads }, "shard.run")?;
            horizon.push(h);
            sharded.push(s);
            if (report.cycles, report.system_fingerprint())
                != (reference.cycles, reference.system_fingerprint())
            {
                self.note("a sharded run differs from the horizon run");
                self.failed += 1;
                self.attempted += 1;
            }
        }
        Ok((median(&horizon), median(&sharded)))
    }
}

fn metric(name: &'static str, value: f64, note: &str) -> Metric {
    let unit = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or_else(|| panic!("metric {name} is not declared"), |(_, u)| *u);
    Metric {
        name,
        value,
        unit,
        note: note.to_owned(),
    }
}

fn shape_of_text(text: &str) -> Result<Shape, String> {
    parse_document(text)
        .map(|doc| workloads::shape_of(&doc))
        .map_err(|e| e.to_string())
}

/// Repeats `probe` (which times its own call and returns seconds) for
/// `budget`, at least three times; returns the median and records each
/// as a span named `name`.
fn repeat_median(
    budget: Duration,
    tracer: &mut Tracer,
    name: &'static str,
    mut probe: impl FnMut() -> Result<f64, String>,
) -> Result<f64, String> {
    let deadline = Instant::now() + budget;
    let mut samples = Vec::new();
    while samples.len() < 3 || Instant::now() < deadline {
        let start = Instant::now();
        let secs = probe()?;
        tracer.record(name, start, start + Duration::from_secs_f64(secs), None);
        samples.push(secs);
    }
    Ok(median(&samples))
}

/// The fabric topology and routing algorithm a spec builds, assembled
/// through the topology layer's public builder the way
/// `ScenarioSpec::build` assembles it.
fn topology_of(spec: &ScenarioSpec) -> Result<(noc_topology::Topology, RouteAlgorithm), String> {
    let noc_scenario::TopologySpec::Custom {
        switches,
        links,
        placement,
    } = &spec.topology
    else {
        return Err("benchmark workloads declare custom topologies".into());
    };
    let mut b = TopologyBuilder::new(*switches);
    for &(a, z) in links {
        b.connect_bidir(a, z);
    }
    for (node, &switch) in placement.iter().enumerate() {
        b.attach(node as u16, switch).map_err(|e| e.to_string())?;
    }
    let routing = spec
        .routing
        .unwrap_or_else(|| spec.topology.recommended_routing());
    Ok((b.build(), routing))
}
