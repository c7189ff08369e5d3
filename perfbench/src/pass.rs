//! One measured pass of a workload, and the dense oracle it is checked
//! against.
//!
//! A mesh pass is parse → build → run → report through
//! [`ScenarioSpec::from_text`], [`ScenarioSpec::build`],
//! [`Simulation::run_until_with`] and [`Simulation::report`]. A serve
//! pass is [`Request::from_text`] then [`execute_request`] with one
//! worker thread and a fresh [`CheckpointCache`]. The benchmark only
//! times calls into these public functions; it never reaches inside.

use crate::trace::Tracer;
use crate::workloads::FAMILIES;
use noc_scenario::{Backend, ScenarioReport, ScenarioSpec, StepMode};
use noc_serve::server::execute_request;
use noc_serve::{CheckpointCache, Request, ServeConfig, ServeStats};
use noc_stats::Histogram;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// Cycle budget of a mesh pass; a pass that has not drained by then
/// fails.
pub const MAX_CYCLES: u64 = 10_000_000;

/// Identifier the serve passes tag their request with.
const REQUEST_ID: &str = "perfbench";

/// The simulated outcome of one run: what must repeat bit for bit and
/// match the dense oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    pub drained: bool,
    pub cycles: u64,
    pub fingerprint: String,
    pub completions: u64,
    pub errors: u64,
    /// Transaction latencies (serve: per-point mean latency).
    pub latency: Vec<f64>,
}

impl SimOutcome {
    fn from_report(drained: bool, report: &ScenarioReport) -> Self {
        let mut hist = Histogram::new();
        for m in &report.masters {
            hist.merge(&m.latency);
        }
        SimOutcome {
            drained,
            cycles: report.cycles,
            fingerprint: report.system_fingerprint().to_string(),
            completions: report.total_completions() as u64,
            errors: report.masters.iter().map(|m| m.errors as u64).sum(),
            latency: expand(&hist),
        }
    }
}

/// A histogram's samples as a sorted list.
fn expand(hist: &Histogram) -> Vec<f64> {
    hist.iter()
        .flat_map(|(value, count)| std::iter::repeat_n(value as f64, count as usize))
        .collect()
}

/// Host-time phases of a mesh pass, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    pub parse: f64,
    pub build: f64,
    pub run: f64,
    pub report: f64,
}

/// One mesh pass: phases, the simulated outcome and the report the
/// per-layer counters are read from.
pub struct MeshPass {
    pub phases: Phases,
    pub wall: f64,
    pub outcome: SimOutcome,
    pub report: ScenarioReport,
}

/// Runs one mesh pass over `text` with `mode`, recording phase spans
/// into `tracer`.
pub fn mesh_pass(text: &str, mode: StepMode, tracer: &mut Tracer) -> Result<MeshPass, String> {
    let pass = tracer.enter("pass");
    let t0 = Instant::now();
    let span = tracer.enter("scenario.parse");
    let spec = ScenarioSpec::from_text(text).map_err(|e| e.to_string())?;
    tracer.exit(span);
    let t1 = Instant::now();
    let span = tracer.enter("scenario.build");
    let mut sim = spec.build(&Backend::noc()).map_err(|e| e.to_string())?;
    tracer.exit(span);
    let t2 = Instant::now();
    let span = tracer.enter("scenario.run");
    let drained = sim.run_until_with(MAX_CYCLES, mode);
    tracer.exit(span);
    let t3 = Instant::now();
    let span = tracer.enter("scenario.report");
    let report = sim.report();
    tracer.exit(span);
    let t4 = Instant::now();
    tracer.exit(pass);
    Ok(MeshPass {
        phases: Phases {
            parse: (t1 - t0).as_secs_f64(),
            build: (t2 - t1).as_secs_f64(),
            run: (t3 - t2).as_secs_f64(),
            report: (t4 - t3).as_secs_f64(),
        },
        wall: (t4 - t0).as_secs_f64(),
        outcome: SimOutcome::from_report(drained, &report),
        report,
    })
}

/// Merges each initiator's latency distribution into its socket
/// family's, in [`FAMILIES`] order. Initiator names start with their
/// family.
pub fn merge_families(report: &ScenarioReport, into: &mut [Histogram; 4]) -> Result<(), String> {
    for m in &report.masters {
        let f = FAMILIES
            .iter()
            .position(|f| m.name.starts_with(f))
            .ok_or_else(|| format!("initiator {} names no socket family", m.name))?;
        into[f].merge(&m.latency);
    }
    Ok(())
}

/// One point record of a serve pass.
#[derive(Debug, Clone, PartialEq)]
pub struct PointRecord {
    pub ok: bool,
    pub cycles: u64,
    pub fingerprint: String,
    pub completions: u64,
    pub mean_latency: f64,
    /// Host seconds since the previous record (the first: since the
    /// request started executing).
    pub interarrival: f64,
}

impl PointRecord {
    /// The record a report of a point run outside `execute_request`
    /// stands for.
    pub fn from_report(report: &ScenarioReport) -> Self {
        PointRecord {
            ok: report.all_done,
            cycles: report.cycles,
            fingerprint: report.system_fingerprint().to_string(),
            completions: report.total_completions() as u64,
            mean_latency: report.mean_latency(),
            interarrival: 0.0,
        }
    }
}

/// One serve pass.
pub struct ServePass {
    pub parse: f64,
    /// Request parse plus the time to the first (cold) point record.
    pub setup: f64,
    /// `execute_request` alone.
    pub execute: f64,
    pub wall: f64,
    pub points: Vec<PointRecord>,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

impl ServePass {
    /// The pass's simulated outcome summed over its points.
    pub fn outcome(&self) -> SimOutcome {
        SimOutcome {
            drained: self.points.iter().all(|p| p.ok),
            cycles: self.points.iter().map(|p| p.cycles).sum(),
            fingerprint: String::new(),
            completions: self.points.iter().map(|p| p.completions).sum(),
            errors: 0,
            latency: sorted(self.points.iter().map(|p| p.mean_latency).collect()),
        }
    }
}

/// A writer that keeps what `execute_request` streams and stamps the
/// host time each record line is completed.
struct StampedLines {
    bytes: Vec<u8>,
    stamps: Vec<Instant>,
}

impl Write for StampedLines {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let now = Instant::now();
        self.stamps
            .extend(buf.iter().filter(|&&b| b == b'\n').map(|_| now));
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs one serve pass over the sweep document `text`.
pub fn serve_pass(text: &str, tracer: &mut Tracer) -> Result<ServePass, String> {
    let pass = tracer.enter("pass");
    let t0 = Instant::now();
    let span = tracer.enter("scenario.parse");
    let request =
        Request::from_text(REQUEST_ID, "serve_sweep_warm.scn", text).map_err(|e| e.to_string())?;
    tracer.exit(span);
    let t1 = Instant::now();
    let config = ServeConfig {
        threads: Some(1),
        ..ServeConfig::default()
    };
    let cache = Mutex::new(CheckpointCache::new(config.cache_capacity));
    let mut out = StampedLines {
        bytes: Vec::new(),
        stamps: Vec::new(),
    };
    let mut stats = ServeStats::default();
    let span = tracer.enter("serve.execute");
    execute_request(&request, &config, &cache, &mut out, &mut stats).map_err(|e| e.to_string())?;
    tracer.exit(span);
    let t2 = Instant::now();
    tracer.exit(pass);
    // Every line but the trailing `done` record is a point; replay their
    // arrival as spans so the trace shows each point's share.
    let text = String::from_utf8(out.bytes).map_err(|e| e.to_string())?;
    let lines: Vec<&str> = text.lines().collect();
    let Some((done, point_lines)) = lines.split_last() else {
        return Err("serve produced no records".into());
    };
    if field(done, "status") != Some("done") {
        return Err(format!("last serve record is not `done`: {done}"));
    }
    let mut points = Vec::with_capacity(point_lines.len());
    let mut prev = t1;
    for (line, &at) in point_lines.iter().zip(&out.stamps) {
        tracer.record("serve.point", prev, at, Some(span));
        points.push(PointRecord {
            ok: field(line, "status") == Some("ok"),
            cycles: number(line, "cycles"),
            fingerprint: field(line, "fingerprint").unwrap_or("").to_owned(),
            completions: number(line, "completions"),
            mean_latency: field(line, "mean_latency")
                .and_then(|v| v.parse().ok())
                .unwrap_or(f64::NAN),
            interarrival: (at - prev).as_secs_f64(),
        });
        prev = at;
    }
    let first = out.stamps.first().copied().unwrap_or(t2);
    let cache = cache
        .into_inner()
        .expect("no serve worker panicked holding the cache");
    Ok(ServePass {
        parse: (t1 - t0).as_secs_f64(),
        setup: (first - t0).as_secs_f64(),
        execute: (t2 - t1).as_secs_f64(),
        wall: (t2 - t0).as_secs_f64(),
        points,
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
    })
}

/// The raw value of `"key":` in one flat JSON record: the unquoted text
/// of a string, or the literal of a number.
fn field<'a>(record: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = record[record.find(&pat)? + pat.len()..].trim_start();
    if let Some(s) = rest.strip_prefix('"') {
        return s.split('"').next();
    }
    rest.split([',', '}']).next().map(str::trim)
}

fn number(record: &str, key: &str) -> u64 {
    field(record, key).and_then(|v| v.parse().ok()).unwrap_or(0)
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// The dense-stepping reference a workload's passes must reproduce.
#[derive(Debug, Clone)]
pub enum Oracle {
    /// A mesh workload: one dense run of the same text.
    Mesh(SimOutcome),
    /// A serve workload: a cold build plus a dense run per point.
    Serve(Vec<(u64, String)>),
}

impl Oracle {
    /// Runs the dense reference for `text`.
    pub fn compute(text: &str, serve: bool) -> Result<Oracle, String> {
        if !serve {
            let pass = mesh_pass(text, StepMode::Dense, &mut Tracer::off())?;
            return Ok(Oracle::Mesh(pass.outcome));
        }
        let request =
            Request::from_text(REQUEST_ID, "oracle.scn", text).map_err(|e| e.to_string())?;
        let sweep = request.expand(MAX_CYCLES, StepMode::Dense);
        sweep
            .points()
            .iter()
            .map(|point| {
                let mut sim = point
                    .spec
                    .build(&point.backend)
                    .map_err(|e| e.to_string())?;
                if !sim.run_until_with(sweep.max_cycles(), StepMode::Dense) {
                    return Err(format!("oracle point {} did not drain", point.label));
                }
                let report = sim.report();
                Ok((report.cycles, report.system_fingerprint().to_string()))
            })
            .collect::<Result<Vec<_>, String>>()
            .map(Oracle::Serve)
    }

    /// Deliberately corrupts the reference, for testing that a mismatch
    /// is caught.
    pub fn corrupt(&mut self) {
        match self {
            Oracle::Mesh(o) => o.fingerprint.push('!'),
            Oracle::Serve(points) => {
                if let Some(p) = points.first_mut() {
                    p.1.push('!');
                }
            }
        }
    }

    /// Whether a mesh outcome drained cleanly and matches the reference
    /// record for record.
    pub fn accepts_mesh(&self, outcome: &SimOutcome) -> bool {
        match self {
            Oracle::Mesh(reference) => {
                outcome.drained && outcome.errors == 0 && outcome == reference
            }
            Oracle::Serve(_) => false,
        }
    }

    /// How many serve point records fail: an error record, or cycles or
    /// fingerprint differing from the dense reference.
    pub fn serve_failures(&self, points: &[PointRecord]) -> u64 {
        let Oracle::Serve(reference) = self else {
            return points.len() as u64;
        };
        let mismatched = points
            .iter()
            .zip(reference)
            .filter(|(p, (cycles, fp))| !p.ok || p.cycles != *cycles || p.fingerprint != *fp)
            .count();
        (mismatched + reference.len().abs_diff(points.len())) as u64
    }
}

/// Host time of the layers inside a serve pass, split by replaying its
/// points through the public pieces `execute_request` is made of: a
/// [`CheckpointCache`] checkout (a cold build for the first point, a
/// warm fork after), the run, and the report.
#[derive(Default)]
pub struct ServeLayers {
    /// The cold checkout: the one platform build.
    pub build: f64,
    /// Summed over points.
    pub run: f64,
    pub report: f64,
    pub reports: Vec<ScenarioReport>,
}

/// Replays the sweep document `text` point by point; see [`ServeLayers`].
pub fn serve_layers(text: &str, tracer: &mut Tracer) -> Result<ServeLayers, String> {
    let request =
        Request::from_text(REQUEST_ID, "serve_sweep_warm.scn", text).map_err(|e| e.to_string())?;
    let sweep = request.expand(MAX_CYCLES, StepMode::Horizon);
    let mut cache = CheckpointCache::new(ServeConfig::default().cache_capacity);
    let mut layers = ServeLayers::default();
    let parent = tracer.enter("serve.layers");
    for point in sweep.points() {
        let t0 = Instant::now();
        let (mut sim, warm) = cache.checkout(point).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let drained =
            sim.run_until_with(sweep.max_cycles(), point.step.unwrap_or(sweep.step_mode()));
        let t2 = Instant::now();
        let report = sim.report();
        let t3 = Instant::now();
        if !drained {
            return Err(format!("point {} did not drain", point.label));
        }
        let name = if warm {
            "serve.checkout"
        } else {
            layers.build += (t1 - t0).as_secs_f64();
            "scenario.build"
        };
        layers.run += (t2 - t1).as_secs_f64();
        layers.report += (t3 - t2).as_secs_f64();
        tracer.record(name, t0, t1, Some(parent));
        tracer.record("scenario.run", t1, t2, Some(parent));
        tracer.record("scenario.report", t2, t3, Some(parent));
        layers.reports.push(report);
    }
    tracer.exit(parent);
    Ok(layers)
}
