//! The benchmark's three workloads, generated as scenario text from a
//! seed.
//!
//! The simulator only ever sees the text these functions return: the
//! benchmark parses it through the same public entry points a user's
//! `.scn` file goes through. The seed moves addresses, delays and
//! generator seeds; it never moves the platform (topology, sockets,
//! memories, configuration) or the transaction count, so every seed of a
//! workload measures the same shape (see [`shape_of`]).

use noc_scenario::{Backend, Document, ProgramSpec, ScenarioSpec};
use std::fmt::Write as _;

/// The seed a bare invocation uses.
pub const DEFAULT_SEED: u64 = 1;
/// The held-out seed: claims tuned on [`DEFAULT_SEED`] must also hold
/// here.
pub const HELD_OUT_SEED: u64 = 7;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Build-dominated: a sparse 32x32 mesh with 16 endpoints.
    Mesh32SparseBuild,
    /// Run-dominated: a near-saturated 16x16 mesh in all four socket
    /// families.
    Mesh16MixedLoad,
    /// A 100-point prefix-sharing sweep through the serve executor.
    ServeSweepWarm,
}

impl Workload {
    /// Every workload, in the order `--workload all` interleaves them.
    pub const ALL: [Workload; 3] = [
        Workload::Mesh32SparseBuild,
        Workload::Mesh16MixedLoad,
        Workload::ServeSweepWarm,
    ];

    /// The name used on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Mesh32SparseBuild => "mesh32_sparse_build",
            Workload::Mesh16MixedLoad => "mesh16_mixed_load",
            Workload::ServeSweepWarm => "serve_sweep_warm",
        }
    }

    /// Looks a workload up by its [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload goes through the serve executor.
    pub fn is_serve(self) -> bool {
        self == Workload::ServeSweepWarm
    }
}

/// How big the generated inputs are. `Tiny` keeps every workload's
/// structure (and every metric) at a size the smoke tests can afford.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// SplitMix64, kept local so the benchmark's inputs never change when
/// the simulator's own generators do.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// The scenario (or sweep) text of `workload` for `seed`.
pub fn generate(workload: Workload, seed: u64, size: Size) -> String {
    // Each workload draws from its own stream, so one seed gives three
    // unrelated inputs.
    let salt = match workload {
        Workload::Mesh32SparseBuild => 0x3232,
        Workload::Mesh16MixedLoad => 0x1616,
        Workload::ServeSweepWarm => 0x5e5e,
    };
    let mut rng = Rng::new(seed ^ (salt << 48));
    match (workload, size) {
        (Workload::Mesh32SparseBuild, Size::Full) => sparse_mesh(&mut rng, 32),
        (Workload::Mesh32SparseBuild, Size::Tiny) => sparse_mesh(&mut rng, 8),
        (Workload::Mesh16MixedLoad, Size::Full) => mixed_mesh(&mut rng, 16, 1000),
        (Workload::Mesh16MixedLoad, Size::Tiny) => mixed_mesh(&mut rng, 8, 40),
        (Workload::ServeSweepWarm, Size::Full) => serve_sweep(&mut rng, 6, 100),
        (Workload::ServeSweepWarm, Size::Tiny) => serve_sweep(&mut rng, 4, 20),
    }
}

/// What must not change with the seed: the platform (everything but the
/// programs, as the checkpoint cache keys it) and the transaction count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shape {
    pub platforms: Vec<String>,
    pub transactions: usize,
}

/// The [`Shape`] of a parsed scenario or sweep document.
pub fn shape_of(doc: &Document) -> Shape {
    let noc = Backend::noc();
    let specs: Vec<(&ScenarioSpec, &Backend)> = match doc {
        Document::Scenario(spec) => vec![(spec, &noc)],
        Document::Sweep(sweep) => sweep
            .points()
            .iter()
            .map(|p| (&p.spec, &p.backend))
            .collect(),
    };
    Shape {
        platforms: specs
            .iter()
            .map(|(spec, backend)| spec.prefix_key(backend))
            .collect(),
        transactions: specs
            .iter()
            .flat_map(|(spec, _)| &spec.initiators)
            .map(|ini| match &ini.program {
                ProgramSpec::Explicit(program) => program.len(),
                ProgramSpec::Bursty(b) => b.commands,
                ProgramSpec::Zipf(z) => z.commands,
                ProgramSpec::Trace(_) => 0,
            })
            .sum(),
    }
}

/// The socket families, in the order `mesh16_mixed_load` declares its
/// initiators round-robin. Every initiator's name starts with its
/// family.
pub const FAMILIES: [&str; 4] = ["ahb", "axi", "ocp", "vci"];

/// `[topology]` of a `w` x `w` mesh declared as a custom topology with
/// an explicit endpoint placement and XY routing.
fn custom_mesh(out: &mut String, w: usize, placement: &[usize]) {
    let mut links = Vec::new();
    for y in 0..w {
        for x in 0..w {
            let s = y * w + x;
            if x + 1 < w {
                links.push(format!("[{s}, {}]", s + 1));
            }
            if y + 1 < w {
                links.push(format!("[{s}, {}]", s + w));
            }
        }
    }
    let placement: Vec<String> = placement.iter().map(usize::to_string).collect();
    let _ = write!(
        out,
        "[topology]\nkind = \"custom\"\nswitches = {}\nlinks = [{}]\nplacement = [{}]\nrouting = \"xy:{w}x{w}\"\n\n",
        w * w,
        links.join(", "),
        placement.join(", ")
    );
}

fn memory(out: &mut String, name: &str, base: u64, end: u64, latency: u32, queue: usize) {
    let _ = write!(
        out,
        "[[memory]]\nname = \"{name}\"\nbase = {base:#x}\nend = {end:#x}\nlatency = {latency}\nqueue = {queue}\n\n"
    );
}

/// `mesh32_sparse_build`: the sparse-mesh shape — 8 AXI readers and 8
/// memories on a 4x4 sub-grid scaled up to a `w` x `w` mesh, 16 reads
/// per reader with seeded inter-command delays in 400..=948 cycles.
fn sparse_mesh(rng: &mut Rng, w: usize) -> String {
    let scale = w / 4;
    let placement: Vec<usize> = (0..16)
        .map(|idx| (idx / 4) * scale * w + (idx % 4) * scale)
        .collect();
    let mut out = String::new();
    custom_mesh(&mut out, w, &placement);
    out.push_str("[config]\nlink_pipeline = 2\n\n");
    for m in 0..8u64 {
        let _ = write!(
            out,
            "[[initiator]]\nname = \"axi{m}\"\nsocket = \"axi\"\ntags = 4\nper_id = 4\ntotal = 16\n"
        );
        for i in 0..16u64 {
            let addr = m * 0x1000 + i * 0x40;
            let stream = match i % 4 {
                0 => String::new(),
                s => format!(" stream={s}"),
            };
            let delay = rng.range(400, 948);
            let _ = writeln!(out, "cmd = \"read {addr:#x} 1x8{stream} delay={delay}\"");
        }
        out.push('\n');
    }
    for k in 0..8u64 {
        memory(
            &mut out,
            &format!("mem{k}"),
            k * 0x1000,
            (k + 1) * 0x1000,
            2,
            8,
        );
    }
    out
}

/// `mesh16_mixed_load`: 16 open-loop streamed initiators, four per
/// socket family, half Zipf-targeted and half bursty, all issuing 8-beat
/// x 4-byte bursts with 50–60 % reads at 8 memories on a `w` x `w` mesh.
fn mixed_mesh(rng: &mut Rng, w: usize, commands: usize) -> String {
    let s = w / 4;
    let initiators = (0..16).map(|idx| (idx / 4 * s + s / 4) * w + idx % 4 * s + s / 4);
    let memories = (0..8).map(|k| (k / 2 * s + s - 1) * w + k % 2 * 2 * s + s - 1);
    let placement: Vec<usize> = initiators.chain(memories).collect();
    let mut out = String::new();
    custom_mesh(&mut out, w, &placement);
    for idx in 0..16 {
        let family = FAMILIES[idx % 4];
        let (socket, streams) = match family {
            "ahb" => ("socket = \"ahb\"\n", 1),
            "axi" => ("socket = \"axi\"\n", 2),
            "ocp" => ("socket = \"ocp\"\nthreads = 2\nper_thread = 4\n", 2),
            _ => ("socket = \"avci\"\nthreads = 2\n", 2),
        };
        let seed = rng.next_u64() >> 16;
        let read_pct = rng.range(50, 60);
        let _ = write!(out, "[[initiator]]\nname = \"{family}{idx}\"\n{socket}");
        if idx / 4 % 2 == 0 {
            let _ = write!(
                out,
                "kind = \"zipf\"\nseed = {seed:#x}\ncommands = {commands}\nexponent_milli = 1200\n"
            );
        } else {
            let _ = write!(
                out,
                "kind = \"bursty\"\nseed = {seed:#x}\ncommands = {commands}\nburst_len = 8\nidle_gap = 60\n"
            );
        }
        let _ = write!(
            out,
            "read_pct = {read_pct}\nbeats = 8\nbeat_bytes = 4\nstreams = {streams}\ngap = 2\ndiscipline = \"open\"\n\n"
        );
    }
    for k in 0..8u64 {
        let latency = [2, 3, 4, 6][k as usize % 4];
        memory(
            &mut out,
            &format!("mem{k}"),
            k << 16,
            (k + 1) << 16,
            latency,
            8,
        );
    }
    out
}

/// Address space of one memory slice on the serve platform.
const SLICE: u64 = 0x1_0000;

/// `serve_sweep_warm`: `points` sweep points on one `w` x `w` mesh
/// platform (AXI masters on even switches, memory slices on odd ones).
/// Every point shares the platform and differs only in its programs —
/// one seeded read per master — so a warm server builds once and forks.
fn serve_sweep(rng: &mut Rng, w: usize, points: usize) -> String {
    let n = w * w;
    let masters: Vec<usize> = (0..n).filter(|s| s % 2 == 0).collect();
    let slices: Vec<usize> = (0..n).filter(|s| s % 2 == 1).collect();
    let placement: Vec<usize> = masters.iter().chain(&slices).copied().collect();
    let mut platform = String::new();
    custom_mesh(&mut platform, w, &placement);
    let mut out = String::from("[sweep]\nmax_cycles = 1000000\n\n");
    for k in 0..points {
        let _ = write!(
            out,
            "[[sweep.point]]\nlabel = \"p{k:02}\"\nbackend = \"noc\"\n\n"
        );
        out.push_str(&platform);
        for m in &masters {
            let addr = (rng.next_u64() % (slices.len() as u64 * SLICE - 64)) & !7;
            let _ = write!(
                out,
                "[[initiator]]\nname = \"axi{m}\"\nsocket = \"axi\"\ntags = 4\nper_id = 4\ntotal = 8\noutstanding = 8\ncmd = \"read {addr:#x} 1x8\"\n\n"
            );
        }
        for (k, s) in slices.iter().enumerate() {
            let k = k as u64;
            memory(
                &mut out,
                &format!("mem{s}"),
                k * SLICE,
                (k + 1) * SLICE,
                2,
                8,
            );
        }
    }
    out
}
