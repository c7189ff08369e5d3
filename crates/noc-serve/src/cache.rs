//! Prefix-keyed checkpoint cache: build each platform once, fork per
//! point.
//!
//! Points of a parameter study usually share everything except their
//! traffic programs: same topology, same `[config]`, same socket
//! shapes, same memory map. That shared part is the *prefix*
//! ([`noc_scenario::ScenarioSpec::prefix_key`]); the programs are the
//! tail. The cache stores one never-ticked, program-less simulation per
//! distinct prefix and serves each request point by snapshotting that
//! checkpoint and loading the point's programs into the fork —
//! construction cost is paid once per platform instead of once per
//! point.
//!
//! Forking is exact, not approximate: masters load programs through
//! their constructors against pristine pre-tick state, so a forked
//! simulation is indistinguishable from one built from the full spec
//! (pinned by this module's tests).

use noc_scenario::{ScenarioError, Simulation, SweepPoint};

struct Entry {
    key: String,
    checkpoint: Box<dyn Simulation>,
    last_used: u64,
}

/// A bounded, least-recently-used cache of program-less platform
/// checkpoints.
pub struct CheckpointCache {
    capacity: usize,
    entries: Vec<Entry>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl CheckpointCache {
    /// A cache holding at most `capacity` checkpoints.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a server that can never reuse a
    /// platform should not pretend to have a cache.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "checkpoint cache capacity must be positive");
        CheckpointCache {
            capacity,
            entries: Vec::new(),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Checkpoints currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no checkpoints.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Points served from an existing checkpoint.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Points that had to build their platform.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Produces a ready-to-run simulation for `point`, forked from a
    /// cached checkpoint when one matches the point's prefix and built
    /// (then cached) otherwise. Returns the simulation and whether it
    /// was a warm fork.
    ///
    /// The *full* spec is validated first, trace files included, so
    /// program-dependent errors (say, an unmapped address) surface even
    /// when the platform itself is already warm.
    ///
    /// # Errors
    ///
    /// Returns the spec's [`ScenarioError`] if the point is
    /// inconsistent or its backend cannot compile it.
    pub fn checkout(
        &mut self,
        point: &SweepPoint,
    ) -> Result<(Box<dyn Simulation>, bool), ScenarioError> {
        point.spec.validate()?;
        let programs = point.spec.programs()?;
        let key = point.spec.prefix_key(&point.backend);
        self.clock += 1;
        let clock = self.clock;
        if let Some(entry) = self.entries.iter_mut().find(|e| e.key == key) {
            entry.last_used = clock;
            self.hits += 1;
            let mut sim = entry.checkpoint.snapshot();
            sim.load_programs(programs);
            // The checkpoint was built without programs, so its pinned
            // partition lacks the static load estimate — re-resolve
            // from the full spec now that the programs are in.
            sim.set_partition(point.spec.resolve_partition()?);
            return Ok((sim, true));
        }
        self.misses += 1;
        let checkpoint = point.spec.without_programs().build(&point.backend)?;
        let mut sim = checkpoint.snapshot();
        sim.load_programs(programs);
        sim.set_partition(point.spec.resolve_partition()?);
        if self.entries.len() == self.capacity {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("cache is non-empty at capacity");
            self.entries.swap_remove(lru);
        }
        self.entries.push(Entry {
            key,
            checkpoint,
            last_used: clock,
        });
        Ok((sim, false))
    }
}

impl std::fmt::Debug for CheckpointCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointCache")
            .field("capacity", &self.capacity)
            .field("len", &self.entries.len())
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_scenario::{Backend, ScenarioSpec, StepMode};

    fn spec(commands: u32, delay: u64) -> ScenarioSpec {
        let mut cmds = String::new();
        for i in 0..commands {
            cmds.push_str(&format!(
                "cmd = \"read {:#x} 1x4 delay={delay}\"\n",
                0x1000 + 0x10 * u64::from(i)
            ));
        }
        let text = format!(
            "\
[[initiator]]
name = \"cpu\"
socket = \"axi\"
{cmds}
[[memory]]
name = \"ram\"
base = 0x0
end = 0x10000
latency = 2
queue = 4
"
        );
        ScenarioSpec::from_text(&text).unwrap()
    }

    #[test]
    fn same_prefix_hits_different_prefix_misses() {
        let mut cache = CheckpointCache::new(4);
        for backend in [Backend::noc(), Backend::bridged(), Backend::bus()] {
            let a = SweepPoint::new("a", spec(1, 0), backend);
            let b = SweepPoint::new("b", spec(3, 7), backend);
            let (_, warm) = cache.checkout(&a).unwrap();
            assert!(!warm, "first {} point builds", backend.label());
            // Different programs, same platform: warm fork.
            let (_, warm) = cache.checkout(&b).unwrap();
            assert!(warm, "second {} point forks", backend.label());
        }
        assert_eq!(cache.len(), 3);
        assert_eq!((cache.hits(), cache.misses()), (3, 3));
    }

    #[test]
    fn forked_simulation_matches_a_full_build() {
        for backend in [Backend::noc(), Backend::bridged(), Backend::bus()] {
            let point = SweepPoint::new("p", spec(4, 3), backend);
            // Warm the cache, then fork the same point from it.
            let mut cache = CheckpointCache::new(1);
            cache.checkout(&point).unwrap();
            let (mut forked, warm) = cache.checkout(&point).unwrap();
            assert!(warm);
            let mut fresh = point.spec.build(&point.backend).unwrap();
            assert!(forked.run_until_with(100_000, StepMode::Horizon));
            assert!(fresh.run_until_with(100_000, StepMode::Horizon));
            assert_eq!(
                format!("{:?}", forked.report()),
                format!("{:?}", fresh.report()),
                "fork must be indistinguishable from a full {} build",
                backend.label()
            );
        }
    }

    #[test]
    fn forked_noc_platform_keeps_the_balanced_partition() {
        // The cached checkpoint is built from the programless spec,
        // whose static load estimate is empty — without re-applying
        // the full spec's partition a fork would fall back to the
        // naive band cut. On this mesh every endpoint sits on the low
        // switch indices, so the band cut parks the whole run in
        // region 0 (occupancy 1.0) while the balanced cut splits the
        // cluster.
        let text = "\
[topology]
kind = \"mesh\"
width = 4
height = 4

[config]
shards = 2

[[initiator]]
name = \"cpu0\"
socket = \"axi\"
cmd = \"read 0x0 1x4\"
cmd = \"write 0x1000 1x4\"
cmd = \"read 0x20 1x4\"

[[initiator]]
name = \"cpu1\"
socket = \"axi\"
cmd = \"write 0x40 1x4\"
cmd = \"read 0x1040 1x4\"
cmd = \"read 0x1080 1x4\"

[[memory]]
name = \"m0\"
base = 0x0
end = 0x1000
latency = 2
queue = 4

[[memory]]
name = \"m1\"
base = 0x1000
end = 0x2000
latency = 2
queue = 4
";
        let spec = ScenarioSpec::from_text(text).unwrap();
        let point = SweepPoint::new("p", spec, Backend::noc());
        let mut cache = CheckpointCache::new(1);
        cache.checkout(&point).unwrap();
        let (mut forked, warm) = cache.checkout(&point).unwrap();
        assert!(warm);
        let mut fresh = point.spec.build(&point.backend).unwrap();
        let sharded = StepMode::Sharded { threads: 2 };
        assert!(forked.run_until_with(100_000, sharded));
        assert!(fresh.run_until_with(100_000, sharded));
        let ratio = forked.report().occupancy.expect("sharded run").ratio();
        assert!(
            ratio < 1.0,
            "fork fell back to the band cut (occupancy {ratio})"
        );
        assert_eq!(
            format!("{:?}", forked.report()),
            format!("{:?}", fresh.report()),
            "fork must match a full build, partition included"
        );
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut cache = CheckpointCache::new(2);
        let a = SweepPoint::new("a", spec(1, 0), Backend::noc());
        let b = SweepPoint::new("b", spec(1, 0), Backend::bridged());
        let c = SweepPoint::new("c", spec(1, 0), Backend::bus());
        cache.checkout(&a).unwrap(); // miss: {a}
        cache.checkout(&b).unwrap(); // miss: {a, b}
        cache.checkout(&a).unwrap(); // hit, refreshes a
        cache.checkout(&c).unwrap(); // miss, evicts b: {a, c}
        assert_eq!(cache.len(), 2);
        let (_, warm) = cache.checkout(&a).unwrap();
        assert!(warm, "a was refreshed, must survive");
        let (_, warm) = cache.checkout(&b).unwrap();
        assert!(!warm, "b was the least recently used, must be gone");
    }

    #[test]
    fn full_spec_errors_surface_on_warm_platforms() {
        let mut cache = CheckpointCache::new(1);
        let good = SweepPoint::new("good", spec(1, 0), Backend::noc());
        cache.checkout(&good).unwrap();
        // Same platform, but the program now reads outside every region.
        let mut bad_spec = spec(1, 0);
        let bad_text = bad_spec
            .to_text()
            .replace("read 0x1000 ", "read 0xdead0000 ");
        bad_spec = ScenarioSpec::from_text(&bad_text).unwrap();
        let bad = SweepPoint::new("bad", bad_spec, Backend::noc());
        let Err(err) = cache.checkout(&bad) else {
            panic!("unmapped program must not check out");
        };
        assert!(
            matches!(err, ScenarioError::UnmappedAddress { .. }),
            "got {err:?}"
        );
    }
}
