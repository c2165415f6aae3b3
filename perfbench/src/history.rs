//! The seeded cache history that the study and serve workloads start from,
//! and the set-up step that loads it.

use crate::inputs;
use ltds_fleet::ShardCache;
use ltds_sim::campaign::{CampaignDriver, MemorySink};
use ltds_sim::{LoadStats, MttdlEstimate, SweepCache};
use std::path::Path;
use std::time::Instant;

/// The two persistent caches a campaign runs against, laid out on disk the
/// way `campaign --cache-dir` lays them out (`points/`, `shards/`).
pub struct Caches {
    /// Sweep grid points.
    pub points: SweepCache<MttdlEstimate>,
    /// Fleet scenario shards.
    pub shards: ShardCache,
}

impl Caches {
    /// Two empty caches.
    pub fn new() -> Self {
        Self { points: SweepCache::new(), shards: ShardCache::new() }
    }

    /// Hits over both caches.
    pub fn hits(&self) -> u64 {
        self.points.hits() + self.shards.hits()
    }

    /// Misses over both caches.
    pub fn misses(&self) -> u64 {
        self.points.misses() + self.shards.misses()
    }
}

/// What one set-up did.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// Seconds spent in the two `load_dir` calls.
    pub load_s: f64,
    /// Records loaded over both caches.
    pub loaded: usize,
    /// Damaged records skipped over both caches.
    pub skipped: usize,
}

/// Runs every history tenant in-process and persists the resulting caches
/// under `dir`. Returns the in-memory caches, which reference runs may
/// reuse (they never write to disk).
pub fn generate(seed: u64, dir: &Path) -> Caches {
    let caches = Caches::new();
    for h in 0..inputs::HISTORY_TENANTS {
        let tenant = inputs::history_tenant(seed, h);
        CampaignDriver::new(&tenant)
            .threads(2)
            .point_cache(&caches.points)
            .shard_cache(&caches.shards)
            .run(&mut MemorySink::new())
            .expect("history tenant runs");
    }
    caches.points.persist_dir(dir.join("points")).expect("persist history points");
    caches.shards.persist_dir(dir.join("shards")).expect("persist history shards");
    caches.points.reset_counters();
    caches.shards.reset_counters();
    caches
}

/// The set-up of the study and serve workloads: load the history under
/// `dir` into fresh caches, then arm write-through on it.
pub fn open(dir: &Path) -> (Caches, Setup) {
    let caches = Caches::new();
    let start = Instant::now();
    let points: LoadStats = caches.points.load_dir(dir.join("points")).expect("load points");
    let shards: LoadStats = caches.shards.load_dir(dir.join("shards")).expect("load shards");
    let load_s = start.elapsed().as_secs_f64();
    caches.points.write_through(dir.join("points")).expect("arm points write-through");
    caches.shards.write_through(dir.join("shards")).expect("arm shards write-through");
    let setup = Setup {
        load_s,
        loaded: points.loaded + shards.loaded,
        skipped: points.skipped + shards.skipped,
    };
    (caches, setup)
}
