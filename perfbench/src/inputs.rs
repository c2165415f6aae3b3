//! Workload inputs, derived from the workload seed alone.
//!
//! Every config comes from `ltds_bench::workloads`, so "the fleet-year" or
//! "the demo campaign" here is the same configuration perfsmoke, the
//! `campaign` binary and the experiments use. The benchmark only reseeds
//! and resizes them.

use ltds_bench::workloads;
use ltds_fleet::{FleetCampaign, FleetConfig, FleetScenario, RepairBandwidth};
use ltds_sim::campaign::{Campaign, SweepAxis, SweepSpec};
use ltds_sim::config::RareEventStrategy;

/// Seed used when `--seed` is not given; the one the pinned reference
/// digests were recorded for.
pub const DEFAULT_SEED: u64 = 1;

/// Monte-Carlo trials of each vanilla sweep point of a study job: sized so
/// a job takes about a tenth of a second and a run's three passes over 100
/// jobs fit in half a minute.
pub const STUDY_TRIALS: u64 = 75;

/// Trials of each importance-sampled point of a study job: sized so the
/// rare-event sweeps are a visible share (about a quarter) of a job's unit
/// time.
pub const STUDY_RARE_TRIALS: u64 = 8_000;

/// Distinct seeds a fleet run cycles through. The fleet engine keeps no
/// state between runs, so repeating a seed repeats the work exactly while
/// bounding how many references a non-default seed must recompute.
pub const FLEET_SEED_POOL: usize = 16;

/// History tenants in the seeded cache history (10 records each).
pub const HISTORY_TENANTS: usize = 400;

/// Trials of each point of a serve tenant's scrub sweep.
pub const TENANT_TRIALS: u64 = 150;

/// Scrub periods (hours) of a history tenant's grid.
const TENANT_PERIODS: [f64; 6] = [50.0, 100.0, 200.0, 400.0, 800.0, 1_600.0];

/// One splitmix64 step: a well-mixed 64-bit value from `x`.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Named sub-streams of the workload seed, so no two inputs share a seed.
#[derive(Clone, Copy)]
enum Stream {
    StudySweep = 1,
    StudyFleet = 2,
    Fleet = 3,
    HistorySweep = 4,
    HistoryFleet = 5,
    FreshSweep = 6,
    FreshFleet = 7,
}

/// A derived seed, kept below 2^48 so `seed + grid index` never wraps.
fn derive(seed: u64, stream: Stream, index: u64) -> u64 {
    splitmix(splitmix(splitmix(seed) ^ stream as u64) ^ index) >> 16
}

/// Study job `job`: the demo campaign (three sweeps plus the 16-shard
/// 10k-group fleet year) and the importance-sampled sweeps of the rare demo
/// campaign, in one spec, reseeded so every unit misses the cache.
pub fn study_job(seed: u64, job: usize) -> FleetCampaign {
    let demo = workloads::demo_campaign();
    let rare = workloads::demo_rare_campaign(RareEventStrategy::ImportanceSampling {
        tilt: workloads::RARE_TILT,
    });
    let job = job as u64;
    let mut sweeps = Vec::new();
    for spec in demo.sweeps {
        sweeps.push(SweepSpec { trials: STUDY_TRIALS, ..spec });
    }
    for spec in rare.sweeps {
        sweeps.push(SweepSpec {
            name: format!("rare_{}", spec.name),
            trials: STUDY_RARE_TRIALS,
            ..spec
        });
    }
    for (k, spec) in sweeps.iter_mut().enumerate() {
        spec.seed = derive(seed, Stream::StudySweep, job * 16 + k as u64);
    }
    let scenarios = demo
        .scenarios
        .into_iter()
        .map(|scenario| FleetScenario { seed: derive(seed, Stream::StudyFleet, job), ..scenario })
        .collect();
    Campaign { name: format!("study-{job}"), sweeps, scenarios }
}

/// Whether a study sweep is one of the importance-sampled ones.
pub fn is_rare_sweep(name: &str) -> bool {
    name.starts_with("rare_")
}

/// The six fleet designs of a fleet job, with their names. Together they
/// span five kernel regimes: set-up heavy (the two 100k-group years),
/// one big calendar queue (one shard), the heap/calendar crossover (5k
/// dense groups), banded erasure coding (the E16 hybrid) and constrained
/// repair (the E15 disaster fleet).
pub fn fleet_designs() -> Vec<(&'static str, FleetConfig)> {
    vec![
        ("fleet_year_100k", workloads::fleet_year(100_000)),
        ("fleet_year_ec_100k", workloads::fleet_year_ec(100_000)),
        ("dense_1shard", workloads::event_dense_single_shard()),
        ("dense_5k", workloads::event_dense_fleet_5k()),
        ("e16_hybrid", workloads::e16_hybrid_fleet()),
        ("e15_disaster", workloads::disaster_fleet(3, RepairBandwidth::PerSiteBytesPerHour(2e10))),
    ]
}

/// Master seed of fleet job `job`.
pub fn fleet_seed(seed: u64, job: usize) -> u64 {
    derive(seed, Stream::Fleet, (job % FLEET_SEED_POOL) as u64)
}

fn tenant_campaign(
    name: String,
    sweep_seed: u64,
    fleet_seed: u64,
    periods: Vec<f64>,
) -> FleetCampaign {
    Campaign {
        name,
        sweeps: vec![SweepSpec {
            name: "scrub".to_string(),
            base: workloads::mc_group(),
            axis: SweepAxis::ScrubPeriod { periods_hours: periods },
            trials: TENANT_TRIALS,
            seed: sweep_seed,
        }],
        scenarios: vec![FleetScenario {
            name: "fleet_year_2k".to_string(),
            fleet: workloads::fleet_year(2_000).with_shards(4),
            seed: fleet_seed,
        }],
    }
}

/// History tenant `h`: a 6-point scrub sweep over the canonical
/// Monte-Carlo group plus a 4-shard 2k-group fleet year.
pub fn history_tenant(seed: u64, h: usize) -> FleetCampaign {
    tenant_campaign(
        format!("history-{h}"),
        derive(seed, Stream::HistorySweep, h as u64),
        derive(seed, Stream::HistoryFleet, h as u64),
        TENANT_PERIODS.to_vec(),
    )
}

/// Serve tenant `i`. Even tenants refine a history tenant: its grid gains
/// two appended points, unique to the refinement, so 6 of 8 points and
/// every shard hit the cache. Odd tenants are fresh and miss everywhere.
pub fn serve_tenant(seed: u64, i: usize) -> FleetCampaign {
    let name = format!("tenant-{i}");
    if i.is_multiple_of(2) {
        let (h, round) = ((i / 2) % HISTORY_TENANTS, (i / 2) / HISTORY_TENANTS);
        let mut periods = TENANT_PERIODS.to_vec();
        periods.extend([3_200.0 + round as f64, 6_400.0 + round as f64]);
        let history = history_tenant(seed, h);
        tenant_campaign(name, history.sweeps[0].seed, history.scenarios[0].seed, periods)
    } else {
        tenant_campaign(
            name,
            derive(seed, Stream::FreshSweep, i as u64),
            derive(seed, Stream::FreshFleet, i as u64),
            TENANT_PERIODS.to_vec(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_depend_only_on_the_seed() {
        let a = serde_json::to_string(&study_job(7, 3)).unwrap();
        assert_eq!(a, serde_json::to_string(&study_job(7, 3)).unwrap());
        assert_ne!(a, serde_json::to_string(&study_job(8, 3)).unwrap());
        assert_ne!(a, serde_json::to_string(&study_job(7, 4)).unwrap());
        assert_eq!(fleet_seed(7, 2), fleet_seed(7, 2 + FLEET_SEED_POOL));
    }

    #[test]
    fn refinements_share_their_history_tenants_keys() {
        let refine = serve_tenant(5, 2 * HISTORY_TENANTS + 6);
        let history = history_tenant(5, 3);
        assert_eq!(refine.sweeps[0].seed, history.sweeps[0].seed);
        assert_eq!(refine.scenarios[0].seed, history.scenarios[0].seed);
        assert_eq!(refine.sweeps[0].axis.len(), 8);
        // A second refinement of the same history tenant appends other points.
        let earlier = serve_tenant(5, 6);
        assert_ne!(
            serde_json::to_string(&earlier.sweeps[0].axis).unwrap(),
            serde_json::to_string(&refine.sweeps[0].axis).unwrap()
        );
    }
}
