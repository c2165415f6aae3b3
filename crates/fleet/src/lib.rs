//! Fleet-scale discrete-event simulation for long-term storage.
//!
//! The per-group simulator (`ltds-sim`) answers "how long does one replica
//! group live?" — but the paper's hardest scenarios are *system* effects
//! that only exist at fleet scale:
//!
//! * **site disasters** taking out every replica in a building at once;
//! * **repair-bandwidth contention**: after a mass failure, thousands of
//!   groups queue for the same wide-area pipes, and the repair windows the
//!   per-group model treats as constants stretch exactly when they matter
//!   most;
//! * **scrub tours**: latent-fault detection shares a bounded I/O budget
//!   per node, so detection latency degrades with fleet density.
//!
//! This crate simulates the whole archive — a `site → rack → node → drive`
//! hierarchy ([`FleetTopology`]) carrying up to millions of placed replica
//! groups — with a calendar-queue event kernel over a virtual clock
//! (amortised O(1) scheduling; the original binary-heap scheduler survives
//! as a reference implementation for equivalence testing):
//!
//! * [`FleetConfig`] reuses `ltds_sim::SimConfig` for per-group behaviour,
//!   so the fleet engine and the Monte-Carlo simulator are parameterised
//!   identically (and cross-checked against each other in the degeneracy
//!   test);
//! * [`ScrubTour`] reuses `ltds_scrub::ScrubStrategy` for per-drive scrub
//!   policies, shared across each node's drives;
//! * [`BurstProfile`] layers hierarchical correlated failures on top of the
//!   within-group `α` model of `ltds-core`;
//! * [`RepairBandwidth`] gives every site a FIFO repair pipeline with a
//!   byte budget.
//!
//! Execution is sharded: groups are dealt round-robin across a fixed number
//! of logical shards, each with its own deterministic RNG sub-stream
//! (`SimRng::fork`, the same discipline `ltds_sim::MonteCarlo` uses), and
//! worker threads pick up shards. Results are **bit-identical for a given
//! seed regardless of thread count** — and because each shard is a pure
//! function of `(config, seed, shard)`, [`FleetSim::run_cached`] can
//! memoise shard outcomes in a content-addressed [`ShardCache`] and merge
//! cached and fresh shards into the same bit-identical report.
//!
//! # Example
//!
//! ```
//! use ltds_fleet::{FleetConfig, FleetSim, FleetTopology};
//! use ltds_sim::config::SimConfig;
//!
//! // A deliberately fragile fleet so the example runs fast.
//! let topology = FleetTopology::new(2, 2, 2, 4).unwrap();
//! let group = SimConfig::mirrored_disks(1000.0, 5000.0, 10.0, 10.0, Some(100.0), 1.0).unwrap();
//! let config = FleetConfig::new(topology, 40, group)
//!     .unwrap()
//!     .with_horizon_hours(10_000.0);
//! let report = FleetSim::new(config).seed(1).run().unwrap();
//! assert!(report.totals.losses > 0);
//! assert!(report.mttdl_exposure_hours().is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bursts;
pub mod calendar;
pub mod campaign;
pub mod config;
pub mod engine;
pub mod kernel;
pub mod placement;
pub mod queue;
pub mod repair;
pub mod report;
pub mod topology;

pub use bursts::{Burst, BurstProfile, FaultDomain};
pub use campaign::{fleet_reports, FleetCampaign, FleetScenario, PreparedFleet};
pub use config::{
    FleetConfig, PolicyBand, PolicyBands, RedundancyPolicy, RepairBandwidth, ScrubTour,
    MAX_POLICY_BANDS,
};
pub use engine::{FleetSim, ShardCache};
pub use ltds_sim::cache::{CacheKey, ConfigDigest, SweepCache};
pub use ltds_telemetry::{
    LossTrace, MetricSample, NoTelemetry, Probe, ProbeEvent, RunSummary, RunTrace, ShardSummary,
    ShardTelemetry, ShardTrace, TelemetryConfig, TraceMeta, TRACE_SCHEMA,
};
pub use placement::PlacementIndex;
pub use report::{FleetReport, PolicyTally, ShardOutcome};
pub use topology::FleetTopology;
