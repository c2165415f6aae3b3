//! `ltds` — long-term digital storage reliability toolkit.
//!
//! This facade crate re-exports the whole workspace behind one dependency,
//! which is what the examples and integration tests use. The pieces:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`core`] | `ltds-core` | The paper's analytic reliability model (Equations 1–12) and its §6 improvement strategies |
//! | [`stochastic`] | `ltds-stochastic` | Seeded xoshiro256++ RNG, exponential fault races, binomial thinning, estimators |
//! | [`devices`] | `ltds-devices` | Drive catalogue, bit-error/cost/media models |
//! | [`scrub`] | `ltds-scrub` | Audit strategies, checksum and voting auditors |
//! | [`replication`] | `ltds-replication` | Diversity → α mapping (§6.5) |
//! | [`sim`] | `ltds-sim` | Discrete-event Monte-Carlo simulator (one group at a time) |
//! | [`fleet`] | `ltds-fleet` | Fleet-scale discrete-event engine: shared repair bandwidth, scrub tours, correlated bursts |
//! | [`telemetry`] | `ltds-telemetry` | Deterministic sim-time telemetry: metric samples, loss post-mortems, checksummed trace export |
//! | [`archive`] | `ltds-archive` | Miniature replicated archival store |
//!
//! # Quickstart
//!
//! ```
//! use ltds::core::{presets, regimes, units};
//!
//! // The paper's scrubbed-mirror scenario: ~6100 years MTTDL.
//! let params = presets::cheetah_mirror_scrubbed();
//! let years = units::hours_to_years(regimes::mttdl_latent_dominated(&params));
//! assert!(years > 6000.0);
//! ```
//!
//! Redundancy policies — replication and erasure coding, per group range —
//! enter through [`fleet::RedundancyPolicy`], the canonical public path:
//!
//! ```
//! use ltds::fleet::RedundancyPolicy;
//!
//! let ec = RedundancyPolicy::ErasureCoded { k: 2, n: 6 };
//! assert_eq!(ec.storage_overhead(), 3.0);
//! assert_eq!(RedundancyPolicy::Replicated { n: 3 }.storage_overhead(), 3.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ltds_archive as archive;
pub use ltds_core as core;
pub use ltds_devices as devices;
pub use ltds_fleet as fleet;
pub use ltds_replication as replication;
pub use ltds_scrub as scrub;
pub use ltds_sim as sim;
pub use ltds_stochastic as stochastic;
pub use ltds_telemetry as telemetry;
