//! Analytic reliability model for long-term replicated digital storage.
//!
//! This crate is a faithful, executable implementation of the reliability
//! model introduced in *"A Fresh Look at the Reliability of Long-term Digital
//! Storage"* (Baker, Shah, Rosenthal, Roussopoulos, Maniatis, Giuli, Bungale —
//! EuroSys 2006). The model extends the classic RAID mean-time-to-data-loss
//! (MTTDL) analysis with:
//!
//! * **latent faults** — faults (bit rot, unreadable sectors, stale formats,
//!   silent corruption from attack) that are only discovered by an explicit
//!   detection process such as scrubbing, characterised by a mean time to
//!   detection `MDL`;
//! * **correlated faults** — a multiplicative correlation factor `α ≤ 1` that
//!   shortens the mean time to a second fault once a first fault is
//!   outstanding.
//!
//! # Model parameters
//!
//! | Symbol | Meaning | Field |
//! |--------|---------|-------|
//! | `MV`   | mean time to a *visible* fault | [`ReliabilityParams::mttf_visible`] |
//! | `ML`   | mean time to a *latent* fault | [`ReliabilityParams::mttf_latent`] |
//! | `MRV`  | mean time to repair a visible fault | [`ReliabilityParams::repair_visible`] |
//! | `MRL`  | mean time to repair a latent fault (once detected) | [`ReliabilityParams::repair_latent`] |
//! | `MDL`  | mean time to *detect* a latent fault | [`ReliabilityParams::detect_latent`] |
//! | `α`    | correlation factor (1 = independent, smaller = more correlated) | [`ReliabilityParams::alpha`] |
//!
//! # Quick start
//!
//! ```
//! use ltds_core::{mission, presets, regimes};
//!
//! // The paper's §5.4 scenario 2: mirrored Cheetah drives, scrubbed 3x/year.
//! let params = presets::cheetah_mirror_scrubbed();
//! let mttdl_hours = regimes::mttdl_latent_dominated(&params);
//! let years = ltds_core::units::hours_to_years(mttdl_hours);
//! assert!((years - 6128.7).abs() / 6128.7 < 0.01);
//!
//! // Probability of losing the data within a 50-year mission.
//! let p = mission::probability_of_loss(mttdl_hours, ltds_core::units::years_to_hours(50.0));
//! assert!((p - 0.008).abs() < 0.002);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod correlation;
pub mod error;
pub mod failpoint;
pub mod fault;
pub mod hash;
pub mod memoryless;
pub mod mission;
pub mod mttdl;
pub mod params;
pub mod presets;
pub mod record;
pub mod regimes;
pub mod replication;
pub mod scrubbing;
pub mod strategies;
pub mod units;
pub mod wov;

pub use error::ModelError;
pub use fault::FaultClass;
pub use params::ReliabilityParams;
pub use regimes::OperatingRegime;
pub use units::Hours;
