//! Stochastic substrate for the `ltds` long-term storage reliability toolkit.
//!
//! This crate provides the probability machinery the rest of the workspace is
//! built on:
//!
//! * [`rng::SimRng`] — a seeded, reproducible random-number generator with
//!   cheap sub-stream forking for parallel Monte-Carlo trials.
//! * [`distribution`] — lifetime/repair-time distributions (exponential,
//!   Weibull, bathtub, deterministic, uniform, log-normal) behind a common
//!   [`distribution::Distribution`] trait with analytic means and CDFs.
//! * [`events`] — renewal/Poisson event-stream generation.
//! * [`estimators`] — streaming moments (Welford), confidence intervals,
//!   proportion estimates and histograms used to report Monte-Carlo results.
//!
//! The paper's analytic model (Baker et al., EuroSys 2006) assumes memoryless
//! (exponential) fault processes; the simulator uses this crate both to match
//! that assumption exactly and to relax it (e.g. Weibull "bathtub" device
//! lifetimes) when exploring beyond the closed forms.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distribution;
pub mod estimators;
pub mod events;
pub mod histogram;
pub mod parallelism;
pub mod rng;
mod ziggurat;

pub use distribution::{
    Bathtub, BiasedFaultRace, Binomial, BinomialPositions, Deterministic, Distribution,
    DrawDiscipline, Exponential, FaultRace, LogNormal, TruncatedExponential, Uniform, Weibull,
    ZigguratExp,
};
pub use estimators::{ConfidenceInterval, ProportionEstimate, StreamingStats, WeightedEstimator};
pub use events::{EventStream, RenewalProcess};
pub use histogram::Histogram;
pub use parallelism::{available_threads, parallel_ranges};
pub use rng::SimRng;
