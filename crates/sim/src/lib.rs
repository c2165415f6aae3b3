//! Discrete-event Monte-Carlo simulator for replicated long-term storage.
//!
//! The analytic model of `ltds-core` rests on several approximations
//! (linearised window probabilities, exactly-overlapping vulnerability
//! windows, a single multiplicative correlation factor). This crate provides
//! an independent check: it simulates the underlying stochastic processes —
//! per-replica visible and latent fault arrivals, scrub-driven detection,
//! repair, and correlation modelled as rate acceleration while any fault is
//! outstanding — and estimates the mean time to data loss and mission loss
//! probabilities directly, with confidence intervals.
//!
//! # Structure
//!
//! * [`config::SimConfig`] — the system being simulated (replica count, fault
//!   and repair parameters, scrub schedule, correlation, loss threshold);
//! * [`trial`] — one trial: run the system forward until data loss;
//! * [`monte_carlo`] — many trials across threads, with estimators;
//! * [`sweep`] — the grid point every campaign sweep streams, and the
//!   request its cache identity is digested from;
//! * [`cache`] — content-addressed memoisation of sweep points (and, via
//!   `ltds-fleet`, per-shard fleet outcomes) so refining a grid reuses
//!   every point already simulated — persistable to a directory of
//!   checksummed JSON-lines segments, so the reuse survives restarts;
//! * [`campaign`] — parameter sweeps and fleet scenarios as one spec,
//!   executed by [`CampaignDriver`]'s work-stealing worker pool with
//!   in-order incremental report streaming (a one-sweep campaign is how a
//!   single sweep runs);
//! * [`service`] — the fault-tolerant form of the campaign driver: a
//!   lease-based state machine dispatching units to crash-prone workers
//!   (plus a deterministic in-process chaos harness) while keeping the
//!   streamed report byte-identical;
//! * [`net`] — the service's transport: a long-running multi-tenant TCP
//!   campaign server with reconnect-safe workers and cursor-resumable
//!   report subscribers;
//! * [`validate`] — side-by-side comparison with the closed-form model.
//!
//! # Example
//!
//! ```
//! use ltds_sim::config::SimConfig;
//! use ltds_sim::monte_carlo::MonteCarlo;
//!
//! // A deliberately fragile mirrored pair so the example runs fast.
//! let config = SimConfig::mirrored_disks(1000.0, 5000.0, 10.0, 10.0, Some(200.0), 1.0).unwrap();
//! let estimate = MonteCarlo::new(config).trials(2000).seed(7).run();
//! assert!(estimate.mttdl_hours.estimate > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod campaign;
pub mod config;
pub mod monte_carlo;
pub mod net;
pub mod rare;
pub mod replica;
pub mod service;
pub mod sweep;
pub mod trial;
pub mod validate;

pub use cache::{CacheKey, CompactStats, ConfigDigest, EvictStats, LoadStats, SweepCache};
pub use campaign::{
    Campaign, CampaignDriver, CampaignSummary, JsonlSink, MemorySink, ReportSink, Scenario,
    StreamRecord, SweepSpec,
};
pub use config::{RareEventStrategy, RedundancyPolicy, SimConfig};
pub use ltds_stochastic::DrawDiscipline;
pub use monte_carlo::{MonteCarlo, MttdlEstimate};
pub use net::{
    run_tcp_worker, serve_tcp, submit_tcp, BackoffPolicy, TcpServerConfig, TcpServerSummary,
    TcpSubmitConfig, TcpWorkerConfig,
};
pub use service::{
    CampaignService, ChaosScript, ServerMsg, ServiceConfig, ServiceHarness, ServiceSummary,
    WorkerMsg,
};
pub use trial::{TrialOutcome, TrialRunner};
pub use validate::{validate_against_model, ValidationReport};
