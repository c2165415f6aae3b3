//! Audit and scrubbing strategies (§4.1, §6.2, §6.6).
//!
//! "The general solution to latent faults is to detect them as quickly as
//! possible." This crate turns that advice into concrete, comparable
//! strategies:
//!
//! * [`strategy`] — on-access-only, periodic, opportunistic and staggered
//!   scrubbing, each reporting the mean detection latency (`MDL`) it achieves
//!   and the read bandwidth it consumes;
//! * [`audit`] — the checksum-audit engine used operationally by the archive
//!   substrate (`ltds-archive`);
//! * [`voting`] — inter-replica comparison (LOCKSS-style majority voting) as
//!   an alternative to checksum auditing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod strategy;
pub mod voting;

pub use audit::{AuditOutcome, ChecksumAuditor};
pub use strategy::{ScrubPolicy, ScrubStrategy};
pub use voting::{VoteOutcome, VotingAuditor};
