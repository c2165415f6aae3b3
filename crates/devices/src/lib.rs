//! Storage device and media models for the `ltds` toolkit.
//!
//! §6.1 of the paper compares a consumer-grade Seagate Barracuda with an
//! enterprise-grade Cheetah and concludes that the 14× cost premium buys
//! surprisingly little reliability — roughly half the in-service fault
//! probability and about 3/4 the irrecoverable bit faults — so the money is
//! usually better spent on more, sufficiently independent, consumer-grade
//! replicas. §6.2–§6.4 compare on-line (disk) with off-line (tape) replicas.
//!
//! This crate provides the device catalogue, bit-error, cost and
//! media-handling models behind those comparisons:
//!
//! * [`drive`] / [`catalog`] — drive specifications, including the two
//!   drives the paper quotes (Barracuda ST3200822A, Cheetah 15K.4);
//! * [`bit_errors`] — expected irrecoverable bit errors over a service life;
//! * [`media`] — online vs offline media access/handling models;
//! * [`cost`] — acquisition and total-cost-of-ownership model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bit_errors;
pub mod catalog;
pub mod cost;
pub mod drive;
pub mod media;

pub use drive::{DriveClass, DriveSpec};
pub use media::{MediaAccessModel, MediaKind};
