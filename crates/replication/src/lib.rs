//! The diversity-to-independence mapping (§6.5).
//!
//! The core model's Equation 12 treats replication abstractly (`r` copies,
//! one `α`). This crate maps the concrete diversity of a deployment —
//! hardware, software, geography, administration, third-party components,
//! organization — to that correlation factor.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod independence;

pub use independence::{DiversityDimension, DiversityProfile};
