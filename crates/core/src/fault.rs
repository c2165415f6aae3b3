//! Fault classification: visible vs latent, and double-fault combinations.
//!
//! The paper's Figure 1 distinguishes *visible* faults (detected as soon as
//! they occur, e.g. a whole-disk or controller failure) from *latent* faults
//! (detected only when the affected data is audited or accessed, e.g. bit
//! rot, misdirected writes, stale formats). Figure 2 enumerates the four
//! first/second fault combinations that can produce a double-fault data loss
//! on mirrored data.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The two fault classes of the model (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultClass {
    /// Detected immediately when it occurs (negligible detection delay).
    Visible,
    /// Occurs silently; only detected by audit/scrub or on access, after a
    /// mean detection delay `MDL`.
    Latent,
}

impl FaultClass {
    /// Human-readable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::Visible => "visible",
            FaultClass::Latent => "latent",
        }
    }

    /// Representative causes from the paper (§5.1).
    pub fn example_causes(self) -> &'static [&'static str] {
        match self {
            FaultClass::Visible => &["whole-disk failure", "controller failure", "site outage"],
            FaultClass::Latent => &[
                "bit rot",
                "misdirected write",
                "unreadable sector",
                "data stored in an obsolete format",
                "silent corruption from attack",
            ],
        }
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A first/second fault combination leading to double-fault data loss on
/// mirrored data (the paper's Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DoubleFault {
    /// Class of the fault that opens the window of vulnerability.
    pub first: FaultClass,
    /// Class of the fault that strikes the surviving copy within the window.
    pub second: FaultClass,
}

impl DoubleFault {
    /// Visible fault followed by a visible fault.
    pub const VISIBLE_THEN_VISIBLE: DoubleFault =
        DoubleFault { first: FaultClass::Visible, second: FaultClass::Visible };
    /// Visible fault followed by a latent fault.
    pub const VISIBLE_THEN_LATENT: DoubleFault =
        DoubleFault { first: FaultClass::Visible, second: FaultClass::Latent };
    /// Latent fault followed by a visible fault.
    pub const LATENT_THEN_VISIBLE: DoubleFault =
        DoubleFault { first: FaultClass::Latent, second: FaultClass::Visible };
    /// Latent fault followed by a latent fault.
    pub const LATENT_THEN_LATENT: DoubleFault =
        DoubleFault { first: FaultClass::Latent, second: FaultClass::Latent };

    /// All four combinations of Figure 2, in row-major order
    /// (first fault varies slowest).
    pub const ALL: [DoubleFault; 4] = [
        DoubleFault::VISIBLE_THEN_VISIBLE,
        DoubleFault::VISIBLE_THEN_LATENT,
        DoubleFault::LATENT_THEN_VISIBLE,
        DoubleFault::LATENT_THEN_LATENT,
    ];

    /// Short identifier such as `"V->L"` used in tables.
    pub fn code(self) -> &'static str {
        match (self.first, self.second) {
            (FaultClass::Visible, FaultClass::Visible) => "V->V",
            (FaultClass::Visible, FaultClass::Latent) => "V->L",
            (FaultClass::Latent, FaultClass::Visible) => "L->V",
            (FaultClass::Latent, FaultClass::Latent) => "L->L",
        }
    }

    /// Whether the window of vulnerability opened by the first fault includes
    /// the latent detection delay `MDL` (true when the first fault is latent).
    pub fn window_includes_detection(self) -> bool {
        self.first == FaultClass::Latent
    }
}

impl fmt::Display for DoubleFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_causes() {
        assert_eq!(FaultClass::Visible.label(), "visible");
        assert_eq!(FaultClass::Latent.label(), "latent");
        assert!(FaultClass::Latent.example_causes().contains(&"bit rot"));
        assert!(!FaultClass::Visible.example_causes().is_empty());
        assert_eq!(format!("{}", FaultClass::Visible), "visible");
    }

    #[test]
    fn all_four_double_faults_are_distinct() {
        let mut codes: Vec<&str> = DoubleFault::ALL.iter().map(|d| d.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), 4);
    }

    #[test]
    fn window_includes_detection_only_after_latent_first() {
        assert!(!DoubleFault::VISIBLE_THEN_VISIBLE.window_includes_detection());
        assert!(!DoubleFault::VISIBLE_THEN_LATENT.window_includes_detection());
        assert!(DoubleFault::LATENT_THEN_VISIBLE.window_includes_detection());
        assert!(DoubleFault::LATENT_THEN_LATENT.window_includes_detection());
    }

    #[test]
    fn display_matches_code() {
        assert_eq!(format!("{}", DoubleFault::VISIBLE_THEN_LATENT), "V->L");
        assert_eq!(format!("{}", DoubleFault::LATENT_THEN_LATENT), "L->L");
    }
}
