//! Fault classification: visible vs latent.
//!
//! The paper's Figure 1 distinguishes *visible* faults (detected as soon as
//! they occur, e.g. a whole-disk or controller failure) from *latent* faults
//! (detected only when the affected data is audited or accessed, e.g. bit
//! rot, misdirected writes, stale formats). The four first/second fault
//! combinations of its Figure 2 are the fields of
//! [`crate::wov::DoubleFaultProbabilities`].

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
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_causes() {
        assert_eq!(FaultClass::Visible.label(), "visible");
        assert_eq!(FaultClass::Latent.label(), "latent");
        assert_eq!(format!("{}", FaultClass::Visible), "visible");
    }
}
