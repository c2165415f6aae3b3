//! Expected irrecoverable bit errors over a drive's service life (§6.1).
//!
//! The paper's claim: "Even if the drives spend their 5 year life 99 % idle,
//! the Barracuda will suffer about 8 and the Cheetah about 6 irrecoverable
//! bit errors." The calculation is *bits transferred × UBER*, where the bits
//! transferred depend on the assumed duty cycle and transfer rate.
//!
//! Reproducing the paper's exact figures requires effective transfer rates of
//! about 63 MB/s (Barracuda) and 476 MB/s (Cheetah); the datasheet sustained
//! rates give the same *shape* (the enterprise drive's tenfold better UBER is
//! largely offset by the larger volume of data it moves) but different
//! absolute numbers. Both calibrations are provided and reported in
//! EXPERIMENTS.md.

use crate::drive::DriveSpec;
use ltds_core::units::HOURS_PER_YEAR;

/// Which transfer rate to assume when estimating bits moved over the service
/// life.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RateAssumption {
    /// Use the drive's sustained media rate (datasheet calibration).
    Sustained,
    /// Use the drive's interface burst rate.
    Interface,
    /// Use an explicit rate in bytes per second (e.g. the rates implied by
    /// the paper's printed figures).
    Explicit(f64),
}

/// Workload assumption for the bit-error estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceLifeWorkload {
    /// Service life in years (the paper uses 5).
    pub years: f64,
    /// Fraction of the time the drive is actively transferring data
    /// (the paper's "99 % idle" is a duty cycle of 0.01).
    pub duty_cycle: f64,
    /// Transfer-rate assumption.
    pub rate: RateAssumption,
}

impl ServiceLifeWorkload {
    /// The paper's workload: 5-year life, 99 % idle, at the given rate
    /// assumption.
    pub fn paper_99_percent_idle(rate: RateAssumption) -> Self {
        Self { years: 5.0, duty_cycle: 0.01, rate }
    }

    /// Total active transfer time in hours.
    pub fn active_hours(&self) -> f64 {
        assert!(self.years >= 0.0, "service life must be non-negative");
        assert!(
            (0.0..=1.0).contains(&self.duty_cycle),
            "duty cycle must be in [0, 1], got {}",
            self.duty_cycle
        );
        self.years * HOURS_PER_YEAR * self.duty_cycle
    }
}

/// Total bits transferred by `drive` under `workload`.
pub fn bits_transferred(drive: &DriveSpec, workload: &ServiceLifeWorkload) -> f64 {
    let rate_bytes_per_sec = match workload.rate {
        RateAssumption::Sustained => drive.sustained_bytes_per_sec,
        RateAssumption::Interface => drive.interface_bytes_per_sec,
        RateAssumption::Explicit(r) => {
            assert!(r > 0.0, "explicit rate must be positive");
            r
        }
    };
    workload.active_hours() * 3600.0 * rate_bytes_per_sec * 8.0
}

/// Expected number of irrecoverable bit errors for `drive` under `workload`:
/// bits transferred × UBER.
pub fn expected_bit_errors(drive: &DriveSpec, workload: &ServiceLifeWorkload) -> f64 {
    bits_transferred(drive, workload) * drive.uber
}

/// The effective transfer rates (bytes/second) that reproduce the paper's
/// printed figures of ~8 errors for the Barracuda and ~6 for the Cheetah at a
/// 1 % duty cycle over 5 years.
///
/// Returned as `(barracuda_rate, cheetah_rate)`. These are the "paper
/// calibration" used by experiment E1 alongside the datasheet calibration.
pub fn paper_implied_rates() -> (f64, f64) {
    // errors = rate * active_seconds * 8 * UBER  =>  rate = errors / (active_seconds * 8 * UBER).
    let active_seconds = 0.01 * 5.0 * HOURS_PER_YEAR * 3600.0;
    let barracuda = 8.0 / (active_seconds * 8.0 * 1e-14);
    let cheetah = 6.0 / (active_seconds * 8.0 * 1e-15);
    (barracuda, cheetah)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{barracuda_st3200822a, cheetah_15k4};

    #[test]
    fn active_hours_for_paper_workload() {
        let w = ServiceLifeWorkload::paper_99_percent_idle(RateAssumption::Sustained);
        // 1% of 5 years = 438 hours.
        assert!((w.active_hours() - 438.0).abs() < 1e-9);
    }

    #[test]
    fn paper_calibration_reproduces_8_and_6() {
        let (rate_b, rate_c) = paper_implied_rates();
        let barracuda = barracuda_st3200822a();
        let cheetah = cheetah_15k4();
        let wb = ServiceLifeWorkload::paper_99_percent_idle(RateAssumption::Explicit(rate_b));
        let wc = ServiceLifeWorkload::paper_99_percent_idle(RateAssumption::Explicit(rate_c));
        assert!((expected_bit_errors(&barracuda, &wb) - 8.0).abs() < 1e-9);
        assert!((expected_bit_errors(&cheetah, &wc) - 6.0).abs() < 1e-9);
        // The implied rates are plausible magnitudes (tens to hundreds of MB/s).
        assert!(rate_b > 40.0e6 && rate_b < 100.0e6, "barracuda rate {rate_b}");
        assert!(rate_c > 300.0e6 && rate_c < 700.0e6, "cheetah rate {rate_c}");
    }

    #[test]
    fn datasheet_calibration_preserves_the_shape() {
        // With identical workloads per byte of interface rate, the enterprise
        // drive still suffers the same order of magnitude of bit errors —
        // the paper's point that the UBER advantage is modest in practice.
        let barracuda = barracuda_st3200822a();
        let cheetah = cheetah_15k4();
        let w_iface = ServiceLifeWorkload::paper_99_percent_idle(RateAssumption::Interface);
        let eb = expected_bit_errors(&barracuda, &w_iface);
        let ec = expected_bit_errors(&cheetah, &w_iface);
        assert!(eb > 1.0, "consumer drive sees multiple bit errors, got {eb}");
        assert!(ec > 0.3, "enterprise drive still sees bit errors, got {ec}");
        assert!(ec < eb, "enterprise UBER advantage should show, {ec} vs {eb}");
        // Within roughly one order of magnitude of each other.
        assert!(eb / ec < 12.0);
    }

    #[test]
    fn bit_errors_scale_with_duty_cycle() {
        let cheetah = cheetah_15k4();
        let low =
            ServiceLifeWorkload { years: 5.0, duty_cycle: 0.01, rate: RateAssumption::Sustained };
        let high =
            ServiceLifeWorkload { years: 5.0, duty_cycle: 0.10, rate: RateAssumption::Sustained };
        let ratio = expected_bit_errors(&cheetah, &high) / expected_bit_errors(&cheetah, &low);
        assert!((ratio - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "duty cycle")]
    fn invalid_duty_cycle_panics() {
        let w =
            ServiceLifeWorkload { years: 5.0, duty_cycle: 1.5, rate: RateAssumption::Sustained };
        let _ = w.active_hours();
    }
}
