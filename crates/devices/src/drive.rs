//! Drive specifications.

use ltds_core::units::{Hours, HOURS_PER_YEAR};

/// Market segment of a drive, which in the paper's argument determines its
/// price-reliability trade-off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DriveClass {
    /// Cheap, fairly fast, fairly reliable (e.g. ATA/SATA desktop drives).
    Consumer,
    /// Vastly more expensive, much faster, only a little more reliable
    /// (e.g. SCSI/FC/SAS drives).
    Enterprise,
}

/// A storage device specification, sufficient to derive the model parameters
/// the paper needs: visible-fault MTTF, repair time, irrecoverable bit error
/// expectations and cost.
#[derive(Debug, Clone, PartialEq)]
pub struct DriveSpec {
    /// Model name, e.g. `"Seagate Barracuda ST3200822A"`.
    pub name: String,
    /// Market segment.
    pub class: DriveClass,
    /// Formatted capacity in bytes.
    pub capacity_bytes: f64,
    /// Sustained media transfer rate in bytes per second.
    pub sustained_bytes_per_sec: f64,
    /// Interface burst rate in bytes per second.
    pub interface_bytes_per_sec: f64,
    /// Datasheet MTTF in hours, if quoted.
    pub mttf_hours: Option<f64>,
    /// Probability of an in-service fault over the quoted service life, if
    /// quoted (the paper uses 5-year figures).
    pub service_life_fault_probability: Option<f64>,
    /// Quoted service life in years.
    pub service_life_years: f64,
    /// Irrecoverable bit error rate (errors per bit read).
    pub uber: f64,
    /// Street price in USD (the paper quotes TigerDirect, June 2005).
    pub price_usd: f64,
}

impl DriveSpec {
    /// Price per gigabyte (decimal GB, as in the paper's $/GB figures).
    pub fn price_per_gb(&self) -> f64 {
        self.price_usd / (self.capacity_bytes / 1e9)
    }

    /// The visible-fault MTTF to use in the reliability model.
    ///
    /// Prefers the datasheet MTTF; otherwise derives one from the quoted
    /// service-life fault probability via the exponential model.
    pub fn mttf_visible(&self) -> Hours {
        if let Some(h) = self.mttf_hours {
            return Hours::new(h);
        }
        if let Some(p) = self.service_life_fault_probability {
            let life_hours = self.service_life_years * HOURS_PER_YEAR;
            return Hours::new(
                ltds_core::memoryless::service_life_probability_to_mttf(p, life_hours)
                    .expect("catalogue entries carry valid probabilities"),
            );
        }
        // A drive with no reliability data at all: assume a pessimistic
        // 100k-hour MTTF rather than panicking.
        Hours::new(1.0e5)
    }

    /// In-service fault probability over the drive's quoted service life.
    ///
    /// Uses the quoted figure if present; otherwise derives it from the MTTF.
    pub fn service_life_fault_prob(&self) -> f64 {
        if let Some(p) = self.service_life_fault_probability {
            return p;
        }
        let life_hours = self.service_life_years * HOURS_PER_YEAR;
        ltds_core::memoryless::probability_within(life_hours, self.mttf_visible().get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_drive() -> DriveSpec {
        DriveSpec {
            name: "Test Drive".to_string(),
            class: DriveClass::Consumer,
            capacity_bytes: 200.0e9,
            sustained_bytes_per_sec: 50.0e6,
            interface_bytes_per_sec: 100.0e6,
            mttf_hours: Some(1.0e6),
            service_life_fault_probability: Some(0.07),
            service_life_years: 5.0,
            uber: 1e-14,
            price_usd: 114.0,
        }
    }

    #[test]
    fn price_per_gb() {
        let d = sample_drive();
        assert!((d.price_per_gb() - 0.57).abs() < 1e-9);
    }

    #[test]
    fn mttf_prefers_datasheet_value() {
        let d = sample_drive();
        assert_eq!(d.mttf_visible().get(), 1.0e6);
        assert_eq!(d.service_life_fault_prob(), 0.07);
    }

    #[test]
    fn mttf_derived_from_service_life_when_missing() {
        let mut d = sample_drive();
        d.mttf_hours = None;
        let mttf = d.mttf_visible().get();
        // 7% over 5 years implies roughly 6e5 hours.
        assert!((mttf - 6.03e5).abs() / 6.03e5 < 0.02, "mttf {mttf}");
    }

    #[test]
    fn fault_probability_derived_from_mttf_when_missing() {
        let mut d = sample_drive();
        d.service_life_fault_probability = None;
        let p = d.service_life_fault_prob();
        // 5 years on a 1e6-hour MTTF is about 4.3%.
        assert!((p - 0.0429).abs() < 0.001, "p {p}");
    }

    #[test]
    fn pessimistic_default_when_no_reliability_data() {
        let mut d = sample_drive();
        d.mttf_hours = None;
        d.service_life_fault_probability = None;
        assert_eq!(d.mttf_visible().get(), 1.0e5);
    }
}
