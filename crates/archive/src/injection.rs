//! Fault injection against a live archive.
//!
//! Turns abstract per-node threat rates into concrete damage:
//! bit flips (media bit rot / tampering), object deletions (human error),
//! whole-store wipes (disk crash) and node outages (site/organizational
//! failure).

use crate::archive::Archive;
use ltds_core::units::Hours;
use ltds_stochastic::SimRng;

/// Per-threat injection rates, expressed as expected events per node per year.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchiveFaultInjector {
    /// Silent single-bit corruptions per node per year (bit rot).
    pub bit_flips_per_node_year: f64,
    /// Accidental object deletions per node per year (human error).
    pub deletions_per_node_year: f64,
    /// Whole-store losses per node per year (disk crash, ransomware).
    pub wipes_per_node_year: f64,
    /// Node outages per node per year (site or organizational failure).
    pub outages_per_node_year: f64,
}

impl ArchiveFaultInjector {
    /// A hostile decade: frequent bit rot and occasional bigger events.
    pub fn aggressive() -> Self {
        Self {
            bit_flips_per_node_year: 24.0,
            deletions_per_node_year: 4.0,
            wipes_per_node_year: 0.2,
            outages_per_node_year: 0.5,
        }
    }

    /// A calmer profile for long-horizon runs.
    pub fn moderate() -> Self {
        Self {
            bit_flips_per_node_year: 6.0,
            deletions_per_node_year: 1.0,
            wipes_per_node_year: 0.05,
            outages_per_node_year: 0.2,
        }
    }

    /// Injects the faults expected over `duration` into the archive.
    ///
    /// Event counts are drawn as Poisson deviates (sum of exponential
    /// arrivals within the window); targets (node, object, byte, bit) are
    /// chosen uniformly. Returns the number of injected events by category:
    /// `(bit_flips, deletions, wipes, outages)`.
    pub fn inject(
        &self,
        archive: &mut Archive,
        duration: Hours,
        rng: &mut SimRng,
    ) -> (u64, u64, u64, u64) {
        assert!(duration.is_valid() && duration.is_finite(), "duration must be finite");
        let years = duration.as_years();
        let nodes = archive.node_count();
        let mut flips = 0;
        let mut deletions = 0;
        let mut wipes = 0;
        let mut outages = 0;
        for node_index in 0..nodes {
            flips += self.inject_bit_flips(archive, node_index, years, rng);
            deletions += self.inject_deletions(archive, node_index, years, rng);
            wipes += self.inject_wipes(archive, node_index, years, rng);
            outages += self.inject_outages(archive, node_index, years, rng);
        }
        (flips, deletions, wipes, outages)
    }

    fn poisson_count(rate: f64, rng: &mut SimRng) -> u64 {
        // Sum exponential inter-arrival times until the unit interval is
        // exceeded (Knuth's method in time space); adequate for the modest
        // rates used here.
        if rate <= 0.0 {
            return 0;
        }
        let mut count = 0;
        let mut t = 0.0;
        loop {
            t += rng.exponential(1.0 / rate);
            if t > 1.0 {
                return count;
            }
            count += 1;
        }
    }

    fn inject_bit_flips(
        &self,
        archive: &mut Archive,
        node: usize,
        years: f64,
        rng: &mut SimRng,
    ) -> u64 {
        let n = Self::poisson_count(self.bit_flips_per_node_year * years, rng);
        let mut injected = 0;
        for _ in 0..n {
            let ids = archive.nodes()[node].store.object_ids();
            if ids.is_empty() {
                break;
            }
            let id = &ids[rng.index(ids.len())];
            let byte = rng.index(1 << 16);
            let bit = rng.index(8) as u8;
            if archive.nodes()[node].store.flip_bit(id, byte, bit) {
                injected += 1;
            }
        }
        injected
    }

    fn inject_deletions(
        &self,
        archive: &mut Archive,
        node: usize,
        years: f64,
        rng: &mut SimRng,
    ) -> u64 {
        let n = Self::poisson_count(self.deletions_per_node_year * years, rng);
        let mut injected = 0;
        for _ in 0..n {
            let ids = archive.nodes()[node].store.object_ids();
            if ids.is_empty() {
                break;
            }
            let id = ids[rng.index(ids.len())].clone();
            if archive.nodes()[node].store.delete(&id) {
                injected += 1;
            }
        }
        injected
    }

    fn inject_wipes(
        &self,
        archive: &mut Archive,
        node: usize,
        years: f64,
        rng: &mut SimRng,
    ) -> u64 {
        let n = Self::poisson_count(self.wipes_per_node_year * years, rng);
        if n > 0 {
            archive.nodes()[node].store.wipe();
        }
        n.min(1)
    }

    fn inject_outages(
        &self,
        archive: &mut Archive,
        node: usize,
        years: f64,
        rng: &mut SimRng,
    ) -> u64 {
        let n = Self::poisson_count(self.outages_per_node_year * years, rng);
        if n > 0 {
            // Model a transient outage: the node misses this window's scrubs
            // but comes back before the next injection window.
            archive.nodes_mut()[node].take_offline();
            archive.nodes_mut()[node].bring_online();
        }
        n.min(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::ArchiveConfig;

    fn seeded_archive() -> Archive {
        let mut a = Archive::new(ArchiveConfig::default_three_node());
        for i in 0..100 {
            a.ingest(&format!("obj-{i}"), vec![i as u8; 4096]).unwrap();
        }
        a
    }

    #[test]
    fn poisson_count_mean_is_rate() {
        let mut rng = SimRng::seed_from(1);
        let rate = 7.0;
        let n = 4000;
        let total: u64 = (0..n).map(|_| ArchiveFaultInjector::poisson_count(rate, &mut rng)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - rate).abs() < 0.3, "mean {mean}");
        assert_eq!(ArchiveFaultInjector::poisson_count(0.0, &mut rng), 0);
    }

    #[test]
    fn injection_damages_the_archive() {
        let mut archive = seeded_archive();
        let injector = ArchiveFaultInjector::aggressive();
        let mut rng = SimRng::seed_from(2);
        let (flips, deletions, _wipes, _outages) =
            injector.inject(&mut archive, Hours::from_years(2.0), &mut rng);
        assert!(flips > 0, "expected some bit flips over two aggressive years");
        assert!(deletions > 0, "expected some deletions over two aggressive years");
        assert!(archive.damage_census() > 0);
    }

    #[test]
    fn injection_is_reproducible() {
        let injector = ArchiveFaultInjector::moderate();
        let mut a = seeded_archive();
        let mut b = seeded_archive();
        let ra = injector.inject(&mut a, Hours::from_years(1.0), &mut SimRng::seed_from(3));
        let rb = injector.inject(&mut b, Hours::from_years(1.0), &mut SimRng::seed_from(3));
        assert_eq!(ra, rb);
        assert_eq!(a.damage_census(), b.damage_census());
    }

    #[test]
    fn scrubbing_repairs_injected_damage() {
        // Half a year of moderate faults over a 100-object collection: the
        // chance of the same object being hit on all three nodes between
        // scrubs is negligible, so a scrub pass should repair everything.
        let mut archive = seeded_archive();
        let injector = ArchiveFaultInjector::moderate();
        let mut rng = SimRng::seed_from(4);
        injector.inject(&mut archive, Hours::from_years(0.5), &mut rng);
        let before = archive.damage_census();
        assert!(before > 0, "expected some injected damage");
        archive.scrub_all();
        let after = archive.damage_census();
        assert!(after <= before);
        assert_eq!(after, 0, "independent per-node damage should all be repairable");
        assert_eq!(archive.lost_objects(), 0);
    }

    #[test]
    fn moderate_is_gentler_than_aggressive() {
        let m = ArchiveFaultInjector::moderate();
        let a = ArchiveFaultInjector::aggressive();
        assert!(m.bit_flips_per_node_year < a.bit_flips_per_node_year);
        assert!(m.wipes_per_node_year < a.wipes_per_node_year);
    }
}
