//! Stochastic substrate for the `ltds` long-term storage reliability toolkit.
//!
//! This crate provides the probability machinery the simulators draw from:
//!
//! * [`rng::SimRng`] — the seeded xoshiro256++ generator with cheap
//!   sub-stream forking for parallel Monte-Carlo trials; every pinned
//!   digest and byte-identical stream in the workspace rests on its bits.
//! * [`distribution`] — the exponential fault law (inverse CDF, truncated
//!   to a horizon, or through the ziggurat), the pre-resolved fault race
//!   and its importance-tilted twin, and binomial thinning.
//! * [`estimators`] — streaming moments (Welford), confidence intervals and
//!   proportion estimates used to report Monte-Carlo results.
//! * [`parallelism`] — contiguous trial ranges on scoped threads, folded in
//!   range order.
//!
//! The paper's analytic model (Baker et al., EuroSys 2006) assumes
//! memoryless (exponential) fault processes, and every simulator in the
//! workspace draws exactly that law.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distribution;
pub mod estimators;
pub mod parallelism;
pub mod rng;
mod ziggurat;

pub use distribution::{
    BiasedFaultRace, Binomial, BinomialPositions, DrawDiscipline, Exponential, FaultRace,
    TruncatedExponential,
};
pub use estimators::{ConfidenceInterval, ProportionEstimate, StreamingStats};
pub use parallelism::{available_threads, parallel_ranges};
pub use rng::SimRng;

/// The generator contract the simulators rely on, seen through the crate
/// root: one seed gives one stream, uniforms lie in `[0, 1)`, and `index`
/// stays inside and reaches every value of its range.
#[cfg(test)]
mod tests {
    use super::SimRng;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SimRng::seed_from(42);
        let mut b = SimRng::seed_from(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SimRng::seed_from(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn f64_standard_in_unit_interval() {
        let mut rng = SimRng::seed_from(1);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let u = rng.uniform01();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn gen_range_bounds() {
        let mut rng = SimRng::seed_from(2);
        for _ in 0..10_000 {
            let v = rng.index(7);
            assert!(v < 7);
            // An affine map of the 53-bit uniform stays half-open.
            let f = -1.0 + 2.0 * rng.uniform01();
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_range_covers_all_values() {
        let mut rng = SimRng::seed_from(3);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[rng.index(5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
