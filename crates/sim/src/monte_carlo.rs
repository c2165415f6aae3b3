//! Monte-Carlo estimation of MTTDL and mission loss probabilities.
//!
//! One driver serves every [`RareEventStrategy`]: root trial indices are
//! split into contiguous ascending ranges, one per worker thread
//! ([`parallel_ranges`]), every root draws from its own RNG sub-stream
//! (`master.fork(index)`), and the workers' results are folded in
//! root-index order. The estimate for a given `(seed, trials)` pair is
//! therefore bit-identical for any thread count.

use crate::config::{RareEventStrategy, SimConfig};
use crate::rare::{RareRunner, WeightedOutcome};
use crate::trial::{TrialRunner, TrialScratch};
use ltds_stochastic::{
    parallel_ranges, ConfidenceInterval, ProportionEstimate, SimRng, StreamingStats,
};
use serde::{Deserialize, Serialize};

/// Result of a Monte-Carlo run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MttdlEstimate {
    /// Number of trials (leaf paths, for accelerated strategies) that ended
    /// in data loss.
    pub completed_trials: u64,
    /// Number of trials (leaf paths) censored at the time cap.
    pub censored_trials: u64,
    /// Mean time to data loss with a 95 % confidence interval (hours).
    /// Censored trials are excluded from the mean, making it slightly
    /// optimistic if censoring is common; [`MttdlEstimate::censoring_fraction`]
    /// reports how much that matters. Under an accelerated strategy this is
    /// the likelihood-ratio-weighted (self-normalised) mean, with the
    /// standard error scaled by the weights' effective sample size.
    pub mttdl_hours: ConfidenceInterval,
    /// Mean number of faults processed per root trial.
    pub mean_faults_per_trial: f64,
    /// Mean number of repairs completed per root trial.
    pub mean_repairs_per_trial: f64,
    /// The rare-event strategy these numbers were produced under.
    pub strategy: RareEventStrategy,
    /// Number of independent root trials (equals `completed + censored` for
    /// vanilla runs; splitting roots can produce many leaves each).
    pub root_trials: u64,
    /// Effective sample size of the loss observations:
    /// `(Σw)² / Σw²` over the loss weights. Equals `completed_trials` for
    /// vanilla runs; a value far below `completed_trials` means a few heavy
    /// weights dominate and the tilt is too aggressive.
    pub effective_sample_size: f64,
    /// Estimated variance-reduction factor for the horizon loss
    /// probability: Var(vanilla indicator) / Var(weighted per-root loss
    /// mass). `None` for vanilla runs or when either variance is
    /// degenerate. Values ≫ 1 mean the strategy needs that many times
    /// fewer root trials than vanilla for the same CI width.
    pub variance_ratio_vs_vanilla: Option<f64>,
    /// Loss times of every completed trial (leaf), in hours (used for
    /// empirical mission-probability estimates). Sorted ascending.
    loss_times: Vec<f64>,
    /// Likelihood-ratio weight of each loss, parallel to `loss_times`.
    /// Empty for vanilla runs (all weights are 1).
    loss_weights: Vec<f64>,
    /// Root-trial index of each loss, parallel to `loss_times`; groups
    /// splitting leaves for per-root variance. Empty for vanilla runs.
    loss_roots: Vec<u64>,
}

impl MttdlEstimate {
    /// Fraction of trials that were censored at the time cap.
    pub fn censoring_fraction(&self) -> f64 {
        let total = self.completed_trials + self.censored_trials;
        if total == 0 {
            0.0
        } else {
            self.censored_trials as f64 / total as f64
        }
    }

    /// MTTDL point estimate in years.
    pub fn mttdl_years(&self) -> f64 {
        ltds_core::units::hours_to_years(self.mttdl_hours.estimate)
    }

    /// Empirical probability that data is lost within `mission_hours`.
    /// Censored trials count as surviving, which is correct as long as the
    /// cap exceeds the mission length.
    ///
    /// Vanilla runs report a Wilson 95 % interval over the trial count.
    /// Accelerated runs report the likelihood-ratio-weighted estimate
    /// `(1/N) Σᵢ zᵢ` — `zᵢ` the total loss weight under root trial `i` —
    /// with a normal interval from the per-root sample variance (the
    /// correct scale: splitting leaves under one root are dependent).
    pub fn loss_probability_by(&self, mission_hours: f64) -> ConfidenceInterval {
        let cut = self.loss_times.partition_point(|&t| t <= mission_hours);
        if matches!(self.strategy, RareEventStrategy::Vanilla) {
            let mut p = ProportionEstimate::new();
            let total = self.completed_trials + self.censored_trials;
            p.record(cut as u64, total);
            return p.confidence_interval(0.95);
        }
        let n = self.root_trials as f64;
        // Group the qualifying loss weights by root trial. Sorting (rather
        // than hashing) keeps the accumulation order — and hence the
        // floating-point result — deterministic.
        let mut pairs: Vec<(u64, f64)> =
            (0..cut).map(|i| (self.loss_roots[i], self.loss_weights[i])).collect();
        pairs.sort_by_key(|&(root, _)| root);
        let mut sum_z = 0.0;
        let mut sum_z2 = 0.0;
        let mut i = 0;
        while i < pairs.len() {
            let root = pairs[i].0;
            let mut z = 0.0;
            while i < pairs.len() && pairs[i].0 == root {
                z += pairs[i].1;
                i += 1;
            }
            sum_z += z;
            sum_z2 += z * z;
        }
        let p = (sum_z / n).clamp(0.0, 1.0);
        let variance =
            if self.root_trials > 1 { ((sum_z2 - n * p * p) / (n - 1.0)).max(0.0) } else { 0.0 };
        let ci = ConfidenceInterval::around(p, (variance / n).sqrt(), 0.95);
        ConfidenceInterval {
            estimate: p,
            lower: ci.lower.max(0.0),
            upper: ci.upper.min(1.0),
            confidence: ci.confidence,
        }
    }
}

/// Builder/driver for a Monte-Carlo run.
#[derive(Debug, Clone, Copy)]
pub struct MonteCarlo {
    config: SimConfig,
    trials: u64,
    seed: u64,
    threads: usize,
}

impl MonteCarlo {
    /// Creates a driver with defaults: 10 000 trials, seed 0, threads = CPUs
    /// (resolved once per process and cached, so constructing a driver per
    /// sweep grid point costs no syscalls).
    pub fn new(config: SimConfig) -> Self {
        Self { config, trials: 10_000, seed: 0, threads: ltds_stochastic::available_threads() }
    }

    /// Sets the number of trials.
    pub fn trials(mut self, trials: u64) -> Self {
        assert!(trials > 0, "at least one trial is required");
        self.trials = trials;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of worker threads. Changes wall-clock time only —
    /// never results.
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "at least one thread is required");
        self.threads = threads;
        self
    }

    /// Runs the trials and collects the estimate.
    ///
    /// Dispatches on [`SimConfig::strategy`]: `Vanilla` runs the historical
    /// trial stream, folded into an unweighted mean (bit-identical to every
    /// prior release); `ImportanceSampling` and `Splitting` run the
    /// weighted rare-event roots. All three return an unbiased
    /// [`MttdlEstimate`].
    pub fn run(&self) -> MttdlEstimate {
        match self.config.strategy {
            RareEventStrategy::Vanilla => {
                let runner = TrialRunner::new(self.config);
                self.vanilla_estimate(self.tally(|index, rng, scratch, share| {
                    let outcome = runner.run_with(rng, scratch);
                    share.record(index, WeightedOutcome { outcome, weight: 1.0 });
                }))
            }
            _ => {
                let runner = RareRunner::new(self.config);
                self.weighted_estimate(self.tally(|index, rng, scratch, share| {
                    runner.run_root(rng, scratch, |leaf| share.record(index, leaf));
                }))
            }
        }
    }

    /// Runs every root trial through `root` — which records the root's
    /// leaves into the worker's tally — on the worker threads, and
    /// concatenates the workers' tallies in root order.
    fn tally(
        &self,
        root: impl Fn(u64, &mut SimRng, &mut TrialScratch, &mut Tally) + Sync,
    ) -> Tally {
        let master = SimRng::seed_from(self.seed);
        let shares = parallel_ranges(self.trials as usize, self.threads, |range| {
            let mut share = Tally::default();
            // One scratch per worker: the per-trial loop is allocation-free.
            let mut scratch = TrialScratch::new();
            for index in range {
                let index = index as u64;
                root(index, &mut master.fork(index), &mut scratch, &mut share);
            }
            share
        });
        let mut shares = shares.into_iter();
        let mut total = shares.next().expect("at least one range");
        for share in shares {
            total.losses.extend(share.losses);
            total.censored += share.censored;
            total.faults += share.faults;
            total.repairs += share.repairs;
        }
        total
    }

    /// The unweighted estimate: loss times folded into one Welford
    /// accumulator in trial order.
    fn vanilla_estimate(&self, tally: Tally) -> MttdlEstimate {
        let mut stats = StreamingStats::new();
        let mut loss_times: Vec<f64> = tally.losses.iter().map(|&(_, t, _)| t).collect();
        for &t in &loss_times {
            stats.push(t);
        }
        loss_times.sort_by(|a, b| a.partial_cmp(b).expect("loss times are finite"));
        let total = self.trials as f64;
        MttdlEstimate {
            completed_trials: stats.count(),
            censored_trials: tally.censored,
            mttdl_hours: stats.confidence_interval(0.95),
            mean_faults_per_trial: tally.faults as f64 / total,
            mean_repairs_per_trial: tally.repairs as f64 / total,
            strategy: RareEventStrategy::Vanilla,
            root_trials: self.trials,
            effective_sample_size: stats.count() as f64,
            variance_ratio_vs_vanilla: None,
            loss_times,
            loss_weights: Vec::new(),
            loss_roots: Vec::new(),
        }
    }

    /// The self-normalised likelihood-ratio estimate of an accelerated
    /// run, with per-root loss mass for the variance-vs-vanilla diagnostic.
    fn weighted_estimate(&self, tally: Tally) -> MttdlEstimate {
        let mut records = tally.losses;

        // Per-root loss mass z_i for the variance-vs-vanilla diagnostic;
        // records arrive grouped by ascending root, so one linear scan in
        // deterministic order suffices.
        let n = self.trials as f64;
        let mut sum_z = 0.0;
        let mut sum_z2 = 0.0;
        let mut i = 0;
        while i < records.len() {
            let root = records[i].0;
            let mut z = 0.0;
            while i < records.len() && records[i].0 == root {
                z += records[i].2;
                i += 1;
            }
            sum_z += z;
            sum_z2 += z * z;
        }
        let p_hat = sum_z / n;
        let var_z =
            if self.trials > 1 { ((sum_z2 - n * p_hat * p_hat) / (n - 1.0)).max(0.0) } else { 0.0 };
        let variance_ratio_vs_vanilla = if p_hat > 0.0 && p_hat < 1.0 && var_z > 0.0 {
            Some(p_hat * (1.0 - p_hat) / var_z)
        } else {
            None
        };

        records.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("loss times are finite"));
        let loss_times: Vec<f64> = records.iter().map(|r| r.1).collect();
        let loss_weights: Vec<f64> = records.iter().map(|r| r.2).collect();
        let loss_roots: Vec<u64> = records.iter().map(|r| r.0).collect();

        // Self-normalised weighted MTTDL: mean Σwt/Σw, with the standard
        // error scaled by the weights' effective sample size.
        let sum_w: f64 = loss_weights.iter().sum();
        let sum_w2: f64 = loss_weights.iter().map(|w| w * w).sum();
        let effective_sample_size = if sum_w2 > 0.0 { sum_w * sum_w / sum_w2 } else { 0.0 };
        let mttdl_hours = if sum_w > 0.0 {
            let mean: f64 =
                loss_times.iter().zip(&loss_weights).map(|(t, w)| w * t).sum::<f64>() / sum_w;
            let var_w: f64 = loss_times
                .iter()
                .zip(&loss_weights)
                .map(|(t, w)| w * (t - mean) * (t - mean))
                .sum::<f64>()
                / sum_w;
            let std_error = if effective_sample_size > 0.0 {
                (var_w / effective_sample_size).sqrt()
            } else {
                0.0
            };
            ConfidenceInterval::around(mean, std_error, 0.95)
        } else {
            ConfidenceInterval::around(0.0, 0.0, 0.95)
        };

        MttdlEstimate {
            completed_trials: loss_times.len() as u64,
            censored_trials: tally.censored,
            mttdl_hours,
            mean_faults_per_trial: tally.faults as f64 / n,
            mean_repairs_per_trial: tally.repairs as f64 / n,
            strategy: self.config.strategy,
            root_trials: self.trials,
            effective_sample_size,
            variance_ratio_vs_vanilla,
            loss_times,
            loss_weights,
            loss_roots,
        }
    }
}

/// Loss records and counters of a run of root trials, in root order.
#[derive(Default)]
struct Tally {
    /// `(root index, loss time, weight)` per loss leaf; roots ascend and a
    /// root's leaves stay contiguous.
    losses: Vec<(u64, f64, f64)>,
    censored: u64,
    faults: u64,
    repairs: u64,
}

impl Tally {
    /// Records one leaf of root trial `root`.
    fn record(&mut self, root: u64, leaf: WeightedOutcome) {
        self.faults += leaf.outcome.faults;
        self.repairs += leaf.outcome.repairs;
        match leaf.outcome.loss_time_hours {
            Some(t) => self.losses.push((root, t, leaf.weight)),
            None => self.censored += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> SimConfig {
        SimConfig::mirrored_disks(1000.0, 5000.0, 10.0, 10.0, Some(100.0), 1.0).unwrap()
    }

    #[test]
    fn estimate_has_reasonable_shape() {
        let est = MonteCarlo::new(fast_config()).trials(2000).seed(1).run();
        assert_eq!(est.completed_trials + est.censored_trials, 2000);
        assert_eq!(est.censored_trials, 0);
        assert!(est.mttdl_hours.estimate > 0.0);
        assert!(est.mttdl_hours.lower < est.mttdl_hours.upper);
        assert!(est.mean_faults_per_trial >= 2.0);
        assert!(est.mean_repairs_per_trial >= 0.0);
        assert!(est.mttdl_years() > 0.0);
    }

    /// Asserts two estimates are bit-identical in every reported figure.
    fn assert_same_bits(a: &MttdlEstimate, b: &MttdlEstimate, what: &str) {
        assert_eq!(a.completed_trials, b.completed_trials, "{what}");
        assert_eq!(a.censored_trials, b.censored_trials, "{what}");
        for (x, y) in [
            (a.mttdl_hours.estimate, b.mttdl_hours.estimate),
            (a.mttdl_hours.lower, b.mttdl_hours.lower),
            (a.mttdl_hours.upper, b.mttdl_hours.upper),
            (a.effective_sample_size, b.effective_sample_size),
        ] {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}");
        }
        for mission in [500.0, 5_000.0, 20_000.0] {
            let (p, q) = (a.loss_probability_by(mission), b.loss_probability_by(mission));
            for (x, y) in [(p.estimate, q.estimate), (p.lower, q.lower), (p.upper, q.upper)] {
                assert_eq!(x.to_bits(), y.to_bits(), "{what}, mission {mission}");
            }
        }
    }

    #[test]
    fn deterministic_given_seed_regardless_of_threads() {
        let a = MonteCarlo::new(fast_config()).trials(500).seed(9).threads(1).run();
        for threads in [2, 3, 8] {
            let b = MonteCarlo::new(fast_config()).trials(500).seed(9).threads(threads).run();
            assert_same_bits(&a, &b, &format!("{threads} threads"));
        }
        let c = MonteCarlo::new(fast_config()).trials(500).seed(10).threads(4).run();
        assert_ne!(a.mttdl_hours.estimate, c.mttdl_hours.estimate);
    }

    #[test]
    fn confidence_narrows_with_more_trials() {
        let small = MonteCarlo::new(fast_config()).trials(300).seed(2).run();
        let large = MonteCarlo::new(fast_config()).trials(4000).seed(2).run();
        assert!(large.mttdl_hours.relative_half_width() < small.mttdl_hours.relative_half_width());
    }

    #[test]
    fn loss_probability_is_monotone_in_mission_length() {
        let est = MonteCarlo::new(fast_config()).trials(2000).seed(3).run();
        let p_short = est.loss_probability_by(est.mttdl_hours.estimate * 0.1).estimate;
        let p_long = est.loss_probability_by(est.mttdl_hours.estimate * 3.0).estimate;
        assert!(p_short < p_long);
        assert!(p_long > 0.9);
        // Mission of length MTTDL should lose data with probability ~1 - 1/e.
        let p_mttdl = est.loss_probability_by(est.mttdl_hours.estimate).estimate;
        assert!((p_mttdl - 0.632).abs() < 0.06, "p at MTTDL {p_mttdl}");
    }

    #[test]
    fn vanilla_estimate_carries_trivial_rare_event_metadata() {
        let est = MonteCarlo::new(fast_config()).trials(500).seed(6).run();
        assert_eq!(est.strategy, RareEventStrategy::Vanilla);
        assert_eq!(est.root_trials, 500);
        assert_eq!(est.effective_sample_size, est.completed_trials as f64);
        assert_eq!(est.variance_ratio_vs_vanilla, None);
    }

    #[test]
    fn importance_sampling_agrees_with_vanilla_on_a_common_config() {
        // Short mission horizon — the regime importance sampling is built
        // for: loss paths are a handful of draws, so weights stay tame.
        // The acid test against the exact analytic MTTDL lives in
        // tests/rare_event.rs.
        let config = fast_config().with_max_hours(3000.0);
        let vanilla = MonteCarlo::new(config).trials(4000).seed(11).run();
        let tilted = MonteCarlo::new(
            config.with_strategy(RareEventStrategy::ImportanceSampling { tilt: 2.0 }),
        )
        .trials(4000)
        .seed(11)
        .run();
        assert_eq!(tilted.strategy, RareEventStrategy::ImportanceSampling { tilt: 2.0 });
        assert_eq!(tilted.root_trials, 4000);
        assert!(
            tilted.effective_sample_size > 30.0,
            "ESS {} too degenerate to trust",
            tilted.effective_sample_size
        );
        let pv = vanilla.loss_probability_by(3000.0);
        let pt = tilted.loss_probability_by(3000.0);
        assert!(
            (pv.estimate - pt.estimate).abs() < 3.0 * (pv.half_width() + pt.half_width()),
            "p(mission): vanilla {} ± {} vs IS {} ± {}",
            pv.estimate,
            pv.half_width(),
            pt.estimate,
            pt.half_width()
        );
        assert!(pt.lower >= 0.0 && pt.upper <= 1.0);
    }

    #[test]
    fn rare_estimates_are_thread_count_invariant() {
        for strategy in [
            RareEventStrategy::ImportanceSampling { tilt: 2.0 },
            RareEventStrategy::Splitting { levels: 1, offspring: 4 },
        ] {
            let config = fast_config().with_max_hours(50_000.0).with_strategy(strategy);
            let a = MonteCarlo::new(config).trials(400).seed(21).threads(1).run();
            for threads in [2, 3, 8] {
                let b = MonteCarlo::new(config).trials(400).seed(21).threads(threads).run();
                assert_same_bits(&a, &b, &format!("{strategy:?}, {threads} threads"));
                assert_eq!(
                    a.variance_ratio_vs_vanilla.map(f64::to_bits),
                    b.variance_ratio_vs_vanilla.map(f64::to_bits),
                    "{strategy:?}, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn censoring_reported() {
        let config = SimConfig::mirrored_disks(1.0e9, 1.0e9, 0.01, 0.01, Some(10.0), 1.0)
            .unwrap()
            .with_max_hours(100.0);
        let est = MonteCarlo::new(config).trials(50).seed(4).run();
        assert_eq!(est.censored_trials, 50);
        assert_eq!(est.censoring_fraction(), 1.0);
        assert_eq!(est.loss_probability_by(50.0).estimate, 0.0);
    }
}
