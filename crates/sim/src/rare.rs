//! Rare-event accelerated trials: importance sampling and multilevel
//! splitting.
//!
//! Well-protected configurations censor nearly every vanilla trial, so the
//! loss-probability estimate is starved of loss observations. This module
//! runs the *same* stochastic system through the *same* event loop as
//! [`crate::trial::TrialRunner`] — identical state layout, event ordering
//! and repair pricing — but under a change of measure that concentrates
//! simulation effort on loss paths while keeping the estimator unbiased.
//! It only resolves the strategy, keeps the splitting clone stack and
//! assigns leaf weights:
//!
//! * **Importance sampling** runs the loop over a [`BiasedFaultRace`]
//!   whose rates are inflated by `tilt`, which accumulates the per-draw
//!   log-likelihood ratio. A path that ends in loss is counted with weight
//!   `exp(Σ llr)`, which exactly cancels the tilt in expectation. With
//!   `tilt = 1` the draw sequence is bit-identical to the vanilla runner.
//! * **Multilevel splitting** keeps the nominal dynamics (the nominal
//!   [`ltds_stochastic::FaultRace`]: a unit tilt would draw the same
//!   numbers and add only `0.0` increments) but multiplies promising
//!   paths: the first time a path climbs to one of the last `levels` fault
//!   counts below the loss threshold it is *replaced* by `offspring` clones
//!   at `1/offspring` of its weight, each redrawing the intact replicas'
//!   pending fault times from the split instant (exact by memorylessness —
//!   the same argument the α-resample in [`crate::trial`] relies on).
//!   Total weight is conserved: the leaf weights below one root always sum
//!   to 1.
//!
//! The initial path of a root trial consumes the root stream itself —
//! exactly the stream the vanilla runner would consume for that trial
//! index — and every split clone's stream comes from [`SimRng::fork`] of
//! the root stream, keyed by a spawn counter, so results are independent
//! of thread count and traversal order.

use crate::config::{RareEventStrategy, SimConfig};
use crate::trial::{Races, TrialOutcome, TrialRunner, TrialScratch};
use ltds_stochastic::{BiasedFaultRace, SimRng};

/// A trial outcome together with its likelihood-ratio (or splitting)
/// weight. Vanilla trials have weight exactly 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedOutcome {
    /// The outcome, in the same shape the vanilla runner produces.
    pub outcome: TrialOutcome,
    /// Importance weight: `exp(Σ llr) × ∏ 1/offspring` over the path's
    /// draws and splits. Unbiasedness: `E[weight · f(outcome)]` under the
    /// accelerated measure equals `E[f(outcome)]` under the nominal one.
    pub weight: f64,
}

/// A resolved accelerated strategy.
#[derive(Debug, Clone, Copy)]
enum Plan {
    /// Every fault race drawn at the tilted rates.
    Importance(Races<BiasedFaultRace>),
    /// Nominal draws; split at the last `levels` fault counts below the
    /// loss threshold (clamped to `loss_threshold − 1`).
    Splitting { levels: usize, offspring: u32 },
}

/// Runs accelerated trials for one configuration.
///
/// Construction resolves the strategy once: importance sampling prices both
/// correlation regimes through [`BiasedFaultRace`]s at the configured tilt;
/// splitting uses the nominal race and an arithmetic ladder of fault-count
/// thresholds ending just below the loss threshold.
#[derive(Debug, Clone)]
pub struct RareRunner {
    runner: TrialRunner,
    plan: Plan,
}

impl RareRunner {
    /// Creates a runner for a configuration whose
    /// [`SimConfig::strategy`] is `ImportanceSampling` or `Splitting`.
    ///
    /// # Panics
    /// If the strategy is `Vanilla` — callers dispatch that to the plain
    /// [`TrialRunner`] to preserve the historical random stream.
    pub fn new(config: SimConfig) -> Self {
        let plan = match config.strategy {
            RareEventStrategy::Vanilla => {
                panic!("RareRunner requires an accelerated strategy; Vanilla uses TrialRunner")
            }
            RareEventStrategy::ImportanceSampling { tilt } => {
                Plan::Importance(Races::new(&config, |mv, ml| {
                    BiasedFaultRace::new(mv, ml, tilt).with_draw(config.draw)
                }))
            }
            RareEventStrategy::Splitting { levels, offspring } => {
                let usable = config.loss_threshold().saturating_sub(1);
                Plan::Splitting {
                    levels: (levels as usize).min(usable),
                    offspring: offspring.max(1),
                }
            }
        };
        Self { runner: TrialRunner::new(config), plan }
    }

    /// The configuration being simulated.
    pub fn config(&self) -> &SimConfig {
        self.runner.config()
    }

    /// Number of leaf outcomes one root trial can produce (1 for importance
    /// sampling; up to `offspring^levels` for splitting).
    pub fn max_leaves(&self) -> u64 {
        match self.plan {
            Plan::Importance(_) => 1,
            Plan::Splitting { levels, offspring } => {
                u64::from(offspring).saturating_pow(levels as u32)
            }
        }
    }

    /// Runs one root trial, passing every leaf outcome to `leaf`.
    ///
    /// `root_rng` should be the Monte-Carlo master stream forked by the root
    /// trial index. The initial path consumes a copy of it (the exact
    /// stream the vanilla runner would get) and every split clone forks
    /// from it by spawn order, so the leaf set is a pure function of
    /// `(seed, root index)`. Importance-sampled roots run entirely in
    /// `scratch`, allocation-free once it has grown.
    ///
    /// Importance sampling produces exactly one leaf; splitting produces at
    /// most [`RareRunner::max_leaves`], and the leaf weights of one root sum
    /// to 1.
    pub fn run_root(
        &self,
        root_rng: &SimRng,
        scratch: &mut TrialScratch,
        mut leaf: impl FnMut(WeightedOutcome),
    ) {
        match self.plan {
            Plan::Importance(races) => {
                let outcome = self.runner.run_measured(&races, &mut root_rng.clone(), scratch);
                leaf(WeightedOutcome { outcome, weight: scratch.llr().exp() });
            }
            Plan::Splitting { levels, offspring } => {
                self.split_root(root_rng, levels, offspring, leaf)
            }
        }
    }

    /// The splitting clone stack below one root: each entry is a frozen
    /// path, its stream, the thresholds it has crossed and its weight.
    fn split_root(
        &self,
        root_rng: &SimRng,
        levels: usize,
        offspring: u32,
        mut leaf: impl FnMut(WeightedOutcome),
    ) {
        let races = self.runner.races();
        let loss_threshold = self.config().loss_threshold();
        let mut rng = root_rng.clone();
        let mut root = TrialScratch::new();
        self.runner.start(races, &mut rng, &mut root);
        let mut spawn = 1u64;
        let mut stack = vec![(root, rng, 0usize, 1.0f64)];
        while let Some((mut path, mut rng, level, weight)) = stack.pop() {
            let split_at =
                if level < levels { loss_threshold - levels + level } else { usize::MAX };
            match self.runner.advance(races, &mut rng, &mut path, split_at) {
                Some(outcome) => leaf(WeightedOutcome { outcome, weight }),
                None => {
                    let weight = weight / f64::from(offspring);
                    for _ in 0..offspring {
                        let mut clone = path.clone();
                        let mut rng = root_rng.fork(spawn);
                        spawn += 1;
                        clone.redraw_intact(races, &mut rng);
                        stack.push((clone, rng, level + 1, weight));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fragile(alpha: f64) -> SimConfig {
        SimConfig::mirrored_disks(1000.0, 5000.0, 10.0, 10.0, Some(100.0), alpha).unwrap()
    }

    #[test]
    fn unit_tilt_importance_reproduces_vanilla_bit_exactly() {
        for alpha in [1.0, 0.5] {
            let config =
                fragile(alpha).with_strategy(RareEventStrategy::ImportanceSampling { tilt: 1.0 });
            let rare = RareRunner::new(config);
            let vanilla = TrialRunner::new(config);
            let mut scratch = TrialScratch::new();
            for root in 0..40u64 {
                let root_rng = SimRng::seed_from(9000).fork(root);
                let mut leaves = Vec::new();
                rare.run_root(&root_rng, &mut scratch, |l| leaves.push(l));
                assert_eq!(leaves.len(), 1);
                // The accelerated path consumes the root stream itself, so
                // the vanilla comparison runs on an identical copy of it.
                let plain = vanilla.run_with(&mut root_rng.clone(), &mut scratch);
                assert_eq!(leaves[0].outcome, plain, "alpha {alpha} root {root}");
                assert_eq!(leaves[0].weight.to_bits(), 1.0f64.to_bits());
            }
        }
    }

    #[test]
    fn splitting_conserves_total_weight() {
        let config = fragile(0.5)
            .with_max_hours(2000.0)
            .with_strategy(RareEventStrategy::Splitting { levels: 1, offspring: 8 });
        let rare = RareRunner::new(config);
        let mut scratch = TrialScratch::new();
        let mut leaves = Vec::new();
        for root in 0..30u64 {
            leaves.clear();
            rare.run_root(&SimRng::seed_from(77).fork(root), &mut scratch, |l| leaves.push(l));
            assert!(!leaves.is_empty());
            assert!(leaves.len() <= rare.max_leaves() as usize);
            let total: f64 = leaves.iter().map(|l| l.weight).sum();
            assert!(
                (total - 1.0).abs() < 1e-12,
                "root {root}: leaf weights sum to {total}, want 1"
            );
        }
    }

    #[test]
    fn splitting_is_deterministic_per_root() {
        let config = fragile(1.0)
            .with_max_hours(5000.0)
            .with_strategy(RareEventStrategy::Splitting { levels: 1, offspring: 4 });
        let rare = RareRunner::new(config);
        let root_rng = SimRng::seed_from(123).fork(7);
        let mut scratch = TrialScratch::new();
        let mut a = Vec::new();
        let mut b = Vec::new();
        rare.run_root(&root_rng, &mut scratch, |l| a.push(l));
        rare.run_root(&root_rng, &mut scratch, |l| b.push(l));
        assert_eq!(a, b);
    }

    #[test]
    fn importance_loss_weights_shrink_under_tilt() {
        // Tilted losses arrive earlier than they "should": their weights
        // must be below 1 on average so the tilt cancels.
        let config = fragile(1.0)
            .with_max_hours(20_000.0)
            .with_strategy(RareEventStrategy::ImportanceSampling { tilt: 4.0 });
        let rare = RareRunner::new(config);
        let mut scratch = TrialScratch::new();
        let mut leaves = Vec::new();
        for root in 0..200u64 {
            rare.run_root(&SimRng::seed_from(5).fork(root), &mut scratch, |l| leaves.push(l));
        }
        let losses: Vec<_> = leaves.iter().filter(|l| l.outcome.lost_data()).collect();
        assert!(losses.len() > 150, "the tilt should make losses common");
        let mean_w: f64 = losses.iter().map(|l| l.weight).sum::<f64>() / losses.len() as f64;
        assert!(mean_w < 1.0, "mean loss weight {mean_w} should be < 1 under a 4x tilt");
        assert!(losses.iter().all(|l| l.weight.is_finite() && l.weight > 0.0));
    }

    #[test]
    #[should_panic(expected = "Vanilla")]
    fn rare_runner_rejects_vanilla() {
        let _ = RareRunner::new(fragile(1.0));
    }
}
