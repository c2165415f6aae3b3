//! A single simulation trial: run the replicated system forward until data
//! loss (or a safety cap).
//!
//! The trial exploits the memorylessness of the fault processes: instead of a
//! global event queue it keeps, per replica, the sampled time of its next
//! fault and (if faulty) its repair-completion time, and always advances to
//! the earliest of those. When the system's correlation state changes (a
//! fault occurs or a repair completes), the pending fault times of intact
//! replicas are resampled at the new rate, which is statistically exact for
//! exponential inter-arrival times.

use crate::config::{DetectionModel, SimConfig};
use ltds_core::fault::FaultClass;
use ltds_stochastic::{BiasedFaultRace, FaultRace, SimRng};

/// The result of one trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialOutcome {
    /// Time of data loss in hours, or `None` if the trial hit the safety cap
    /// without losing data (censored).
    pub loss_time_hours: Option<f64>,
    /// Number of fault events processed.
    pub faults: u64,
    /// Number of repairs completed.
    pub repairs: u64,
    /// Class of the final fault that caused the loss, if any.
    pub fatal_fault: Option<FaultClass>,
}

impl TrialOutcome {
    /// Whether the trial ended in data loss.
    pub fn lost_data(&self) -> bool {
        self.loss_time_hours.is_some()
    }
}

/// One replica's pending event: the time of its next fault while intact,
/// of its repair completion while faulty, and the class of that fault.
#[derive(Debug, Clone, Copy)]
struct Slot {
    time: f64,
    class: FaultClass,
    faulty: bool,
}

impl Slot {
    const EMPTY: Slot = Slot { time: f64::INFINITY, class: FaultClass::Visible, faulty: false };
}

/// Reusable per-trial state: a Monte-Carlo worker allocates one scratch
/// and runs every trial through it, making the per-trial hot path
/// allocation-free.
///
/// One slot per replica holds its pending-event time (next fault if
/// intact, repair completion if faulty), its faulty flag and the pending
/// fault's class, so the loop's "find the earliest event" scan is a pure
/// float argmin with no enum matching. The scalars carry a path across a
/// splitting threshold (`crate::rare` clones the whole state).
#[derive(Debug, Clone, Default)]
pub struct TrialScratch {
    slots: Vec<Slot>,
    faulty_count: usize,
    faults: u64,
    repairs: u64,
    /// Log-likelihood ratio of the nominal measure against the one the
    /// path was drawn under, summed over its fault-race draws.
    llr: f64,
    /// Simulation clock at the path's last event; split clones restart
    /// from it.
    now: f64,
}

impl TrialScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The summed log-likelihood ratio of the path last run in this
    /// scratch: `0.0` under the nominal measure.
    pub(crate) fn llr(&self) -> f64 {
        self.llr
    }

    /// Redraws the intact replicas' pending faults from the instant of the
    /// split that froze this path, so sibling clones resolve the race to
    /// the next fault independently.
    pub(crate) fn redraw_intact<R: Race>(&mut self, races: &Races<R>, rng: &mut SimRng) {
        races.redraw(rng, self.now, &mut self.slots, None, true, &mut self.llr);
    }
}

/// The measure a trial draws its fault races under, statically dispatched:
/// [`FaultRace`] draws at the nominal rates and leaves the log-likelihood
/// ratio untouched, so the nominal loop carries no weight arithmetic;
/// [`BiasedFaultRace`] draws at tilted rates and adds each draw's increment
/// (importance sampling, `crate::rare`).
pub(crate) trait Race: Copy {
    /// Draws one replica's next fault `(delay, class)`, adding the draw's
    /// log-likelihood-ratio increment to `llr`.
    fn draw(&self, rng: &mut SimRng, llr: &mut f64) -> (f64, FaultClass);
}

#[inline(always)]
fn class_of(visible: bool) -> FaultClass {
    if visible {
        FaultClass::Visible
    } else {
        FaultClass::Latent
    }
}

impl Race for FaultRace {
    #[inline(always)]
    fn draw(&self, rng: &mut SimRng, _llr: &mut f64) -> (f64, FaultClass) {
        let (delay, visible) = self.sample(rng);
        (delay, class_of(visible))
    }
}

impl Race for BiasedFaultRace {
    #[inline(always)]
    fn draw(&self, rng: &mut SimRng, llr: &mut f64) -> (f64, FaultClass) {
        let (delay, visible, increment) = self.sample(rng);
        *llr += increment;
        (delay, class_of(visible))
    }
}

/// A visible-vs-latent fault race resolved once at both correlation
/// regimes' rates.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Races<R> {
    /// The baseline rates, while every replica is intact.
    normal: R,
    /// The `α`-accelerated rates, while any replica is faulty (identical
    /// to `normal` when `α = 1`).
    accel: R,
}

impl<R: Race> Races<R> {
    /// Resolves `race(mttf_visible, mttf_latent)` at the config's baseline
    /// and `α`-accelerated means.
    pub(crate) fn new(config: &SimConfig, race: impl Fn(f64, f64) -> R) -> Self {
        let inv_alpha = 1.0 / config.alpha;
        Self {
            normal: race(config.mttf_visible_hours, config.mttf_latent_hours),
            accel: race(
                config.mttf_visible_hours / inv_alpha,
                config.mttf_latent_hours / inv_alpha,
            ),
        }
    }

    #[inline(always)]
    fn draw(&self, rng: &mut SimRng, accel: bool, llr: &mut f64) -> (f64, FaultClass) {
        if accel { &self.accel } else { &self.normal }.draw(rng, llr)
    }

    /// Redraws from `now` the pending fault of every intact replica but
    /// `skip`, at the accelerated rates if `accel` — exact for exponential
    /// inter-arrival times by memorylessness. Faulty replicas keep their
    /// pending repair completions.
    #[inline(always)]
    fn redraw(
        &self,
        rng: &mut SimRng,
        now: f64,
        slots: &mut [Slot],
        skip: Option<usize>,
        accel: bool,
        llr: &mut f64,
    ) {
        for (i, slot) in slots.iter_mut().enumerate() {
            if !slot.faulty && skip != Some(i) {
                let (d, c) = self.draw(rng, accel, llr);
                slot.time = now + d;
                slot.class = c;
            }
        }
    }
}

/// Index and time of the earliest pending event, the lowest index on a
/// tie; `usize::MAX` if none is below infinity. Written as two selects,
/// which compile to a `minsd` and a conditional move: the comparisons
/// follow the random event times, so branches on them would mispredict.
#[inline(always)]
fn earliest(slots: &[Slot]) -> (usize, f64) {
    let mut best_time = f64::INFINITY;
    let mut best = usize::MAX;
    for (i, slot) in slots.iter().enumerate() {
        let earlier = slot.time < best_time;
        best_time = if earlier { slot.time } else { best_time };
        best = if earlier { i } else { best };
    }
    (best, best_time)
}

/// Runs trials for one configuration.
#[derive(Debug, Clone, Copy)]
pub struct TrialRunner {
    config: SimConfig,
    /// The nominal fault race, drawn through the config's
    /// [`ltds_stochastic::DrawDiscipline`].
    races: Races<FaultRace>,
}

impl TrialRunner {
    /// Creates a runner for a configuration, pre-resolving the fault-race
    /// distribution parameters for both correlation regimes. The races draw
    /// through the config's [`ltds_stochastic::DrawDiscipline`].
    pub fn new(config: SimConfig) -> Self {
        let races = Races::new(&config, |mv, ml| FaultRace::new(mv, ml).with_draw(config.draw));
        Self { config, races }
    }

    /// The configuration being simulated.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The nominal fault race, for paths that run at the nominal measure.
    pub(crate) fn races(&self) -> &Races<FaultRace> {
        &self.races
    }

    /// Time at which a fault occurring at `t` of the given class will have
    /// been detected and repaired.
    #[inline(always)]
    fn repair_completion(&self, t: f64, class: FaultClass, rng: &mut SimRng) -> f64 {
        match class {
            FaultClass::Visible => t + self.config.repair_visible_hours,
            FaultClass::Latent => {
                let detected_at = match self.config.detection {
                    DetectionModel::Never => f64::INFINITY,
                    DetectionModel::PeriodicScrub { period_hours } => {
                        (t / period_hours).floor() * period_hours + period_hours
                    }
                    DetectionModel::Exponential { mean_hours } => {
                        t + rng.detached(move |rng| rng.exponential(mean_hours))
                    }
                };
                detected_at + self.config.repair_latent_hours
            }
        }
    }

    /// Runs a single trial with the given random stream, allocating private
    /// scratch buffers. Loops that run many trials should allocate one
    /// [`TrialScratch`] and use [`TrialRunner::run_with`] instead.
    pub fn run(&self, rng: &mut SimRng) -> TrialOutcome {
        self.run_with(rng, &mut TrialScratch::new())
    }

    /// Runs a single trial with the given random stream, reusing `scratch`
    /// so the per-trial path performs no allocations.
    pub fn run_with(&self, rng: &mut SimRng, scratch: &mut TrialScratch) -> TrialOutcome {
        self.run_measured(&self.races, rng, scratch)
    }

    /// Runs a single trial under the measure `races`, leaving its summed
    /// log-likelihood ratio in `scratch` ([`TrialScratch::llr`]).
    #[inline]
    pub(crate) fn run_measured<R: Race>(
        &self,
        races: &Races<R>,
        rng: &mut SimRng,
        scratch: &mut TrialScratch,
    ) -> TrialOutcome {
        self.start(races, rng, scratch);
        self.advance(races, rng, scratch, usize::MAX)
            .expect("a path without a split threshold never splits")
    }

    /// Starts a path at time zero: every replica intact, with its first
    /// fault drawn at the baseline rates in replica order.
    // Inlined into both callers, like `advance`: as a call it costs the
    // short, mostly censored trials of the rare-event configuration 8 %
    // of their time. A plain `#[inline]` hint is not enough: whether it
    // is taken moves with unrelated code in this module.
    #[inline(always)]
    pub(crate) fn start<R: Race>(
        &self,
        races: &Races<R>,
        rng: &mut SimRng,
        path: &mut TrialScratch,
    ) {
        path.slots.resize(self.config.replicas, Slot::EMPTY);
        let mut stream = rng.clone();
        let mut llr = 0.0;
        for slot in &mut path.slots {
            let (time, class) = races.draw(&mut stream, false, &mut llr);
            *slot = Slot { time, class, faulty: false };
        }
        *rng = stream;
        path.llr = llr;
        path.faulty_count = 0;
        path.faults = 0;
        path.repairs = 0;
        path.now = 0.0;
    }

    /// Advances `path` to data loss or the time cap, returning the outcome
    /// — or returns `None`, with the path frozen at the triggering fault,
    /// the first time its faulty-replica count reaches `split_at` (a
    /// splitting threshold; any value at or above the loss threshold never
    /// triggers). The caller then replaces the path with clones, so the
    /// `α`-resample that fault would have drawn is skipped.
    ///
    /// The loop keeps its state where the compiler can hold it in
    /// registers: the random stream is a local copy written back once at
    /// the end, the counters are locals, and the draw pipeline (xoshiro
    /// step, ziggurat, fault race) is forced inline. Its cold draws (the
    /// ziggurat's slow layers, `ln`-priced exponentials) run out of line on
    /// a detached copy of the stream, so the stream never needs an
    /// address; only the replica slots live in memory.
    // Inlined into each caller: as a call, its prologue and the state it
    // passes cost short, mostly censored trials 10–15 % of their time.
    #[inline(always)]
    pub(crate) fn advance<R: Race>(
        &self,
        races: &Races<R>,
        rng: &mut SimRng,
        path: &mut TrialScratch,
        split_at: usize,
    ) -> Option<TrialOutcome> {
        let loss_threshold = self.config.loss_threshold();
        let stop_at = split_at.min(loss_threshold);
        let correlated = self.config.alpha < 1.0;
        let max_hours = self.config.max_hours;
        let mut stream = rng.clone();
        let mut faulty_count = path.faulty_count;
        let mut faults = path.faults;
        let mut repairs = path.repairs;
        let mut llr = path.llr;
        let slots = path.slots.as_mut_slice();

        let (end, now) = loop {
            // The earliest pending event: a fault at an intact replica or
            // a repair completion at a faulty one, whichever its slot holds.
            let (best, now) = earliest(slots);
            if now > max_hours || best == usize::MAX {
                let outcome =
                    TrialOutcome { loss_time_hours: None, faults, repairs, fatal_fault: None };
                break (Some(outcome), now);
            }
            let faulty_before = faulty_count;

            let slot = &mut slots[best];
            if !slot.faulty {
                let fault_class = slot.class;
                slot.faulty = true;
                slot.time = self.repair_completion(now, fault_class, &mut stream);
                faulty_count += 1;
                faults += 1;
                // One comparison covers both stops on the hot path: the
                // count climbs by one, so reaching `stop_at` is reaching
                // the split threshold or the loss threshold, whichever is
                // lower.
                if faulty_count >= stop_at {
                    if faulty_count < loss_threshold {
                        break (None, now);
                    }
                    let outcome = TrialOutcome {
                        loss_time_hours: Some(now),
                        faults,
                        repairs,
                        fatal_fault: Some(fault_class),
                    };
                    break (Some(outcome), now);
                }
                // Correlation state may have changed: resample pending faults
                // for the remaining intact replicas at the accelerated rate.
                if faulty_before == 0 && correlated {
                    races.redraw(&mut stream, now, slots, None, true, &mut llr);
                }
            } else {
                // Repair completes; replica returns to service with a fresh
                // copy (an intact source must exist, otherwise the loss
                // threshold would already have been crossed).
                slot.faulty = false;
                faulty_count -= 1;
                repairs += 1;
                // Sample the repaired replica's next fault, and if the system
                // just became fault-free, de-accelerate the others.
                let (d, c) = races.draw(&mut stream, faulty_count > 0, &mut llr);
                slot.time = now + d;
                slot.class = c;
                if faulty_count == 0 && correlated {
                    races.redraw(&mut stream, now, slots, Some(best), false, &mut llr);
                }
            }
        };
        *rng = stream;
        path.faulty_count = faulty_count;
        path.faults = faults;
        path.repairs = repairs;
        path.llr = llr;
        path.now = now;
        end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config(scrub: Option<f64>, alpha: f64) -> SimConfig {
        // Deliberately small numbers so trials finish in microseconds.
        SimConfig::mirrored_disks(1000.0, 5000.0, 10.0, 10.0, scrub, alpha).unwrap()
    }

    #[test]
    fn trial_eventually_loses_data() {
        let runner = TrialRunner::new(fast_config(Some(100.0), 1.0));
        let mut rng = SimRng::seed_from(1);
        let outcome = runner.run(&mut rng);
        assert!(outcome.lost_data());
        assert!(outcome.loss_time_hours.unwrap() > 0.0);
        assert!(outcome.faults >= 2, "data loss requires at least two faults");
        assert!(outcome.fatal_fault.is_some());
    }

    #[test]
    fn run_with_reuses_scratch_and_matches_run() {
        let runner = TrialRunner::new(fast_config(Some(100.0), 0.5));
        let mut scratch = TrialScratch::new();
        for seed in 0..20 {
            let a = runner.run(&mut SimRng::seed_from(seed));
            let b = runner.run_with(&mut SimRng::seed_from(seed), &mut scratch);
            assert_eq!(a, b, "seed {seed}: scratch reuse changed the outcome");
        }
    }

    #[test]
    fn earliest_takes_the_first_minimum_and_skips_infinity() {
        let slot = |time| Slot { time, ..Slot::EMPTY };
        assert_eq!(earliest(&[slot(3.0), slot(1.0), slot(1.0), slot(2.0)]), (1, 1.0));
        assert_eq!(earliest(&[slot(f64::INFINITY), slot(5.0)]), (1, 5.0));
        assert_eq!(earliest(&[slot(f64::INFINITY); 3]), (usize::MAX, f64::INFINITY));
        assert_eq!(earliest(&[]), (usize::MAX, f64::INFINITY));
    }

    #[test]
    fn trials_are_reproducible() {
        let runner = TrialRunner::new(fast_config(Some(100.0), 1.0));
        let a = runner.run(&mut SimRng::seed_from(42));
        let b = runner.run(&mut SimRng::seed_from(42));
        assert_eq!(a, b);
    }

    #[test]
    fn censoring_at_the_time_cap() {
        // A very reliable pair with a tiny time cap never loses data.
        let config = SimConfig::mirrored_disks(1.0e9, 1.0e9, 0.01, 0.01, Some(10.0), 1.0)
            .unwrap()
            .with_max_hours(1000.0);
        let runner = TrialRunner::new(config);
        let outcome = runner.run(&mut SimRng::seed_from(3));
        assert!(!outcome.lost_data());
        assert_eq!(outcome.fatal_fault, None);
    }

    #[test]
    fn never_detected_latent_faults_accumulate() {
        // Without detection, the first latent fault stays open forever, so the
        // trial ends at the next fault on the other replica: repairs can only
        // have happened for visible faults.
        let runner = TrialRunner::new(fast_config(None, 1.0));
        let mut rng = SimRng::seed_from(5);
        for _ in 0..50 {
            let outcome = runner.run(&mut rng);
            assert!(outcome.lost_data());
        }
    }

    #[test]
    fn correlation_accelerates_loss() {
        let independent = TrialRunner::new(fast_config(Some(100.0), 1.0));
        let correlated = TrialRunner::new(fast_config(Some(100.0), 0.01));
        let mut sum_ind = 0.0;
        let mut sum_cor = 0.0;
        let trials = 400;
        for i in 0..trials {
            sum_ind += independent.run(&mut SimRng::seed_from(1000 + i)).loss_time_hours.unwrap();
            sum_cor += correlated.run(&mut SimRng::seed_from(5000 + i)).loss_time_hours.unwrap();
        }
        assert!(
            sum_cor < sum_ind / 3.0,
            "correlated mean {} should be well below independent mean {}",
            sum_cor / trials as f64,
            sum_ind / trials as f64
        );
    }

    #[test]
    fn three_replicas_outlast_two() {
        let two = SimConfig::mirrored_disks(1000.0, 1000.0, 20.0, 20.0, Some(40.0), 1.0).unwrap();
        let three = SimConfig::new(
            3,
            1,
            1000.0,
            1000.0,
            20.0,
            20.0,
            DetectionModel::PeriodicScrub { period_hours: 40.0 },
            1.0,
        )
        .unwrap();
        let mut sum2 = 0.0;
        let mut sum3 = 0.0;
        let trials = 300;
        for i in 0..trials {
            sum2 += TrialRunner::new(two).run(&mut SimRng::seed_from(i)).loss_time_hours.unwrap();
            sum3 += TrialRunner::new(three)
                .run(&mut SimRng::seed_from(10_000 + i))
                .loss_time_hours
                .unwrap();
        }
        assert!(sum3 > sum2 * 3.0, "r=3 mean {} vs r=2 mean {}", sum3 / 300.0, sum2 / 300.0);
    }

    #[test]
    fn erasure_threshold_controls_loss() {
        // 4 replicas needing 3 intact (tolerates 1 loss) dies much sooner than
        // 4 replicas needing 1 intact (tolerates 3 losses).
        let fragile =
            SimConfig::new(4, 3, 1000.0, 1000.0, 50.0, 50.0, DetectionModel::Never, 1.0).unwrap();
        let robust =
            SimConfig::new(4, 1, 1000.0, 1000.0, 50.0, 50.0, DetectionModel::Never, 1.0).unwrap();
        let mut sum_f = 0.0;
        let mut sum_r = 0.0;
        for i in 0..200 {
            sum_f +=
                TrialRunner::new(fragile).run(&mut SimRng::seed_from(i)).loss_time_hours.unwrap();
            sum_r += TrialRunner::new(robust)
                .run(&mut SimRng::seed_from(700 + i))
                .loss_time_hours
                .unwrap();
        }
        assert!(sum_r > sum_f);
    }

    #[test]
    fn scrubbing_extends_life() {
        let unscrubbed = TrialRunner::new(fast_config(None, 1.0));
        let scrubbed = TrialRunner::new(fast_config(Some(50.0), 1.0));
        let mut sum_u = 0.0;
        let mut sum_s = 0.0;
        for i in 0..400 {
            sum_u += unscrubbed.run(&mut SimRng::seed_from(i)).loss_time_hours.unwrap();
            sum_s += scrubbed.run(&mut SimRng::seed_from(20_000 + i)).loss_time_hours.unwrap();
        }
        assert!(sum_s > sum_u * 2.0, "scrubbed {} vs unscrubbed {}", sum_s / 400.0, sum_u / 400.0);
    }
}
