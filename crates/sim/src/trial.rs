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
use ltds_telemetry::{NoTelemetry, Probe, ProbeEvent};
use serde::{Deserialize, Serialize};

/// The result of one trial.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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

/// Reusable per-trial state: a Monte-Carlo worker allocates one scratch
/// and runs every trial through it, making the per-trial hot path
/// allocation-free.
///
/// State is kept flat — one pending-event time per replica (next fault if
/// intact, repair completion if faulty), a faulty flag and the pending
/// fault's class — so the event loop's "find the earliest event" scan is a
/// pure float argmin with no enum matching. The scalars carry a path
/// across a splitting threshold (`crate::rare` clones the whole state).
#[derive(Debug, Clone, Default)]
pub struct TrialScratch {
    next_time: Vec<f64>,
    class: Vec<FaultClass>,
    faulty: Vec<bool>,
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
        let Self { next_time, class, faulty, llr, now, .. } = self;
        races.redraw_intact(rng, *now, faulty, next_time, class, llr);
    }
}

/// The measure a trial draws its fault races under, statically dispatched
/// like [`Probe`]: [`FaultRace`] draws at the nominal rates and leaves the
/// log-likelihood ratio untouched, so the nominal loop carries no weight
/// arithmetic; [`BiasedFaultRace`] draws at tilted rates and adds each
/// draw's increment (importance sampling, `crate::rare`).
pub(crate) trait Race: Copy {
    /// Draws one replica's next fault `(delay, class)`, adding the draw's
    /// log-likelihood-ratio increment to `llr`.
    fn draw(&self, rng: &mut SimRng, llr: &mut f64) -> (f64, FaultClass);
}

fn class_of(visible: bool) -> FaultClass {
    if visible {
        FaultClass::Visible
    } else {
        FaultClass::Latent
    }
}

impl Race for FaultRace {
    #[inline]
    fn draw(&self, rng: &mut SimRng, _llr: &mut f64) -> (f64, FaultClass) {
        let (delay, visible) = self.sample(rng);
        (delay, class_of(visible))
    }
}

impl Race for BiasedFaultRace {
    #[inline]
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

    #[inline]
    fn draw(&self, rng: &mut SimRng, accel: bool, llr: &mut f64) -> (f64, FaultClass) {
        if accel { &self.accel } else { &self.normal }.draw(rng, llr)
    }

    /// Redraws every intact replica's pending fault from `now` at the
    /// accelerated rates — exact for exponential inter-arrival times by
    /// memorylessness. Faulty replicas keep their pending repair
    /// completions.
    #[inline]
    fn redraw_intact(
        &self,
        rng: &mut SimRng,
        now: f64,
        faulty: &[bool],
        next_time: &mut [f64],
        class: &mut [FaultClass],
        llr: &mut f64,
    ) {
        for i in 0..faulty.len() {
            if !faulty[i] {
                let (d, c) = self.draw(rng, true, llr);
                next_time[i] = now + d;
                class[i] = c;
            }
        }
    }
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
    fn repair_completion(&self, t: f64, class: FaultClass, rng: &mut SimRng) -> f64 {
        match class {
            FaultClass::Visible => t + self.config.repair_visible_hours,
            FaultClass::Latent => {
                let detected_at = match self.config.detection {
                    DetectionModel::Never => f64::INFINITY,
                    DetectionModel::PeriodicScrub { period_hours } => {
                        (t / period_hours).floor() * period_hours + period_hours
                    }
                    DetectionModel::Exponential { mean_hours } => t + rng.exponential(mean_hours),
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
        self.run_probed(rng, scratch, &mut NoTelemetry)
    }

    /// Runs a single trial while emitting telemetry through `probe`.
    ///
    /// The probe is statically dispatched and behaviour-free: it consumes no
    /// randomness, so for any seed the outcome is identical to
    /// [`TrialRunner::run_with`], and with [`NoTelemetry`] every probe site
    /// compiles out. A trial models one replica group, so events carry the
    /// replica index as the slot and data loss is reported as group `0`.
    /// Trials have no repair pipeline; probes emit faults, repair
    /// completions and the final loss, but no `RepairStart` events.
    pub fn run_probed<P: Probe>(
        &self,
        rng: &mut SimRng,
        scratch: &mut TrialScratch,
        probe: &mut P,
    ) -> TrialOutcome {
        self.run_measured(&self.races, rng, scratch, probe)
    }

    /// Runs a single trial under the measure `races`, leaving its summed
    /// log-likelihood ratio in `scratch` ([`TrialScratch::llr`]).
    #[inline]
    pub(crate) fn run_measured<R: Race, P: Probe>(
        &self,
        races: &Races<R>,
        rng: &mut SimRng,
        scratch: &mut TrialScratch,
        probe: &mut P,
    ) -> TrialOutcome {
        self.start(races, rng, scratch);
        self.advance(races, rng, scratch, usize::MAX, probe)
            .expect("a path without a split threshold never splits")
    }

    /// Starts a path at time zero: every replica intact, with its first
    /// fault drawn at the baseline rates (the replica counts here are far
    /// below the batch chunk size, so the scalar loop is the fast path).
    #[inline]
    pub(crate) fn start<R: Race>(
        &self,
        races: &Races<R>,
        rng: &mut SimRng,
        path: &mut TrialScratch,
    ) {
        let n = self.config.replicas;
        let mut llr = 0.0;
        path.next_time.clear();
        path.class.clear();
        for _ in 0..n {
            let (delay, class) = races.draw(rng, false, &mut llr);
            path.next_time.push(delay);
            path.class.push(class);
        }
        path.llr = llr;
        path.faulty.clear();
        path.faulty.resize(n, false);
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
    // Inlined into each caller: as a call, its prologue and the state it
    // passes cost short, mostly censored trials 10–15 % of their time.
    #[inline(always)]
    pub(crate) fn advance<R: Race, P: Probe>(
        &self,
        races: &Races<R>,
        rng: &mut SimRng,
        path: &mut TrialScratch,
        split_at: usize,
        probe: &mut P,
    ) -> Option<TrialOutcome> {
        let n = self.config.replicas;
        let loss_threshold = self.config.loss_threshold();
        let stop_at = split_at.min(loss_threshold);
        let mut faulty_count = path.faulty_count;
        let mut faults = path.faults;
        let mut repairs = path.repairs;
        let mut llr = path.llr;
        let TrialScratch { next_time, class, faulty, .. } = path;

        let (end, now) = loop {
            // Find the earliest pending event — a fault at an intact
            // replica or a repair completion at a faulty one; `next_time`
            // holds whichever applies, so this is a plain float argmin.
            let mut best_time = f64::INFINITY;
            let mut best_replica = usize::MAX;
            for (i, &t) in next_time.iter().enumerate() {
                if t < best_time {
                    best_time = t;
                    best_replica = i;
                }
            }

            if best_time > self.config.max_hours || best_replica == usize::MAX {
                let outcome =
                    TrialOutcome { loss_time_hours: None, faults, repairs, fatal_fault: None };
                break (Some(outcome), best_time);
            }
            let now = best_time;
            let faulty_before = faulty_count;
            if P::ENABLED {
                // Occupancy for a trial is the number of replicas with a
                // finite pending event (latent faults under
                // `DetectionModel::Never` park at infinity).
                probe.tick(now, next_time.iter().filter(|t| t.is_finite()).count());
            }

            if !faulty[best_replica] {
                let fault_class = class[best_replica];
                faulty[best_replica] = true;
                next_time[best_replica] = self.repair_completion(now, fault_class, rng);
                faulty_count += 1;
                faults += 1;
                if P::ENABLED {
                    probe.record(
                        now,
                        best_replica as u32,
                        ProbeEvent::Fault {
                            class: fault_class,
                            from_burst: false,
                            faulty: faulty_count as u16,
                        },
                    );
                }
                // One comparison covers both stops on the hot path: the
                // count climbs by one, so reaching `stop_at` is reaching
                // the split threshold or the loss threshold, whichever is
                // lower.
                if faulty_count >= stop_at {
                    if faulty_count < loss_threshold {
                        break (None, now);
                    }
                    if P::ENABLED {
                        probe.loss(now, 0, now, fault_class);
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
                if faulty_before == 0 && self.config.alpha < 1.0 {
                    races.redraw_intact(rng, now, faulty, next_time, class, &mut llr);
                }
            } else {
                // Repair completes; replica returns to service with a fresh
                // copy (an intact source must exist, otherwise the loss
                // threshold would already have been crossed).
                faulty[best_replica] = false;
                faulty_count -= 1;
                repairs += 1;
                if P::ENABLED {
                    // `class[best_replica]` still holds the repaired fault's
                    // class; the resample below reassigns it.
                    probe.record(
                        now,
                        best_replica as u32,
                        ProbeEvent::RepairDone {
                            class: class[best_replica],
                            site: 0,
                            faulty: faulty_count as u16,
                        },
                    );
                }
                // Sample the repaired replica's next fault, and if the system
                // just became fault-free, de-accelerate the others.
                let (d, c) = races.draw(rng, faulty_count > 0, &mut llr);
                next_time[best_replica] = now + d;
                class[best_replica] = c;
                if faulty_count == 0 && self.config.alpha < 1.0 {
                    for i in 0..n {
                        if i != best_replica && !faulty[i] {
                            let (d, c) = races.draw(rng, false, &mut llr);
                            next_time[i] = now + d;
                            class[i] = c;
                        }
                    }
                }
            }
        };
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
    fn probed_trial_matches_unprobed_and_reconciles_counters() {
        use ltds_telemetry::{ShardParams, ShardTelemetry, TelemetryConfig};
        let config = fast_config(Some(100.0), 0.5);
        let runner = TrialRunner::new(config);
        let params = ShardParams {
            shard: 0,
            shards: 1,
            groups: 1,
            replicas: config.replicas,
            sites: 1,
            horizon_hours: config.max_hours,
            scrub: None,
        };
        let mut scratch = TrialScratch::new();
        for seed in 0..20 {
            let plain = runner.run_with(&mut SimRng::seed_from(seed), &mut scratch);
            let mut sink = ShardTelemetry::new(params, TelemetryConfig::default());
            let probed = runner.run_probed(&mut SimRng::seed_from(seed), &mut scratch, &mut sink);
            assert_eq!(plain, probed, "seed {seed}: the probe consumed randomness");
            let trace = sink.finish();
            assert_eq!(trace.summary.faults, plain.faults);
            assert_eq!(trace.summary.repairs, plain.repairs);
            assert_eq!(trace.summary.losses, u64::from(plain.lost_data()));
            if plain.lost_data() {
                let post = &trace.losses[0];
                assert_eq!(post.group, 0);
                assert_eq!(post.t, plain.loss_time_hours.unwrap());
                assert!(!post.events.is_empty(), "the ring should hold the fatal event");
            }
        }
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
