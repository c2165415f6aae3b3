//! Integration tests for rare-event acceleration (PR 7): importance
//! sampling and multilevel splitting must stay *unbiased* against exact
//! analytic results, buy the promised variance reduction on the pinned
//! rare fixture, and leave the vanilla random stream bit-identical.

use ltds::core::{mttdl, presets, units};
use ltds::sim::config::{DetectionModel, SimConfig};
use ltds::sim::monte_carlo::{MonteCarlo, MttdlEstimate};
use ltds::sim::{DrawDiscipline, RareEventStrategy, RedundancyPolicy};

/// The pinned rare fixture: the paper's scrubbed Cheetah mirror over a
/// one-year mission. Its analytic MTTDL is ~5 000 years, so the one-year
/// loss probability is ~2e-4 and vanilla runs censor >99.9 % of trials.
fn rare_mirror() -> SimConfig {
    SimConfig::mirrored_disks(1.4e6, 2.8e5, 0.33, 0.33, Some(2_920.0), 1.0)
        .unwrap()
        .with_max_hours(units::HOURS_PER_YEAR)
}

#[test]
fn importance_sampling_is_unbiased_on_the_single_replica_exponential() {
    // One replica, no redundancy: every fault is a loss, so the time to
    // loss is exactly Exponential with the combined fault rate and the
    // analytic MTTDL is its mean — an exact target, no model error.
    let (mv, ml) = (1.0e3, 4.0e3);
    let rate = 1.0 / mv + 1.0 / ml;
    let exact = 1.0 / rate;
    let config = SimConfig::new(1, 1, mv, ml, 1.0, 1.0, DetectionModel::Never, 1.0)
        .unwrap()
        .with_max_hours(100.0 * exact)
        .with_strategy(RareEventStrategy::ImportanceSampling { tilt: 1.5 });
    let est = MonteCarlo::new(config).trials(4_000).seed(11).run();
    assert_eq!(est.censored_trials, 0, "P[censor] = e^{{-100}} is unobservable");

    let ci = est.mttdl_hours;
    assert!(
        (ci.estimate - exact).abs() < 2.0 * ci.half_width(),
        "weighted MTTDL {} +- {} vs exact {exact}",
        ci.estimate,
        ci.half_width()
    );

    // The mission loss probability matches the exponential CDF at one mean:
    // P[T <= 1/rate] = 1 - 1/e.
    let p = est.loss_probability_by(exact);
    let p_exact = 1.0 - (-1.0f64).exp();
    assert!(
        (p.estimate - p_exact).abs() < 3.0 * p.half_width(),
        "weighted P[loss] {} +- {} vs exact {p_exact}",
        p.estimate,
        p.half_width()
    );
}

#[test]
fn splitting_is_unbiased_on_the_unrepairable_mirror() {
    // Two replicas, repairs that effectively never complete, no latent
    // detection: the loss time is hypoexponential — Exp(2λ) to the first
    // fault, then Exp(λ) to the second — with exact mean 1.5/λ.
    let (mv, ml) = (2.0e3, 2.0e3);
    let rate = 1.0 / mv + 1.0 / ml;
    let exact = 1.5 / rate;
    let config = SimConfig::new(2, 1, mv, ml, 1.0e12, 1.0e12, DetectionModel::Never, 1.0)
        .unwrap()
        .with_max_hours(50.0 * exact)
        .with_strategy(RareEventStrategy::Splitting { levels: 1, offspring: 8 });
    let est = MonteCarlo::new(config).trials(1_500).seed(12).run();

    let ci = est.mttdl_hours;
    // Splitting leaves under one root are dependent, so the reported
    // interval can undershoot the true spread a little; allow a small
    // absolute slack on top of the CI-based band.
    assert!(
        (ci.estimate - exact).abs() < 3.0 * ci.half_width() + 0.05 * exact,
        "splitting MTTDL {} +- {} vs exact {exact}",
        ci.estimate,
        ci.half_width()
    );

    // Every root's leaves carry total weight 1, so at a horizon that
    // dominates the mean the loss probability must come back ~1.
    let p = est.loss_probability_by(50.0 * exact);
    assert!(p.estimate > 0.99, "loss probability {} at 50 means", p.estimate);
}

#[test]
fn unit_tilt_reproduces_the_vanilla_estimate() {
    // tilt = 1 runs the tilted machinery with zero log-likelihood slope:
    // same draws, unit weights, so the counts must match exactly and the
    // (differently accumulated) means to floating-point noise.
    let base = SimConfig::mirrored_disks(1.0e3, 5.0e3, 10.0, 10.0, Some(100.0), 1.0).unwrap();
    let vanilla = MonteCarlo::new(base).trials(2_000).seed(7).run();
    let tilted =
        MonteCarlo::new(base.with_strategy(RareEventStrategy::ImportanceSampling { tilt: 1.0 }))
            .trials(2_000)
            .seed(7)
            .run();
    assert_eq!(vanilla.completed_trials, tilted.completed_trials);
    assert_eq!(vanilla.censored_trials, tilted.censored_trials);
    assert_eq!(vanilla.mean_faults_per_trial.to_bits(), tilted.mean_faults_per_trial.to_bits());
    assert_eq!(vanilla.mean_repairs_per_trial.to_bits(), tilted.mean_repairs_per_trial.to_bits());
    let rel = (tilted.mttdl_hours.estimate / vanilla.mttdl_hours.estimate - 1.0).abs();
    assert!(rel < 1e-9, "unit-tilt MTTDL drifted by {rel}");
    // Unit weights: the effective sample size is the loss count itself.
    assert!(
        (tilted.effective_sample_size - tilted.completed_trials as f64).abs() < 1e-6,
        "ESS {} vs {} losses",
        tilted.effective_sample_size,
        tilted.completed_trials
    );
}

#[test]
fn rare_fixture_acceleration_is_unbiased_with_tenfold_variance_reduction() {
    // Ground truth by brute force: a million-trial vanilla run on the
    // fixture still sees only a few hundred losses, but pins the one-year
    // loss probability tightly enough to test both accelerated estimators
    // against the simulator's own law.
    let year = units::HOURS_PER_YEAR;
    let reference = MonteCarlo::new(rare_mirror()).trials(1_000_000).seed(99).run();
    let p_ref = reference.loss_probability_by(year);
    assert!(p_ref.estimate > 0.0, "the reference run must observe losses");
    assert!(reference.censoring_fraction() > 0.999, "fixture is not rare for vanilla");
    assert!(reference.variance_ratio_vs_vanilla.is_none());

    // The analytic Equation-8 window model lands in the same decade but
    // under-counts this latent-dominated fixture (it prices one initiating
    // replica where the simulated mirror has two), so it anchors the order
    // of magnitude only.
    let exact_hours = mttdl::mttdl_physical(&presets::cheetah_mirror_scrubbed());
    let p_exact = 1.0 - (-year / exact_hours).exp();
    assert!(
        p_ref.estimate > 0.5 * p_exact && p_ref.estimate < 4.0 * p_exact,
        "reference P[loss] {} is not within the analytic decade {p_exact}",
        p_ref.estimate
    );

    // Importance sampling at the pinned tilt, on 250x fewer trials: must
    // agree with the reference, keep a healthy effective sample size, and
    // clear the >= 10x variance-reduction floor of the acceptance criteria.
    let tilted = rare_mirror().with_strategy(RareEventStrategy::ImportanceSampling { tilt: 30.0 });
    let est = MonteCarlo::new(tilted).trials(4_000).seed(2024).run();
    let p = est.loss_probability_by(year);
    assert!(p.estimate > 0.0, "the tilted run must observe losses");
    assert!(
        (p.estimate - p_ref.estimate).abs() < 3.0 * (p.half_width() + p_ref.half_width()),
        "IS P[loss in a year] {} +- {} vs reference {} +- {}",
        p.estimate,
        p.half_width(),
        p_ref.estimate,
        p_ref.half_width()
    );
    assert!(est.effective_sample_size > 50.0, "ESS {}", est.effective_sample_size);
    let vr = est.variance_ratio_vs_vanilla.expect("accelerated runs report a variance ratio");
    assert!(vr >= 10.0, "variance ratio {vr} below the acceptance floor");

    // Splitting attacks the same tail without reweighting draws: each root
    // that reaches "one fault open" is replaced by fresh clones, and its
    // estimate must land on the same reference probability.
    let split =
        rare_mirror().with_strategy(RareEventStrategy::Splitting { levels: 1, offspring: 64 });
    let split_est = MonteCarlo::new(split).trials(20_000).seed(41).run();
    let p_split = split_est.loss_probability_by(year);
    assert!(p_split.estimate > 0.0, "splitting must observe losses");
    assert!(
        (p_split.estimate - p_ref.estimate).abs()
            < 3.0 * (p_split.half_width() + p_ref.half_width()),
        "splitting P[loss in a year] {} +- {} vs reference {} +- {}",
        p_split.estimate,
        p_split.half_width(),
        p_ref.estimate,
        p_ref.half_width()
    );
}

/// Doubles the trial count from 250 (seed 1 at every rung) until the 95 %
/// CI on P[loss within the mission] is at most 2e-4 half-wide with a loss
/// observed; returns that rung's trial count and estimate.
fn trials_to_target_width(config: SimConfig) -> (u64, MttdlEstimate) {
    let mut trials = 250;
    loop {
        let est = MonteCarlo::new(config).trials(trials).seed(1).run();
        let ci = est.loss_probability_by(config.max_hours);
        if ci.estimate > 0.0 && ci.half_width() <= 2.0e-4 {
            return (trials, est);
        }
        assert!(trials < 1_000_000, "no rung up to {trials} trials reached the target width");
        trials *= 2;
    }
}

#[test]
fn importance_sampling_reaches_the_target_width_with_tenfold_fewer_trials() {
    // The same ladder on the rare fixture, vanilla vs importance-sampled
    // at the canonical tilt: 64 000 vs 250 trials. Every rung is seeded,
    // so both counts and the variance ratio (~362) are exact.
    let (vanilla, _) = trials_to_target_width(rare_mirror());
    let tilted = rare_mirror().with_strategy(RareEventStrategy::ImportanceSampling { tilt: 30.0 });
    let (accelerated, est) = trials_to_target_width(tilted);
    assert!(
        vanilla >= 10 * accelerated,
        "vanilla needed {vanilla} trials, importance sampling {accelerated}"
    );
    let vr = est.variance_ratio_vs_vanilla.expect("accelerated runs report a variance ratio");
    assert!(vr >= 10.0, "variance ratio {vr} below the 10x floor");
}

#[test]
fn vanilla_estimate_bits_are_pinned() {
    // The vanilla random stream predates the rare-event machinery and must
    // survive it untouched: these bits were recorded when `RareEventStrategy`
    // landed and pin the canonical group config's estimate exactly.
    let config = SimConfig::mirrored_disks(1.0e3, 5.0e3, 10.0, 10.0, Some(100.0), 1.0).unwrap();
    let est = MonteCarlo::new(config).trials(2_000).seed(2024).run();
    assert_eq!(est.completed_trials + est.censored_trials, 2_000);
    assert_eq!(
        est.mttdl_hours.estimate.to_bits(),
        4671385771920347421, // estimate 20578.437995986187 h
        "vanilla MTTDL bits moved: the historical stream is no longer intact \
         (estimate {})",
        est.mttdl_hours.estimate
    );
}

/// Every figure an estimate reports, as `to_bits`: the counts, the MTTDL
/// estimate and bounds, ESS, mean faults and repairs, the variance ratio
/// and the loss probability (estimate and bounds) at three missions.
#[derive(Debug, PartialEq)]
struct Figures {
    losses: u64,
    censored: u64,
    mttdl: [u64; 3],
    ess: u64,
    faults: u64,
    repairs: u64,
    variance_ratio: Option<u64>,
    loss_by: [[u64; 3]; 3],
}

fn figures(est: &MttdlEstimate, missions: [f64; 3]) -> Figures {
    let ci = est.mttdl_hours;
    Figures {
        losses: est.completed_trials,
        censored: est.censored_trials,
        mttdl: [ci.estimate.to_bits(), ci.lower.to_bits(), ci.upper.to_bits()],
        ess: est.effective_sample_size.to_bits(),
        faults: est.mean_faults_per_trial.to_bits(),
        repairs: est.mean_repairs_per_trial.to_bits(),
        variance_ratio: est.variance_ratio_vs_vanilla.map(f64::to_bits),
        loss_by: missions.map(|m| {
            let p = est.loss_probability_by(m);
            [p.estimate.to_bits(), p.lower.to_bits(), p.upper.to_bits()]
        }),
    }
}

/// The canonical per-group Monte-Carlo config (`workloads::mc_group`) at
/// `replicas` replicas and correlation `alpha`, as the demo campaign's
/// `replication` sweep builds it.
fn mc_group_point(replicas: usize, alpha: f64) -> SimConfig {
    SimConfig::new(
        replicas,
        1,
        1.0e3,
        5.0e3,
        10.0,
        10.0,
        DetectionModel::PeriodicScrub { period_hours: 100.0 },
        alpha,
    )
    .unwrap()
}

/// The loop paths tier-1 pins: every correlation branch (the `α`-redraw
/// on a first fault and on the last repair), every detection model, both
/// draw disciplines, importance sampling, splitting and a group wider than
/// any the repository builds (10 replicas, through `with_policy`). Each
/// entry is `(name, config, root trials, seed, missions)`; each runs well
/// under a second in debug.
fn loop_cases() -> Vec<(&'static str, SimConfig, u64, u64, [f64; 3])> {
    let detected_by =
        |detection| SimConfig::new(3, 1, 1.0e3, 5.0e3, 10.0, 10.0, detection, 0.5).unwrap();
    let importance = RareEventStrategy::ImportanceSampling { tilt: 30.0 };
    vec![
        ("replication_3x_alpha_0.5", mc_group_point(3, 0.5), 200, 5, [1.0e4, 1.0e5, 1.0e6]),
        ("replication_4x_alpha_0.5", mc_group_point(4, 0.5), 24, 5, [1.0e4, 1.0e5, 1.0e6]),
        ("mirror_alpha_0.05", mc_group_point(2, 0.05), 2_000, 6, [500.0, 2_000.0, 8_000.0]),
        (
            "mirror_alpha_0.5_scalar_draws",
            mc_group_point(2, 0.5).with_draw(DrawDiscipline::Scalar),
            2_000,
            6,
            [500.0, 2_000.0, 8_000.0],
        ),
        (
            "exponential_detection",
            detected_by(DetectionModel::Exponential { mean_hours: 50.0 }),
            100,
            7,
            [1.0e3, 1.0e4, 1.0e5],
        ),
        ("never_detected", detected_by(DetectionModel::Never), 1_000, 8, [500.0, 2_000.0, 8_000.0]),
        (
            "importance_rare",
            rare_mirror().with_strategy(importance),
            2_000,
            9,
            [1_000.0, 4_000.0, units::HOURS_PER_YEAR],
        ),
        (
            "importance_rare_alpha_0.2",
            SimConfig { alpha: 0.2, ..rare_mirror() }.with_strategy(importance),
            2_000,
            9,
            [1_000.0, 4_000.0, units::HOURS_PER_YEAR],
        ),
        (
            "splitting_3x",
            mc_group_point(3, 0.5)
                .with_max_hours(2.0e4)
                .with_strategy(RareEventStrategy::Splitting { levels: 2, offspring: 4 }),
            100,
            10,
            [1.0e3, 5.0e3, 2.0e4],
        ),
        (
            "wide_7_of_10",
            mc_group_point(2, 0.5).with_policy(RedundancyPolicy::ErasureCoded { k: 7, n: 10 }),
            100,
            11,
            [1.0e3, 1.0e4, 1.0e5],
        ),
    ]
}

/// `loop_cases`' figures, recorded before the trial loop was reworked to
/// keep its state in registers; `to_bits` of each.
const LOOP_PINS: [(&str, Figures); 10] = [
    (
        "replication_3x_alpha_0.5",
        Figures {
            losses: 200,
            censored: 0,
            mttdl: [4684301780793914964, 4683464633145511605, 4684999438782416205],
            ess: 4641240890982006784,
            faults: 4647998005661201859,
            repairs: 4647971617382135235,
            variance_ratio: None,
            loss_by: [
                [4588087156379966505, 4584588138063097236, 4591566601363444273],
                [4602228459209909862, 4601001970972007021, 4603075370490846209],
                [4607182418800017408, 4607012675187689373, 4607182418800017407],
            ],
        },
    ),
    (
        "replication_4x_alpha_0.5",
        Figures {
            losses: 24,
            censored: 0,
            mttdl: [4700101994581691244, 4697613291134560566, 4702174354501809873],
            ess: 4627448617123184640,
            faults: 4665920093755714219,
            repairs: 4665917894732458667,
            variance_ratio: None,
            loss_by: [
                [0, 0, 4594139137029819864],
                [4590669220166325589, 4582332295392407500, 4598328126186855794],
                [4600427019358961664, 4596791485842852425, 4603335447394458188],
            ],
        },
    ),
    (
        "mirror_alpha_0.05",
        Figures {
            losses: 2000,
            censored: 0,
            mttdl: [4654104939443925613, 4653828466656575294, 4654381412231275932],
            ess: 4656510908468559872,
            faults: 4616596630871082009,
            repairs: 4612500044060035121,
            variance_ratio: None,
            loss_by: [
                [4598922817083419918, 4598571497842074359, 4599288537192179291],
                [4604885582990058455, 4604709408964327876, 4605053296074502740],
                [4607159900801880556, 4607129824382285863, 4607172796330495937],
            ],
        },
    ),
    (
        "mirror_alpha_0.5_scalar_draws",
        Figures {
            losses: 2000,
            censored: 0,
            mttdl: [4666948860931976053, 4666692128991957663, 4667205592871994443],
            ess: 4656510908468559872,
            faults: 4627757958122589651,
            repairs: 4627195008169168339,
            variance_ratio: None,
            loss_by: [
                [4586934234875359658, 4585718104781438525, 4588400670693538175],
                [4595743275746496348, 4595155496160394219, 4596374914089470285],
                [4603043610742463922, 4602846372057734829, 4603239450781796709],
            ],
        },
    ),
    (
        "exponential_detection",
        Figures {
            losses: 100,
            censored: 0,
            mttdl: [4684747655015376083, 4683415283291987065, 4685915862152100714],
            ess: 4636737291354636288,
            faults: 4648428618395104051,
            repairs: 4648402230116037427,
            variance_ratio: None,
            loss_by: [
                [0, 0, 4585492146068472272],
                [4584304132692975288, 4577064952368487436, 4590754682747369940],
                [4602138387217362452, 4600428968136433233, 4603283305204341834],
            ],
        },
    ),
    (
        "never_detected",
        Figures {
            losses: 1000,
            censored: 0,
            mttdl: [4659480589770012366, 4659192062814010062, 4659769116726014670],
            ess: 4652007308841189376,
            faults: 4623361600461345915,
            repairs: 4621672750601081979,
            variance_ratio: None,
            loss_by: [
                [4579800533065604792, 4576405743456392036, 4582747970268721152],
                [4599111968267769479, 4598613793365594391, 4599637442124307479],
                [4606840145228337250, 4606716504120643661, 4606931937555940773],
            ],
        },
    ),
    (
        "importance_rare",
        Figures {
            losses: 464,
            censored: 1536,
            mttdl: [4662110569823633747, 4661712426972727171, 4662508712674540323],
            ess: 4641092694268942096,
            faults: 4610785298501913805,
            repairs: 4607211692197595316,
            variance_ratio: Some(4643768329532604536),
            loss_by: [
                [4535266321802153721, 4531782629083448542, 4537078916681538435],
                [4549454565877304812, 4548684780654179201, 4550224351100430423],
                [4555588193633189393, 4554662988954828227, 4556513398311550559],
            ],
        },
    ),
    (
        "importance_rare_alpha_0.2",
        Figures {
            losses: 1261,
            censored: 739,
            mttdl: [4661557196263278409, 4660283139766060033, 4662360015479295122],
            ess: 4628416805129614794,
            faults: 4611197377867818205,
            repairs: 4602998574746190217,
            variance_ratio: Some(4628701758478059713),
            loss_by: [
                [4536037407105763780, 4528291965595190260, 4539706264268732742],
                [4551051461502073352, 4544747236821326488, 4554275358021477218],
                [4557644233025978576, 4554296814435104084, 4559318647384934134],
            ],
        },
    ),
    (
        "splitting_3x",
        Figures {
            losses: 206,
            censored: 1391,
            mttdl: [4666315624262967835, 4665902131115064148, 4666729117410871522],
            ess: 4641451997214539776,
            faults: 4652537713250428518,
            repairs: 4652505431589037015,
            variance_ratio: Some(4624454561807084101),
            loss_by: [
                [4570793333810863800, 4560759423928275876, 4574344408356146244],
                [4585925428558828667, 4584071792558076929, 4587482750507036406],
                [4593806727906727035, 4592707345234993461, 4594423973237004379],
            ],
        },
    ),
    (
        "wide_7_of_10",
        Figures {
            losses: 100,
            censored: 0,
            mttdl: [4670175480160547057, 4668649205487684780, 4670967284208306843],
            ess: 4636737291354636288,
            faults: 4642162721530734182,
            repairs: 4642021984042378854,
            variance_ratio: None,
            loss_by: [
                [4585925428558828667, 4580171861378329086, 4591752777708754682],
                [4600156803381319434, 4598584366228138708, 4601915836910643886],
                [4607182418800017408, 4606849210985475044, 4607182418800017408],
            ],
        },
    ),
];

#[test]
fn every_loop_path_is_pinned() {
    // Bit equality on every path is what lets the trial loop be rewritten
    // for speed: any change of draw order or arithmetic moves these bits.
    let cases = loop_cases();
    assert_eq!(cases.len(), LOOP_PINS.len());
    for ((name, config, trials, seed, missions), (pinned, want)) in cases.into_iter().zip(LOOP_PINS)
    {
        assert_eq!(name, pinned);
        let est = MonteCarlo::new(config).trials(trials).seed(seed).threads(2).run();
        assert_eq!(figures(&est, missions), want, "{name}: the loop's figures moved");
    }
}
