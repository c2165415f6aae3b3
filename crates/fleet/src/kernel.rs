//! The per-shard discrete-event kernel.
//!
//! One kernel simulates the replica groups assigned to one logical shard
//! over the whole horizon, against the shared burst timeline. The
//! stochastic semantics deliberately mirror `ltds_sim::TrialRunner` —
//! per-replica visible/latent fault races, deterministic repair windows,
//! periodic latent-fault detection, and `α`-acceleration while any replica
//! in a group is faulty — so that with unlimited bandwidth and no bursts a
//! fleet of one group reproduces the per-group simulator's MTTDL (the
//! degeneracy test in `tests/model_vs_simulator.rs`).
//!
//! On data loss a group *renews*: the loss interval is recorded and the
//! group restarts intact at the loss time (fresh data re-ingested
//! elsewhere). Completed intervals are therefore i.i.d. samples of the
//! per-group time-to-loss, which is what makes fleet results comparable to
//! per-trial Monte-Carlo estimates.
//!
//! Everything is deterministic given `(config, seed)`: the kernel's RNG is
//! consumed strictly in event order, events tie-break by insertion order,
//! and burst victims come from a pre-generated shared timeline. The
//! config's [`DrawDiscipline`] selects how exponential delays are drawn
//! (ziggurat by default, the scalar inverse CDF for stream compatibility
//! with pre-ziggurat pinned digests); either way the event distribution is
//! identical.
//!
//! The hot paths are allocation- and division-free: slot → drive and
//! slot → group are direct loads from the shard's lazily built
//! [`ShardView`] tables, fault delays come from pre-resolved
//! [`FaultRace`]s (normal and `α`-accelerated means fixed per config), and
//! burst victim lists reuse one scratch buffer per shard. Setup is
//! *thinned* to O(expected events) — the number of slots whose first fault
//! lands inside the horizon is drawn binomially and only those slots are
//! sampled — and per-slot scratch is *generation-stamped*: resetting a
//! shard's state is a counter bump, not a memset of full-fleet arrays, and
//! a slot's arrays are initialized the first time the shard actually
//! touches it.
//!
//! [`ShardView`]: crate::placement::ShardView
//! [`DrawDiscipline`]: ltds_stochastic::DrawDiscipline

use crate::bursts::Burst;
use crate::config::FleetConfig;
use crate::placement::{PlacementIndex, ShardView};
use crate::queue::{EventKind, EventQueue};
use crate::repair::SitePipeline;
use crate::report::{PolicyTally, ShardOutcome};
use ltds_core::fault::FaultClass;
use ltds_sim::config::RedundancyPolicy;
use ltds_stochastic::{Binomial, Exponential, FaultRace, SimRng};
use ltds_telemetry::{NoTelemetry, Probe, ProbeEvent};

/// Per-slot kernel state, packed so one event touches one cache line:
/// the generation stamp, the staleness token, the replica state and the
/// pending fault class live in 12 bytes instead of four parallel arrays.
#[derive(Debug, Clone, Copy)]
struct SlotState {
    /// Generation stamp; the entry is live iff it matches the scratch's.
    generation: u32,
    /// Staleness token; bumped on every transition or resample.
    token: u32,
    /// Replica state (`INTACT` / `FAULTY`).
    state: u8,
    /// Class of an intact slot's pending next fault; while the slot is
    /// faulty, class of its *active* fault (consulted at detection time).
    /// Always written before read, so never reset.
    pending_class: FaultClass,
}

const SLOT_RESET: SlotState =
    SlotState { generation: 0, token: 0, state: INTACT, pending_class: FaultClass::Visible };

/// Reusable per-worker kernel buffers: a worker thread allocates one
/// scratch and runs every shard it owns through it.
///
/// The per-*slot* state (the packed 12-byte slot record plus the
/// `reserved` pipeline-hours array) is guarded by a generation stamp: a
/// slot's entries are logically `(INTACT, token 0, reserved 0.0)` until
/// the slot is *touched* this generation, and the per-shard reset bumps
/// the generation counter instead of memsetting full-fleet arrays. The
/// per-*group* arrays are a replica-factor smaller and stay plain fills.
#[derive(Debug, Default)]
pub struct KernelScratch {
    /// Current generation; slot entries are valid iff their stamp matches.
    generation: u32,
    slots: Vec<SlotState>,
    faulty_count: Vec<u16>,
    birth: Vec<f64>,
    reserved: Vec<f64>,
    victims: Vec<u32>,
    /// Per-local-group loss threshold under mixed policies. Filled by
    /// `run_probed` for banded configs, empty (and never read) otherwise —
    /// uniform fleets keep the scalar-threshold fast path.
    group_threshold: Vec<u16>,
    /// Per-local-group erasure quorum `k`; `0` marks a replicated group
    /// (whole-object repair), `k > 0` selects the fragment-rebuild path.
    group_k: Vec<u16>,
    /// Per-local-group policy-band index into the outcome's policy tallies.
    group_band: Vec<u16>,
}

impl KernelScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Prepares the scratch for a shard of `n_slots` slots over `n_local`
    /// groups: one generation bump plus O(groups-per-shard) fills — no
    /// per-slot work.
    fn begin_shard(&mut self, n_slots: usize, n_local: usize) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // A u32 wrap (4 billion shards through one scratch) could alias
            // stale stamps; restart the epoch explicitly.
            for slot in self.slots.iter_mut() {
                slot.generation = 0;
            }
            self.generation = 1;
        }
        // Resizes only initialize *appended* entries; existing entries are
        // invalidated wholesale by the generation bump above. New entries
        // use generation 0, which the current generation can never equal
        // (see the wrap guard).
        self.slots.resize(n_slots, SLOT_RESET);
        self.reserved.resize(n_slots, 0.0);
        reset(&mut self.faulty_count, n_local, 0);
        reset(&mut self.birth, n_local, 0.0);
    }
}

/// Sizes a buffer and resets every element.
fn reset<T: Copy>(buf: &mut Vec<T>, len: usize, value: T) {
    buf.resize(len, value);
    buf.fill(value);
}

/// Runs the groups of one shard over the horizon.
pub struct ShardKernel<'a> {
    config: &'a FleetConfig,
    bursts: &'a [Burst],
    index: &'a PlacementIndex,
}

impl<'a> ShardKernel<'a> {
    /// Creates a kernel over a config, the shared burst timeline and the
    /// shared placement index.
    pub fn new(config: &'a FleetConfig, bursts: &'a [Burst], index: &'a PlacementIndex) -> Self {
        Self { config, bursts, index }
    }

    /// Number of groups assigned to `shard` (groups are dealt round-robin:
    /// global group `g` lives in shard `g % shards`).
    pub fn groups_in_shard(&self, shard: usize) -> usize {
        let groups = self.config.groups;
        let shards = self.config.shards;
        assert!(shard < shards, "shard {shard} out of range 0..{shards}");
        (groups + shards - 1 - shard) / shards
    }

    /// Simulates the shard, consuming its dedicated RNG sub-stream and
    /// reusing `scratch` for all per-slot state.
    pub fn run_with(&self, shard: usize, rng: SimRng, scratch: &mut KernelScratch) -> ShardOutcome {
        self.run_probed(shard, rng, scratch, &mut NoTelemetry)
    }

    /// Simulates the shard with an instrumentation probe. The probe surface
    /// is statically dispatched and behaviour-free: every call site is
    /// gated on [`Probe::ENABLED`] (so [`run_with`](Self::run_with), which
    /// passes the disabled probe, compiles to the uninstrumented kernel)
    /// and probes never consume RNG — the outcome is bit-identical with
    /// telemetry on or off.
    pub fn run_probed<P: Probe>(
        &self,
        shard: usize,
        mut rng: SimRng,
        scratch: &mut KernelScratch,
        probe: &mut P,
    ) -> ShardOutcome {
        let cfg = self.config;
        let stride = cfg.slot_stride();
        let threshold = cfg.group.loss_threshold();
        let banded = !cfg.group_policies.is_empty();
        let n_local = self.groups_in_shard(shard);
        let mut out = ShardOutcome::default();
        if n_local == 0 {
            return out;
        }
        let placement = self.index.shard(shard);
        // Uniform fleets: `n_local * stride`. Mixed-policy fleets: the sum
        // of the local groups' policy widths, read off the base table.
        let n_slots = placement.n_slots();

        // Fault races with the normal and `α`-accelerated means resolved up
        // front (the accelerated mean uses the same `mean / (1/α)`
        // arithmetic the per-call path used, so delays are bit-identical),
        // drawing through the config's discipline.
        let inv_alpha = 1.0 / cfg.group.alpha;
        let race_normal = FaultRace::new(cfg.group.mttf_visible_hours, cfg.group.mttf_latent_hours)
            .with_draw(cfg.group.draw);
        let race_accel = FaultRace::new(
            cfg.group.mttf_visible_hours / inv_alpha,
            cfg.group.mttf_latent_hours / inv_alpha,
        )
        .with_draw(cfg.group.draw);

        scratch.begin_shard(n_slots, n_local);
        // Mixed-policy configs get per-group threshold / quorum / band
        // tables (O(groups-per-shard) to build); uniform configs leave them
        // empty and keep the scalar threshold — arithmetic, RNG stream and
        // pinned digests are untouched by the banded machinery.
        if banded {
            reset(&mut scratch.group_threshold, n_local, 0);
            reset(&mut scratch.group_k, n_local, 0);
            reset(&mut scratch.group_band, n_local, 0);
            out.policy_totals = cfg
                .group_policies
                .as_slice()
                .iter()
                .map(|band| PolicyTally::new(band.policy))
                .collect();
            for local in 0..n_local {
                let (band, policy) = cfg.group_policies.band_of(shard + local * cfg.shards);
                scratch.group_threshold[local] = policy.loss_threshold() as u16;
                scratch.group_k[local] = match policy {
                    RedundancyPolicy::Replicated { .. } => 0,
                    RedundancyPolicy::ErasureCoded { k, .. } => k as u16,
                };
                scratch.group_band[local] = band as u16;
                out.policy_totals[band].groups += 1;
            }
        } else {
            scratch.group_threshold.clear();
            scratch.group_k.clear();
            scratch.group_band.clear();
        }
        let KernelScratch {
            generation,
            slots,
            faulty_count,
            birth,
            reserved,
            victims,
            group_threshold,
            group_k,
            group_band,
        } = scratch;
        let limited =
            matches!(cfg.repair_bandwidth, crate::config::RepairBandwidth::PerSiteBytesPerHour(_));
        let mut sim = Sim {
            cfg,
            placement,
            stride,
            threshold,
            banded,
            group_threshold: group_threshold.as_slice(),
            group_k: group_k.as_slice(),
            group_band: group_band.as_slice(),
            horizon: cfg.horizon_hours,
            race_normal,
            race_accel,
            generation: *generation,
            slots,
            faulty_count,
            birth,
            limited,
            reserved,
            pipelines: (0..cfg.topology.sites)
                .map(|_| SitePipeline::new(cfg.shard_site_rate(n_local)))
                .collect(),
            queue: EventQueue::with_capacity(n_slots + self.bursts.len()),
            victims,
            probe,
        };

        // Initial fault sampling — thinned to the within-horizon slots, in
        // slot order — and the burst timeline.
        sim.sample_initial_faults(&mut rng);
        for (index, burst) in self.bursts.iter().enumerate() {
            if burst.time_hours <= sim.horizon {
                sim.queue.push(burst.time_hours, 0, EventKind::Burst { index: index as u32 });
            }
        }

        // Event loop. Events past the horizon are never scheduled, so the
        // queue simply drains. Every slot referenced by a queued event was
        // touched (generation-stamped) when the event was pushed, so the
        // hot paths read the arrays directly.
        while let Some(event) = sim.queue.pop() {
            out.events += 1;
            if P::ENABLED {
                sim.probe.tick(event.time, sim.queue.len());
            }
            match event.kind {
                EventKind::Fault { slot } => {
                    let entry = sim.slots[slot as usize];
                    if entry.token != event.token {
                        continue; // stale: the slot was resampled, repaired or renewed
                    }
                    sim.handle_fault(
                        slot,
                        event.time,
                        entry.pending_class,
                        false,
                        &mut rng,
                        &mut out,
                    );
                }
                EventKind::RepairReady { slot } => {
                    let entry = sim.slots[slot as usize];
                    if entry.token != event.token {
                        continue; // stale: the group was lost and renewed meanwhile
                    }
                    sim.commit_repair(slot, event.time, entry.pending_class, &mut out);
                }
                EventKind::RepairDone { slot } => {
                    if sim.slots[slot as usize].token != event.token {
                        continue; // stale: the group was lost and renewed meanwhile
                    }
                    sim.handle_repair_done(slot, event.time, &mut rng);
                    out.repairs += 1;
                    if sim.banded {
                        let band = sim.group_band[sim.group_of(slot)] as usize;
                        out.policy_totals[band].repairs += 1;
                    }
                }
                EventKind::Burst { index } => {
                    let burst = &self.bursts[index as usize];
                    sim.apply_burst(burst, &mut rng, &mut out);
                }
            }
        }

        for pipeline in &sim.pipelines {
            out.repair_wait.merge(pipeline.wait_stats());
        }
        out
    }
}

const INTACT: u8 = 0;
const FAULTY: u8 = 1;

/// Mutable simulation state of one shard.
struct Sim<'a, P: Probe> {
    cfg: &'a FleetConfig,
    /// This shard's placement view (slot → drive/group, drive → site /
    /// detection, burst residents, per-group slot base/width).
    placement: ShardView<'a>,
    /// The fleet's slot stride (uniform replica count, or the widest
    /// policy's fragment count under mixed policies). Only used to map
    /// variable-width slots onto the telemetry grid.
    stride: usize,
    /// Uniform loss threshold; consulted only when `banded` is false.
    threshold: usize,
    /// Whether per-group policy tables are in force.
    banded: bool,
    /// Per-local-group loss threshold (empty unless `banded`).
    group_threshold: &'a [u16],
    /// Per-local-group erasure quorum `k`, `0` = replicated (empty unless
    /// `banded`).
    group_k: &'a [u16],
    /// Per-local-group policy-band index (empty unless `banded`).
    group_band: &'a [u16],
    horizon: f64,
    /// Pre-resolved visible-vs-latent race at the baseline rates.
    race_normal: FaultRace,
    /// Pre-resolved race at the `α`-accelerated rates.
    race_accel: FaultRace,
    /// This shard's scratch generation; slot entries are live iff stamped.
    generation: u32,
    /// Per-slot packed state (see [`Sim::touch`]).
    slots: &'a mut Vec<SlotState>,
    /// Currently faulty replicas per local group.
    faulty_count: &'a mut Vec<u16>,
    /// Renewal time of each local group (loss intervals measure from here).
    birth: &'a mut Vec<f64>,
    /// Whether repair bandwidth is constrained (reservations are only
    /// tracked when there is a pipeline to refund them to).
    limited: bool,
    /// Pipeline hours reserved by each slot's committed, not-yet-finished
    /// repair (refunded if the group is lost before the repair completes).
    /// Maintained only under `limited`.
    reserved: &'a mut Vec<f64>,
    /// Per-site repair pipelines (this shard's bandwidth slice).
    pipelines: Vec<SitePipeline>,
    queue: EventQueue,
    /// Reusable burst-victim scratch buffer (no per-burst allocation).
    victims: &'a mut Vec<u32>,
    /// Instrumentation probe; every use is gated on [`Probe::ENABLED`], so
    /// the disabled probe leaves no trace in the compiled hot paths.
    probe: &'a mut P,
}

impl<P: Probe> Sim<'_, P> {
    /// Brings a slot's scratch entries into the current generation,
    /// initializing them to the reset values on first touch. Called on the
    /// cold entry points (initial sampling, sibling resamples, renewals,
    /// burst victims); the event loop's hot paths rely on every scheduled
    /// slot having been touched at push time.
    #[inline]
    fn touch(&mut self, s: usize) {
        if self.slots[s].generation != self.generation {
            self.slots[s] = SlotState { generation: self.generation, ..SLOT_RESET };
            if self.limited {
                self.reserved[s] = 0.0;
            }
        }
    }

    /// Samples every slot's first fault in one thinned pass.
    ///
    /// Each slot's first fault is within the horizon independently with
    /// `p = 1 − e^{−horizon/combined_mean}` under the baseline
    /// [`FaultRace`]. Instead of drawing a delay for all `n` slots and
    /// discarding the out-of-horizon ones (the dense pass this replaces),
    /// the within-horizon slots are visited directly via
    /// [`Binomial::positions`] — marginally a `Binomial(n, p)` count with
    /// the hit slots a uniform subset, i.e. the same joint distribution —
    /// and each hit draws its delay from the exponential *conditioned* on
    /// landing inside the horizon plus its independent winner identity.
    /// Expected RNG cost is O(expected initial events), not O(slots).
    ///
    /// NOTE: this consumes the RNG differently from the dense pass, so the
    /// pinned FleetReport digests in `tests/fleet_properties.rs` were
    /// re-pinned when it landed; the distribution of scheduled events is
    /// unchanged (degeneracy vs `MonteCarlo` holds statistically).
    fn sample_initial_faults(&mut self, rng: &mut SimRng) {
        let n_slots = self.slots.len() as u64;
        let p_within = -(-self.horizon / self.race_normal.combined_mean()).exp_m1();
        let delay =
            Exponential::with_mean(self.race_normal.combined_mean()).truncated(self.horizon);
        let mut hits = Binomial::new(n_slots, p_within).positions();
        while let Some(slot) = hits.next(rng) {
            let s = slot as usize;
            let at = delay.sample(rng);
            let visible = self.race_normal.sample_winner(rng);
            self.touch(s);
            let entry = &mut self.slots[s];
            entry.token = entry.token.wrapping_add(1);
            entry.pending_class = if visible { FaultClass::Visible } else { FaultClass::Latent };
            self.queue.push(at, entry.token, EventKind::Fault { slot: slot as u32 });
        }
    }

    /// Drive hosting a shard-local slot: a direct load from the shard's
    /// placement table.
    #[inline]
    fn drive_of(&self, slot: u32) -> usize {
        self.placement.drive_of_slot(slot as usize)
    }

    /// Local group of a shard-local slot (preresolved `slot / replicas`).
    #[inline]
    fn group_of(&self, slot: u32) -> usize {
        self.placement.group_of_slot(slot as usize)
    }

    /// First slot of a local group (a base-table load; for uniform fleets
    /// this equals `group * stride`).
    #[inline]
    fn base_of(&self, group: usize) -> usize {
        self.placement.base_of_group(group)
    }

    /// Fragment count of a local group (its policy's width).
    #[inline]
    fn width_of(&self, group: usize) -> usize {
        self.placement.width_of_group(group)
    }

    /// Loss threshold of a local group: the scalar config threshold for
    /// uniform fleets, the group's policy threshold under mixed policies.
    #[inline]
    fn threshold_of(&self, group: usize) -> usize {
        if self.banded {
            self.group_threshold[group] as usize
        } else {
            self.threshold
        }
    }

    /// Telemetry slot id. Mixed-policy fleets renumber variable-width slots
    /// onto the uniform `group * stride + fragment` grid the trace decoder
    /// assumes; for uniform fleets the base table *is* that grid, so this
    /// is the identity and traces stay byte-identical.
    #[inline]
    fn tslot(&self, slot: u32) -> u32 {
        if !self.banded {
            return slot;
        }
        let group = self.group_of(slot);
        (group * self.stride + (slot as usize - self.base_of(group))) as u32
    }

    /// Samples a slot's next fault at the given acceleration level and
    /// schedules it. Mirrors `TrialRunner::sample_next_fault` (both draw
    /// through the shared [`FaultRace`]); the winner's identity is drawn
    /// only for faults inside the horizon — the class of a fault that never
    /// fires is never consulted, and minimum and identity are independent,
    /// so skipping the draw is distribution-exact. Callers guarantee the
    /// slot is touched.
    #[inline]
    fn resample(&mut self, slot: u32, now: f64, accel: bool, rng: &mut SimRng) {
        let s = slot as usize;
        self.slots[s].token = self.slots[s].token.wrapping_add(1);
        let race = if accel { &self.race_accel } else { &self.race_normal };
        let at = now + race.sample_delay(rng);
        if at <= self.horizon {
            let visible = race.sample_winner(rng);
            let entry = &mut self.slots[s];
            entry.pending_class = if visible { FaultClass::Visible } else { FaultClass::Latent };
            self.queue.push(at, entry.token, EventKind::Fault { slot });
        }
    }

    /// Whether fault processes run accelerated while `faulty` replicas of a
    /// group are down (with `α = 1` acceleration is a no-op: both races
    /// carry identical means).
    #[inline]
    fn accelerated(&self, faulty: u16) -> bool {
        faulty > 0
    }

    /// Time at which a latent fault occurring at `now` on `slot` is
    /// detected by the scrub tour (infinite if never).
    fn detection_time(&self, slot: u32, now: f64) -> f64 {
        match self.placement.detection_of_drive(self.drive_of(slot)) {
            None => f64::INFINITY,
            Some((period, phase)) => {
                if now < phase {
                    phase
                } else {
                    ((now - phase) / period).floor() * period + period + phase
                }
            }
        }
    }

    /// One replica faults (organically or from a burst).
    fn handle_fault(
        &mut self,
        slot: u32,
        now: f64,
        class: FaultClass,
        from_burst: bool,
        rng: &mut SimRng,
        out: &mut ShardOutcome,
    ) {
        let s = slot as usize;
        debug_assert_eq!(self.slots[s].state, INTACT);
        let group = self.group_of(slot);
        let faulty_before = self.faulty_count[group];
        self.slots[s].state = FAULTY;
        self.slots[s].token = self.slots[s].token.wrapping_add(1);
        self.faulty_count[group] = faulty_before + 1;
        out.faults += 1;
        if from_burst {
            out.burst_faults += 1;
        }
        if self.banded {
            out.policy_totals[self.group_band[group] as usize].faults += 1;
        }
        if P::ENABLED {
            self.probe.record(
                now,
                self.tslot(slot),
                ProbeEvent::Fault { class, from_burst, faulty: faulty_before + 1 },
            );
        }

        if self.faulty_count[group] as usize >= self.threshold_of(group) {
            out.record_loss(now - self.birth[group], class);
            if self.banded {
                out.policy_totals[self.group_band[group] as usize].losses += 1;
            }
            if P::ENABLED {
                self.probe.loss(now, group as u32, now - self.birth[group], class);
            }
            self.renew_group(group, now, rng);
            return;
        }

        // Remember the active fault's class (burst faults may differ from
        // the slot's sampled pending class) for the eventual repair commit.
        self.slots[s].pending_class = class;

        // Visible faults enter the site repair pipeline immediately; latent
        // faults only once the scrub tour finds them (a RepairReady event at
        // detection time), so an undetected fault never reserves bandwidth
        // ahead of repairs that are actually ready.
        match class {
            FaultClass::Visible => self.commit_repair(slot, now, class, out),
            FaultClass::Latent => {
                let detect_at = self.detection_time(slot, now);
                if detect_at <= self.horizon {
                    self.queue.push(
                        detect_at,
                        self.slots[s].token,
                        EventKind::RepairReady { slot },
                    );
                }
            }
        }

        // First fault in the group: accelerate the surviving replicas.
        if faulty_before == 0 && self.cfg.group.alpha < 1.0 {
            self.resample_intact_siblings(slot, group, now, true, rng);
        }
    }

    /// Commits a ready repair to the slot's site pipeline and schedules its
    /// completion. Pipelines therefore serve repairs in ready order (fault
    /// time for visible faults, detection time for latent ones).
    ///
    /// Replicated groups copy the whole object onto the failed slot's site
    /// (one write transfer). Erasure-coded groups rebuild one *fragment*:
    /// the first `k` intact siblings in slot order each stream their
    /// fragment through their own site pipeline (deterministic source
    /// selection — no RNG, so the replicated stream is untouched), the
    /// rebuilt fragment is written through the failed slot's site, and the
    /// repair completes when the slowest leg does. Only the write leg is
    /// tracked in `reserved` (refunded on group renewal); read legs are
    /// sunk bandwidth either way.
    fn commit_repair(&mut self, slot: u32, now: f64, class: FaultClass, out: &mut ShardOutcome) {
        let s = slot as usize;
        let base = match class {
            FaultClass::Visible => self.cfg.group.repair_visible_hours,
            FaultClass::Latent => self.cfg.group.repair_latent_hours,
        };
        let group = self.group_of(slot);
        let k = if self.banded { self.group_k[group] as usize } else { 0 };
        let site = self.placement.site_of_drive(self.drive_of(slot));
        if k == 0 {
            // Replicated: bit-identical to the pre-policy kernel.
            if P::ENABLED {
                // Probed before `schedule` mutates the pipeline: the backlog
                // at commit time *is* the queueing wait the FIFO imposes.
                self.probe.record(
                    now,
                    self.tslot(slot),
                    ProbeEvent::RepairStart {
                        class,
                        site: site as u32,
                        wait_hours: self.pipelines[site].backlog_hours(now),
                        transfer_hours: self.pipelines[site].transfer_hours(self.cfg.group_bytes),
                    },
                );
            }
            let done = self.pipelines[site].schedule(now, base, self.cfg.group_bytes);
            if self.limited {
                self.reserved[s] = self.pipelines[site].transfer_hours(self.cfg.group_bytes);
            }
            if self.banded {
                out.policy_totals[self.group_band[group] as usize].write_bytes +=
                    self.cfg.group_bytes;
            }
            if done <= self.horizon {
                self.queue.push(done, self.slots[s].token, EventKind::RepairDone { slot });
            }
            return;
        }

        // Erasure-coded fragment rebuild.
        let frag = self.cfg.group_bytes / k as f64;
        if P::ENABLED {
            self.probe.record(
                now,
                self.tslot(slot),
                ProbeEvent::RepairStart {
                    class,
                    site: site as u32,
                    wait_hours: self.pipelines[site].backlog_hours(now),
                    transfer_hours: self.pipelines[site].transfer_hours(frag),
                },
            );
        }
        let mut done = self.pipelines[site].schedule(now, base, frag);
        if self.limited {
            self.reserved[s] = self.pipelines[site].transfer_hours(frag);
        }
        let group_base = self.base_of(group);
        let width = self.width_of(group);
        let mut read_bytes = 0.0;
        let mut remaining = k;
        for r in 0..width {
            if remaining == 0 {
                break;
            }
            let sib = group_base + r;
            if sib == s {
                continue;
            }
            self.touch(sib);
            if self.slots[sib].state != INTACT {
                continue;
            }
            let src_site = self.placement.site_of_drive(self.drive_of(sib as u32));
            done = done.max(self.pipelines[src_site].schedule(now, 0.0, frag));
            read_bytes += frag;
            remaining -= 1;
        }
        // The group is not lost at commit time (loss renews and bumps the
        // staleness token), so at most `threshold - 1 = n - k` fragments are
        // faulty — at least `k` intact sources besides the target exist.
        debug_assert_eq!(remaining, 0, "an unlost EC group keeps at least k intact fragments");
        let tally = &mut out.policy_totals[self.group_band[group] as usize];
        tally.read_bytes += read_bytes;
        tally.write_bytes += frag;
        if done <= self.horizon {
            self.queue.push(done, self.slots[s].token, EventKind::RepairDone { slot });
        }
    }

    /// A repair completes: the replica returns to service with fresh data.
    fn handle_repair_done(&mut self, slot: u32, now: f64, rng: &mut SimRng) {
        let s = slot as usize;
        debug_assert_eq!(self.slots[s].state, FAULTY);
        let group = self.group_of(slot);
        self.slots[s].state = INTACT;
        if self.limited {
            self.reserved[s] = 0.0;
        }
        self.faulty_count[group] -= 1;
        let faulty_now = self.faulty_count[group];
        if P::ENABLED {
            let site = self.placement.site_of_drive(self.drive_of(slot)) as u32;
            self.probe.record(
                now,
                self.tslot(slot),
                ProbeEvent::RepairDone {
                    class: self.slots[s].pending_class,
                    site,
                    faulty: faulty_now,
                },
            );
        }
        self.resample(slot, now, self.accelerated(faulty_now), rng);
        // The group just became fault-free: decelerate the others.
        if faulty_now == 0 && self.cfg.group.alpha < 1.0 {
            self.resample_intact_siblings(slot, group, now, false, rng);
        }
    }

    /// Resamples every intact replica of `group` except `slot`.
    fn resample_intact_siblings(
        &mut self,
        slot: u32,
        group: usize,
        now: f64,
        accel: bool,
        rng: &mut SimRng,
    ) {
        let base = self.base_of(group);
        for r in 0..self.width_of(group) {
            let sibling = (base + r) as u32;
            if sibling != slot {
                self.touch(base + r);
                if self.slots[base + r].state == INTACT {
                    self.resample(sibling, now, accel, rng);
                }
            }
        }
    }

    /// Data loss: record the interval and restart the group intact.
    fn renew_group(&mut self, group: usize, now: f64, rng: &mut SimRng) {
        self.faulty_count[group] = 0;
        self.birth[group] = now;
        let base = self.base_of(group);
        let width = self.width_of(group);
        for r in 0..width {
            let s = base + r;
            self.touch(s);
            // Repairs of the dead group are cancelled: hand any pipeline
            // hours they still held back to the site, so phantom
            // reservations do not starve the survivors.
            if self.limited && self.reserved[s] > 0.0 {
                let site = self.placement.site_of_drive(self.drive_of(s as u32));
                self.pipelines[site].refund(now, self.reserved[s]);
                self.reserved[s] = 0.0;
            }
            self.slots[s].state = INTACT;
        }
        for r in 0..width {
            self.resample((base + r) as u32, now, false, rng);
        }
    }

    /// A correlated burst faults every intact replica stored in its blast
    /// radius. Already-faulty replicas are unaffected (their data is
    /// already gone or queued for repair), and a group that is lost and
    /// renewed mid-burst is not immediately re-faulted by the same burst:
    /// renewal stamps `birth[group]` with the loss time, which equals the
    /// burst time here, so the renewed group's fresh replicas are skipped.
    /// (A staleness-token check would be wrong for this — faulting one
    /// victim resamples its *intact* siblings under `α`-acceleration, which
    /// bumps their tokens even though they must still be struck.)
    fn apply_burst(&mut self, burst: &Burst, rng: &mut SimRng, out: &mut ShardOutcome) {
        if !self.placement.drive_slots_available() {
            return;
        }
        let class = burst.domain.fault_class();
        // Victims are snapshotted before any fault is applied (faulting a
        // victim must not re-order or hide later ones); the buffer is
        // reused across bursts.
        let mut victims = std::mem::take(self.victims);
        victims.clear();
        for drive in burst.affected_drives(&self.cfg.topology) {
            victims.extend_from_slice(self.placement.drive_slots(drive));
        }
        for &slot in &victims {
            self.touch(slot as usize);
            let group = self.group_of(slot);
            if self.slots[slot as usize].state == INTACT && self.birth[group] != burst.time_hours {
                self.handle_fault(slot, burst.time_hours, class, true, rng, out);
            }
        }
        *self.victims = victims;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bursts::{BurstProfile, FaultDomain};
    use crate::config::RepairBandwidth;
    use crate::topology::FleetTopology;
    use ltds_sim::config::SimConfig;

    fn kernel_run(
        config: &FleetConfig,
        bursts: &[Burst],
        shard: usize,
        rng: SimRng,
    ) -> ShardOutcome {
        let index = PlacementIndex::build(config, !bursts.is_empty());
        ShardKernel::new(config, bursts, &index).run_with(shard, rng, &mut KernelScratch::new())
    }

    fn fragile_group() -> SimConfig {
        SimConfig::mirrored_disks(1000.0, 5000.0, 10.0, 10.0, Some(100.0), 1.0).unwrap()
    }

    fn small_config() -> FleetConfig {
        let topo = FleetTopology::new(2, 2, 2, 4).unwrap();
        FleetConfig::new(topo, 50, fragile_group())
            .unwrap()
            .with_horizon_hours(50_000.0)
            .with_shards(4)
    }

    #[test]
    fn shard_group_deal_covers_every_group_once() {
        let config = small_config();
        let index = PlacementIndex::build(&config, false);
        let kernel = ShardKernel::new(&config, &[], &index);
        let total: usize = (0..config.shards).map(|s| kernel.groups_in_shard(s)).sum();
        assert_eq!(total, config.groups);
    }

    #[test]
    fn kernel_is_deterministic_for_a_seed() {
        let config = small_config();
        let a = kernel_run(&config, &[], 1, SimRng::seed_from(9).fork(1));
        let b = kernel_run(&config, &[], 1, SimRng::seed_from(9).fork(1));
        assert_eq!(a.losses, b.losses);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.events, b.events);
        assert_eq!(a.loss_intervals.mean(), b.loss_intervals.mean());
    }

    #[test]
    fn stale_generation_slots_read_as_reset_values() {
        // The dirty-list contract: after a begin_shard, every slot written
        // under an older generation must read back as the reset state the
        // moment it is touched — without any per-slot work at reset time.
        let mut scratch = KernelScratch::new();
        scratch.begin_shard(8, 4);
        let generation = scratch.generation;
        for s in 0..8 {
            // Simulate a shard that touched and dirtied every slot.
            scratch.slots[s] = SlotState {
                generation,
                token: 41 + s as u32,
                state: FAULTY,
                pending_class: FaultClass::Latent,
            };
            scratch.reserved[s] = 7.5;
        }

        // Next shard: reset is one counter bump; the dirty values are
        // still physically present...
        scratch.begin_shard(8, 4);
        assert_eq!(scratch.slots[3].token, 44, "reset must not rewrite slot memory");
        // ...but logically stale: a touch (the only way the kernel reads a
        // cold slot) restores the reset values.
        for s in 0..8 {
            let slot = &mut scratch.slots[s];
            if slot.generation != scratch.generation {
                *slot = SlotState { generation: scratch.generation, ..SLOT_RESET };
                scratch.reserved[s] = 0.0;
            }
            assert_eq!(scratch.slots[s].token, 0, "stale token must read as reset");
            assert_eq!(scratch.slots[s].state, INTACT, "stale state must read as reset");
            assert_eq!(scratch.reserved[s], 0.0, "stale reservation must read as reset");
        }

        // Shrinking then regrowing across shards must not resurrect stale
        // high-water entries either.
        scratch.begin_shard(4, 2);
        scratch.begin_shard(8, 4);
        assert_ne!(scratch.slots[7].generation, scratch.generation, "slot 7 is untouched");
    }

    #[test]
    fn scratch_reuse_across_shards_is_equivalent_to_fresh_scratch() {
        // The generation-stamped scratch must behave exactly like freshly
        // reset arrays, shard after shard — including when a later shard is
        // *smaller* than an earlier one (stale high-water entries).
        let config = small_config();
        let index = PlacementIndex::build(&config, false);
        let kernel = ShardKernel::new(&config, &[], &index);
        let mut reused = KernelScratch::new();
        for round in 0..3 {
            for shard in (0..config.shards).rev() {
                let rng = SimRng::seed_from(7).fork(shard as u64);
                let shared = kernel.run_with(shard, rng.clone(), &mut reused);
                let fresh = kernel.run_with(shard, rng, &mut KernelScratch::new());
                assert_eq!(shared.losses, fresh.losses, "round {round}, shard {shard}");
                assert_eq!(shared.events, fresh.events, "round {round}, shard {shard}");
                assert_eq!(
                    shared.loss_intervals.mean().to_bits(),
                    fresh.loss_intervals.mean().to_bits(),
                    "round {round}, shard {shard}"
                );
            }
        }
    }

    #[test]
    fn fragile_groups_lose_data_repeatedly() {
        let config = small_config();
        let out = kernel_run(&config, &[], 0, SimRng::seed_from(3).fork(0));
        assert!(out.losses > 10, "expected many renewals, got {}", out.losses);
        assert!(out.faults > out.losses);
        assert!(out.repairs > 0);
        assert_eq!(out.burst_faults, 0);
        assert_eq!(out.fatal_visible + out.fatal_latent, out.losses);
    }

    #[test]
    fn site_burst_faults_resident_replicas() {
        // One massive site burst at t=10 against an otherwise indestructible
        // fleet: every replica in site 0 faults, and mirrored groups with
        // both replicas... cannot exist (replicas go to distinct sites), so
        // no data is lost — but the burst faults show up.
        let topo = FleetTopology::new(2, 1, 1, 8).unwrap();
        let sturdy = SimConfig::mirrored_disks(1e12, 1e12, 1.0, 1.0, Some(100.0), 1.0).unwrap();
        let config =
            FleetConfig::new(topo, 8, sturdy).unwrap().with_horizon_hours(1000.0).with_shards(1);
        let bursts = vec![Burst { time_hours: 10.0, domain: FaultDomain::Site, victim: 0 }];
        let out = kernel_run(&config, &bursts, 0, SimRng::seed_from(5).fork(0));
        assert_eq!(out.burst_faults, 8, "one replica of each group lives in site 0");
        assert_eq!(out.losses, 0);
        assert_eq!(out.repairs, 8, "all burst victims get repaired");
    }

    #[test]
    fn single_site_disaster_loses_cosited_groups() {
        // Everything in one site: a site burst takes out both replicas of
        // every group at once.
        let topo = FleetTopology::new(1, 1, 2, 4).unwrap();
        let sturdy = SimConfig::mirrored_disks(1e12, 1e12, 1.0, 1.0, Some(100.0), 1.0).unwrap();
        let config =
            FleetConfig::new(topo, 4, sturdy).unwrap().with_horizon_hours(1000.0).with_shards(1);
        let bursts = vec![Burst { time_hours: 10.0, domain: FaultDomain::Site, victim: 0 }];
        let out = kernel_run(&config, &bursts, 0, SimRng::seed_from(5).fork(0));
        assert_eq!(out.losses, 4, "every group was wholly inside the blast radius");
        assert!((out.loss_intervals.mean() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn correlated_burst_destroys_cosited_groups_even_under_alpha_acceleration() {
        // Regression: faulting the first victim of a burst resamples its
        // intact siblings when alpha < 1, which bumps their tokens; the
        // burst must still strike those siblings. With a token-snapshot
        // victim filter this lost the whole-group kill and no data loss was
        // recorded.
        let topo = FleetTopology::new(1, 1, 2, 4).unwrap();
        let sturdy = SimConfig::new(
            2,
            1,
            1e12,
            1e12,
            1.0,
            1.0,
            ltds_sim::config::DetectionModel::PeriodicScrub { period_hours: 100.0 },
            0.1, // correlated: first fault accelerates (and resamples) the sibling
        )
        .unwrap();
        let config =
            FleetConfig::new(topo, 4, sturdy).unwrap().with_horizon_hours(1_000.0).with_shards(1);
        let bursts = vec![Burst { time_hours: 10.0, domain: FaultDomain::Site, victim: 0 }];
        let out = kernel_run(&config, &bursts, 0, SimRng::seed_from(5).fork(0));
        assert_eq!(out.losses, 4, "every mirrored group was wholly inside the blast radius");
        assert_eq!(out.burst_faults, 8, "both replicas of each group must be struck");
        assert!((out.loss_intervals.mean() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn undetected_latent_faults_do_not_reserve_repair_bandwidth() {
        // One group's latent fault detected at t=100 must not block the
        // pipeline before t=100. With commit-at-fault-time scheduling, an
        // early latent fault reserved the (slow) pipeline from its future
        // detection point and pushed every later visible repair behind it.
        let topo = FleetTopology::single_node(4).unwrap();
        // Latent-only faults, detected by a slow scrub; transfers take 50h
        // on the constrained pipeline.
        let group = SimConfig::new(
            2,
            1,
            1e12,
            400.0,
            1.0,
            1.0,
            ltds_sim::config::DetectionModel::PeriodicScrub { period_hours: 500.0 },
            1.0,
        )
        .unwrap();
        let config = FleetConfig::new(topo, 2, group)
            .unwrap()
            .with_horizon_hours(10_000.0)
            .with_shards(1)
            .with_repair_bandwidth(RepairBandwidth::PerSiteBytesPerHour(1e9), 5e10);
        let out = kernel_run(&config, &[], 0, SimRng::seed_from(3).fork(0));
        // Every committed repair becomes ready at a scrub boundary; with
        // ready-order FIFO the queueing delay can never exceed the backlog
        // of transfers committed at the same boundary (< 4 * 50h), whereas
        // fault-order reservation produced waits spanning whole scrub
        // periods for repairs that were not yet detectable.
        assert!(out.repairs > 0);
        assert!(
            out.repair_wait.max() <= 200.0,
            "ready-order FIFO bounds the wait at one boundary's backlog, got {}",
            out.repair_wait.max()
        );
    }

    #[test]
    fn constrained_bandwidth_queues_repairs() {
        let topo = FleetTopology::new(2, 1, 1, 8).unwrap();
        let group = SimConfig::mirrored_disks(2000.0, 1e12, 1.0, 1.0, None, 1.0).unwrap();
        let config = FleetConfig::new(topo, 64, group)
            .unwrap()
            .with_horizon_hours(100_000.0)
            .with_shards(1)
            // ~10h per repair transfer: concurrent faults must queue.
            .with_repair_bandwidth(RepairBandwidth::PerSiteBytesPerHour(1e9), 1e10);
        let out = kernel_run(&config, &[], 0, SimRng::seed_from(11).fork(0));
        assert!(out.repair_wait.count() > 0);
        assert!(out.repair_wait.max() > 0.0, "some repair must have queued");
    }

    #[test]
    fn uniform_ec_band_matches_raw_min_intact_shape_with_unlimited_bandwidth() {
        // An erasure-coded band's loss rule is `live fragments < k`, i.e.
        // threshold `n - k + 1` — exactly what a raw `(replicas, min_intact)`
        // group already encodes. With unlimited bandwidth (zero transfer
        // time) the EC fan-in adds no delay and consumes no RNG, so the
        // banded kernel must reproduce the raw config event-for-event.
        let topo = FleetTopology::new(2, 2, 2, 4).unwrap();
        let group = SimConfig::new(
            4,
            2,
            1000.0,
            5000.0,
            10.0,
            10.0,
            ltds_sim::config::DetectionModel::PeriodicScrub { period_hours: 100.0 },
            1.0,
        )
        .unwrap();
        let raw = FleetConfig::new(topo, 40, group)
            .unwrap()
            .with_horizon_hours(50_000.0)
            .with_shards(4)
            // Unlimited bandwidth, but a real object size so the byte
            // tallies have something to count.
            .with_repair_bandwidth(RepairBandwidth::Unlimited, 1e9);
        let banded = raw.with_policy(ltds_sim::RedundancyPolicy::ErasureCoded { k: 2, n: 4 });
        assert!(!banded.group_policies.is_empty());
        for shard in 0..4 {
            let rng = SimRng::seed_from(21).fork(shard as u64);
            let a = kernel_run(&raw, &[], shard, rng.clone());
            let b = kernel_run(&banded, &[], shard, rng);
            assert_eq!(a.losses, b.losses, "shard {shard}");
            assert_eq!(a.faults, b.faults, "shard {shard}");
            assert_eq!(a.events, b.events, "shard {shard}");
            assert_eq!(a.repairs, b.repairs, "shard {shard}");
            assert_eq!(
                a.loss_intervals.mean().to_bits(),
                b.loss_intervals.mean().to_bits(),
                "shard {shard}"
            );
            assert!(a.policy_totals.is_empty(), "raw config carries no tallies");
            if b.faults > 0 {
                let tally = &b.policy_totals[0];
                assert_eq!(tally.faults, b.faults);
                assert_eq!(tally.losses, b.losses);
                assert!(tally.read_bytes > 0.0, "EC repairs read surviving fragments");
            }
        }
    }

    #[test]
    fn ec_repair_reads_k_fragments_and_writes_one() {
        // One EC{3,4} group spread over four sites, otherwise
        // indestructible; a site burst faults exactly the fragment resident
        // in site 0. Its rebuild must read the 3 surviving fragments
        // (k · B/k = B bytes) and write one fragment (B/k bytes).
        let topo = FleetTopology::new(4, 1, 1, 2).unwrap();
        let sturdy = SimConfig::new(
            4,
            3,
            1e12,
            1e12,
            1.0,
            1.0,
            ltds_sim::config::DetectionModel::PeriodicScrub { period_hours: 100.0 },
            1.0,
        )
        .unwrap();
        let config = FleetConfig::new(topo, 1, sturdy)
            .unwrap()
            .with_horizon_hours(1000.0)
            .with_shards(1)
            .with_repair_bandwidth(RepairBandwidth::PerSiteBytesPerHour(1e9), 6e9)
            .with_policy(ltds_sim::RedundancyPolicy::ErasureCoded { k: 3, n: 4 });
        let bursts = vec![Burst { time_hours: 10.0, domain: FaultDomain::Site, victim: 0 }];
        let out = kernel_run(&config, &bursts, 0, SimRng::seed_from(5).fork(0));
        assert_eq!(out.burst_faults, 1, "only fragment 0 lives in site 0");
        assert_eq!(out.losses, 0);
        assert_eq!(out.repairs, 1);
        let tally = &out.policy_totals[0];
        assert_eq!(tally.groups, 1);
        assert_eq!(tally.repairs, 1);
        let frag = config.group_bytes / 3.0;
        assert!((tally.read_bytes - 3.0 * frag).abs() < 1e-3, "read k fragments");
        assert!((tally.write_bytes - frag).abs() < 1e-3, "write one fragment");
    }

    #[test]
    fn mixed_policy_shard_is_deterministic_and_tallies_split_by_band() {
        let topo = FleetTopology::new(3, 2, 2, 6).unwrap();
        let fragile =
            SimConfig::mirrored_disks(1000.0, 5000.0, 10.0, 10.0, Some(100.0), 1.0).unwrap();
        let config = FleetConfig::new(topo, 30, fragile)
            .unwrap()
            .with_horizon_hours(50_000.0)
            .with_shards(2)
            .with_repair_bandwidth(RepairBandwidth::Unlimited, 2e9)
            .with_group_policies(&[
                (18, ltds_sim::RedundancyPolicy::Replicated { n: 3 }),
                (12, ltds_sim::RedundancyPolicy::ErasureCoded { k: 2, n: 6 }),
            ])
            .unwrap();
        let a = kernel_run(&config, &[], 0, SimRng::seed_from(17).fork(0));
        let b = kernel_run(&config, &[], 0, SimRng::seed_from(17).fork(0));
        assert_eq!(a.events, b.events);
        assert_eq!(a.losses, b.losses);
        assert_eq!(a.policy_totals, b.policy_totals);
        assert_eq!(a.policy_totals.len(), 2);
        // Shard 0 of a 2-shard deal over 30 groups holds the even groups:
        // 9 replicated (0..18) and 6 erasure-coded (18..30).
        assert_eq!(a.policy_totals[0].groups, 9);
        assert_eq!(a.policy_totals[1].groups, 6);
        assert_eq!(a.policy_totals[0].faults + a.policy_totals[1].faults, a.faults);
        assert_eq!(a.policy_totals[0].losses + a.policy_totals[1].losses, a.losses);
        assert_eq!(a.policy_totals[0].read_bytes, 0.0, "replicated repair reads nothing");
        assert!(a.policy_totals[1].read_bytes > 0.0, "EC repair reads fragments");
    }

    #[test]
    fn empty_shard_is_a_no_op() {
        let topo = FleetTopology::single_node(2).unwrap();
        let config = FleetConfig::new(topo, 2, fragile_group()).unwrap().with_shards(8);
        let out = kernel_run(&config, &[], 7, SimRng::seed_from(1).fork(7));
        assert_eq!(out.events, 0);
        assert_eq!(out.losses, 0);
    }

    #[test]
    fn bursts_profile_integration_is_reproducible() {
        let config = small_config().with_bursts(BurstProfile::disaster_scenario());
        let mut rng = SimRng::seed_from(42).fork(u64::MAX);
        let bursts = config.bursts.timeline(&config.topology, config.horizon_hours, &mut rng);
        let a = kernel_run(&config, &bursts, 2, SimRng::seed_from(42).fork(2));
        let b = kernel_run(&config, &bursts, 2, SimRng::seed_from(42).fork(2));
        assert_eq!(a.burst_faults, b.burst_faults);
        assert_eq!(a.losses, b.losses);
    }
}
