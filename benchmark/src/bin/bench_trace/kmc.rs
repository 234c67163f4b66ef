//! `KmcSimulation::cycle` replayed call by call, over any transport:
//! the two single-rank KMC workloads use it with `LoopbackK`, the
//! coupled replay with `CommK`.

use mmds_benchmark::run::{timed, Fingerprint};
use mmds_benchmark::spec::{KmcDenseSize, KmcFullghostSize};
use mmds_benchmark::stats::median;
use mmds_benchmark::trace::{durations_ms, totals_by_name, Recorder};
use mmds_benchmark::workloads::{fold_kmc, kmc_box, run_events, ON_DEMAND};
use mmds_kmc::comm::{KmcTransport, LoopbackK};
use mmds_kmc::exchange::{post_sector, pre_sector};
use mmds_kmc::solver::{run_sector, sectors};
use mmds_kmc::sublattice::SITE_EVAL_SECONDS;
use mmds_kmc::{ExchangeStrategy, KmcSimulation};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::Values;

/// The spans whose self times are the layers of a KMC cycle.
const LAYERS: [(&str, &str); 4] = [
    ("kmc.sector", "kmc.sector_s"),
    ("kmc.pre_sector", "kmc.pre_sector_s"),
    ("kmc.post_sector", "kmc.post_sector_s"),
    ("kmc.sync_dt", "kmc.sync_dt_s"),
];

/// Exchange accounting summed over replayed cycles.
#[derive(Debug, Default, Clone, Copy)]
pub struct Traffic {
    /// Payload bytes the strategy sent.
    pub ghost_bytes: u64,
    /// Bytes the full-ghost exchange would have sent.
    pub baseline_bytes: u64,
    /// Sites shipped.
    pub dirty_sites: u64,
    /// Sites a full put would ship.
    pub candidate_sites: u64,
}

/// `KmcSimulation`'s private event stream, kept on the outside.
pub struct Replay {
    /// The simulation whose public state the replay advances.
    pub sim: KmcSimulation,
    rng: StdRng,
    /// Exchange accounting so far.
    pub traffic: Traffic,
}

impl Replay {
    /// Wraps a freshly built simulation (nothing cycled yet).
    pub fn new(sim: KmcSimulation) -> Self {
        let rng = StdRng::seed_from_u64(sim.cfg.seed);
        Self {
            sim,
            rng,
            traffic: Traffic::default(),
        }
    }

    /// `KmcSimulation::cycle`.
    pub fn cycle(
        &mut self,
        strategy: ExchangeStrategy,
        t: &mut impl KmcTransport,
        rec: &mut Recorder,
    ) -> u64 {
        rec.scope("kmc.cycle", |rec| {
            let sim = &mut self.sim;
            let dt = rec.scope("kmc.sync_dt", |_| sim.compute_dt(t));
            if dt <= 0.0 {
                sim.time = sim.cfg.t_threshold;
                return 0;
            }
            let evals_before = sim.stats.rate.site_evals;
            let mut events = 0;
            for sec in sectors() {
                self.traffic.ghost_bytes += rec.scope("kmc.pre_sector", |_| {
                    pre_sector(strategy, &mut sim.lat, sec, t)
                });
                let out = rec.scope("kmc.sector", |_| {
                    run_sector(
                        &mut sim.lat,
                        &sim.model,
                        sec,
                        dt,
                        &mut self.rng,
                        &mut sim.stats.rate,
                    )
                });
                events += out.events;
                let xfer = rec.scope("kmc.post_sector", |_| {
                    post_sector(strategy, &mut sim.lat, sec, &out.dirty, t)
                });
                self.traffic.ghost_bytes += xfer.bytes;
                self.traffic.baseline_bytes += xfer.baseline_bytes;
                self.traffic.dirty_sites += xfer.dirty_sites;
                self.traffic.candidate_sites += xfer.candidate_sites;
            }
            sim.stats.events += events;
            sim.stats.cycles += 1;
            sim.time += dt;
            let evals = sim.stats.rate.site_evals - evals_before;
            t.tick_compute(evals as f64 * SITE_EVAL_SECONDS);
            events
        })
    }

    /// `cycles` cycles; returns the events executed.
    pub fn run_cycles(
        &mut self,
        strategy: ExchangeStrategy,
        t: &mut impl KmcTransport,
        cycles: usize,
        rec: &mut Recorder,
    ) -> u64 {
        (0..cycles).map(|_| self.cycle(strategy, t, rec)).sum()
    }

    /// Whole cycles until `target` more events have executed.
    fn run_events(&mut self, strategy: ExchangeStrategy, target: u64, rec: &mut Recorder) -> u64 {
        run_events(target, || self.cycle(strategy, &mut LoopbackK, rec)).0
    }
}

/// Runs `warm` then times `work` (which returns its events) on a fresh
/// box, and reports the timed region. Returns the traced fingerprint and
/// timed-region seconds.
fn replay_box(
    mut replay: Replay,
    rec: &mut Recorder,
    out: &mut Values,
    warm: impl FnOnce(&mut Replay, &mut Recorder),
    work: impl FnOnce(&mut Replay, &mut Recorder) -> u64,
) -> (Fingerprint, f64) {
    warm(&mut replay, rec);
    let mark = rec.mark();
    replay.traffic = Traffic::default();
    let evals_before = replay.sim.stats.rate.site_evals;
    let (wall_s, events) = timed(|| work(&mut replay, rec));
    let site_evals = replay.sim.stats.rate.site_evals - evals_before;

    let layer_sum = out.set_layers(&totals_by_name(rec.spans(), mark), &LAYERS);
    out.set("kmc.layer_sum_over_wall", layer_sum / wall_s);
    out.set(
        "kmc.cycle_p50_ms",
        median(&durations_ms(rec.since(mark), "kmc.cycle")),
    );
    out.set("kmc.events", events as f64);
    out.set("kmc.site_evals", site_evals as f64);
    out.set(
        "kmc.site_evals_per_event",
        site_evals as f64 / events.max(1) as f64,
    );
    let t = replay.traffic;
    out.set("kmc.ghost_bytes", t.ghost_bytes as f64);
    out.set("kmc.baseline_bytes", t.baseline_bytes as f64);
    out.set(
        "kmc.volume_ratio",
        t.ghost_bytes as f64 / t.baseline_bytes.max(1) as f64,
    );
    out.set(
        "kmc.dirty_fraction",
        t.dirty_sites as f64 / t.candidate_sites.max(1) as f64,
    );
    (fold_kmc(&replay.sim), wall_s)
}

/// The traced `kmc_dense` repetition.
pub fn run_dense(
    size: KmcDenseSize,
    seed: u64,
    rec: &mut Recorder,
    out: &mut Values,
) -> (Fingerprint, f64) {
    let (sim, _) = kmc_box(
        size.cells,
        KmcDenseSize::VACANCY_FRACTION,
        KmcDenseSize::EVENTS_PER_CYCLE,
        seed,
    );
    replay_box(
        Replay::new(sim),
        rec,
        out,
        |r, rec| {
            r.run_events(ON_DEMAND, size.warmup_events, rec);
        },
        |r, rec| r.run_events(ON_DEMAND, size.timed_events, rec),
    )
}

/// The traced `kmc_fullghost` repetition.
pub fn run_fullghost(
    size: KmcFullghostSize,
    seed: u64,
    rec: &mut Recorder,
    out: &mut Values,
) -> (Fingerprint, f64) {
    let (sim, _) = kmc_box(
        size.cells,
        KmcFullghostSize::VACANCY_FRACTION,
        KmcFullghostSize::EVENTS_PER_CYCLE,
        seed,
    );
    let strategy = ExchangeStrategy::Traditional;
    replay_box(
        Replay::new(sim),
        rec,
        out,
        |r, rec| {
            r.run_cycles(strategy, &mut LoopbackK, size.warmup_cycles, rec);
        },
        |r, rec| r.run_cycles(strategy, &mut LoopbackK, size.timed_cycles, rec),
    )
}
