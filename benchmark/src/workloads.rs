//! The four workloads through the production entry points only:
//! `MdSimulation::{single_box, init_velocities, step}`,
//! `KmcSimulation::{new, initialize, run_cycles}`,
//! `KmcLattice::seed_vacancies`, `run_coupled_parallel` and `World`.
//!
//! Nothing here reaches below those calls, so a change to a layer's
//! public functions cannot take the end-to-end numbers down. One
//! repetition builds the state from the seed, warms it up (set-up) and
//! then times a fixed amount of work; the same seed gives the same
//! repetition, bit for bit.

use std::time::Instant;

use mmds_coupled::parallel::{run_coupled_parallel, CoupledRankSummary, ParallelCoupledParams};
use mmds_kmc::comm::LoopbackK;
use mmds_kmc::lattice::required_ghost;
use mmds_kmc::{ExchangeStrategy, KmcConfig, KmcSimulation, OnDemandMode};
use mmds_lattice::{BccGeometry, LocalGrid};
use mmds_md::domain::Loopback;
use mmds_md::sim::StepSample;
use mmds_md::{MdConfig, MdSimulation, OffloadConfig};
use mmds_swmpi::world::RankOutput;
use mmds_swmpi::World;

use crate::run::{Check, Fingerprint, Folded};
use crate::spec::{
    CoupledSize, KmcDenseSize, KmcFullghostSize, MdBulkSize, Sizes, Workload, NVE_DRIFT_LIMIT,
};

/// The exchange the on-demand workloads use.
pub const ON_DEMAND: ExchangeStrategy = ExchangeStrategy::OnDemand(OnDemandMode::OneSided);

/// Decorrelates the vacancy placement from the event stream.
const VACANCY_SEED_SALT: u64 = 0xACE1;

/// What one repetition measured.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Construction alone: tables, lattice, offsets, seeding.
    pub build_s: f64,
    /// Start of the repetition to the start of the timed region.
    pub setup_s: f64,
    /// The timed region.
    pub wall_s: f64,
    /// Units of work the timed region completed (atom-steps, events or
    /// site-cycles; see each workload).
    pub work: u64,
    /// Folded over everything the entry points returned.
    pub fingerprint: Fingerprint,
    /// Checks on this repetition's outputs.
    pub checks: Vec<Check>,
}

/// The paper's MD set-up: Fe at 600 K, 1 fs, Berendsen thermostat,
/// 5 000-knot compacted tables.
pub fn md_config(seed: u64) -> MdConfig {
    MdConfig {
        seed,
        ..Default::default()
    }
}

/// Folds a step's observables into a fingerprint.
pub fn fold_step(fp: &mut Folded, s: &StepSample) {
    fp.float(s.pair);
    fp.float(s.embed);
    fp.float(s.kinetic);
    fp.float(s.temperature);
}

fn step_is_finite(s: &StepSample) -> bool {
    [s.pair, s.embed, s.kinetic, s.temperature]
        .iter()
        .all(|x| x.is_finite())
}

/// `md_bulk`: work is atom-steps.
pub fn md_bulk(size: MdBulkSize, seed: u64) -> Rep {
    let t0 = Instant::now();
    let mut sim = MdSimulation::single_box(md_config(seed), size.cells);
    sim.init_velocities();
    let build_s = t0.elapsed().as_secs_f64();
    let atoms = sim.n_atoms();
    let mut samples = Vec::with_capacity(size.warmup_steps + size.timed_steps);
    for _ in 0..size.warmup_steps {
        samples.push(sim.step(&mut Loopback));
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    for _ in 0..size.timed_steps {
        samples.push(sim.step(&mut Loopback));
    }
    let wall_s = t1.elapsed().as_secs_f64();

    let mut folded = Folded::default();
    samples.iter().for_each(|s| fold_step(&mut folded, s));
    let finite = samples.iter().all(step_is_finite);
    let last = samples.last().copied().unwrap_or_default();
    Rep {
        build_s,
        setup_s,
        wall_s,
        work: (atoms * size.timed_steps) as u64,
        fingerprint: folded.fingerprint(),
        checks: vec![
            Check::new(
                "md.finite_energies",
                finite,
                format!(
                    "last step E={:.6e} eV T={:.1} K",
                    last.total(),
                    last.temperature
                ),
            ),
            Check::new(
                "md.atoms_conserved",
                sim.n_atoms() == atoms,
                format!("{} atoms before, {} after", atoms, sim.n_atoms()),
            ),
        ],
    }
}

/// Parameters of one `coupled_2r` call running `1 / divisor` of the
/// timed work.
pub fn coupled_params(size: CoupledSize, seed: u64, divisor: usize) -> ParallelCoupledParams {
    ParallelCoupledParams {
        md: md_config(seed),
        kmc: KmcConfig {
            seed,
            ..Default::default()
        },
        offload: OffloadConfig::optimized(),
        global_cells: [size.cells; 3],
        md_steps: size.md_steps / divisor,
        kmc_cycles: size.kmc_cycles / divisor,
        pka_energy: Some(CoupledSize::PKA_EV),
        seed_concentration: 0.0,
        strategy: ON_DEMAND,
    }
}

/// Folds everything a coupled run returns into a fingerprint.
pub fn fold_coupled(out: &[RankOutput<CoupledRankSummary>]) -> Fingerprint {
    let mut fp = Folded::default();
    for r in out {
        fp.word(r.result.md_vacancies as u64);
        fp.word(r.result.kmc_events);
        fp.word(r.result.final_vacancies as u64);
        fp.float(r.result.md_time);
        fp.float(r.result.kmc_time);
        fp.float(r.clock);
        fp.word(r.stats.msgs_sent);
        fp.word(r.stats.bytes_sent);
        fp.word(r.stats.puts);
        fp.word(r.stats.bytes_put);
        fp.word(r.stats.collectives);
    }
    fp.fingerprint()
}

/// The checks on a coupled run's per-rank summaries.
pub fn coupled_checks(out: &[RankOutput<CoupledRankSummary>]) -> Vec<Check> {
    let after_md: usize = out.iter().map(|r| r.result.md_vacancies).sum();
    let at_end: usize = out.iter().map(|r| r.result.final_vacancies).sum();
    let clocks_ok = out
        .iter()
        .all(|r| r.clock.is_finite() && r.result.md_time > 0.0 && r.result.kmc_time > 0.0);
    vec![
        Check::new(
            "coupled.vacancies_conserved",
            after_md == at_end && after_md > 0,
            format!("{after_md} after MD, {at_end} after KMC"),
        ),
        Check::new(
            "coupled.finite_clocks",
            clocks_ok,
            format!(
                "virtual clocks {:?}",
                out.iter().map(|r| r.clock).collect::<Vec<_>>()
            ),
        ),
    ]
}

/// `coupled_2r`: set-up is a quarter-size call, the timed region one
/// full-size call. Work is atom-steps plus site-cycles.
pub fn coupled_2r(size: CoupledSize, seed: u64) -> Rep {
    let world = World::default_world();
    let t0 = Instant::now();
    run_coupled_parallel(
        &world,
        CoupledSize::RANKS,
        &coupled_params(size, seed, CoupledSize::WARMUP_DIVISOR),
    );
    let setup_s = t0.elapsed().as_secs_f64();
    let params = coupled_params(size, seed, 1);
    let t1 = Instant::now();
    let out = run_coupled_parallel(&world, CoupledSize::RANKS, &params);
    let wall_s = t1.elapsed().as_secs_f64();
    let sites = 2 * size.cells.pow(3);
    Rep {
        // Construction happens inside the entry point; the traced run
        // reports it.
        build_s: 0.0,
        setup_s,
        wall_s,
        work: (sites * (params.md_steps + params.kmc_cycles)) as u64,
        fingerprint: fold_coupled(&out),
        checks: coupled_checks(&out),
    }
}

/// A single-rank KMC box with `fraction` of its sites vacant, ghosts
/// filled, ready to cycle; and how long that took.
pub fn kmc_box(
    cells: usize,
    fraction: f64,
    events_per_cycle: f64,
    seed: u64,
) -> (KmcSimulation, f64) {
    let t0 = Instant::now();
    let cfg = KmcConfig {
        events_per_cycle,
        seed,
        ..Default::default()
    };
    let ghost = required_ghost(cfg.a0, cfg.rate_cutoff);
    let grid = LocalGrid::whole(BccGeometry::new(cfg.a0, cells, cells, cells), ghost);
    let mut sim = KmcSimulation::new(cfg, grid);
    let n = (fraction * sim.lat.n_owned() as f64).round().max(1.0) as usize;
    sim.lat.seed_vacancies(n, seed ^ VACANCY_SEED_SALT);
    sim.initialize(&mut LoopbackK);
    (sim, t0.elapsed().as_secs_f64())
}

/// The fingerprint of a KMC box's observable state.
pub fn fold_kmc(sim: &KmcSimulation) -> Fingerprint {
    let mut fp = Folded::default();
    fp.float(sim.time);
    fp.word(sim.stats.events);
    fp.word(sim.stats.cycles);
    fp.word(sim.stats.rate.site_evals);
    sim.lat.vacancies().for_each(|s| fp.word(s as u64));
    fp.fingerprint()
}

/// `kmc_dense`'s stop rule: calls `cycle` (one whole cycle, returning
/// its events) until `target` events have executed. Returns the events
/// executed and whether the target was reached before the cycle cap (a
/// box whose vacancies stopped moving).
pub fn run_events(target: u64, mut cycle: impl FnMut() -> u64) -> (u64, bool) {
    let cap = 1000 + 100 * target;
    let mut events = 0;
    let mut cycles = 0;
    while events < target && cycles < cap {
        events += cycle();
        cycles += 1;
    }
    (events, events >= target)
}

fn kmc_checks(sim: &KmcSimulation, seeded: usize, completed: bool) -> Vec<Check> {
    vec![
        Check::new(
            "kmc.vacancies_conserved",
            sim.lat.n_vacancies() == seeded,
            format!("{seeded} seeded, {} at the end", sim.lat.n_vacancies()),
        ),
        Check::new(
            "kmc.work_completed",
            completed && sim.time.is_finite() && sim.time > 0.0,
            format!(
                "{} events in {} cycles, t={:.4e} s",
                sim.stats.events, sim.stats.cycles, sim.time
            ),
        ),
    ]
}

/// `kmc_dense`: work is events.
pub fn kmc_dense(size: KmcDenseSize, seed: u64) -> Rep {
    let t0 = Instant::now();
    let (mut sim, build_s) = kmc_box(
        size.cells,
        KmcDenseSize::VACANCY_FRACTION,
        KmcDenseSize::EVENTS_PER_CYCLE,
        seed,
    );
    let seeded = sim.lat.n_vacancies();
    let cycle = |sim: &mut KmcSimulation| sim.run_cycles(ON_DEMAND, &mut LoopbackK, 1);
    let (_, warmed) = run_events(size.warmup_events, || cycle(&mut sim));
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let (events, done) = run_events(size.timed_events, || cycle(&mut sim));
    let wall_s = t1.elapsed().as_secs_f64();
    Rep {
        build_s,
        setup_s,
        wall_s,
        work: events,
        fingerprint: fold_kmc(&sim),
        checks: kmc_checks(&sim, seeded, warmed && done),
    }
}

/// `kmc_fullghost`: work is site-cycles.
pub fn kmc_fullghost(size: KmcFullghostSize, seed: u64) -> Rep {
    let t0 = Instant::now();
    let (mut sim, build_s) = kmc_box(
        size.cells,
        KmcFullghostSize::VACANCY_FRACTION,
        KmcFullghostSize::EVENTS_PER_CYCLE,
        seed,
    );
    let seeded = sim.lat.n_vacancies();
    sim.run_cycles(
        ExchangeStrategy::Traditional,
        &mut LoopbackK,
        size.warmup_cycles,
    );
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    sim.run_cycles(
        ExchangeStrategy::Traditional,
        &mut LoopbackK,
        size.timed_cycles,
    );
    let wall_s = t1.elapsed().as_secs_f64();
    Rep {
        build_s,
        setup_s,
        wall_s,
        work: (sim.lat.n_owned() * size.timed_cycles) as u64,
        fingerprint: fold_kmc(&sim),
        checks: kmc_checks(&sim, seeded, true),
    }
}

/// One repetition of `workload`.
pub fn repetition(workload: Workload, sizes: &Sizes, seed: u64) -> Rep {
    match workload {
        Workload::MdBulk => md_bulk(sizes.md_bulk, seed),
        Workload::Coupled2r => coupled_2r(sizes.coupled, seed),
        Workload::KmcDense => kmc_dense(sizes.kmc_dense, seed),
        Workload::KmcFullghost => kmc_fullghost(sizes.kmc_fullghost, seed),
    }
}

/// The frozen work of one repetition, for the run header.
pub fn describe(workload: Workload, sizes: &Sizes) -> String {
    match workload {
        Workload::MdBulk => {
            let s = sizes.md_bulk;
            format!(
                "{}^3 cells ({} atoms), 600 K, {} warm-up + {} timed steps",
                s.cells,
                2 * s.cells.pow(3),
                s.warmup_steps,
                s.timed_steps
            )
        }
        Workload::Coupled2r => {
            let s = sizes.coupled;
            format!(
                "{}^3 cells on {} ranks, {} eV PKA, {} MD steps + {} KMC cycles timed, a call of 1/{} of that as warm-up",
                s.cells,
                CoupledSize::RANKS,
                CoupledSize::PKA_EV,
                s.md_steps,
                s.kmc_cycles,
                CoupledSize::WARMUP_DIVISOR
            )
        }
        Workload::KmcDense => {
            let s = sizes.kmc_dense;
            format!(
                "{}^3 cells ({} sites), vacancy fraction {:e}, events_per_cycle {}, {} warm-up + {} timed events in whole cycles",
                s.cells,
                2 * s.cells.pow(3),
                KmcDenseSize::VACANCY_FRACTION,
                KmcDenseSize::EVENTS_PER_CYCLE,
                s.warmup_events,
                s.timed_events
            )
        }
        Workload::KmcFullghost => {
            let s = sizes.kmc_fullghost;
            format!(
                "{}^3 cells ({} sites), vacancy fraction {:e}, events_per_cycle {}, traditional exchange, {} warm-up + {} timed cycles",
                s.cells,
                2 * s.cells.pow(3),
                KmcFullghostSize::VACANCY_FRACTION,
                KmcFullghostSize::EVENTS_PER_CYCLE,
                s.warmup_cycles,
                s.timed_cycles
            )
        }
    }
}

/// Relative total-energy drift of an NVE run on the host path
/// (`check_cells`³ at 300 K), between the first and the last step.
pub fn nve_drift_host(sizes: &Sizes, seed: u64) -> f64 {
    let cfg = MdConfig {
        temperature: 300.0,
        thermostat_tau: None,
        ..md_config(seed)
    };
    let mut sim = MdSimulation::single_box(cfg, sizes.check_cells);
    sim.init_velocities();
    let e0 = sim.step(&mut Loopback).total();
    let mut last = e0;
    for _ in 0..sizes.nve_steps {
        last = sim.step(&mut Loopback).total();
    }
    (last - e0).abs() / e0.abs()
}

/// The NVE check from a measured drift.
pub fn nve_check(name: &str, drift: f64) -> Check {
    Check::new(
        name,
        drift < NVE_DRIFT_LIMIT,
        format!("relative drift {drift:.3e}, limit {NVE_DRIFT_LIMIT:e}"),
    )
}

/// On-demand and traditional exchange must leave the same owned
/// vacancies after the same short run.
pub fn ondemand_equals_traditional(sizes: &Sizes, seed: u64) -> Check {
    let cycles = sizes.kmc_fullghost.warmup_cycles.min(40);
    let end_state = |strategy| {
        let (mut sim, _) = kmc_box(
            sizes.kmc_fullghost.cells,
            KmcFullghostSize::VACANCY_FRACTION,
            KmcFullghostSize::EVENTS_PER_CYCLE,
            seed,
        );
        let events = sim.run_cycles(strategy, &mut LoopbackK, cycles);
        (events, sim.lat.vacancies().collect::<Vec<_>>())
    };
    let (ev_t, vac_t) = end_state(ExchangeStrategy::Traditional);
    let (ev_o, vac_o) = end_state(ON_DEMAND);
    Check::new(
        "kmc.ondemand_equals_traditional",
        vac_t == vac_o && ev_t == ev_o,
        format!(
            "{cycles} cycles: {ev_t} vs {ev_o} events, {} vs {} vacancies",
            vac_t.len(),
            vac_o.len()
        ),
    )
}
