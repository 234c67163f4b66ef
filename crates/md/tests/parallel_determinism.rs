//! The production EAM passes must be bitwise deterministic: identical
//! ρ/force/energy at any worker-thread count, and identical to the
//! scalar reference (`PassConfig::seed_serial()`: serial half-list
//! sweeps with separate lookups, summing in the production order).
//!
//! The production path relies on fixed-size chunking (independent of
//! the thread count) for the per-pair work, and runs every sum — the
//! half list's scatter to both ends of a pair included — in one global
//! order on the calling thread; the fused `pair_density` lookup replays
//! the exact operation order of the two separate lookups, and the SoA
//! lane kernels replay the scalar op sequence per lane — so every
//! comparison below is `assert_eq`, not a tolerance.
//!
//! The second test crosses a 256-site chunk boundary off the 0 K
//! lattice (and carries a live run-away): the plan path's ordered ρ
//! write-back once lost one site per boundary, which a single-chunk box
//! or a perfect crystal (all ρ equal) cannot see.
//!
//! The third shrinks the run-away population across evaluations (two
//! run-away chunks, then one, then none): the gather plan keeps its
//! chunks across steps, so a chunk tail or a whole chunk left over from
//! a larger population must never be replayed, and handing `&mut`
//! chunks to workers must not depend on how many workers there are.

use std::sync::Mutex;

use mmds_md::domain::Loopback;
use mmds_md::force::PassConfig;
use mmds_md::sim::StepSample;
use mmds_md::{MdConfig, MdSimulation};

/// A full bitwise state snapshot after a few MD steps.
struct Snapshot {
    rho: Vec<f64>,
    force: Vec<[f64; 3]>,
    pos: Vec<[f64; 3]>,
    pair: f64,
    embed: f64,
}

impl Snapshot {
    fn of(sim: &MdSimulation, last: &StepSample) -> Self {
        Self {
            rho: sim.lnl.rho.clone(),
            force: sim.lnl.force.clone(),
            pos: sim.lnl.pos.clone(),
            pair: last.pair,
            embed: last.embed,
        }
    }
}

fn run(pass_config: PassConfig, steps: usize) -> Snapshot {
    let cfg = MdConfig {
        temperature: 700.0,
        table_knots: 2000,
        ..Default::default()
    };
    let mut sim = MdSimulation::single_box(cfg, 5);
    sim.pass_config = pass_config;
    sim.init_velocities();
    // A displaced atom makes the force field strongly anisotropic.
    let a = sim.lnl.grid.site_id(3, 3, 3, 0);
    sim.lnl.pos[a][0] += 0.3;
    let mut last = None;
    for _ in 0..steps {
        last = Some(sim.step(&mut Loopback));
    }
    Snapshot::of(&sim, &last.expect("at least one step"))
}

fn assert_bitwise(a: &Snapshot, b: &Snapshot, what: &str) {
    assert_eq!(a.rho, b.rho, "{what}: rho");
    assert_eq!(a.force, b.force, "{what}: force");
    assert_eq!(a.pos, b.pos, "{what}: positions");
    assert_eq!(a.pair.to_bits(), b.pair.to_bits(), "{what}: pair energy");
    assert_eq!(a.embed.to_bits(), b.embed.to_bits(), "{what}: embed energy");
}

/// Serialises the tests that sweep `RAYON_NUM_THREADS`, so one sweep
/// cannot unset the variable under another in the parallel harness.
static THREADS_ENV: Mutex<()> = Mutex::new(());

/// Runs `f` with the rayon shim pinned to `threads` workers.
fn with_threads<R>(threads: &str, f: impl FnOnce() -> R) -> R {
    let _guard = THREADS_ENV
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    std::env::set_var("RAYON_NUM_THREADS", threads);
    let out = f();
    std::env::remove_var("RAYON_NUM_THREADS");
    out
}

#[test]
fn passes_are_bitwise_deterministic_across_thread_counts() {
    let steps = 3;
    let reference = run(PassConfig::default(), steps);

    // Thread-count sweep: the shim honours RAYON_NUM_THREADS, so this
    // exercises 1, 2, and 8 workers even on a single-core host.
    for threads in ["1", "2", "8"] {
        let got = with_threads(threads, || run(PassConfig::default(), steps));
        assert_bitwise(&reference, &got, &format!("{threads} threads"));
    }

    // The seed's serial separate-lookup path is the ground truth the
    // production path must reproduce exactly.
    let seed = run(PassConfig::seed_serial(), steps);
    assert_bitwise(&reference, &seed, "seed serial path");
}

/// 6³ cells = 432 owned sites = two chunks (256 + 176), with thermal
/// velocities so neighbouring ρ differ after a step.
fn thermal_two_chunk_box(pass_config: PassConfig) -> MdSimulation {
    let cfg = MdConfig {
        temperature: 300.0,
        table_knots: 2000,
        ..Default::default()
    };
    let mut sim = MdSimulation::single_box(cfg, 6);
    assert!(sim.interior.len() > 256, "the box must span two chunks");
    sim.pass_config = pass_config;
    sim.init_velocities();
    sim
}

#[test]
fn plan_path_matches_seed_serial_across_a_chunk_boundary() {
    let run = |pass_config: PassConfig| {
        let mut sim = thermal_two_chunk_box(pass_config);
        // One atom pushed past the run-away threshold along [100], so
        // the run-away write-back loop runs too.
        let a = sim.lnl.grid.site_id(4, 4, 4, 0);
        sim.lnl.pos[a][0] += 1.1 * sim.cfg.runaway_distance();
        let mut last = None;
        for _ in 0..5 {
            last = Some(sim.step(&mut Loopback));
        }
        let ra = runaway_bits(&sim);
        assert!(
            !ra.is_empty(),
            "the displaced atom must still be a run-away"
        );
        (Snapshot::of(&sim, &last.expect("five steps ran")), ra)
    };
    let (plan, plan_ra) = run(PassConfig::default());
    let (seed, seed_ra) = run(PassConfig::seed_serial());
    assert_bitwise(&plan, &seed, "two-chunk thermal box vs seed serial path");
    assert_eq!(plan_ra, seed_ra, "run-away rho/force/position");
}

#[test]
fn nve_energy_is_conserved_across_a_chunk_boundary() {
    let mut sim = thermal_two_chunk_box(PassConfig::default());
    sim.cfg.thermostat_tau = None;
    let e0 = sim.step(&mut Loopback).total();
    let mut last = e0;
    for _ in 0..40 {
        last = sim.step(&mut Loopback).total();
    }
    let drift = (last - e0).abs() / e0.abs();
    assert!(drift < 2e-4, "relative NVE drift {drift:e} over 40 steps");
}

/// 7³ cells = 686 owned sites = three chunks (256 + 256 + 174) at
/// 600 K, with a run-away promoted off the site on each side of both
/// chunk edges: the forward (Newton) pairs of every chunk's last sites
/// land in the next chunk, and the run-aways' Newton-off pairs straddle
/// the edges.
fn three_chunk_box_with_edge_runaways(pass_config: PassConfig) -> MdSimulation {
    let cfg = MdConfig {
        temperature: 600.0,
        table_knots: 2000,
        ..Default::default()
    };
    let mut sim = MdSimulation::single_box(cfg, 7);
    assert_eq!(sim.interior.len().div_ceil(256), 3, "three site chunks");
    sim.pass_config = pass_config;
    sim.init_velocities();
    for k in [255, 256, 511, 512] {
        let s = sim.interior[k];
        let (pos, vel) = (sim.lnl.pos[s], sim.lnl.vel[s]);
        let id = sim.lnl.make_vacancy(s);
        sim.lnl
            .add_runaway(s, id, [pos[0] + 1.3, pos[1] + 0.4, pos[2]], vel);
    }
    sim
}

#[test]
fn half_list_scatter_is_bitwise_deterministic_on_a_thread_ladder() {
    let run = |pass_config: PassConfig| {
        let mut sim = three_chunk_box_with_edge_runaways(pass_config);
        let mut last = None;
        for _ in 0..4 {
            last = Some(sim.step(&mut Loopback));
        }
        let ra = runaway_bits(&sim);
        assert!(!ra.is_empty(), "the edge run-aways must still be live");
        (Snapshot::of(&sim, &last.expect("four steps ran")), ra)
    };
    let seed = run(PassConfig::seed_serial());
    for threads in ["1", "2", "3", "8"] {
        let (got, got_ra) = with_threads(threads, || run(PassConfig::default()));
        let what = format!("{threads} threads vs seed serial path");
        assert_bitwise(&got, &seed.0, &what);
        assert_eq!(got_ra, seed.1, "{what}: run-aways");
    }
}

/// ρ, force and position bits of one run-away.
type RunawayBits = (u64, [u64; 3], [u64; 3]);

/// The live run-aways' bits, in pool order.
fn runaway_bits(sim: &MdSimulation) -> Vec<RunawayBits> {
    sim.lnl
        .live_runaways()
        .iter()
        .map(|&i| {
            let r = sim.lnl.runaway(i);
            (
                r.rho.to_bits(),
                r.force.map(f64::to_bits),
                r.pos.map(f64::to_bits),
            )
        })
        .collect()
}

/// Evaluates forces on a thermal two-chunk box while its run-away
/// population shrinks: 300 atoms are re-filed as run-aways where they
/// stand (two run-away chunks, 256 + 44), then all but 100 are
/// re-seated (one chunk, shorter than the one the plan held), then the
/// rest (none).
fn shrinking_population(pass_config: PassConfig) -> Vec<(Snapshot, Vec<RunawayBits>)> {
    let mut sim = thermal_two_chunk_box(pass_config);
    for _ in 0..3 {
        sim.step(&mut Loopback);
    }
    for &s in &sim.interior[..300] {
        let (pos, vel) = (sim.lnl.pos[s], sim.lnl.vel[s]);
        let id = sim.lnl.make_vacancy(s);
        sim.lnl.add_runaway(s, id, pos, vel);
    }
    let mut evaluations = Vec::new();
    for keep in [300, 100, 0] {
        for &i in &sim.lnl.live_runaways()[keep..] {
            let r = sim.lnl.remove_runaway(i);
            sim.lnl.occupy(r.home as usize, r.id, r.pos, r.vel);
        }
        assert_eq!(sim.lnl.live_runaways().len(), keep);
        let e = sim.compute_forces(&mut Loopback);
        let snapshot = Snapshot {
            rho: sim.lnl.rho.clone(),
            force: sim.lnl.force.clone(),
            pos: sim.lnl.pos.clone(),
            pair: e.pair,
            embed: e.embed,
        };
        evaluations.push((snapshot, runaway_bits(&sim)));
    }
    evaluations
}

#[test]
fn shrinking_runaway_population_never_replays_a_stale_chunk() {
    let seed = shrinking_population(PassConfig::seed_serial());
    for threads in ["1", "2", "8"] {
        let plan = with_threads(threads, || shrinking_population(PassConfig::default()));
        for (n, (got, want)) in plan.iter().zip(&seed).enumerate() {
            let what = format!("{threads} threads, evaluation {n}");
            assert_bitwise(&got.0, &want.0, &what);
            assert_eq!(got.1, want.1, "{what}: run-aways");
        }
    }
}
