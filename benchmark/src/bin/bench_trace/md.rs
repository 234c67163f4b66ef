//! `md_bulk` replayed call by call: `MdSimulation::step` taken apart
//! into the public functions it calls, one span around each, plus the
//! `eam` and `lattice` kernels timed on the state the replay leaves.

use std::hint::black_box;
use std::time::Instant;

use mmds_benchmark::run::{timed, Checks, Fingerprint, Folded};
use mmds_benchmark::spec::{MdBulkSize, Sizes};
use mmds_benchmark::stats::{median, percentile};
use mmds_benchmark::trace::{durations_ms, totals_by_name, Recorder};
use mmds_benchmark::workloads::{fold_step, md_config, nve_check, nve_drift_host};
use mmds_lattice::{BccGeometry, LatticeNeighborList, LocalGrid};
use mmds_md::domain::{exchange_ghosts, migrate_runaways, GhostPhase, Loopback};
use mmds_md::force::{
    density_pass_plan, embedding_pass_with, for_each_partner, for_each_partner_sq, force_pass_plan,
    Central, EnergySample, GatherPlan, PassConfig, BATCH_GATHER_CAP,
};
use mmds_md::integrate::{drift, kick, kinetic_energy, temperature};
use mmds_md::runaway::apply_transitions;
use mmds_md::sim::StepSample;
use mmds_md::thermostat::berendsen;
use mmds_md::{MdConfig, MdSimulation};
use mmds_telemetry::Mode;

use crate::Values;

/// The spans whose self times are the layers of an MD step.
const LAYERS: [(&str, &str); 7] = [
    ("md.density", "md.density_s"),
    ("md.embed", "md.embed_s"),
    ("md.force", "md.force_s"),
    ("md.ghost", "md.ghost_s"),
    ("md.integrate", "md.integrate_s"),
    ("md.transitions", "md.transitions_s"),
    ("md.observe", "md.observe_s"),
];

/// `MdSimulation`'s private step state, kept on the outside.
struct Replay {
    sim: MdSimulation,
    plan: GatherPlan,
    forces_current: bool,
}

impl Replay {
    /// `MdSimulation::compute_forces`.
    fn compute_forces(&mut self, rec: &mut Recorder) -> EnergySample {
        let Replay { sim, plan, .. } = self;
        rec.scope("md.ghost", |_| {
            exchange_ghosts(&mut sim.lnl, &mut Loopback, GhostPhase::Positions)
        });
        rec.scope("md.density", |_| {
            density_pass_plan(
                &mut sim.lnl,
                &sim.pot,
                sim.table_form,
                &sim.interior,
                sim.pass_config,
                plan,
            )
        });
        let embed = rec.scope("md.embed", |_| {
            embedding_pass_with(
                &mut sim.lnl,
                &sim.pot,
                sim.table_form,
                &sim.interior,
                sim.pass_config,
            )
        });
        rec.scope("md.ghost", |_| {
            exchange_ghosts(&mut sim.lnl, &mut Loopback, GhostPhase::Fp)
        });
        let pair = rec.scope("md.force", |_| {
            force_pass_plan(
                &mut sim.lnl,
                &sim.pot,
                sim.table_form,
                &sim.interior,
                sim.pass_config,
                plan,
            )
        });
        self.forces_current = true;
        EnergySample { pair, embed }
    }

    /// `MdSimulation::step`.
    fn step(&mut self, rec: &mut Recorder) -> StepSample {
        rec.scope("md.step", |rec| {
            if !self.forces_current {
                self.compute_forces(rec);
            }
            let dt = self.sim.cfg.dt;
            rec.scope("md.integrate", |_| {
                let sim = &mut self.sim;
                kick(&mut sim.lnl, &sim.interior, 0.5 * dt, sim.mass);
                drift(&mut sim.lnl, &sim.interior, dt);
            });
            rec.scope("md.transitions", |_| {
                let sim = &mut self.sim;
                let st = apply_transitions(&mut sim.lnl, &sim.cfg, &sim.interior);
                sim.transitions = sim.transitions.merge(&st);
            });
            rec.scope("md.ghost", |_| {
                migrate_runaways(&mut self.sim.lnl, &mut Loopback)
            });
            let pe = self.compute_forces(rec);
            rec.scope("md.integrate", |_| {
                let sim = &mut self.sim;
                kick(&mut sim.lnl, &sim.interior, 0.5 * dt, sim.mass);
                if let Some(tau) = sim.cfg.thermostat_tau {
                    berendsen(
                        &mut sim.lnl,
                        &sim.interior,
                        sim.mass,
                        sim.cfg.temperature,
                        dt,
                        tau,
                    );
                }
            });
            self.sim.time_ps += dt;
            self.sim.steps_done += 1;
            rec.scope("md.observe", |_| {
                let sim = &self.sim;
                StepSample {
                    pair: pe.pair,
                    embed: pe.embed,
                    kinetic: kinetic_energy(&sim.lnl, &sim.interior, sim.mass),
                    temperature: temperature(&sim.lnl, &sim.interior, sim.mass),
                }
            })
        })
    }
}

fn fresh(cfg: MdConfig, cells: usize) -> Replay {
    let mut sim = MdSimulation::single_box(cfg, cells);
    sim.init_velocities();
    Replay {
        sim,
        plan: GatherPlan::default(),
        forces_current: false,
    }
}

/// Every partner distance of every owned central, in sweep order.
fn partner_distances(sim: &MdSimulation) -> Vec<f64> {
    let cutoff = sim.pot.cutoff();
    let mut r = Vec::new();
    for &s in sim.interior.iter().filter(|&&s| sim.lnl.id[s] >= 0) {
        for_each_partner(&sim.lnl, Central::Site(s), cutoff, |p| r.push(p.r));
    }
    for i in sim.lnl.live_runaways() {
        for_each_partner(&sim.lnl, Central::Runaway(i), cutoff, |p| r.push(p.r));
    }
    r
}

/// Median over three passes of `f`, in nanoseconds per partner.
fn ns_per_partner(partners: usize, mut f: impl FnMut()) -> f64 {
    let passes: Vec<f64> = (0..3).map(|_| timed(&mut f).0).collect();
    median(&passes) * 1e9 / partners.max(1) as f64
}

/// The fused table kernel over the captured distances, in the
/// production flush size.
fn eam_kernel(sim: &MdSimulation, r: &[f64], out: &mut Values) {
    let (mut phi, mut dphi, mut f, mut df) = (
        [0.0; BATCH_GATHER_CAP],
        [0.0; BATCH_GATHER_CAP],
        [0.0; BATCH_GATHER_CAP],
        [0.0; BATCH_GATHER_CAP],
    );
    let ns = ns_per_partner(r.len(), || {
        for chunk in r.chunks(BATCH_GATHER_CAP) {
            let n = chunk.len();
            sim.pot.pair_density_batch(
                sim.table_form,
                black_box(chunk),
                &mut phi[..n],
                &mut dphi[..n],
                &mut f[..n],
                &mut df[..n],
            );
            black_box((&phi, &dphi, &f, &df));
        }
    });
    out.set("eam.pair_density_batch_ns_per_partner", ns);
    out.set("eam.partners_per_step", r.len() as f64);
    out.set(
        "eam.table_bytes",
        sim.pot.table_bytes(sim.table_form) as f64,
    );
}

/// The neighbour sweep alone: every central, an empty sink.
fn lattice_sweep(sim: &MdSimulation, partners: usize, out: &mut Values) {
    let cutoff = sim.pot.cutoff();
    let ns = ns_per_partner(partners, || {
        for &s in sim.interior.iter().filter(|&&s| sim.lnl.id[s] >= 0) {
            for_each_partner_sq(&sim.lnl, Central::Site(s), cutoff, |p| {
                black_box(p.r2);
            });
        }
        for i in sim.lnl.live_runaways() {
            for_each_partner_sq(&sim.lnl, Central::Runaway(i), cutoff, |p| {
                black_box(p.r2);
            });
        }
    });
    out.set("lattice.sweep_ns_per_partner", ns);
    let cfg = sim.cfg;
    let cells = sim.lnl.grid.global.nx;
    let (build_s, lnl) = timed(|| {
        let ghost = (cfg.offsets_cutoff() / cfg.a0).ceil() as usize;
        let grid = LocalGrid::whole(BccGeometry::new(cfg.a0, cells, cells, cells), ghost);
        LatticeNeighborList::perfect(grid, cfg.offsets_cutoff())
    });
    out.set("lattice.build_s", build_s);
    out.set("lattice.lnl_bytes", lnl.memory_bytes() as f64);
}

/// `MdSimulation::step` timed over alternating short blocks under
/// settings A and B (each side continues its own simulation), as the
/// ratio median(A) / median(B).
fn ab_ratio(cells: usize, seed: u64, mut enter_a: impl FnMut(), mut enter_b: impl FnMut()) -> f64 {
    const BLOCKS: usize = 4;
    const STEPS: usize = 3;
    let mut sims = [
        fresh(md_config(seed), cells).sim,
        fresh(md_config(seed), cells).sim,
    ];
    let mut secs: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for _ in 0..BLOCKS {
        for side in 0..2 {
            if side == 0 {
                enter_a()
            } else {
                enter_b()
            }
            let (s, ()) = timed(|| {
                for _ in 0..STEPS {
                    sims[side].step(&mut Loopback);
                }
            });
            secs[side].push(s);
        }
    }
    median(&secs[0]) / median(&secs[1])
}

/// The host production path against the scalar seed path, bit for bit:
/// owned sites whose position, velocity or force differ after 5 steps.
fn plan_vs_reference(sizes: &Sizes, seed: u64) -> (usize, usize) {
    let mut production = fresh(md_config(seed), sizes.check_cells);
    let mut reference = fresh(md_config(seed), sizes.check_cells);
    reference.sim.pass_config = PassConfig::seed_serial();
    let mut rec = Recorder::new(Instant::now(), 0);
    for _ in 0..5 {
        production.step(&mut rec);
        reference.step(&mut rec);
    }
    let bits = |v: [f64; 3]| v.map(f64::to_bits);
    let (a, b) = (&production.sim.lnl, &reference.sim.lnl);
    let differing = production
        .sim
        .interior
        .iter()
        .filter(|&&s| {
            a.id[s] != b.id[s]
                || bits(a.pos[s]) != bits(b.pos[s])
                || bits(a.vel[s]) != bits(b.vel[s])
                || bits(a.force[s]) != bits(b.force[s])
        })
        .count();
    (differing, production.sim.interior.len())
}

/// The traced `md_bulk` repetition and the kernels timed on its state.
/// Returns the traced fingerprint and the traced timed-region seconds.
pub fn run(
    size: MdBulkSize,
    sizes: &Sizes,
    seed: u64,
    rec: &mut Recorder,
    out: &mut Values,
    checks: &mut Checks,
) -> (Fingerprint, f64) {
    let mut replay = fresh(md_config(seed), size.cells);
    let mut folded = Folded::default();
    for _ in 0..size.warmup_steps {
        fold_step(&mut folded, &replay.step(rec));
    }
    let mark = rec.mark();
    let (wall_s, ()) = timed(|| {
        for _ in 0..size.timed_steps {
            fold_step(&mut folded, &replay.step(rec));
        }
    });

    let layer_sum = out.set_layers(&totals_by_name(rec.spans(), mark), &LAYERS);
    out.set("md.layer_sum_over_wall", layer_sum / wall_s);
    let step_ms = durations_ms(rec.since(mark), "md.step");
    out.set("md.step_p50_ms", median(&step_ms));
    out.set("md.step_p90_ms", percentile(&step_ms, 90.0));
    out.set("md.runaways_final", replay.sim.lnl.n_runaways() as f64);

    let r = partner_distances(&replay.sim);
    eam_kernel(&replay.sim, &r, out);
    lattice_sweep(&replay.sim, r.len(), out);
    drop(replay);

    // Only the main thread exists here, so changing the environment and
    // the telemetry mode between blocks is safe.
    let workers = |n: &'static str| move || std::env::set_var("RAYON_NUM_THREADS", n);
    out.set(
        "md.threads2_speedup",
        ab_ratio(size.cells, seed, workers("1"), workers("2")),
    );
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let summary_over_off = ab_ratio(
        size.cells,
        seed,
        || mmds_telemetry::set_mode(Mode::Summary),
        || mmds_telemetry::set_mode(Mode::Off),
    );
    mmds_telemetry::set_mode(Mode::Off);
    out.set("telemetry.summary_overhead_frac", summary_over_off - 1.0);

    let drift = nve_drift_host(sizes, seed);
    out.set("md.nve_drift_host", drift);
    checks.record_check(nve_check("md.nve_drift_host", drift));
    let (differing, owned) = plan_vs_reference(sizes, seed);
    out.set("md.plan_ref_mismatch_sites", differing as f64);
    checks.record(
        "md.plan_vs_reference",
        differing == 0,
        format!(
            "{differing} of {owned} owned sites differ from PassConfig::seed_serial() after 5 steps"
        ),
    );
    (folded.fingerprint(), wall_s)
}
