//! Multi-rank MD: domain-decomposed runs over a `mmds-swmpi` world.
//!
//! "For MD, the master cores are responsible for inter-node
//! communication and the slave cores are responsible for the EAM
//! computation" (§3). Each rank owns a subdomain, offloads the EAM
//! passes to its simulated CPE cluster, and charges the kernel's
//! virtual time to its rank clock; ghost exchanges charge communication
//! time through the swmpi cost model. The strong/weak scaling figures
//! (Figs. 10, 11) read the resulting per-rank compute/communication
//! split.

use mmds_sunway::{CpeCluster, SwModel};
use mmds_swmpi::topology::CartGrid;
use mmds_swmpi::world::RankOutput;
use mmds_swmpi::{Comm, World};
use serde::{Deserialize, Serialize};

use crate::cascade::{launch_pka, PKA_DIRECTION};
use crate::config::MdConfig;
use crate::defects::{count, DefectCount};
use crate::domain::{exchange_ghosts, migrate_runaways, CommTransport, GhostPhase};
use crate::integrate::{drift, kick, kinetic_energy, temperature};
use crate::offload::{offload_compute_forces, OffloadConfig};
use crate::runaway::apply_transitions;
use crate::sim::{MdSimulation, StepSample};
use crate::thermostat::berendsen;
use mmds_lattice::{BccGeometry, LocalGrid};

/// MPE-side per-atom work per step (integration, transitions,
/// pack/unpack marshalling), charged to the rank clock.
pub const MPE_PER_ATOM_SECONDS: f64 = 7.0e-8;

/// Parameters of a parallel MD run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ParallelMdParams {
    /// Per-rank MD configuration.
    pub md: MdConfig,
    /// CPE offload configuration.
    pub offload: OffloadConfig,
    /// Global box in BCC cells per axis (must divide by the rank grid).
    pub global_cells: [usize; 3],
    /// Measured steps.
    pub steps: usize,
    /// Warm-up steps excluded from the accounting window.
    pub warmup_steps: usize,
    /// Optional PKA energy (eV) launched on rank 0 at start.
    pub pka_energy: Option<f64>,
}

/// Per-rank outcome of a parallel MD run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RankMdSummary {
    /// Final step observables.
    pub last: StepSample,
    /// Final defect census of the subdomain.
    pub defects: DefectCount,
    /// Owned atoms.
    pub n_atoms: usize,
    /// Total CPE kernel time charged (virtual seconds).
    pub cpe_time: f64,
}

/// Builds a rank's local grid for a global box split over `grid3`.
pub fn rank_grid(
    md: &MdConfig,
    global_cells: [usize; 3],
    grid3: CartGrid,
    rank: usize,
) -> LocalGrid {
    let geom = BccGeometry::new(md.a0, global_cells[0], global_cells[1], global_cells[2]);
    let (start, len) = grid3.subdomain(global_cells, rank);
    let ghost = (md.offsets_cutoff() / md.a0).ceil() as usize;
    for ax in 0..3 {
        assert_eq!(
            global_cells[ax] % grid3.dims[ax],
            0,
            "global cells must divide evenly over ranks (axis {ax})"
        );
        // An owned-edge slab is `ghost` cells wide: a thinner
        // sub-domain would ship part of its own ghost shell as owned.
        assert!(
            len[ax] >= ghost,
            "sub-domain thinner than its ghost shell (axis {ax}: len {} < ghost {ghost})",
            len[ax]
        );
    }
    LocalGrid::new(geom, start, len, ghost)
}

/// One offloaded velocity-Verlet step; charges compute time to `comm`.
pub fn offload_step(
    sim: &mut MdSimulation,
    comm: &Comm,
    transport: &mut CommTransport<'_>,
    cluster: &CpeCluster,
    ocfg: &OffloadConfig,
) -> StepSample {
    let _span = mmds_telemetry::span!("md.step");
    let dt = sim.cfg.dt;
    let n_atoms = sim.n_atoms();
    kick(&mut sim.lnl, &sim.interior, 0.5 * dt, sim.mass);
    drift(&mut sim.lnl, &sim.interior, dt);
    let st = apply_transitions(&mut sim.lnl, &sim.cfg, &sim.interior);
    sim.transitions = sim.transitions.merge(&st);
    {
        let _g = mmds_telemetry::span!("md.ghost");
        migrate_runaways(&mut sim.lnl, transport);
        exchange_ghosts(&mut sim.lnl, transport, GhostPhase::Positions);
    }
    let interior = std::mem::take(&mut sim.interior);
    let outcome = {
        let _g = mmds_telemetry::span!("md.offload");
        let pot = &sim.pot;
        let lnl = &mut sim.lnl;
        offload_compute_forces(lnl, pot, cluster, ocfg, &interior, |l| {
            exchange_ghosts(l, transport, GhostPhase::Fp)
        })
    };
    sim.interior = interior;
    if mmds_telemetry::enabled() {
        mmds_telemetry::absorb_cpe_counters(
            &outcome.density.counters.merge(&outcome.force.counters),
        );
    }
    comm.tick_compute(outcome.kernel_time() + n_atoms as f64 * MPE_PER_ATOM_SECONDS);
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
    sim.time_ps += dt;
    StepSample {
        pair: outcome.pair_energy,
        embed: outcome.embed_energy,
        kinetic: kinetic_energy(&sim.lnl, &sim.interior, sim.mass),
        temperature: temperature(&sim.lnl, &sim.interior, sim.mass),
    }
}

/// Runs domain-decomposed MD on `ranks` ranks and returns per-rank
/// outputs (results + accounting).
pub fn run_parallel_md(
    world: &World,
    ranks: usize,
    params: &ParallelMdParams,
) -> Vec<RankOutput<RankMdSummary>> {
    let grid3 = CartGrid::for_ranks(ranks);
    let out = world.run(ranks, |comm| {
        let _rank_tag = mmds_telemetry::rank_scope(comm.rank() as u32);
        let mut md = params.md;
        md.seed = params.md.rank_seed(comm.rank());
        let grid = rank_grid(&md, params.global_cells, grid3, comm.rank());
        let mut sim = MdSimulation::from_grid(md, grid);
        sim.table_form = params.offload.form;
        sim.init_velocities();
        if let Some(e) = params.pka_energy {
            if comm.rank() == 0 {
                let g = sim.lnl.grid.ghost;
                let c = [
                    g + sim.lnl.grid.len[0] / 2,
                    g + sim.lnl.grid.len[1] / 2,
                    g + sim.lnl.grid.len[2] / 2,
                ];
                let pka = sim.lnl.grid.site_id(c[0], c[1], c[2], 0);
                launch_pka(&mut sim.lnl, pka, e, PKA_DIRECTION, sim.mass);
            }
        }
        let cluster = CpeCluster::new(SwModel::sw26010());
        let mut transport = CommTransport::new(comm, grid3);
        let mut last = StepSample::default();
        for step in 0..params.warmup_steps + params.steps {
            if step == params.warmup_steps {
                comm.reset_accounting();
            }
            last = offload_step(&mut sim, comm, &mut transport, &cluster, &params.offload);
            mmds_telemetry::emit_heartbeat(
                "md.heartbeat",
                step as u64 + 1,
                (params.warmup_steps + params.steps) as u64,
            );
        }
        comm.barrier();
        RankMdSummary {
            last,
            defects: count(&sim.lnl),
            n_atoms: sim.n_atoms(),
            cpe_time: comm.stats().compute_time,
        }
    });
    if mmds_telemetry::enabled() {
        for (rank, r) in out.iter().enumerate() {
            mmds_telemetry::absorb_comm_rank(rank as u32, &r.stats, Some(&r.matrix));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmds_swmpi::{MachineModel, WorldConfig};

    fn params(cells: usize, steps: usize) -> ParallelMdParams {
        ParallelMdParams {
            md: MdConfig {
                table_knots: 1000,
                temperature: 300.0,
                thermostat_tau: None,
                ..Default::default()
            },
            offload: OffloadConfig::optimized(),
            global_cells: [cells; 3],
            steps,
            warmup_steps: 0,
            pka_energy: None,
        }
    }

    /// Four ranks along y over four cells: one-cell sub-domains under a
    /// two-cell ghost shell.
    #[test]
    #[should_panic(expected = "sub-domain thinner than its ghost shell (axis 1: len 1 < ghost")]
    fn rank_grid_refuses_a_sub_domain_thinner_than_the_ghost_shell() {
        rank_grid(&MdConfig::default(), [8, 4, 8], CartGrid::new([1, 4, 1]), 0);
    }

    #[test]
    fn two_ranks_match_single_rank_energy() {
        let world = World::new(WorldConfig {
            model: MachineModel::free(),
            ..Default::default()
        });
        let p = params(8, 3);
        let single = run_parallel_md(&world, 1, &p);
        let double = run_parallel_md(&world, 2, &p);
        let e1: f64 = single
            .iter()
            .map(|r| r.result.last.pair + r.result.last.embed)
            .sum();
        let e2: f64 = double
            .iter()
            .map(|r| r.result.last.pair + r.result.last.embed)
            .sum();
        // Different rank seeds give different velocities, but the cold
        // potential-energy surface is identical at step 0 scale; compare
        // a cold run instead for bit-level equality.
        let mut cold = p;
        cold.md.temperature = 0.0;
        let s1 = run_parallel_md(&world, 1, &cold);
        let s2 = run_parallel_md(&world, 2, &cold);
        let c1: f64 = s1
            .iter()
            .map(|r| r.result.last.pair + r.result.last.embed)
            .sum();
        let c2: f64 = s2
            .iter()
            .map(|r| r.result.last.pair + r.result.last.embed)
            .sum();
        assert!(
            (c1 - c2).abs() < 1e-6 * c1.abs().max(1.0),
            "cold energies differ: {c1} vs {c2}"
        );
        // Thermal runs at least conserve atom counts.
        let n1: usize = single.iter().map(|r| r.result.n_atoms).sum();
        let n2: usize = double.iter().map(|r| r.result.n_atoms).sum();
        assert_eq!(n1, n2);
        let _ = (e1, e2);
    }

    #[test]
    fn accounting_separates_compute_and_comm() {
        let world = World::default_world();
        let p = params(8, 2);
        let out = run_parallel_md(&world, 4, &p);
        for r in &out {
            assert!(r.stats.compute_time > 0.0, "compute time charged");
            assert!(r.stats.comm_time > 0.0, "comm time charged");
            assert!(r.stats.bytes_sent > 0, "ghost bytes counted");
        }
    }

    #[test]
    fn pka_makes_defects_somewhere() {
        let world = World::new(WorldConfig {
            model: MachineModel::free(),
            ..Default::default()
        });
        let mut p = params(8, 25);
        p.md.temperature = 50.0;
        p.md.thermostat_tau = Some(0.02);
        p.pka_energy = Some(150.0);
        let out = run_parallel_md(&world, 2, &p);
        let vac: usize = out.iter().map(|r| r.result.defects.vacancies).sum();
        assert!(vac > 0, "cascade should create vacancies");
    }
}
