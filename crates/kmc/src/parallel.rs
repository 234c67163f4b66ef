//! Multi-rank KMC runs over a `mmds-swmpi` world (Figs. 12–15).

use mmds_lattice::{BccGeometry, LocalGrid};
use mmds_swmpi::topology::CartGrid;
use mmds_swmpi::world::RankOutput;
use mmds_swmpi::World;
use serde::{Deserialize, Serialize};

use crate::comm::CommK;
use crate::config::KmcConfig;
use crate::exchange::ExchangeStrategy;
use crate::sublattice::KmcSimulation;

/// Parameters of a parallel KMC run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ParallelKmcParams {
    /// KMC configuration.
    pub kmc: KmcConfig,
    /// Global box in BCC cells per axis (must divide over the rank grid).
    pub global_cells: [usize; 3],
    /// Vacancy concentration (fraction of sites).
    pub vacancy_concentration: f64,
    /// Synchronisation cycles to run.
    pub cycles: usize,
    /// Exchange strategy.
    pub strategy: ExchangeStrategy,
    /// Charge modelled compute time to rank clocks (disable to isolate
    /// communication time, Fig. 13).
    pub charge_compute: bool,
}

/// Per-rank outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KmcRankSummary {
    /// Events executed by this rank.
    pub events: u64,
    /// Final owned vacancies.
    pub vacancies: usize,
    /// Owned sites.
    pub sites: usize,
    /// Simulated KMC time (s).
    pub time: f64,
    /// Global cells (canonical) of the final owned vacancies, with basis.
    pub vacancy_cells: Vec<([u32; 3], u8)>,
}

/// Builds a rank's local grid.
pub fn kmc_rank_grid(
    cfg: &KmcConfig,
    global_cells: [usize; 3],
    grid3: CartGrid,
    rank: usize,
) -> LocalGrid {
    let geom = BccGeometry::new(cfg.a0, global_cells[0], global_cells[1], global_cells[2]);
    let (start, len) = grid3.subdomain(global_cells, rank);
    let ghost = crate::lattice::required_ghost(cfg.a0, cfg.rate_cutoff);
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

/// Runs domain-decomposed KMC on `ranks` ranks.
pub fn run_parallel_kmc(
    world: &World,
    ranks: usize,
    params: &ParallelKmcParams,
) -> Vec<RankOutput<KmcRankSummary>> {
    let grid3 = CartGrid::for_ranks(ranks);
    let out = world.run(ranks, |comm| {
        let _rank_tag = mmds_telemetry::rank_scope(comm.rank() as u32);
        let mut cfg = params.kmc;
        cfg.seed = params.kmc.rank_seed(comm.rank());
        let grid = kmc_rank_grid(&cfg, params.global_cells, grid3, comm.rank());
        let mut sim = KmcSimulation::new(cfg, grid);
        let total_sites =
            2 * params.global_cells[0] * params.global_cells[1] * params.global_cells[2];
        let n_vac = (params.vacancy_concentration * total_sites as f64).round() as usize;
        // Same seed on every rank: the vacancy configuration is a
        // property of the *system*, not of the decomposition.
        sim.lat
            .seed_vacancies_global(n_vac, params.kmc.seed ^ 0xACE1);
        let mut t = if params.charge_compute {
            CommK::new(comm, grid3)
        } else {
            CommK::without_compute_charge(comm, grid3)
        };
        sim.initialize(&mut t);
        comm.reset_accounting();
        let events = sim.run_cycles(params.strategy, &mut t, params.cycles);
        comm.barrier();
        let vacancy_cells = sim
            .lat
            .vacancies()
            .map(|s| {
                let (g, b) = sim.lat.local_to_global(s);
                ([g[0] as u32, g[1] as u32, g[2] as u32], b as u8)
            })
            .collect();
        KmcRankSummary {
            events,
            vacancies: sim.lat.n_vacancies(),
            sites: sim.lat.n_owned(),
            time: sim.time,
            vacancy_cells,
        }
    });
    if mmds_telemetry::enabled() {
        for (rank, r) in out.iter().enumerate() {
            mmds_telemetry::absorb_comm_rank(rank as u32, &r.stats, Some(&r.matrix));
        }
        // Defect-conservation health gate: vacancies only migrate, so
        // the world total must still equal what was seeded.
        let total_sites =
            2 * params.global_cells[0] * params.global_cells[1] * params.global_cells[2];
        let seeded = (params.vacancy_concentration * total_sites as f64).round() as usize;
        let total_vac: usize = out.iter().map(|r| r.result.vacancies).sum();
        if total_vac != seeded {
            mmds_telemetry::add_counter("kmc.health.conservation_warn", 1.0);
            eprintln!(
                "[telemetry] KMC vacancy conservation violated: seeded {seeded}, final {total_vac}"
            );
        }
    }
    out
}

/// Aggregates: total bytes sent by all ranks (the Fig. 12 metric).
pub fn total_bytes_sent<T>(out: &[RankOutput<T>]) -> u64 {
    out.iter()
        .map(|r| r.stats.bytes_sent + r.stats.bytes_put)
        .sum()
}

/// Aggregates: maximum per-rank communication time (the Fig. 13 metric).
pub fn max_comm_time<T>(out: &[RankOutput<T>]) -> f64 {
    out.iter().map(|r| r.stats.comm_time).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::OnDemandMode;
    use mmds_swmpi::{MachineModel, WorldConfig};

    fn params(cells: usize, cycles: usize, strategy: ExchangeStrategy) -> ParallelKmcParams {
        ParallelKmcParams {
            kmc: KmcConfig {
                table_knots: 800,
                events_per_cycle: 1.0,
                ..Default::default()
            },
            global_cells: [cells; 3],
            vacancy_concentration: 0.002,
            cycles,
            strategy,
            charge_compute: true,
        }
    }

    fn free_world() -> World {
        World::new(WorldConfig {
            model: MachineModel::free(),
            ..Default::default()
        })
    }

    #[test]
    fn vacancies_conserved_across_ranks() {
        let world = free_world();
        let p = params(12, 10, ExchangeStrategy::Traditional);
        let out = run_parallel_kmc(&world, 8, &p);
        let total_vac: usize = out.iter().map(|r| r.result.vacancies).sum();
        let total_sites: usize = out.iter().map(|r| r.result.sites).sum();
        let expected = (0.002f64 * total_sites as f64).round() as usize;
        assert_eq!(total_vac, expected, "vacancy count must be conserved");
        let events: u64 = out.iter().map(|r| r.result.events).sum();
        assert!(events > 0);
    }

    #[test]
    fn on_demand_volume_is_much_smaller() {
        let world = free_world();
        let trad = run_parallel_kmc(&world, 8, &params(12, 6, ExchangeStrategy::Traditional));
        let od = run_parallel_kmc(
            &world,
            8,
            &params(12, 6, ExchangeStrategy::OnDemand(OnDemandMode::TwoSided)),
        );
        let vt = total_bytes_sent(&trad);
        let vo = total_bytes_sent(&od);
        assert!(
            (vo as f64) < 0.2 * vt as f64,
            "on-demand {vo} should be ≪ traditional {vt}"
        );
    }

    #[test]
    fn strategies_agree_across_ranks() {
        let world = free_world();
        let a = run_parallel_kmc(&world, 8, &params(12, 8, ExchangeStrategy::Traditional));
        let b = run_parallel_kmc(
            &world,
            8,
            &params(12, 8, ExchangeStrategy::OnDemand(OnDemandMode::TwoSided)),
        );
        let c = run_parallel_kmc(
            &world,
            8,
            &params(12, 8, ExchangeStrategy::OnDemand(OnDemandMode::OneSided)),
        );
        for r in 0..8 {
            let mut va = a[r].result.vacancy_cells.clone();
            let mut vb = b[r].result.vacancy_cells.clone();
            let mut vc = c[r].result.vacancy_cells.clone();
            va.sort();
            vb.sort();
            vc.sort();
            assert_eq!(va, vb, "rank {r}: two-sided differs from traditional");
            assert_eq!(va, vc, "rank {r}: one-sided differs from traditional");
        }
    }

    #[test]
    fn one_sided_sends_fewer_messages() {
        let world = free_world();
        let two = run_parallel_kmc(
            &world,
            8,
            &params(12, 6, ExchangeStrategy::OnDemand(OnDemandMode::TwoSided)),
        );
        let one = run_parallel_kmc(
            &world,
            8,
            &params(12, 6, ExchangeStrategy::OnDemand(OnDemandMode::OneSided)),
        );
        let m2: u64 = two.iter().map(|r| r.stats.msgs_sent).sum();
        let m1: u64 = one.iter().map(|r| r.stats.puts).sum();
        assert!(
            m1 < m2,
            "one-sided ({m1} puts) must beat two-sided ({m2} msgs, incl. zero-size)"
        );
    }

    /// Four ranks along y over four cells: one-cell sub-domains under a
    /// three-cell ghost shell.
    #[test]
    #[should_panic(expected = "sub-domain thinner than its ghost shell (axis 1: len 1 < ghost")]
    fn rank_grid_refuses_a_sub_domain_thinner_than_the_ghost_shell() {
        kmc_rank_grid(
            &KmcConfig::default(),
            [12, 4, 12],
            CartGrid::new([1, 4, 1]),
            0,
        );
    }
}
