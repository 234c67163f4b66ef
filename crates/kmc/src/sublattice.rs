//! The semirigorous synchronous sublattice driver (paper Fig. 7).

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::comm::KmcTransport;
use crate::config::KmcConfig;
use crate::exchange::{full_exchange, post_sector, pre_sector, ExchangeStrategy};
use crate::lattice::KmcLattice;
use crate::model::{EnergyModel, RateStats};
use crate::solver::{run_sector, sectors};

/// Modelled MPE seconds per patch-site energy evaluation (the dominant
/// KMC compute kernel: a 14-neighbour occupancy scan plus one embedding
/// table interpolation). A cycle is charged for its modelled MPE kernel
/// evaluations (`RateStats::site_evals`, `2·|patch|` per rate): every
/// rate of a sector on entry, then per hop only the rates the hop can
/// change — so the rank's virtual KMC compute time follows the event
/// catalogue, not a recompute of the whole sector per event. It does not
/// follow the host's work (`RateStats::host_site_evals`): the per-vacancy
/// energy memo, the model's shell tables, the shell memo, and the rate
/// table that answers a vacancy whose environment it has seen, are
/// host-only, and a rate from the table is charged what its evaluation
/// was charged.
pub const SITE_EVAL_SECONDS: f64 = 6.0e-8;

/// Cumulative run statistics.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct RunStats {
    /// Events executed.
    pub events: u64,
    /// Synchronisation cycles completed.
    pub cycles: u64,
    /// Rate-evaluation counters.
    pub rate: RateStats,
}

/// One rank's KMC simulation.
pub struct KmcSimulation {
    /// Configuration.
    pub cfg: KmcConfig,
    /// The site lattice.
    pub lat: KmcLattice,
    /// EAM energetics.
    pub model: EnergyModel,
    /// Simulated KMC time (s).
    pub time: f64,
    /// Statistics.
    pub stats: RunStats,
    pub(crate) rng: StdRng,
    /// Added to the cycle count on this rank's `kmc.exchange.*` series
    /// tracks: their last point when this simulation first wrote to them
    /// (`mmds_telemetry::series_origin`), so a second simulation in one
    /// process continues them.
    series_origin: Option<u64>,
}

impl KmcSimulation {
    /// Builds a simulation on a local grid.
    pub fn new(cfg: KmcConfig, grid: mmds_lattice::LocalGrid) -> Self {
        for ax in 0..3 {
            assert!(
                grid.len[ax] / 2 >= grid.ghost,
                "sector half-width must cover the ghost shell (axis {ax})"
            );
        }
        let lat = KmcLattice::all_fe(grid, cfg.rate_cutoff);
        let model = EnergyModel::new(&cfg, &lat);
        Self {
            cfg,
            lat,
            model,
            time: 0.0,
            stats: RunStats::default(),
            rng: StdRng::seed_from_u64(cfg.seed),
            series_origin: None,
        }
    }

    /// Initial ghost fill; must run once after seeding vacancies.
    pub fn initialize(&mut self, t: &mut impl KmcTransport) {
        let _span = mmds_telemetry::span!("kmc.init");
        full_exchange(&mut self.lat, t);
    }

    /// Synchronisation quantum: the paper's box #1, "compute dt for the
    /// subdomain", followed by the global reduction that keeps all ranks
    /// on the same quantum. The quantum is *physics*-determined (about
    /// `events_per_cycle` hops per vacancy per cycle at the reference
    /// rate), so it is independent of the domain decomposition; the
    /// reduction doubles as the per-cycle time synchronisation whose
    /// cost Fig. 15 attributes the weak-scaling loss to. Returns 0 when
    /// no vacancies exist anywhere.
    pub fn compute_dt(&mut self, t: &mut impl KmcTransport) -> f64 {
        let _span = mmds_telemetry::span!("kmc.sync_dt");
        let global_vacancies = t.allreduce_sum_u64(self.lat.n_vacancies() as u64);
        if global_vacancies == 0 {
            return 0.0;
        }
        let dt_local = self.cfg.events_per_cycle / self.cfg.reference_rate();
        t.allreduce_max(dt_local)
    }

    /// One synchronisation cycle: the 8 sectors in order, with the
    /// chosen exchange strategy around each. Returns events executed.
    pub fn cycle(&mut self, strategy: ExchangeStrategy, t: &mut impl KmcTransport) -> u64 {
        let _span = mmds_telemetry::span!("kmc.cycle");
        let dt = self.compute_dt(t);
        if dt <= 0.0 {
            // No vacancies anywhere: time still advances by a full
            // threshold so callers terminate.
            self.time = self.cfg.t_threshold;
            return 0;
        }
        let rate_before = self.stats.rate;
        let shell_hits_before = self.lat.memo.shell_hits();
        let table_before = (self.lat.rate_cache.hits(), self.lat.rate_cache.misses());
        let memo_before = self.shell_memo_counts();
        let vac_before = self.lat.n_vacancies() as u64;
        let mut events = 0;
        let mut ghost_bytes = 0u64;
        let mut baseline_bytes = 0u64;
        let mut dirty_sites = 0u64;
        let mut candidate_sites = 0u64;
        let mut last_sector = 0u8;
        for (si, sec) in sectors().into_iter().enumerate() {
            ghost_bytes += pre_sector(strategy, &mut self.lat, sec, t);
            let out = run_sector(
                &mut self.lat,
                &self.model,
                sec,
                dt,
                &mut self.rng,
                &mut self.stats.rate,
            );
            events += out.events;
            let xfer = post_sector(strategy, &mut self.lat, sec, &out.dirty, t);
            ghost_bytes += xfer.bytes;
            baseline_bytes += xfer.baseline_bytes;
            dirty_sites += xfer.dirty_sites;
            candidate_sites += xfer.candidate_sites;
            last_sector = si as u8;
        }
        self.stats.events += events;
        self.stats.cycles += 1;
        self.time += dt;
        let site_evals = self.stats.rate.site_evals - rate_before.site_evals;
        t.tick_compute(site_evals as f64 * SITE_EVAL_SECONDS);
        if mmds_telemetry::enabled() {
            let vac_after = self.lat.n_vacancies() as u64;
            let sample = mmds_telemetry::KmcCycleSample {
                cycle: self.stats.cycles,
                events,
                dirty_ghost_bytes: ghost_bytes,
                sector: last_sector,
                vacancies: vac_after,
                vacancy_delta: vac_after as i64 - vac_before as i64,
            };
            mmds_telemetry::emit(mmds_telemetry::Event::Kmc(sample));
            mmds_telemetry::add_counter("kmc.ghost_bytes", ghost_bytes as f64);
            // Solver work of this cycle, so a trace alone says how many
            // evaluations an event cost.
            let rate_evals = self.stats.rate.rate_evals - rate_before.rate_evals;
            let host_site_evals = self.stats.rate.host_site_evals - rate_before.host_site_evals;
            mmds_telemetry::add_counter("kmc.rate.site_evals", site_evals as f64);
            mmds_telemetry::add_counter("kmc.rate.host_site_evals", host_site_evals as f64);
            let shell_hits = self.lat.memo.shell_hits() - shell_hits_before;
            mmds_telemetry::add_counter("kmc.rate.shell_hits", shell_hits as f64);
            let table_hits = self.lat.rate_cache.hits() - table_before.0;
            let table_misses = self.lat.rate_cache.misses() - table_before.1;
            mmds_telemetry::add_counter("kmc.rate.table_hits", table_hits as f64);
            mmds_telemetry::add_counter("kmc.rate.table_misses", table_misses as f64);
            let memo = self.shell_memo_counts();
            let memo_hits = memo.0 - memo_before.0;
            let memo_misses = memo.1 - memo_before.1;
            mmds_telemetry::add_counter("kmc.rate.shell_memo_hits", memo_hits as f64);
            mmds_telemetry::add_counter("kmc.rate.shell_memo_misses", memo_misses as f64);
            mmds_telemetry::add_counter("kmc.rate.rate_evals", rate_evals as f64);
            // Comm-savings accounting vs. the analytic full-ghost
            // baseline (paper Fig. 12), per cycle and cumulative.
            let origin = *self
                .series_origin
                .get_or_insert_with(|| mmds_telemetry::series_origin("kmc.exchange.bytes"));
            let cycle = origin + self.stats.cycles;
            mmds_telemetry::emit_series("kmc.exchange.bytes", cycle, ghost_bytes as f64);
            mmds_telemetry::emit_series(
                "kmc.exchange.baseline_bytes",
                cycle,
                baseline_bytes as f64,
            );
            if candidate_sites > 0 {
                mmds_telemetry::emit_series(
                    "kmc.exchange.dirty_fraction",
                    cycle,
                    dirty_sites as f64 / candidate_sites as f64,
                );
            }
            mmds_telemetry::add_counter("kmc.exchange.baseline_bytes", baseline_bytes as f64);
            mmds_telemetry::add_counter("kmc.exchange.dirty_sites", dirty_sites as f64);
            mmds_telemetry::add_counter("kmc.exchange.candidate_sites", candidate_sites as f64);
            mmds_telemetry::emit_heartbeat("kmc.heartbeat", self.stats.cycles, 0);
        }
        events
    }

    /// The rate table's shell memo hits and misses so far: host scratch.
    fn shell_memo_counts(&self) -> (u64, u64) {
        let memo = &self.lat.rate_cache.shells;
        (memo.hits(), memo.misses())
    }

    /// Runs `cycles` synchronisation cycles.
    pub fn run_cycles(
        &mut self,
        strategy: ExchangeStrategy,
        t: &mut impl KmcTransport,
        cycles: usize,
    ) -> u64 {
        (0..cycles).map(|_| self.cycle(strategy, t)).sum()
    }

    /// Runs until the configured `t_threshold` (paper Fig. 7's loop).
    pub fn run_until_threshold(
        &mut self,
        strategy: ExchangeStrategy,
        t: &mut impl KmcTransport,
        max_cycles: usize,
    ) -> u64 {
        let mut events = 0;
        let mut n = 0;
        while self.time < self.cfg.t_threshold && n < max_cycles {
            events += self.cycle(strategy, t);
            n += 1;
        }
        events
    }
}

/// Declared communication skeleton of [`KmcSimulation::compute_dt`]
/// (span `kmc.sync_dt`): the vacancy-count sum, then the dt maximum —
/// the latter skipped on a predicate every rank computes from the
/// *globally summed* count, so the skip is provably rank-uniform.
pub fn sync_dt_plan() -> mmds_swmpi::CommPlan {
    use mmds_swmpi::{ByteSpec, CommPlan, SkelOp};
    CommPlan::new(
        "kmc.sync_dt",
        "crates/kmc/src/sublattice.rs",
        vec![
            SkelOp::Allreduce {
                bytes: ByteSpec::Exact(8),
                uniform_skip: None,
            },
            SkelOp::Allreduce {
                bytes: ByteSpec::Exact(8),
                uniform_skip: Some(
                    "skipped when the globally-summed vacancy count is zero — \
                     a value every rank agrees on"
                        .into(),
                ),
            },
        ],
        "per cycle: global vacancy census, then the Fig. 15 dt reduction",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::LoopbackK;
    use crate::exchange::OnDemandMode;
    use crate::lattice::SiteState;
    use mmds_lattice::{BccGeometry, LocalGrid};

    fn sim(n_vac: usize) -> KmcSimulation {
        let cfg = KmcConfig {
            table_knots: 800,
            events_per_cycle: 2.0,
            ..Default::default()
        };
        let grid = LocalGrid::whole(BccGeometry::fe_cube(8), 3);
        let mut s = KmcSimulation::new(cfg, grid);
        s.lat.seed_vacancies(n_vac, 7);
        s.initialize(&mut LoopbackK);
        s
    }

    #[test]
    fn vacancy_count_is_conserved() {
        let mut s = sim(6);
        s.run_cycles(ExchangeStrategy::Traditional, &mut LoopbackK, 20);
        assert_eq!(s.lat.n_vacancies(), 6);
        assert!(s.stats.events > 0, "something should have hopped");
        assert!(s.time > 0.0);
    }

    #[test]
    fn strategies_produce_identical_evolution() {
        // The on-demand strategy is an optimisation, not an
        // approximation: with the same seed the trajectory of *owned*
        // sites must be identical to the traditional exchange. (Ghost
        // copies may differ transiently: traditional refreshes them
        // lazily at the next relevant pre-sector get, on-demand keeps
        // them eagerly fresh.)
        let run = |strategy: ExchangeStrategy| {
            let mut s = sim(8);
            s.run_cycles(strategy, &mut LoopbackK, 15);
            let owned: Vec<_> = s.lat.grid.interior_ids().map(|i| s.lat.state[i]).collect();
            (s.stats.events, owned)
        };
        let trad = run(ExchangeStrategy::Traditional);
        let od2 = run(ExchangeStrategy::OnDemand(OnDemandMode::TwoSided));
        let od1 = run(ExchangeStrategy::OnDemand(OnDemandMode::OneSided));
        assert_eq!(trad.0, od2.0, "event counts differ");
        assert_eq!(trad.1, od2.1, "owned states differ (two-sided)");
        assert_eq!(trad.1, od1.1, "owned states differ (one-sided)");
    }

    #[test]
    fn kmc_accounting_is_pinned() {
        // Events, modelled evaluations, the clock's bits and an FNV-1a
        // hash of the final vacancy list of a seeded Fe–Cu box, taken at
        // the parent of the shaped-patch rate path. The modelled counts
        // are virtual time (`SITE_EVAL_SECONDS` per site evaluation), so
        // a host-only change to the rate path must leave every constant
        // as it is.
        const PINNED: (u64, u64, u64, u64, u64) = (
            441,
            8_466,
            372_504,
            0x3ea3_57fc_d709_0d86,
            0x8e1c_ebbc_f2e7_44fa,
        );
        let cfg = KmcConfig {
            table_knots: 800,
            ..Default::default()
        };
        let ghost = crate::lattice::required_ghost(cfg.a0, cfg.rate_cutoff);
        let mut s = KmcSimulation::new(cfg, LocalGrid::whole(BccGeometry::fe_cube(12), ghost));
        let n_vac = (5.0e-3 * s.lat.n_owned() as f64).round() as usize;
        s.lat.seed_vacancies_global(n_vac, 41);
        s.lat.seed_solutes_global(s.lat.n_owned() / 50, 42);
        s.initialize(&mut LoopbackK);
        s.run_cycles(
            ExchangeStrategy::OnDemand(OnDemandMode::TwoSided),
            &mut LoopbackK,
            20,
        );
        let vacancies: Vec<usize> = s.lat.vacancies().collect();
        let hash = mmds_telemetry::canon::fnv1a64(format!("{vacancies:?}").as_bytes());
        let got = (
            s.stats.events,
            s.stats.rate.rate_evals,
            s.stats.rate.site_evals,
            s.time.to_bits(),
            hash,
        );
        assert_eq!(got, PINNED, "{got:#x?}");
        // Host work is not virtual time: the per-vacancy memo computes
        // each energy once per evaluation (0.57 × the modelled count on
        // this box), and the rate table skips evaluations of environments
        // it has seen (0.269 ×). A table that stops hitting fails here.
        let rate = s.stats.rate;
        assert!(
            rate.host_site_evals as f64 <= 0.4 * rate.site_evals as f64,
            "{rate:?}"
        );
    }

    #[test]
    fn rate_cache_is_invisible() {
        // A dense Fe–Cu box (1.5 % vacancies), run with the rate cache
        // and with every evaluation computed: only host work may differ.
        for strategy in [
            ExchangeStrategy::Traditional,
            ExchangeStrategy::OnDemand(OnDemandMode::OneSided),
        ] {
            let run = |bypass: bool| {
                let cfg = KmcConfig {
                    table_knots: 800,
                    ..Default::default()
                };
                let ghost = crate::lattice::required_ghost(cfg.a0, cfg.rate_cutoff);
                let grid = LocalGrid::whole(BccGeometry::fe_cube(10), ghost);
                let mut s = KmcSimulation::new(cfg, grid);
                s.lat.rate_cache.bypass = bypass;
                let n_vac = (1.5e-2 * s.lat.n_owned() as f64).round() as usize;
                s.lat.seed_vacancies_global(n_vac, 51);
                s.lat.seed_solutes_global(s.lat.n_owned() / 50, 52);
                s.initialize(&mut LoopbackK);
                s.run_cycles(strategy, &mut LoopbackK, 12);
                let owned: Vec<_> = s.lat.grid.interior_ids().map(|i| s.lat.state[i]).collect();
                let rate = s.stats.rate;
                let modelled = (
                    s.stats.events,
                    s.time.to_bits(),
                    rate.rate_evals,
                    rate.site_evals,
                );
                (owned, modelled, rate.host_site_evals)
            };
            let (cached, uncached) = (run(false), run(true));
            assert!(cached.1 .0 > 50, "{strategy:?}: dynamics happen");
            assert_eq!(cached.0, uncached.0, "{strategy:?}: owned states");
            assert_eq!(cached.1, uncached.1, "{strategy:?}: events, clock, counts");
            assert!(
                cached.2 < uncached.2,
                "{strategy:?}: host site evaluations {} vs {}",
                cached.2,
                uncached.2
            );
        }
    }

    #[test]
    fn rate_cache_is_invisible_at_5_angstrom() {
        // A wider cutoff has a longer footprint, so a longer key: a dense
        // Fe–Cu box at 5 Å, with the table and with every evaluation
        // computed.
        let run = |bypass: bool| {
            let cfg = KmcConfig {
                table_knots: 800,
                rate_cutoff: 5.0,
                ..Default::default()
            };
            let ghost = crate::lattice::required_ghost(cfg.a0, cfg.rate_cutoff);
            let grid = LocalGrid::whole(BccGeometry::fe_cube(12), ghost);
            let mut s = KmcSimulation::new(cfg, grid);
            s.lat.rate_cache.bypass = bypass;
            let n_vac = (1.0e-2 * s.lat.n_owned() as f64).round() as usize;
            s.lat.seed_vacancies_global(n_vac, 53);
            s.lat.seed_solutes_global(s.lat.n_owned() / 20, 54);
            s.initialize(&mut LoopbackK);
            s.run_cycles(
                ExchangeStrategy::OnDemand(OnDemandMode::OneSided),
                &mut LoopbackK,
                4,
            );
            let owned: Vec<_> = s.lat.grid.interior_ids().map(|i| s.lat.state[i]).collect();
            let rate = s.stats.rate;
            let modelled = (
                s.stats.events,
                s.time.to_bits(),
                rate.rate_evals,
                rate.site_evals,
            );
            (owned, modelled, rate.host_site_evals)
        };
        let (cached, uncached) = (run(false), run(true));
        assert!(cached.1 .0 > 20, "dynamics happen: {:?}", cached.1);
        assert_eq!(cached.0, uncached.0, "owned states");
        assert_eq!(cached.1, uncached.1, "events, clock, counts");
        assert!(
            cached.2 < uncached.2,
            "host site evaluations {} vs {}",
            cached.2,
            uncached.2
        );
    }

    #[test]
    fn a_one_slot_rate_table_changes_nothing_but_host_work() {
        // On a dense 8³ box each new environment evicts the one before
        // it: only what the host computed may differ.
        let run = |one_slot: bool| {
            let cfg = KmcConfig {
                table_knots: 800,
                ..Default::default()
            };
            let ghost = crate::lattice::required_ghost(cfg.a0, cfg.rate_cutoff);
            let mut s = KmcSimulation::new(cfg, LocalGrid::whole(BccGeometry::fe_cube(8), ghost));
            if one_slot {
                s.lat.rate_cache =
                    crate::solver::RateCache::one_slot(&s.lat.patches, &s.lat.nn1_deltas);
            }
            s.lat
                .seed_vacancies_global((2.0e-2 * s.lat.n_owned() as f64).round() as usize, 61);
            s.lat.seed_solutes_global(s.lat.n_owned() / 50, 62);
            s.initialize(&mut LoopbackK);
            s.run_cycles(
                ExchangeStrategy::OnDemand(OnDemandMode::TwoSided),
                &mut LoopbackK,
                12,
            );
            let owned: Vec<_> = s.lat.grid.interior_ids().map(|i| s.lat.state[i]).collect();
            let fingerprint = mmds_telemetry::canon::fnv1a64(format!("{owned:?}").as_bytes());
            let rate = s.stats.rate;
            let modelled = (
                fingerprint,
                s.stats.events,
                s.time.to_bits(),
                rate.rate_evals,
                rate.site_evals,
            );
            let table = (s.lat.rate_cache.hits(), s.lat.rate_cache.misses());
            (modelled, rate.host_site_evals, table)
        };
        let (full, one) = (run(false), run(true));
        assert!(full.0 .1 > 50, "dynamics happen: {:?}", full.0);
        assert_eq!(full.0, one.0, "fingerprint, events, clock, counts");
        assert!(
            full.1 < one.1,
            "host site evaluations {} vs {}",
            full.1,
            one.1
        );
        assert!(full.2 .1 < one.2 .1, "misses: {:?} vs {:?}", full.2, one.2);
        assert_eq!(run(false), full, "host counters repeat from run to run");
    }

    #[test]
    fn a_one_slot_shell_memo_changes_nothing_but_host_work() {
        // A dense Fe–Cu 8³ box (10 % Cu) has many shells with two non-Fe
        // neighbours; with one memo slot each evicts the one before it.
        let run = |one_slot: bool| {
            let cfg = KmcConfig {
                table_knots: 800,
                ..Default::default()
            };
            let ghost = crate::lattice::required_ghost(cfg.a0, cfg.rate_cutoff);
            let mut s = KmcSimulation::new(cfg, LocalGrid::whole(BccGeometry::fe_cube(8), ghost));
            if one_slot {
                s.lat.rate_cache.shells = crate::model::ShellMemo::one_slot();
            }
            s.lat
                .seed_vacancies_global((2.0e-2 * s.lat.n_owned() as f64).round() as usize, 63);
            s.lat.seed_solutes_global(s.lat.n_owned() / 10, 64);
            s.initialize(&mut LoopbackK);
            s.run_cycles(
                ExchangeStrategy::OnDemand(OnDemandMode::TwoSided),
                &mut LoopbackK,
                12,
            );
            let owned: Vec<_> = s.lat.grid.interior_ids().map(|i| s.lat.state[i]).collect();
            let fingerprint = mmds_telemetry::canon::fnv1a64(format!("{owned:?}").as_bytes());
            let modelled = (fingerprint, s.stats.events, s.time.to_bits(), s.stats.rate);
            (modelled, s.shell_memo_counts())
        };
        let (full, one) = (run(false), run(true));
        assert!(full.0 .1 > 50, "dynamics happen: {:?}", full.0);
        assert_eq!(full.0, one.0, "fingerprint, events, clock, RateStats");
        assert!(full.1 .0 > full.1 .1, "the memo mostly hits: {:?}", full.1);
        assert!(full.1 .1 < one.1 .1, "misses: {:?} vs {:?}", full.1, one.1);
        assert_eq!(run(false), full, "host counters repeat from run to run");
    }

    #[test]
    fn time_advances_by_dt_per_cycle() {
        let mut s = sim(4);
        let dt = s.compute_dt(&mut LoopbackK);
        assert!(dt > 0.0);
        s.cycle(ExchangeStrategy::Traditional, &mut LoopbackK);
        assert!((s.time - dt).abs() < 1e-18);
    }

    #[test]
    fn no_vacancies_terminates_immediately() {
        let mut s = sim(0);
        let ev = s.run_until_threshold(ExchangeStrategy::Traditional, &mut LoopbackK, 100);
        assert_eq!(ev, 0);
        assert!(s.time >= s.cfg.t_threshold);
        assert_eq!(s.stats.cycles, 0);
    }

    #[test]
    fn ghost_images_stay_consistent() {
        let mut s = sim(10);
        s.run_cycles(
            ExchangeStrategy::OnDemand(OnDemandMode::TwoSided),
            &mut LoopbackK,
            10,
        );
        // Every ghost site must equal its canonical interior image.
        let dims = s.lat.grid.dims();
        for k in 0..dims[2] {
            for j in 0..dims[1] {
                for i in 0..dims[0] {
                    if s.lat.grid.is_interior(i, j, k) {
                        continue;
                    }
                    for b in 0..2 {
                        let ghost = s.lat.grid.site_id(i, j, k, b);
                        let g = s.lat.grid.global_cell(i, j, k);
                        let gh = s.lat.grid.ghost;
                        let own = s.lat.grid.site_id(g[0] + gh, g[1] + gh, g[2] + gh, b);
                        assert_eq!(
                            s.lat.state[ghost], s.lat.state[own],
                            "ghost ({i},{j},{k},{b}) diverged"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn hops_do_happen_across_the_periodic_boundary() {
        let mut s = sim(0);
        // Vacancy at the very edge of the box: some of its 8 partners
        // are ghost sites.
        let edge = s.lat.grid.site_id(3, 3, 3, 0);
        s.lat.set_state(edge, SiteState::Vacancy);
        s.initialize(&mut LoopbackK);
        s.run_cycles(ExchangeStrategy::Traditional, &mut LoopbackK, 25);
        assert_eq!(s.lat.n_vacancies(), 1, "vacancy neither lost nor copied");
    }
}
