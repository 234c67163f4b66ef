//! Single-rank coupled MD-KMC driver (the Fig. 17 workflow).

use mmds_analysis::clusters::{cluster_sizes, ClusterReport};
use mmds_analysis::dispersion::{mean_nn_distance, DispersionReport};
use mmds_kmc::comm::LoopbackK;
use mmds_kmc::lattice::required_ghost;
use mmds_kmc::{ExchangeStrategy, KmcConfig, KmcSimulation};
use mmds_lattice::{BccGeometry, LocalGrid};
use mmds_md::cascade::{launch_pka, PKA_DIRECTION};
use mmds_md::domain::Loopback;
use mmds_md::{MdConfig, MdSimulation};
use serde::{Deserialize, Serialize};

use crate::handoff::{md_vacancy_cells, place_vacancies};
use crate::timescale::real_time_seconds;

/// Configuration of a coupled run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CoupledConfig {
    /// MD phase configuration.
    pub md: MdConfig,
    /// KMC phase configuration.
    pub kmc: KmcConfig,
    /// Box size (BCC cells per axis).
    pub cells: usize,
    /// MD steps (the paper runs 50 ps; scale down for examples).
    pub md_steps: usize,
    /// PKA energy (eV).
    pub pka_energy: f64,
    /// Maximum KMC synchronisation cycles (safety bound).
    pub max_kmc_cycles: usize,
    /// Additional vacancy concentration seeded at the handoff,
    /// representing the debris of the many other cascades a full-scale
    /// irradiation run accumulates (the paper's big run has
    /// C_v^MC = 2·10⁻⁶ over 3.2·10¹⁰ atoms ≈ 64,000 vacancies; a
    /// laptop-scale box hosts a single cascade, so the rest of the
    /// dispersive population is seeded at random lattice sites).
    pub extra_vacancy_concentration: f64,
    /// KMC exchange strategy.
    pub strategy: ExchangeStrategy,
    /// In-situ defect-census cadence during the MD phase (steps between
    /// passes; `0` disables the census). Only observed when telemetry
    /// is enabled; the census never perturbs the dynamics either way
    /// (see `mmds_md::census`).
    pub census_cadence: usize,
}

impl Default for CoupledConfig {
    fn default() -> Self {
        Self {
            md: MdConfig {
                temperature: 600.0,
                thermostat_tau: Some(0.05),
                table_knots: 2000,
                ..Default::default()
            },
            kmc: KmcConfig {
                table_knots: 2000,
                events_per_cycle: 2.0,
                ..Default::default()
            },
            cells: 10,
            md_steps: 60,
            pka_energy: 300.0,
            max_kmc_cycles: 400,
            extra_vacancy_concentration: 0.0,
            strategy: ExchangeStrategy::OnDemand(mmds_kmc::OnDemandMode::OneSided),
            census_cadence: 10,
        }
    }
}

/// Outcome of a coupled run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoupledReport {
    /// Vacancies produced by the MD cascade.
    pub md_vacancies: usize,
    /// Interstitials (run-aways) left after MD.
    pub md_interstitials: usize,
    /// Vacancy cloud metrics right after MD (Fig. 17 a).
    pub after_md_clusters: ClusterReport,
    /// Dispersion right after MD.
    pub after_md_dispersion: DispersionReport,
    /// Vacancy cloud metrics after KMC (Fig. 17 b).
    pub after_kmc_clusters: ClusterReport,
    /// Dispersion after KMC.
    pub after_kmc_dispersion: DispersionReport,
    /// KMC events executed.
    pub kmc_events: u64,
    /// KMC simulated (threshold) time.
    pub kmc_time: f64,
    /// Physical time represented (s), via the rescaling formula.
    pub t_real_seconds: f64,
    /// Vacancy positions after MD.
    pub md_vacancy_points: Vec<[f64; 3]>,
    /// Vacancy positions after KMC.
    pub kmc_vacancy_points: Vec<[f64; 3]>,
}

/// The coupled pipeline on one rank.
pub struct CoupledSimulation {
    /// Configuration.
    pub cfg: CoupledConfig,
}

impl CoupledSimulation {
    /// Creates the pipeline.
    pub fn new(cfg: CoupledConfig) -> Self {
        Self { cfg }
    }

    /// Runs MD cascade → handoff → KMC clustering, returning the
    /// combined report.
    pub fn run(&self) -> CoupledReport {
        let run_span = mmds_telemetry::span_enter("coupled.run");
        let cfg = &self.cfg;
        let geom = BccGeometry::new(cfg.md.a0, cfg.cells, cfg.cells, cfg.cells);
        let box_len = geom.box_lengths();

        // --- MD phase: cascade collision -----------------------------
        let mut md = MdSimulation::single_box(cfg.md, cfg.cells);
        md.observatory.cfg = mmds_md::CensusConfig::every(cfg.census_cadence);
        mmds_telemetry::emit_phase_heartbeat("coupled.heartbeat", 1, 4);
        {
            let _phase = mmds_telemetry::span!("md.phase");
            md.init_velocities();
            let mid = md.lnl.grid.ghost + cfg.cells / 2;
            let pka = md.lnl.grid.site_id(mid, mid, mid, 0);
            launch_pka(&mut md.lnl, pka, cfg.pka_energy, PKA_DIRECTION, md.mass);
            md.run(&mut Loopback, cfg.md_steps);
        }

        let vac_cells = md_vacancy_cells(&md.lnl);
        let r_link = 1.2 * geom.nn2(); // between 2NN and 3NN

        // --- Handoff --------------------------------------------------
        mmds_telemetry::emit_phase_heartbeat("coupled.heartbeat", 2, 4);
        let handoff = mmds_telemetry::span_enter("handoff");
        let ghost = required_ghost(cfg.kmc.a0, cfg.kmc.rate_cutoff);
        let kmc_grid = LocalGrid::whole(geom, ghost);
        let mut kmc = KmcSimulation::new(cfg.kmc, kmc_grid);
        let placed = place_vacancies(&mut kmc.lat, &vac_cells);
        if cfg.extra_vacancy_concentration > 0.0 {
            let n_extra =
                (cfg.extra_vacancy_concentration * kmc.lat.n_owned() as f64).round() as usize;
            kmc.lat
                .seed_vacancies_global(n_extra, cfg.kmc.seed ^ 0x17_17);
        }
        let seeded = kmc.lat.n_vacancies() - placed;
        if mmds_telemetry::enabled() {
            // Defect-transfer accounting through named counters
            // (the handoff used to be invisible to telemetry).
            mmds_telemetry::add_counter("coupled.handoff.md_vacancies", vac_cells.len() as f64);
            mmds_telemetry::add_counter("coupled.handoff.placed", placed as f64);
            mmds_telemetry::add_counter("coupled.handoff.seeded", seeded as f64);
            mmds_telemetry::add_counter(
                "coupled.handoff.interstitials_dropped",
                md.lnl.n_runaways() as f64,
            );
            // MD↔KMC handoff defect delta: vacancies entering KMC minus
            // vacancies leaving MD (seeded debris is a gain,
            // out-of-domain placements would be a loss). Timestamped on
            // the MD step axis so it lines up with the census series.
            let delta = (placed + seeded) as f64 - vac_cells.len() as f64;
            mmds_telemetry::emit_series("coupled.handoff.delta", md.steps_done, delta);
        }
        // "After MD" = the full dispersive vacancy population the KMC
        // phase starts from (cascade survivors + seeded debris).
        let md_points: Vec<[f64; 3]> = kmc.lat.vacancies().map(|s| kmc.lat.position(s)).collect();
        let after_md_clusters = cluster_sizes(&md_points, box_len, r_link);
        let after_md_dispersion = mean_nn_distance(&md_points, box_len);
        drop(handoff);

        // --- KMC phase: clustering & evolution ------------------------
        mmds_telemetry::emit_phase_heartbeat("coupled.heartbeat", 3, 4);
        let kmc_events = {
            let _phase = mmds_telemetry::span!("kmc.phase");
            let mut t = LoopbackK;
            kmc.initialize(&mut t);
            kmc.run_until_threshold(cfg.strategy, &mut t, cfg.max_kmc_cycles)
        };

        mmds_telemetry::emit_phase_heartbeat("coupled.heartbeat", 4, 4);
        let analysis = mmds_telemetry::span_enter("analysis");
        let kmc_points: Vec<[f64; 3]> = kmc.lat.vacancies().map(|s| kmc.lat.position(s)).collect();
        let after_kmc_clusters = cluster_sizes(&kmc_points, box_len, r_link);
        let after_kmc_dispersion = mean_nn_distance(&kmc_points, box_len);
        drop(analysis);

        let c_v_mc = kmc.lat.vacancy_concentration();
        let report = CoupledReport {
            md_vacancies: md_points.len(),
            md_interstitials: md.lnl.n_runaways(),
            after_md_clusters,
            after_md_dispersion,
            after_kmc_clusters,
            after_kmc_dispersion,
            kmc_events,
            kmc_time: kmc.time,
            t_real_seconds: real_time_seconds(
                cfg.kmc.t_threshold,
                c_v_mc.max(1e-300),
                mmds_eam::units::E_VAC_FORMATION,
                cfg.kmc.temperature,
            ),
            md_vacancy_points: md_points,
            kmc_vacancy_points: kmc_points,
        };
        drop(run_span);
        let tel = mmds_telemetry::global();
        if tel.enabled() {
            // End-of-run self-time tree (summary and jsonl modes).
            eprintln!("{}", tel.render_tree());
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> CoupledConfig {
        CoupledConfig {
            md: MdConfig {
                temperature: 100.0,
                thermostat_tau: Some(0.02),
                table_knots: 1000,
                ..Default::default()
            },
            kmc: KmcConfig {
                table_knots: 800,
                events_per_cycle: 2.0,
                t_threshold: 5.0e-7,
                ..Default::default()
            },
            cells: 8,
            md_steps: 30,
            pka_energy: 200.0,
            max_kmc_cycles: 60,
            extra_vacancy_concentration: 2.0e-3,
            strategy: ExchangeStrategy::OnDemand(mmds_kmc::OnDemandMode::OneSided),
            census_cadence: 10,
        }
    }

    #[test]
    fn pipeline_produces_and_preserves_vacancies() {
        let rep = CoupledSimulation::new(quick_cfg()).run();
        assert!(rep.md_vacancies > 0, "cascade must create vacancies");
        assert_eq!(
            rep.after_kmc_clusters.n_points, rep.md_vacancies,
            "KMC conserves vacancy count"
        );
        assert!(rep.t_real_seconds > 0.0);
        assert_eq!(rep.md_vacancy_points.len(), rep.md_vacancies);
    }

    #[test]
    fn kmc_runs_events_when_vacancies_exist() {
        let rep = CoupledSimulation::new(quick_cfg()).run();
        if rep.md_vacancies > 0 {
            assert!(rep.kmc_events > 0, "vacancies must hop");
            assert!(rep.kmc_time > 0.0);
        }
    }
}
