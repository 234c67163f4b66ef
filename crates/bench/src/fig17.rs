//! Figure 17 — vacancy clustering through the coupled pipeline, as data.
//!
//! The serial coupled pipeline (MD cascade → hand-off → KMC) on one
//! box: the cluster census and nearest-neighbour dispersion before and
//! after KMC are the quantitative counterparts of the paper's two
//! panels, and the §3 time-rescaling arithmetic is evaluated for this
//! run and for the paper's configuration. The trajectory is seeded and
//! bitwise reproducible, so the result is a pure function of `scale`.
//! The vacancy point clouds come back beside the result, for the
//! binary's CSV files.

use mmds_analysis::clusters::ClusterReport;
use mmds_analysis::dispersion::DispersionReport;
use mmds_coupled::timescale::paper_configuration_days;
use mmds_coupled::{CoupledConfig, CoupledSimulation};
use mmds_kmc::{ExchangeStrategy, KmcConfig, OnDemandMode};
use mmds_md::MdConfig;
use serde::Serialize;

use crate::{cells_at, paper};

/// The KMC phase's time threshold, in KMC seconds.
pub const T_THRESHOLD: f64 = 1.0e-5;

/// MD steps of the cascade.
pub const MD_STEPS: usize = 40;

/// Primary knock-on atom energy, eV.
pub const PKA_ENERGY: f64 = 600.0;

/// The figure's artefact (`fig17.json`).
#[derive(Serialize)]
pub struct Fig17Result {
    /// Box edge in cells.
    pub cells: usize,
    /// Vacancies the MD cascade left.
    pub md_vacancies: usize,
    /// Interstitials the MD cascade left.
    pub md_interstitials: usize,
    /// KMC events executed.
    pub kmc_events: u64,
    /// Cluster census of the vacancies after MD.
    pub after_md_clusters: ClusterReport,
    /// Cluster census of the vacancies after KMC.
    pub after_kmc_clusters: ClusterReport,
    /// Nearest-neighbour dispersion after MD.
    pub after_md_dispersion: DispersionReport,
    /// Nearest-neighbour dispersion after KMC.
    pub after_kmc_dispersion: DispersionReport,
    /// Physical time this run's KMC phase represents, in days.
    pub t_real_days_this_run: f64,
    /// The same for the paper's configuration (t_thr = 2·10⁻⁴,
    /// C_v^MC = 2·10⁻⁶, 600 K).
    pub t_real_days_paper_configuration: f64,
    /// The paper's figure.
    pub paper_days: f64,
}

/// The vacancy positions of the figure's two panels.
pub struct Clouds {
    /// After the MD cascade.
    pub after_md: Vec<[f64; 3]>,
    /// After the KMC phase.
    pub after_kmc: Vec<[f64; 3]>,
}

/// Runs the pipeline on a `14 · scale` (at least 10) cell box.
pub fn run(scale: f64) -> (Fig17Result, Clouds) {
    let cells = cells_at(scale, 14, 10);
    let rep = CoupledSimulation::new(CoupledConfig {
        md: MdConfig {
            temperature: 600.0,
            thermostat_tau: Some(0.03),
            table_knots: 2000,
            ..Default::default()
        },
        kmc: KmcConfig {
            table_knots: 2000,
            events_per_cycle: 2.0,
            t_threshold: T_THRESHOLD,
            ..Default::default()
        },
        cells,
        md_steps: MD_STEPS,
        pka_energy: PKA_ENERGY,
        max_kmc_cycles: 300,
        extra_vacancy_concentration: 6.0e-3,
        strategy: ExchangeStrategy::OnDemand(OnDemandMode::TwoSided),
        census_cadence: 10,
    })
    .run();
    let result = Fig17Result {
        cells,
        md_vacancies: rep.md_vacancies,
        md_interstitials: rep.md_interstitials,
        kmc_events: rep.kmc_events,
        after_md_clusters: rep.after_md_clusters,
        after_kmc_clusters: rep.after_kmc_clusters,
        after_md_dispersion: rep.after_md_dispersion,
        after_kmc_dispersion: rep.after_kmc_dispersion,
        t_real_days_this_run: rep.t_real_seconds / 86_400.0,
        t_real_days_paper_configuration: paper_configuration_days(),
        paper_days: paper::HEADLINE_DAYS,
    };
    let clouds = Clouds {
        after_md: rep.md_vacancy_points,
        after_kmc: rep.kmc_vacancy_points,
    };
    (result, clouds)
}
