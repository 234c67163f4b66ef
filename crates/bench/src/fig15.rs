//! Figure 15 — KMC weak scaling, as data.
//!
//! A fixed per-rank box runs two-sided on-demand KMC on 1–64 simulated
//! ranks, and the measured single-rank compute rate is projected to the
//! paper's 10⁷ sites per core with the collective-dominated comm shape.
//! Every number is virtual time, so the result is a pure function of
//! `scale`.

use mmds_kmc::{ExchangeStrategy, OnDemandMode};
use mmds_perfmodel::{project_weak, CommShape, ProjectedPoint};
use mmds_swmpi::World;
use serde::Serialize;

use crate::kmc_sweep::Sweep;
use crate::{cells_at, paper};

/// Simulated rank counts.
const RANKS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// 6 cycles per point at a concentration that gives every rank
/// vacancies.
pub const SWEEP: Sweep = Sweep {
    concentration: 2.0e-3,
    cycles: 6,
    charge_compute: true,
};

/// Sites per master core of the paper's weak-scaled runs.
const PAPER_SITES_PER_CORE: f64 = 1.0e7;

/// Master cores of the paper's projected series, one per
/// [`paper::FIG15_BARS`] entry.
const PAPER_CORES: [u64; 7] = [1_600, 3_200, 6_400, 12_800, 25_600, 51_200, 102_400];

/// One measured point of the weak-scaling sweep.
#[derive(Serialize)]
pub struct MeasuredPoint {
    /// Simulated ranks.
    pub ranks: usize,
    /// Global sites.
    pub sites_total: usize,
    /// Max per-rank virtual compute seconds.
    pub compute_s: f64,
    /// Max per-rank virtual comm seconds.
    pub comm_s: f64,
    /// `compute_s + comm_s`.
    pub total_s: f64,
    /// Single-rank total over this total.
    pub efficiency: f64,
}

/// The figure's artefact (`fig15.json`).
#[derive(Serialize)]
pub struct Fig15Result {
    /// The measured sweep, ascending ranks.
    pub measured: Vec<MeasuredPoint>,
    /// The paper-scale projection.
    pub projected: Vec<ProjectedPoint>,
    /// The paper's efficiency at 1.6k cores.
    pub paper_first_efficiency: f64,
    /// The paper's efficiency at 102.4k cores.
    pub paper_efficiency: f64,
}

/// Runs the sweep on `12 · scale` (at least 8) cells per rank and
/// projects it to the paper's scale.
pub fn run(scale: f64) -> Fig15Result {
    let per_rank_cells = cells_at(scale, 12, 8);
    let world = World::default_world();
    let strategy = ExchangeStrategy::OnDemand(OnDemandMode::TwoSided);
    let mut measured: Vec<MeasuredPoint> = Vec::new();
    for r in RANKS {
        let point = SWEEP.per_rank(&world, r, per_rank_cells, strategy);
        let total = point.compute_time + point.comm_time;
        let t0 = measured.first().map_or(total, |p| p.total_s);
        measured.push(MeasuredPoint {
            ranks: r,
            sites_total: point.sites,
            compute_s: point.compute_time,
            comm_s: point.comm_time,
            total_s: total,
            efficiency: t0 / total,
        });
    }

    let per_site_cycle =
        measured[0].compute_s / (measured[0].sites_total as f64 * SWEEP.cycles as f64);
    let projected = project_weak(
        &PAPER_CORES,
        1,
        per_site_cycle * PAPER_SITES_PER_CORE * SWEEP.cycles as f64,
        CommShape::Log2,
        paper::FIG15_EFFICIENCY,
    );
    Fig15Result {
        measured,
        projected,
        paper_first_efficiency: paper::FIG15_FIRST_EFFICIENCY,
        paper_efficiency: paper::FIG15_EFFICIENCY,
    }
}
