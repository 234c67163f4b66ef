//! Figure 14 — KMC strong scaling, as data.
//!
//! A fixed global box is split over 1–64 simulated ranks (every legal
//! decomposition), and the measured single-rank compute rate is
//! projected to the paper's 3.2·10¹⁰ sites with the L2 cache model.
//! Every number is virtual time — compute is the solver's modelled site
//! evaluations × `SITE_EVAL_SECONDS`, comm is the machine model's price
//! of the exchanges — so the result is a pure function of `scale`: the
//! `fig14_kmc_strong` binary prints it, and `tests/figures_golden.rs`
//! pins it against `tests/golden/fig14.json`.

use mmds_kmc::{ExchangeStrategy, OnDemandMode};
use mmds_perfmodel::{project_strong, CommShape, Machine, ProjectedPoint};
use mmds_swmpi::topology::CartGrid;
use mmds_swmpi::World;
use serde::Serialize;

use crate::kmc_sweep::Sweep;
use crate::{cells_at, paper};

/// Simulated rank counts; those whose decomposition is illegal for the
/// box are skipped.
const RANKS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// 6 cycles per point at a 10⁻³ vacancy concentration.
const SWEEP: Sweep = Sweep {
    concentration: 1.0e-3,
    cycles: 6,
    charge_compute: true,
};

/// Sites of the paper's strong-scaled box (and ≈ its working set in B).
const PAPER_SITES: f64 = 3.2e10;

/// Master cores of the paper's projected series.
const PAPER_CORES: [u64; 6] = [1_500, 3_000, 6_000, 12_000, 24_000, 48_000];

/// One measured point of the strong-scaling sweep.
#[derive(Serialize)]
pub struct MeasuredPoint {
    /// Simulated ranks.
    pub ranks: usize,
    /// Global sites.
    pub sites: usize,
    /// Max per-rank virtual compute seconds.
    pub compute_s: f64,
    /// Max per-rank virtual comm seconds.
    pub comm_s: f64,
    /// `compute_s + comm_s`.
    pub total_s: f64,
    /// Single-rank total over this total.
    pub speedup: f64,
    /// Speedup per rank.
    pub efficiency: f64,
}

/// The figure's artefact (`fig14.json`).
#[derive(Serialize)]
pub struct Fig14Result {
    /// Global box edge in cells.
    pub cells: usize,
    /// Synchronisation cycles per point.
    pub cycles: usize,
    /// The measured sweep, ascending ranks.
    pub measured: Vec<MeasuredPoint>,
    /// The paper-scale projection with the cache model.
    pub projected: Vec<ProjectedPoint>,
    /// The paper's speedup at 32× cores.
    pub paper_speedup: f64,
    /// The paper's efficiency at 48k cores.
    pub paper_efficiency: f64,
}

/// Runs the sweep on a `24 · scale` (at least 12) cell box and projects
/// it to the paper's scale.
pub fn run(scale: f64) -> Fig14Result {
    let cells = cells_at(scale, 24, 12);
    let world = World::default_world();
    let strategy = ExchangeStrategy::OnDemand(OnDemandMode::TwoSided);
    let mut measured: Vec<MeasuredPoint> = Vec::new();
    for r in RANKS {
        // Keep subdomains legal: every axis ≥ 2× the KMC ghost width.
        let dims = CartGrid::for_ranks(r).dims;
        if dims
            .iter()
            .any(|&d| cells / d < 6 || !cells.is_multiple_of(d))
        {
            continue;
        }
        let point = SWEEP.fixed_box(&world, r, [cells; 3], strategy);
        let total = point.comm_time + point.compute_time;
        let t0 = measured.first().map_or(total, |p| p.total_s);
        let speedup = t0 / total;
        measured.push(MeasuredPoint {
            ranks: r,
            sites: point.sites,
            compute_s: point.compute_time,
            comm_s: point.comm_time,
            total_s: total,
            speedup,
            efficiency: speedup / r as f64,
        });
    }

    let base = &measured[0];
    let per_site_cycle = base.compute_s / (base.sites as f64 * SWEEP.cycles as f64);
    let projected = project_strong(
        &PAPER_CORES,
        1,
        per_site_cycle * PAPER_SITES * SWEEP.cycles as f64,
        CommShape::Log2,
        paper::FIG14_EFFICIENCY,
        Some((Machine::taihulight(), PAPER_SITES)),
    );
    Fig14Result {
        cells,
        cycles: SWEEP.cycles,
        measured,
        projected,
        paper_speedup: paper::FIG14_SPEEDUP,
        paper_efficiency: paper::FIG14_EFFICIENCY,
    }
}
