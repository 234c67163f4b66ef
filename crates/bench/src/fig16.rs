//! Figure 16 — coupled MD-KMC weak scaling, as data.
//!
//! The full coupled pipeline (parallel MD cascade → hand-off → parallel
//! KMC) on a fixed per-rank box over 1–16 simulated ranks, and the
//! measured single-rank time per atom projected to the paper's 3.3·10⁵
//! atoms per core group. Every number is virtual time, so the result is
//! a pure function of `scale`.

use mmds_coupled::parallel::{run_coupled_parallel, ParallelCoupledParams};
use mmds_kmc::{ExchangeStrategy, KmcConfig, OnDemandMode};
use mmds_md::offload::OffloadConfig;
use mmds_md::MdConfig;
use mmds_perfmodel::{project_weak, CommShape, ProjectedPoint};
use mmds_swmpi::topology::CartGrid;
use mmds_swmpi::World;
use serde::Serialize;

use crate::{cells_at, paper};

/// Simulated rank counts.
const RANKS: [usize; 5] = [1, 2, 4, 8, 16];

/// MD steps per point.
pub const MD_STEPS: usize = 2;

/// KMC cycles per point.
pub const KMC_CYCLES: usize = 4;

/// Atoms per core group of the paper's weak-scaled runs.
const PAPER_ATOMS_PER_CG: f64 = 3.3e5;

/// Core groups of the paper's projected series, one per
/// [`paper::FIG16_BARS`] entry.
const PAPER_CGS: [u64; 4] = [1_500, 6_000, 24_000, 96_000];

/// One measured point of the weak-scaling sweep.
#[derive(Serialize)]
pub struct MeasuredPoint {
    /// Simulated ranks.
    pub ranks: usize,
    /// Global atoms.
    pub atoms_total: usize,
    /// Max per-rank virtual MD-phase seconds.
    pub md_s: f64,
    /// Max per-rank virtual KMC-phase seconds.
    pub kmc_s: f64,
    /// Max per-rank virtual clock.
    pub total_s: f64,
    /// Single-rank total over this total.
    pub efficiency: f64,
}

/// The figure's artefact (`fig16.json`).
#[derive(Serialize)]
pub struct Fig16Result {
    /// The measured sweep, ascending ranks.
    pub measured: Vec<MeasuredPoint>,
    /// The paper-scale projection.
    pub projected: Vec<ProjectedPoint>,
    /// The paper's efficiency at 6.24M cores.
    pub paper_efficiency: f64,
}

/// Runs the sweep on `8 · scale` (at least 8) cells per rank and
/// projects it to the paper's scale.
pub fn run(scale: f64) -> Fig16Result {
    let per_rank_cells = cells_at(scale, 8, 8);
    let world = World::default_world();
    let mut measured: Vec<MeasuredPoint> = Vec::new();
    for r in RANKS {
        // Each round's KMC cycle numbering restarts at 1, so the
        // (monotonic) series tracks must restart with it. The
        // telemetry artefact therefore covers the last (largest)
        // round.
        mmds_telemetry::global().reset();
        let global = CartGrid::for_ranks(r).dims.map(|d| d * per_rank_cells);
        let params = ParallelCoupledParams {
            md: MdConfig {
                table_knots: 1500,
                temperature: 600.0,
                ..Default::default()
            },
            kmc: KmcConfig {
                table_knots: 1500,
                events_per_cycle: 1.0,
                ..Default::default()
            },
            offload: OffloadConfig::optimized(),
            global_cells: global,
            md_steps: MD_STEPS,
            kmc_cycles: KMC_CYCLES,
            pka_energy: None,
            seed_concentration: 2.0e-3,
            strategy: ExchangeStrategy::OnDemand(OnDemandMode::TwoSided),
        };
        let out = run_coupled_parallel(&world, r, &params);
        let total = out.iter().map(|o| o.clock).fold(0.0, f64::max);
        let t0 = measured.first().map_or(total, |p| p.total_s);
        measured.push(MeasuredPoint {
            ranks: r,
            atoms_total: 2 * global[0] * global[1] * global[2],
            md_s: out.iter().map(|o| o.result.md_time).fold(0.0, f64::max),
            kmc_s: out.iter().map(|o| o.result.kmc_time).fold(0.0, f64::max),
            total_s: total,
            efficiency: t0 / total,
        });
    }

    let per_atom = measured[0].total_s / measured[0].atoms_total as f64;
    let projected = project_weak(
        &PAPER_CGS,
        65,
        per_atom * PAPER_ATOMS_PER_CG,
        CommShape::Log2PlusCbrt { w: 0.1 },
        paper::FIG16_EFFICIENCY,
    );
    Fig16Result {
        measured,
        projected,
        paper_efficiency: paper::FIG16_EFFICIENCY,
    }
}
