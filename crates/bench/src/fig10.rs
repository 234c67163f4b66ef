//! Figure 10 — MD strong scaling, as data.
//!
//! A fixed global box runs domain-decomposed offloaded MD on 1–16
//! simulated ranks, and the measured single-rank kernel rate is
//! projected to the paper's 3.2·10¹⁰ atoms with one comm constant
//! fitted to the paper's endpoint (DESIGN.md §1). Every number is
//! virtual time, so the result is a pure function of `scale`.

use mmds_md::offload::OffloadConfig;
use mmds_md::parallel::{run_parallel_md, ParallelMdParams};
use mmds_md::MdConfig;
use mmds_perfmodel::{project_strong, CommShape, ProjectedPoint};
use mmds_swmpi::{CommStats, World};
use serde::Serialize;

use crate::{cells_at, paper};

/// Simulated rank counts.
const RANKS: [usize; 5] = [1, 2, 4, 8, 16];

/// MD steps per point.
pub const STEPS: usize = 2;

/// Atoms of the paper's strong-scaled box.
const PAPER_ATOMS: f64 = 3.2e10;

/// Core groups of the paper's projected series.
const PAPER_CGS: [u64; 7] = [1_500, 3_000, 6_000, 12_000, 24_000, 48_000, 96_000];

/// One measured point of the strong-scaling sweep.
#[derive(Serialize)]
pub struct MeasuredPoint {
    /// Simulated ranks (core groups).
    pub ranks: usize,
    /// Cores (65 per core group).
    pub cores: usize,
    /// Global atoms.
    pub atoms: usize,
    /// Max per-rank virtual compute seconds.
    pub compute_s: f64,
    /// Max per-rank virtual comm seconds.
    pub comm_s: f64,
    /// Max per-rank virtual clock.
    pub total_s: f64,
    /// Single-rank total over this total.
    pub speedup: f64,
    /// Speedup per rank.
    pub efficiency: f64,
}

/// The figure's artefact (`fig10.json`).
#[derive(Serialize)]
pub struct Fig10Result {
    /// The measured sweep, ascending ranks.
    pub measured: Vec<MeasuredPoint>,
    /// The paper-scale projection.
    pub projected: Vec<ProjectedPoint>,
    /// The paper's speedup at 64× cores.
    pub paper_speedup: f64,
    /// The paper's efficiency at 6.24M cores.
    pub paper_efficiency: f64,
}

/// Runs the sweep on a `16 · scale` (at least 8) cell box and projects
/// it to the paper's scale.
pub fn run(scale: f64) -> Fig10Result {
    let cells = cells_at(scale, 16, 8);
    let atoms = 2 * cells * cells * cells;
    let world = World::default_world();
    let params = ParallelMdParams {
        md: MdConfig {
            table_knots: 2000,
            temperature: 600.0,
            ..Default::default()
        },
        offload: OffloadConfig::optimized(),
        global_cells: [cells; 3],
        steps: STEPS,
        warmup_steps: 1,
        pka_energy: None,
    };
    let mut measured: Vec<MeasuredPoint> = Vec::new();
    for r in RANKS {
        let out = run_parallel_md(&world, r, &params);
        let stats: Vec<CommStats> = out.iter().map(|o| o.stats).collect();
        let total = out.iter().map(|o| o.clock).fold(0.0, f64::max);
        let t0 = measured.first().map_or(total, |p| p.total_s);
        let speedup = t0 / total;
        measured.push(MeasuredPoint {
            ranks: r,
            cores: r * 65,
            atoms,
            compute_s: CommStats::max_compute_time(&stats),
            comm_s: CommStats::max_comm_time(&stats),
            total_s: total,
            speedup,
            efficiency: speedup / r as f64,
        });
    }

    let per_atom_step = measured[0].compute_s / (atoms as f64 * STEPS as f64);
    let projected = project_strong(
        &PAPER_CGS,
        65,
        per_atom_step * PAPER_ATOMS * STEPS as f64,
        CommShape::Log2PlusCbrt { w: 0.05 },
        paper::FIG10_EFFICIENCY,
        None,
    );
    Fig10Result {
        measured,
        projected,
        paper_speedup: paper::FIG10_SPEEDUP,
        paper_efficiency: paper::FIG10_EFFICIENCY,
    }
}
