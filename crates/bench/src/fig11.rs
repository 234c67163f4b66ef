//! Figure 11 — MD weak scaling and the §3 memory capacity, as data.
//!
//! A fixed per-rank box runs domain-decomposed offloaded MD on 1–16
//! simulated ranks, the measured single-rank kernel rate is projected
//! to the paper's 3.9·10⁷ atoms per core group, and the capacity rows
//! are `mmds-lattice::memory`'s arithmetic. Every number is virtual
//! time or a byte count, so the result is a pure function of `scale`.

use mmds_lattice::memory::MemoryModel;
use mmds_md::offload::OffloadConfig;
use mmds_md::parallel::{run_parallel_md, ParallelMdParams};
use mmds_md::MdConfig;
use mmds_perfmodel::{project_weak, CommShape, ProjectedPoint};
use mmds_swmpi::topology::CartGrid;
use mmds_swmpi::{CommStats, World};
use serde::Serialize;

use crate::{cells_at, paper};

/// Simulated rank counts.
const RANKS: [usize; 5] = [1, 2, 4, 8, 16];

/// MD steps per point.
pub const STEPS: usize = 2;

/// Atoms per core group of the paper's weak-scaled runs.
const PAPER_ATOMS_PER_CG: f64 = 3.9e7;

/// Core groups of the paper's projected series.
const PAPER_CGS: [u64; 6] = [1_600, 3_200, 12_800, 25_600, 51_200, 102_400];

/// Core groups the capacity rows are counted on (6.656M cores).
pub const CAPACITY_CGS: usize = 102_400;

/// One measured point of the weak-scaling sweep.
#[derive(Serialize)]
pub struct MeasuredPoint {
    /// Simulated ranks (core groups).
    pub ranks: usize,
    /// Cores (65 per core group).
    pub cores: usize,
    /// Global atoms.
    pub atoms_total: usize,
    /// Max per-rank virtual compute seconds.
    pub compute_s: f64,
    /// Max per-rank virtual comm seconds.
    pub comm_s: f64,
    /// Max per-rank virtual clock.
    pub total_s: f64,
    /// Single-rank total over this total.
    pub efficiency: f64,
}

/// One neighbour structure's capacity on [`CAPACITY_CGS`] core groups.
#[derive(Serialize)]
pub struct CapacityRow {
    /// The structure's name.
    pub structure: String,
    /// Bytes it needs per atom.
    pub bytes_per_atom: f64,
    /// Atoms that fit.
    pub atoms_on_102400_cgs: f64,
}

/// The figure's artefact (`fig11.json`).
#[derive(Serialize)]
pub struct Fig11Result {
    /// The measured sweep, ascending ranks.
    pub measured: Vec<MeasuredPoint>,
    /// The paper-scale projection.
    pub projected: Vec<ProjectedPoint>,
    /// Lattice neighbour list, linked cells, Verlet list.
    pub capacity: Vec<CapacityRow>,
    /// The paper's efficiency at 6.656M cores.
    pub paper_efficiency: f64,
    /// The paper's atom count with the lattice neighbour list.
    pub paper_lnl_atoms: f64,
    /// The paper's atom count with a traditional neighbour list.
    pub paper_verlet_atoms: f64,
}

/// Runs the sweep on `10 · scale` (at least 8) cells per rank and
/// projects it to the paper's scale.
pub fn run(scale: f64) -> Fig11Result {
    let per_rank_cells = cells_at(scale, 10, 8);
    let world = World::default_world();
    let mut measured: Vec<MeasuredPoint> = Vec::new();
    for r in RANKS {
        let global = CartGrid::for_ranks(r).dims.map(|d| d * per_rank_cells);
        let params = ParallelMdParams {
            md: MdConfig {
                table_knots: 2000,
                temperature: 600.0,
                ..Default::default()
            },
            offload: OffloadConfig::optimized(),
            global_cells: global,
            steps: STEPS,
            warmup_steps: 1,
            pka_energy: None,
        };
        let out = run_parallel_md(&world, r, &params);
        let stats: Vec<CommStats> = out.iter().map(|o| o.stats).collect();
        let total = out.iter().map(|o| o.clock).fold(0.0, f64::max);
        let t0 = measured.first().map_or(total, |p| p.total_s);
        measured.push(MeasuredPoint {
            ranks: r,
            cores: r * 65,
            atoms_total: 2 * global[0] * global[1] * global[2],
            compute_s: CommStats::max_compute_time(&stats),
            comm_s: CommStats::max_comm_time(&stats),
            total_s: total,
            efficiency: t0 / total,
        });
    }

    let per_atom_step = measured[0].compute_s / (measured[0].atoms_total as f64 * STEPS as f64);
    let projected = project_weak(
        &PAPER_CGS,
        65,
        per_atom_step * PAPER_ATOMS_PER_CG * STEPS as f64,
        CommShape::Log2PlusCbrt { w: 0.08 },
        paper::FIG11_EFFICIENCY,
    );
    let capacity = [
        MemoryModel::lattice_neighbor_list(),
        MemoryModel::linked_cell(),
        MemoryModel::verlet_list(),
    ]
    .into_iter()
    .map(|model| CapacityRow {
        structure: model.name.to_string(),
        bytes_per_atom: model.bytes_per_atom(),
        atoms_on_102400_cgs: model.capacity(CAPACITY_CGS),
    })
    .collect();
    Fig11Result {
        measured,
        projected,
        capacity,
        paper_efficiency: paper::FIG11_EFFICIENCY,
        paper_lnl_atoms: paper::FIG11_LNL_ATOMS,
        paper_verlet_atoms: paper::FIG11_VERLET_ATOMS,
    }
}
