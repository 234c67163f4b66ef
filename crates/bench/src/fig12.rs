//! Figure 12 — KMC communication volume, as data.
//!
//! Real domain-decomposed KMC on 8–128 simulated ranks under both
//! exchange strategies; bytes are exact wire counts from the swmpi
//! accounting, so the result is a pure function of `scale`. The
//! concentration is scaled up so every rank owns vacancies, which
//! *raises* the on-demand share over the paper's.

use mmds_kmc::{ExchangeStrategy, OnDemandMode};
use mmds_swmpi::{MachineModel, World, WorldConfig};
use serde::Serialize;

use crate::kmc_sweep::Sweep;
use crate::{cells_at, paper};

/// Simulated rank counts.
const RANKS: [usize; 5] = [8, 16, 32, 64, 128];

/// A concentration scaled up so every rank owns vacancies, 8 cycles.
const SWEEP: Sweep = Sweep {
    concentration: 2.0e-3,
    cycles: 8,
    charge_compute: true,
};

/// One rank count's volumes.
#[derive(Serialize)]
pub struct Fig12Row {
    /// Simulated ranks.
    pub ranks: usize,
    /// Global sites.
    pub sites: usize,
    /// Bytes the traditional ghost exchange sent.
    pub traditional_bytes: u64,
    /// Bytes the one-sided on-demand exchange sent.
    pub on_demand_bytes: u64,
    /// `on_demand_bytes / traditional_bytes`.
    pub ratio: f64,
}

/// The figure's artefact (`fig12.json`).
#[derive(Serialize)]
pub struct Fig12Result {
    /// Vacancy concentration of every box.
    pub concentration: f64,
    /// Synchronisation cycles per point.
    pub cycles: usize,
    /// One row per rank count, ascending.
    pub rows: Vec<Fig12Row>,
    /// Mean of the rows' ratios.
    pub mean_ratio: f64,
    /// The paper's mean ratio.
    pub paper_ratio: f64,
}

/// Runs both strategies on `10 · scale` (at least 8) cells per rank.
///
/// # Panics
/// If the two strategies' event counts differ at any rank count: the
/// exchange must not change the trajectory.
pub fn run(scale: f64) -> Fig12Result {
    let per_rank_cells = cells_at(scale, 10, 8);
    let world = World::new(WorldConfig {
        model: MachineModel::free(),
        stack_bytes: 2 << 20,
    });
    let rows: Vec<Fig12Row> = RANKS
        .into_iter()
        .map(|ranks| {
            let at = |strategy| SWEEP.per_rank(&world, ranks, per_rank_cells, strategy);
            let trad = at(ExchangeStrategy::Traditional);
            let od = at(ExchangeStrategy::OnDemand(OnDemandMode::OneSided));
            assert_eq!(trad.events, od.events, "strategies must agree exactly");
            Fig12Row {
                ranks,
                sites: trad.sites,
                traditional_bytes: trad.bytes,
                on_demand_bytes: od.bytes,
                ratio: od.bytes as f64 / trad.bytes as f64,
            }
        })
        .collect();
    let mean_ratio = rows.iter().map(|r| r.ratio).sum::<f64>() / rows.len() as f64;
    Fig12Result {
        concentration: SWEEP.concentration,
        cycles: SWEEP.cycles,
        rows,
        mean_ratio,
        paper_ratio: paper::FIG12_VOLUME_RATIO,
    }
}
