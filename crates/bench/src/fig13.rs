//! Figure 13 — KMC communication time, as data.
//!
//! The Fig. 12 sweep at the paper's concentration with the TaihuLight
//! cost model active and compute charges off, so each point is the
//! virtual communication time of one strategy: latency, bandwidth and
//! the zero-size-message overhead of the two-sided variant. Both
//! on-demand variants are reported. Every number is virtual time, so
//! the result is a pure function of `scale`.

use mmds_kmc::{ExchangeStrategy, OnDemandMode};
use mmds_swmpi::World;
use serde::Serialize;

use crate::kmc_sweep::Sweep;
use crate::{cells_at, paper};

/// Simulated rank counts.
const RANKS: [usize; 4] = [8, 16, 32, 64];

/// The paper's vacancy concentration — feasible at this box size — over
/// 4 cycles, with compute charges off to isolate exchange time.
const SWEEP: Sweep = Sweep {
    concentration: 4.5e-5,
    cycles: 4,
    charge_compute: false,
};

/// One rank count's communication times.
#[derive(Serialize)]
pub struct Fig13Row {
    /// Simulated ranks.
    pub ranks: usize,
    /// Max per-rank virtual comm seconds, traditional exchange.
    pub traditional_s: f64,
    /// The same, two-sided on-demand exchange.
    pub on_demand_two_sided_s: f64,
    /// The same, one-sided on-demand exchange.
    pub on_demand_one_sided_s: f64,
    /// `traditional_s / on_demand_two_sided_s`.
    pub speedup_two_sided: f64,
    /// `traditional_s / on_demand_one_sided_s`.
    pub speedup_one_sided: f64,
}

/// The figure's artefact (`fig13.json`).
#[derive(Serialize)]
pub struct Fig13Result {
    /// One row per rank count, ascending.
    pub rows: Vec<Fig13Row>,
    /// Mean of the rows' two-sided speedups.
    pub mean_speedup_two_sided: f64,
    /// The paper's mean speedup.
    pub paper_speedup: f64,
}

/// Runs the three strategies on `40 · scale` (at least 8) cells per
/// rank.
pub fn run(scale: f64) -> Fig13Result {
    let per_rank_cells = cells_at(scale, 40, 8);
    let world = World::default_world();
    let rows: Vec<Fig13Row> = RANKS
        .into_iter()
        .map(|ranks| {
            let comm_s = |strategy| {
                SWEEP
                    .per_rank(&world, ranks, per_rank_cells, strategy)
                    .comm_time
            };
            let trad = comm_s(ExchangeStrategy::Traditional);
            let od2 = comm_s(ExchangeStrategy::OnDemand(OnDemandMode::TwoSided));
            let od1 = comm_s(ExchangeStrategy::OnDemand(OnDemandMode::OneSided));
            Fig13Row {
                ranks,
                traditional_s: trad,
                on_demand_two_sided_s: od2,
                on_demand_one_sided_s: od1,
                speedup_two_sided: trad / od2,
                speedup_one_sided: trad / od1,
            }
        })
        .collect();
    let mean = rows.iter().map(|r| r.speedup_two_sided).sum::<f64>() / rows.len() as f64;
    Fig13Result {
        rows,
        mean_speedup_two_sided: mean,
        paper_speedup: paper::FIG13_TIME_SPEEDUP,
    }
}
