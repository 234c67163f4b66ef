//! Figure 16 — "Weak scaling of the coupled MD-KMC approach"
//!
//! Paper: 3.3·10⁵ atoms per core group, 97,500 → 6,240,000 cores;
//! parallel efficiencies 98.9%, 77.4%, 75.7%.
//!
//! Here: measured weak scaling of the full coupled pipeline (parallel
//! MD cascade → handoff → parallel KMC) over simulated ranks, plus the
//! projected paper-scale series.

use mmds_bench::{emit_report, fmt_pct, fmt_s, header, paper, scaled_cells};
use mmds_coupled::parallel::{run_coupled_parallel, ParallelCoupledParams};
use mmds_kmc::{ExchangeStrategy, KmcConfig, OnDemandMode};
use mmds_md::offload::OffloadConfig;
use mmds_md::MdConfig;
use mmds_perfmodel::{project_weak, CommShape, ProjectedPoint};
use mmds_swmpi::topology::CartGrid;
use mmds_swmpi::World;
use serde::Serialize;

#[derive(Serialize)]
struct MeasuredPoint {
    ranks: usize,
    atoms_total: usize,
    md_s: f64,
    kmc_s: f64,
    total_s: f64,
    efficiency: f64,
}

#[derive(Serialize)]
struct Fig16Result {
    measured: Vec<MeasuredPoint>,
    projected: Vec<ProjectedPoint>,
    paper_efficiency: f64,
}

fn main() {
    header("Figure 16: coupled MD-KMC weak scaling");
    let per_rank_cells = scaled_cells(8, 8);
    let md_steps = 2;
    let kmc_cycles = 4;
    let world = World::default_world();

    println!(
        "measured ({} atoms per rank, {md_steps} MD steps + {kmc_cycles} KMC cycles):",
        2 * per_rank_cells.pow(3)
    );
    println!(
        "{:>6} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "ranks", "atoms", "MD", "KMC", "total", "efficiency"
    );
    let mut measured = Vec::new();
    let mut t0 = 0.0;
    for &r in &[1usize, 2, 4, 8, 16] {
        // Each round's KMC cycle numbering restarts at 1, so the
        // (monotonic) series tracks must restart with it. The
        // telemetry artefact therefore covers the last (largest)
        // round.
        mmds_telemetry::global().reset();
        let dims = CartGrid::for_ranks(r).dims;
        let global = [
            dims[0] * per_rank_cells,
            dims[1] * per_rank_cells,
            dims[2] * per_rank_cells,
        ];
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
            md_steps,
            kmc_cycles,
            pka_energy: None,
            seed_concentration: 2.0e-3,
            strategy: ExchangeStrategy::OnDemand(OnDemandMode::TwoSided),
        };
        let out = run_coupled_parallel(&world, r, &params);
        let total = out.iter().map(|o| o.clock).fold(0.0, f64::max);
        let md_t = out.iter().map(|o| o.result.md_time).fold(0.0, f64::max);
        let kmc_t = out.iter().map(|o| o.result.kmc_time).fold(0.0, f64::max);
        if r == 1 {
            t0 = total;
        }
        let eff = t0 / total;
        let atoms_total = 2 * global[0] * global[1] * global[2];
        println!(
            "{:>6} {:>12} {:>10} {:>10} {:>10} {:>10}",
            r,
            atoms_total,
            fmt_s(md_t),
            fmt_s(kmc_t),
            fmt_s(total),
            fmt_pct(eff)
        );
        measured.push(MeasuredPoint {
            ranks: r,
            atoms_total,
            md_s: md_t,
            kmc_s: kmc_t,
            total_s: total,
            efficiency: eff,
        });
    }

    // Paper-scale projection: 3.3e5 atoms per CG.
    let per_atom = measured[0].total_s / measured[0].atoms_total as f64;
    let per_rank_compute = per_atom * 3.3e5;
    let cgs: Vec<u64> = vec![1_500, 6_000, 24_000, 96_000];
    let projected = project_weak(
        &cgs,
        65,
        per_rank_compute,
        CommShape::Log2PlusCbrt { w: 0.1 },
        paper::FIG16_EFFICIENCY,
    );
    println!("\nprojected at paper scale (3.3e5 atoms/CG; endpoint fitted to paper):");
    println!(
        "{:>9} {:>11} {:>10} {:>10} {:>10}   paper",
        "CGs", "cores", "compute", "comm", "efficiency"
    );
    let paper_bars = [None, Some(0.989), Some(0.774), Some(0.757)];
    for (p, pb) in projected.iter().zip(paper_bars) {
        println!(
            "{:>9} {:>11} {:>10} {:>10} {:>10}   {}",
            p.ranks,
            p.cores,
            fmt_s(p.compute),
            fmt_s(p.comm),
            fmt_pct(p.efficiency),
            pb.map_or("-".to_string(), fmt_pct)
        );
    }
    println!(
        "\nendpoint efficiency: {}   [paper: {}]",
        fmt_pct(projected.last().expect("nonempty").efficiency),
        fmt_pct(paper::FIG16_EFFICIENCY)
    );

    emit_report(
        "fig16.json",
        &Fig16Result {
            measured,
            projected,
            paper_efficiency: paper::FIG16_EFFICIENCY,
        },
    );
}
