//! Figure 14 — "Strong scaling of KMC with 3.2·10¹⁰ sites"
//!
//! Paper: 1,500 → 48,000 master cores, 18.5× speedup / 58.2%
//! efficiency; super-linear speedup between 3,000 and 12,000 cores from
//! the MPE L2 cache once a rank's working set fits.
//!
//! Here: a measured strong-scaling sweep (fixed global site count over
//! simulated ranks) plus the projected paper-scale series with the
//! cache-boost model that reproduces the super-linear bump. The
//! experiment itself is [`mmds_bench::fig14`].

use mmds_bench::{emit_report, fig14, fmt_pct, header, paper, print_rows, scale};

fn main() {
    header("Figure 14: KMC strong scaling (with the L2 super-linear bump)");
    let result = fig14::run(scale());
    let cells = result.cells;
    println!(
        "measured (global {cells}^3 cells = {} sites, {} cycles):",
        2 * cells.pow(3),
        result.cycles
    );
    print_rows(&result.measured);
    println!("\nprojected at paper scale (3.2e10 sites; endpoint fitted to paper):");
    print_rows(&result.projected);
    let last = result.projected.last().expect("nonempty");
    println!(
        "\nendpoint: {:.1}x speedup, {} efficiency   [paper: {:.1}x, {}]",
        last.speedup,
        fmt_pct(last.efficiency),
        paper::FIG14_SPEEDUP,
        fmt_pct(paper::FIG14_EFFICIENCY)
    );
    let bump = result
        .projected
        .windows(2)
        .any(|w| w[1].efficiency > w[0].efficiency);
    println!("super-linear segment present: {bump}   [paper: yes, from 3,000 to 12,000 cores]");
    emit_report("fig14.json", &result);
}
