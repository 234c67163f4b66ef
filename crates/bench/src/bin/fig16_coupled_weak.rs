//! Figure 16 — "Weak scaling of the coupled MD-KMC approach"
//!
//! Paper: 3.3·10⁵ atoms per core group, 97,500 → 6,240,000 cores;
//! parallel efficiencies 98.9%, 77.4%, 75.7%.
//!
//! Here: measured weak scaling of the full coupled pipeline (parallel
//! MD cascade → handoff → parallel KMC) over simulated ranks, plus the
//! projected paper-scale series. The experiment itself is
//! [`mmds_bench::fig16`].

use mmds_bench::{emit_report, fig16, fmt_bars, fmt_pct, header, paper, print_rows, scale};

fn main() {
    header("Figure 16: coupled MD-KMC weak scaling");
    let result = fig16::run(scale());
    println!(
        "measured (fixed atoms per rank, {} MD steps + {} KMC cycles):",
        fig16::MD_STEPS,
        fig16::KMC_CYCLES
    );
    print_rows(&result.measured);
    println!("\nprojected at paper scale (3.3e5 atoms per core group; endpoint fitted to paper):");
    print_rows(&result.projected);
    println!("paper, by row: {}", fmt_bars(&paper::FIG16_BARS));
    println!(
        "\nendpoint efficiency: {}   [paper: {}]",
        fmt_pct(result.projected.last().expect("nonempty").efficiency),
        fmt_pct(paper::FIG16_EFFICIENCY)
    );
    emit_report("fig16.json", &result);
}
