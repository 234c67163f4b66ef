//! Figure 15 — "Weak scaling of KMC, 10⁷ sites per core"
//!
//! Paper: 1,600 → 102,400 master cores, 97.2% → 74.0% parallel
//! efficiency; computation stays flat while communication grows — "the
//! increased communication time is due to the collective operations
//! used for time synchronization".
//!
//! Here: measured weak scaling (fixed sites/rank) plus the projected
//! paper-scale series with the collective-dominated comm shape. The
//! experiment itself is [`mmds_bench::fig15`].

use mmds_bench::{emit_report, fig15, fmt_bars, fmt_pct, header, paper, print_rows, scale};

fn main() {
    header("Figure 15: KMC weak scaling");
    let result = fig15::run(scale());
    println!(
        "measured (fixed sites per rank, {} cycles):",
        fig15::SWEEP.cycles
    );
    print_rows(&result.measured);
    println!("\nprojected at paper scale (1e7 sites/core; endpoint fitted to paper):");
    print_rows(&result.projected);
    println!("paper, by row: {}", fmt_bars(&paper::FIG15_BARS));
    println!(
        "\nendpoint efficiency: {}   [paper: {}]",
        fmt_pct(result.projected.last().expect("nonempty").efficiency),
        fmt_pct(paper::FIG15_EFFICIENCY)
    );
    emit_report("fig15.json", &result);
}
