//! Figure 10 — "Strong scaling of MD with 3.2·10¹⁰ atoms"
//!
//! Paper: 97,500 → 6,240,000 master+slave cores (1,500 → 96,000 core
//! groups), 26.4× speedup / 41.3% parallel efficiency over the 64×
//! range.
//!
//! Here: (a) a *measured* strong-scaling sweep over simulated ranks
//! (fixed global box, real domain-decomposed MD, virtual time), and
//! (b) the paper-scale *projected* series with the measured kernel rate
//! and one comm constant fitted to the paper's endpoint (DESIGN.md §1).
//! The experiment itself is [`mmds_bench::fig10`].

use mmds_bench::{emit_report, fig10, fmt_pct, header, paper, print_rows, scale};

fn main() {
    header("Figure 10: MD strong scaling");
    let result = fig10::run(scale());
    println!("measured (fixed global box, {} steps):", fig10::STEPS);
    print_rows(&result.measured);
    println!(
        "\nprojected at paper scale (3.2e10 atoms over core groups; endpoint fitted to paper):"
    );
    print_rows(&result.projected);
    let last = result.projected.last().expect("nonempty");
    println!(
        "\nendpoint: {:.1}x speedup, {} efficiency   [paper: {:.1}x, {}]",
        last.speedup,
        fmt_pct(last.efficiency),
        paper::FIG10_SPEEDUP,
        fmt_pct(paper::FIG10_EFFICIENCY)
    );
    emit_report("fig10.json", &result);
}
