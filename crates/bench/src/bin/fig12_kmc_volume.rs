//! Figure 12 — "Communication volume comparison for KMC"
//!
//! Paper: 1.6·10⁷ sites on 16–1024 master cores, vacancy concentration
//! 4.5·10⁻⁵: the on-demand strategy reduces communication volume to
//! **2.6%** of the traditional ghost exchange on average.
//!
//! Here: real domain-decomposed KMC over simulated ranks; bytes are
//! exact wire counts from the swmpi accounting (no modelling involved).
//! The box is scaled down (and the concentration scaled up so tens of
//! vacancies exist), which *raises* the volume ratio — the dirty-site
//! traffic is proportional to concentration — so the measured ratio is
//! an upper bound on the paper's. The experiment itself is
//! [`mmds_bench::fig12`].

use mmds_bench::{emit_report, fig12, fmt_pct, header, paper, print_rows, scale};

fn main() {
    header("Figure 12: KMC communication volume (traditional vs on-demand)");
    let result = fig12::run(scale());
    println!(
        "concentration {:.1e} (scaled up so each rank owns several vacancies), {} cycles",
        result.concentration, result.cycles
    );
    print_rows(&result.rows);
    println!(
        "\nmean on-demand/traditional volume: {}   [paper: {} at 35x lower concentration]",
        fmt_pct(result.mean_ratio),
        fmt_pct(paper::FIG12_VOLUME_RATIO)
    );
    println!(
        "(the ratio scales with vacancy concentration; at the paper's 4.5e-5 the dirty-site \
         traffic shrinks proportionally)"
    );
    emit_report("fig12.json", &result);
}
