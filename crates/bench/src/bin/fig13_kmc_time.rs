//! Figure 13 — "Communication time comparison for KMC"
//!
//! Paper: same setup as Fig. 12; the on-demand strategy obtains a
//! **21× speedup on average** in communication time.
//!
//! Here: the same sweep with the TaihuLight cost model active, so the
//! virtual communication times include latency, bandwidth and the
//! zero-size-message overhead of the two-sided variant. Both on-demand
//! variants are reported (the paper proposes one-sided to eliminate the
//! zero-size messages). The experiment itself is [`mmds_bench::fig13`].

use mmds_bench::{emit_report, fig13, header, paper, print_rows, scale};

fn main() {
    header("Figure 13: KMC communication time (traditional vs on-demand)");
    let result = fig13::run(scale());
    print_rows(&result.rows);
    println!(
        "\nmean on-demand (two-sided, the paper's implementation) comm-time speedup: \
         {:.1}x   [paper: {:.0}x]",
        result.mean_speedup_two_sided,
        paper::FIG13_TIME_SPEEDUP
    );
    println!(
        "(in our cost model the one-sided fence pays a log2(P) barrier, so it trails the \
         probe-based variant at these rank counts; the paper proposes it to remove the \
         zero-size messages, which dominate at much higher neighbour counts)"
    );
    emit_report("fig13.json", &result);
}
