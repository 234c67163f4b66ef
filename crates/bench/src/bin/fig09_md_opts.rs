//! Figure 9 — "Performance comparisons for the optimizations of MD"
//!
//! Paper setup: MD with 2·10⁷ atoms on 65–1040 master+slave cores
//! (1–16 core groups); bars = TraditionalTable, CompactedTable,
//! +DataReuse, +DoubleBuffer. Findings: compaction −54.7% runtime
//! (geometric mean), reuse −4%, double buffering ≈ 0.
//!
//! Here: the same four kernel configurations run on a simulated SW26010
//! CPE cluster over a scaled-down atom count (default 2·10⁵; set
//! `MMDS_SCALE` to grow it). The work is split evenly across core
//! groups, exactly as the paper's strong-scaled bars. The experiment
//! itself is [`mmds_bench::fig09`].

use mmds_bench::{emit_report, fig09, fmt_pct, fmt_s, header, paper, scale};
use mmds_md::offload::OffloadConfig;

fn main() {
    header(
        "Figure 9: MD optimisation ablation (traditional vs compacted vs +reuse vs +double-buffer)",
    );
    let result = fig09::run(scale());
    let variants = OffloadConfig::fig9_variants();
    println!(
        "{:>6} {:>7} {:>12} | {:>16} {:>16} {:>16} {:>16}",
        "CGs", "cores", "atoms/CG", variants[0].0, "Compacted", "+DataReuse", "+DoubleBuffer"
    );
    for bars in result.rows.chunks(variants.len()) {
        let row = &bars[0];
        println!(
            "{:>6} {:>7} {:>12} | {:>16} {:>16} {:>16} {:>16}",
            row.core_groups,
            row.cores,
            row.atoms_per_cg,
            fmt_s(bars[0].runtime_s),
            fmt_s(bars[1].runtime_s),
            fmt_s(bars[2].runtime_s),
            fmt_s(bars[3].runtime_s),
        );
    }

    println!();
    println!(
        "compaction improvement (geomean): {}   [paper: {}]",
        fmt_pct(result.compaction_improvement_geomean),
        fmt_pct(paper::FIG9_COMPACTION_IMPROVEMENT)
    );
    println!(
        "ghost-data reuse improvement:     {}   [paper: ~{}]",
        fmt_pct(result.reuse_improvement_geomean),
        fmt_pct(paper::FIG9_REUSE_IMPROVEMENT)
    );
    println!(
        "double-buffer improvement:        {}   [paper: no obvious improvement]",
        fmt_pct(result.double_buffer_improvement_geomean)
    );

    emit_report("fig09.json", &result);
}
