//! Every figure is a pure function of its scale: virtual CPE kernel
//! time, modelled KMC site evaluations and comm, exact byte counts,
//! seeded censuses and closed-form projections. Each test regenerates
//! one figure in-process, compares it byte for byte with the committed
//! artefact, and then asserts the paper's claims on that same result —
//! so a host-only change proves, with zero noise, that no virtual
//! number moved, and a re-pin shows up as a reviewable golden diff.
//!
//! `golden/<fig>.json` is the binary's own artefact at the test's
//! scale. To regenerate one, run
//! `MMDS_SCALE=<SCALE> cargo run --release -p mmds-bench --bin <bin>`
//! and copy `results/<fig>.json` over it (the ablations take no scale).
//! `fig09.json` was taken at the parent of the fused compacted force
//! sweep, `fig14.json` at the parent of the shaped-patch rate path.

use mmds_bench::{
    ablation_runaway, ablation_tables, fig09, fig10, fig11, fig12, fig13, fig14, fig15, fig16,
    fig17, paper,
};
use serde::Serialize;

/// Asserts that `result` serialises to exactly `golden`.
fn assert_golden<T: Serialize>(fig: &str, golden: &str, result: &T) {
    let regenerated = serde_json::to_string_pretty(result).expect("the result serialises");
    assert!(
        regenerated == golden,
        "{fig} moved at its golden scale:\n{regenerated}"
    );
}

/// Asserts that every paper bar is within `tol` of its projected point.
fn assert_bars(
    fig: &str,
    projected: &[mmds_perfmodel::ProjectedPoint],
    bars: &[Option<f64>],
    tol: f64,
) {
    assert_eq!(projected.len(), bars.len());
    for (p, bar) in projected.iter().zip(bars) {
        if let Some(bar) = bar {
            assert!(
                (p.efficiency - bar).abs() < tol,
                "{fig} at {} cores: {:.3} vs the paper's {bar}",
                p.cores,
                p.efficiency
            );
        }
    }
}

/// `fig09_md_opts`, 3 125 atoms over 1–16 core groups. Its compaction
/// share (38 %) sits below `paper_claims`' 40 % bound, which pins the
/// 64-site-block shape instead.
#[test]
fn fig09_matches_golden() {
    const SCALE: f64 = 0.25;
    let r = fig09::run(SCALE);
    assert_golden("Fig. 9", include_str!("golden/fig09.json"), &r);
    assert!(r.compaction_improvement_geomean > r.reuse_improvement_geomean);
    assert!(r.reuse_improvement_geomean > 0.0, "reuse must help");
    assert!(
        r.double_buffer_improvement_geomean.abs() < 0.10,
        "double buffering gives no big win (paper: none)"
    );
}

/// `fig10_md_strong`, an 8³-cell box on 1–16 ranks.
#[test]
fn fig10_matches_golden() {
    const SCALE: f64 = 0.5;
    let r = fig10::run(SCALE);
    assert_golden("Fig. 10", include_str!("golden/fig10.json"), &r);
    let last = r.projected.last().expect("nonempty");
    assert_eq!(last.cores, 6_240_000);
    assert!((last.speedup - paper::FIG10_SPEEDUP).abs() < 0.2);
    assert!(
        r.projected
            .windows(2)
            .all(|w| w[1].efficiency <= w[0].efficiency),
        "projected efficiency declines monotonically"
    );
}

/// `fig11_md_weak`, 8³ cells per rank on 1–16 ranks.
#[test]
fn fig11_matches_golden() {
    const SCALE: f64 = 0.5;
    let r = fig11::run(SCALE);
    assert_golden("Fig. 11", include_str!("golden/fig11.json"), &r);
    let last = r.projected.last().expect("nonempty");
    assert_eq!(last.cores, 6_656_000);
    assert!((last.efficiency - paper::FIG11_EFFICIENCY).abs() < 1e-9);
    assert!(
        r.measured
            .iter()
            .all(|p| p.compute_s == r.measured[0].compute_s),
        "the computation bar stays flat"
    );
    assert!(
        r.measured.windows(2).all(|w| w[1].comm_s >= w[0].comm_s),
        "communication grows with the rank count"
    );
}

/// `fig12_kmc_volume`, 8³ cells per rank on 8–128 ranks. Each row's
/// on-demand volume is a few percent of the traditional one at most
/// (paper: 2.6 % on average); `run` asserts both strategies' events
/// agree.
#[test]
fn fig12_matches_golden() {
    const SCALE: f64 = 0.5;
    let r = fig12::run(SCALE);
    assert_golden("Fig. 12", include_str!("golden/fig12.json"), &r);
    for row in &r.rows {
        assert!(
            row.ratio < 0.05,
            "on-demand volume must be a few % of traditional at {} ranks, got {:.2}%",
            row.ranks,
            100.0 * row.ratio
        );
    }
}

/// `fig13_kmc_time`, 10³ cells per rank on 8–64 ranks.
#[test]
fn fig13_matches_golden() {
    const SCALE: f64 = 0.25;
    let r = fig13::run(SCALE);
    assert_golden("Fig. 13", include_str!("golden/fig13.json"), &r);
    for row in &r.rows {
        assert!(
            row.speedup_two_sided > 1.0 && row.speedup_one_sided > 1.0,
            "on-demand must beat the traditional exchange at {} ranks",
            row.ranks
        );
    }
}

/// `fig14_kmc_strong`, an 18³-cell box on 1, 2, 4 and 8 ranks.
#[test]
fn fig14_matches_golden() {
    const SCALE: f64 = 0.75;
    let r = fig14::run(SCALE);
    assert_golden("Fig. 14", include_str!("golden/fig14.json"), &r);
    assert!((r.projected.last().expect("nonempty").speedup - paper::FIG14_SPEEDUP).abs() < 0.5);
    assert!(
        r.projected
            .windows(2)
            .any(|w| w[1].efficiency > w[0].efficiency + 1e-6),
        "the super-linear L2 segment must appear"
    );
}

/// `fig15_kmc_weak`, 8³ cells per rank on 1–64 ranks.
#[test]
fn fig15_matches_golden() {
    const SCALE: f64 = 0.5;
    let r = fig15::run(SCALE);
    assert_golden("Fig. 15", include_str!("golden/fig15.json"), &r);
    assert_bars("Fig. 15", &r.projected, &paper::FIG15_BARS, 0.08);
}

/// `fig16_coupled_weak`, 8³ cells per rank on 1–16 ranks (its default
/// box).
#[test]
fn fig16_matches_golden() {
    const SCALE: f64 = 0.5;
    let r = fig16::run(SCALE);
    assert_golden("Fig. 16", include_str!("golden/fig16.json"), &r);
    assert_bars("Fig. 16", &r.projected, &paper::FIG16_BARS, 0.08);
}

/// `fig17_clustering`, a 10³-cell box.
#[test]
fn fig17_matches_golden() {
    const SCALE: f64 = 0.5;
    let (r, clouds) = fig17::run(SCALE);
    assert_golden("Fig. 17", include_str!("golden/fig17.json"), &r);
    let (md, kmc) = (&r.after_md_clusters, &r.after_kmc_clusters);
    assert!(
        kmc.clustered_fraction > md.clustered_fraction && kmc.largest > md.largest,
        "vacancies are more aggregative after KMC"
    );
    assert!(r.after_kmc_dispersion.ratio < r.after_md_dispersion.ratio);
    assert_eq!(clouds.after_md.len(), md.n_points);
    assert_eq!(clouds.after_kmc.len(), kmc.n_points);
    let days = mmds_coupled::timescale::real_time_seconds(
        2.0e-4,
        2.0e-6,
        mmds_eam::units::E_VAC_FORMATION,
        600.0,
    ) / 86_400.0;
    assert!((days - r.t_real_days_paper_configuration).abs() < 1e-9);
}

/// `ablation_tables`: the paper's compacted-resident table beats every
/// scheme the SW26010 offers; only the hypothetical one-sided register
/// fetch (§5's proposal) edges it out.
#[test]
fn ablation_tables_matches_golden() {
    let r = ablation_tables::run();
    assert_golden(
        "ablation_tables",
        include_str!("golden/ablation_tables.json"),
        &r,
    );
    let time = |name: &str| {
        r.schemes
            .iter()
            .find(|s| s.scheme.contains(name))
            .expect("scheme present")
            .total_s
    };
    let compacted = time("compacted");
    for rejected in ["row DMA", "LDM cache", "two-sided"] {
        assert!(
            compacted < time(rejected),
            "the paper's choice must beat {rejected}"
        );
    }
    assert!(time("one-sided") < compacted);
}

/// `ablation_runaway`: `run` asserts the chains find ≥ 90 % of the
/// array's pairs and that the array's work grows more than twice as
/// fast.
#[test]
fn ablation_runaway_matches_golden() {
    assert_golden(
        "ablation_runaway",
        include_str!("golden/ablation_runaway.json"),
        &ablation_runaway::run(),
    );
}

#[test]
fn a_figure_binary_refuses_a_scale_it_cannot_parse() {
    // `0,5` used to run the default box; now the binary exits before
    // running anything, naming the value.
    for bad in ["0,5", "NaN"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_fig13_kmc_time"))
            .env("MMDS_SCALE", bad)
            .output()
            .expect("run fig13_kmc_time");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bad}: {stderr}");
        assert!(stderr.contains(&format!("MMDS_SCALE={bad:?}")), "{stderr}");
    }
}
