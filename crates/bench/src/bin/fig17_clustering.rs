//! Figure 17 — "The simulation results for 3.2·10¹⁰ atoms in 19.2 days
//! temporal scale"
//!
//! Paper: after MD the vacancies are "very dispersive"; after KMC "the
//! vacancies are relatively more aggregative and several vacancy
//! clusters are forming". The §3 arithmetic gives t_real = 19.2 days
//! for t_threshold = 2·10⁻⁴, C_v^MC = 2·10⁻⁶, T = 600 K.
//!
//! Here: the full coupled pipeline on a scaled-down box; the deliverables
//! are the quantitative counterparts of the two panels — cluster-size
//! census and nearest-neighbour dispersion before/after KMC — plus the
//! vacancy point clouds as CSV and the exact 19.2-day arithmetic. The
//! experiment itself is [`mmds_bench::fig17`].

use mmds_analysis::clusters::size_histogram;
use mmds_analysis::io::write_points_csv;
use mmds_bench::{emit_report, fig17, fmt_pct, header, paper, results_dir, scale};

fn main() {
    header("Figure 17: vacancy clustering through the coupled MD-KMC pipeline");
    let (result, clouds) = fig17::run(scale());
    let (md, kmc) = (&result.after_md_clusters, &result.after_kmc_clusters);
    println!(
        "box {}^3 cells ({} atoms), PKA {} eV, {} MD steps",
        result.cells,
        2 * result.cells.pow(3),
        fig17::PKA_ENERGY,
        fig17::MD_STEPS
    );
    println!(
        "\nMD phase: {} vacancies, {} interstitials (Frenkel pairs from the cascade)",
        result.md_vacancies, result.md_interstitials
    );
    println!("KMC phase: {} events", result.kmc_events);

    println!("\n{:>28} {:>12} {:>12}", "", "after MD", "after KMC");
    println!(
        "{:>28} {:>12} {:>12}",
        "clusters", md.n_clusters, kmc.n_clusters
    );
    println!(
        "{:>28} {:>12} {:>12}",
        "largest cluster", md.largest, kmc.largest
    );
    println!(
        "{:>28} {:>12.2} {:>12.2}",
        "mean cluster size", md.mean_size, kmc.mean_size
    );
    println!(
        "{:>28} {:>12} {:>12}",
        "clustered fraction",
        fmt_pct(md.clustered_fraction),
        fmt_pct(kmc.clustered_fraction)
    );
    println!(
        "{:>28} {:>12.3} {:>12.3}",
        "NN-dispersion ratio", result.after_md_dispersion.ratio, result.after_kmc_dispersion.ratio
    );
    println!(
        "\ncluster-size histogram after MD:  {:?}",
        size_histogram(&md.sizes, 8)
    );
    println!(
        "cluster-size histogram after KMC: {:?}",
        size_histogram(&kmc.sizes, 8)
    );
    let aggregated = kmc.clustered_fraction >= md.clustered_fraction && kmc.largest >= md.largest;
    println!(
        "\nvacancies more aggregative after KMC: {aggregated}   [paper: yes — \"several vacancy clusters are forming\"]"
    );

    // Point clouds (the two panels of Fig. 17).
    let dir = results_dir();
    write_points_csv(&dir.join("fig17_after_md.csv"), &clouds.after_md)
        .expect("write after-MD cloud");
    write_points_csv(&dir.join("fig17_after_kmc.csv"), &clouds.after_kmc)
        .expect("write after-KMC cloud");
    println!(
        "point clouds: {} and {}",
        dir.join("fig17_after_md.csv").display(),
        dir.join("fig17_after_kmc.csv").display()
    );

    println!(
        "\nt_real for this run's concentration: {:.3} days (C_v^MC = {:.2e}, t_threshold = {:.1e})",
        result.t_real_days_this_run,
        kmc.n_points as f64 / (2.0 * result.cells.pow(3) as f64),
        fig17::T_THRESHOLD
    );
    println!(
        "t_real with the paper's exact configuration (t_thr = 2e-4, C_v^MC = 2e-6, 600 K): \
         {:.2} days   [paper: {} days]",
        result.t_real_days_paper_configuration,
        paper::HEADLINE_DAYS
    );

    emit_report("fig17.json", &result);
}
