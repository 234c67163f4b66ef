//! Figure 11 — "Weak scaling of MD, 3.9·10⁷ atoms per core group"
//!
//! Paper: 104,000 → 6,656,000 cores with 85% parallel efficiency; the
//! computation bar stays flat while communication grows slightly. §3
//! adds the capacity claim: 4·10¹² atoms fit with the lattice neighbor
//! list where traditional neighbour lists manage only ~8·10¹¹.
//!
//! Here: measured weak scaling over simulated ranks (fixed atoms/rank),
//! the projected paper-scale series, and the memory-capacity arithmetic
//! from `mmds-lattice::memory`. The experiment itself is
//! [`mmds_bench::fig11`].

use mmds_bench::{emit_report, fig11, fmt_pct, header, paper, print_rows, scale};

fn main() {
    header("Figure 11: MD weak scaling + memory capacity");
    let result = fig11::run(scale());
    println!("measured (fixed atoms per rank, {} steps):", fig11::STEPS);
    print_rows(&result.measured);
    println!("\nprojected at paper scale (3.9e7 atoms per core group; endpoint fitted to paper):");
    print_rows(&result.projected);
    println!(
        "endpoint efficiency: {}   [paper: {}]",
        fmt_pct(result.projected.last().expect("nonempty").efficiency),
        fmt_pct(paper::FIG11_EFFICIENCY)
    );
    println!("\nmemory capacity on 102,400 core groups (6.656M cores):");
    print_rows(&result.capacity);
    println!(
        "paper: {:.1e} atoms with the LNL, ~{:.1e} with a traditional neighbour list",
        paper::FIG11_LNL_ATOMS,
        paper::FIG11_VERLET_ATOMS
    );
    emit_report("fig11.json", &result);
}
