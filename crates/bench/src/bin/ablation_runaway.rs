//! Ablation: run-away atom storage — linked lists vs Crystal MD's array.
//!
//! §2.1.1: "While the authors of \[11\] have discussed the lattice
//! neighbor list structure, this paper further improves the structure by
//! storing the run-away atoms using linked lists rather than an array.
//! ... when using the array, the overhead of finding neighbors between
//! the run-away atoms is O(N²) ... the linked lists can reduce this
//! overhead to O(N) since the run-away atoms are linked to the nearest
//! lattice point."
//!
//! This binary measures exactly that: the work to find every
//! run-away/run-away interaction pair — partners visited with the
//! paper's anchored chains, distance tests with a flat array that has
//! lost the spatial anchoring. The experiment itself is
//! [`mmds_bench::ablation_runaway`].

use mmds_bench::{ablation_runaway, emit_report, header, print_rows};

fn main() {
    header(
        "Ablation: run-away neighbour search — anchored chains (paper) vs flat array (Crystal MD)",
    );
    let result = ablation_runaway::run();
    print_rows(&result.rows);
    let (first, last) = (&result.rows[0], &result.rows[result.rows.len() - 1]);
    let n_ratio = last.n_runaways as f64 / first.n_runaways as f64;
    println!(
        "\n{n_ratio:.0}x more run-aways: chain visits grew {:.1}x (≈O(N)), \
         array tests grew {:.1}x (≈O(N²) would be {:.0}x)",
        last.chains_visits as f64 / first.chains_visits as f64,
        last.array_tests as f64 / first.array_tests as f64,
        n_ratio * n_ratio
    );
    emit_report("ablation_runaway.json", &result);
}
