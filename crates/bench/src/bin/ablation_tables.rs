//! Ablation: four ways to serve EAM table lookups from a CPE.
//!
//! The paper evaluates one (compacted, local-store resident) and
//! *describes* the alternatives it rejected:
//! * per-access DMA of traditional coefficient rows (§2.1.2, the Fig. 9
//!   baseline);
//! * the local store as a software-emulated cache ("we use it as a
//!   user-controlled buffer since it generally obtains better
//!   performance");
//! * distributing the tables across the 64 CPE local stores and
//!   fetching by register communication ("very difficult to describe
//!   these irregular communications"), in the existing two-sided form
//!   and the one-sided form the conclusion (§5) calls for.
//!
//! This binary replays a realistic per-neighbour access stream (taken
//! from a thermalised MD box) through all four cost models and prints
//! the per-access and total virtual times. The experiment itself is
//! [`mmds_bench::ablation_tables`].

use mmds_bench::{ablation_tables, emit_report, header, print_rows};

fn main() {
    header("Ablation: table-access schemes on the CPE (paper's choice vs rejected designs)");
    let result = ablation_tables::run();
    println!(
        "access stream: {} pair lookups from a thermalised 1024-atom box\n",
        result.accesses
    );
    print_rows(&result.schemes);
    let best = result
        .schemes
        .iter()
        .min_by(|a, b| a.total_s.total_cmp(&b.total_s))
        .expect("nonempty");
    println!("\nwinner: {}", best.scheme);
    println!(
        "the paper's compacted-resident choice beats every scheme available on the\n\
         SW26010. The only configuration that edges it out is the HYPOTHETICAL\n\
         one-sided register communication — which is precisely what the paper's\n\
         conclusion (s5) proposes the hardware should add. The cost model agrees\n\
         with the authors' forward-looking argument."
    );
    emit_report("ablation_tables.json", &result);
}
