//! Fe–Cu alloy tables and the local-store placement policy.
//!
//! ```text
//! cargo run --release --example alloy_fecu
//! ```
//!
//! The paper (§2.1.2) explains that alloys need one interpolation table
//! per species pair, that the full compacted set no longer fits the
//! 64 KB CPE local store, and that the policy is to keep the most
//! abundant element's table resident. This example builds the Fe–Cu
//! set, runs the placement planner at several compositions, and proves
//! the capacity constraints on a simulated CPE.

use mmds::eam::alloy::{AlloyEam, LdmPlacement};
use mmds::eam::analytic::Species;
use mmds::sunway::{CpeCluster, SwModel};

fn main() {
    let budget = 64 * 1024 - 24 * 1024; // local store minus block buffers

    println!("Fe–Cu alloy: 3 pair + 3 density + 2 embedding compacted tables");
    let alloy = AlloyEam::fe_cu(0.01, 5000);
    println!(
        "total table bytes: {} ({}x the 64 KB local store)",
        alloy.total_bytes(),
        alloy.total_bytes() / (64 * 1024)
    );

    for cu in [0.01, 0.25, 0.90] {
        let alloy = AlloyEam::fe_cu(cu, 5000);
        let plan = LdmPlacement::plan(&alloy, budget);
        println!("\nCu fraction {cu}:");
        println!("  resident ({} B):", plan.resident_bytes);
        for id in &plan.resident {
            println!("    {id:?}  (weight {:.4})", alloy.access_weight(*id));
        }
        println!("  in main memory: {} tables", plan.in_main_memory.len());
    }

    // Prove the capacity constraint on a simulated CPE: the resident
    // set loads; adding one more table overflows.
    println!("\ncapacity proof on a simulated CPE local store:");
    let alloy = AlloyEam::fe_cu(0.01, 5000);
    let plan = LdmPlacement::plan(&alloy, budget);
    let cluster = CpeCluster::new(SwModel::sw26010());
    let report = cluster.run(vec![()], |ctx, ()| {
        // Reserve the block buffers a real kernel needs.
        let _buffers = ctx.reserve_f64(24 * 1024 / 8).expect("block buffers fit");
        let mut resident = Vec::new();
        for id in &plan.resident {
            let t = alloy.table(*id);
            resident.push(
                ctx.load_resident_table(t.values())
                    .expect("planned table must fit"),
            );
        }
        // The first non-resident table must NOT fit on top.
        let overflow = alloy.table(plan.in_main_memory[0]);
        assert!(
            ctx.local_store().reserve(overflow.memory_bytes()).is_err(),
            "placement plan must be tight"
        );
        println!(
            "    CPE{}: {} resident tables loaded, next table rejected (LDM {} B used)",
            ctx.id,
            resident.len(),
            ctx.local_store().used()
        );
    });
    println!(
        "  bulk DMA to stage the resident set: {} B in {:.1} us",
        report.counters.bytes_in,
        report.time * 1e6
    );

    // And the physics is continuous across the composition range.
    let fe = mmds::eam::analytic::AnalyticEam::for_pair(Species::Fe, Species::Fe);
    let cu = mmds::eam::analytic::AnalyticEam::for_pair(Species::Cu, Species::Cu);
    let mix = mmds::eam::analytic::AnalyticEam::for_pair(Species::Fe, Species::Cu);
    println!(
        "\npair well depths: Fe-Fe {:.3} eV, Fe-Cu {:.3} eV, Cu-Cu {:.3} eV",
        -fe.phi(fe.r0),
        -mix.phi(mix.r0),
        -cu.phi(cu.r0)
    );
}
