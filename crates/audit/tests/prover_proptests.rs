//! Property tests tying the symbolic LDM prover to the runtime
//! allocator: for any plan, a `LocalStore` driven through the plan's
//! reservations reaches exactly the high-water mark the prover
//! computed symbolically — so a plan the prover accepts can never
//! overflow a real CPE local store, and `ClusterReport::ldm_high_water`
//! stays bounded by the declared plan.

use mmds_md::offload::OffloadConfig;
use mmds_sunway::{LdmPlan, LocalStore, SwModel};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Symbolic total == simulated high water for arbitrary plans
    /// (item sizes chosen so totals stay within a few × LDM).
    #[test]
    fn simulated_high_water_matches_symbolic(
        counts in proptest::collection::vec(1usize..2048, 1..8),
        elem in 1usize..16,
    ) {
        let mut plan = LdmPlan::new("prop/kernel", SwModel::sw26010().ldm_bytes);
        for (i, c) in counts.iter().enumerate() {
            plan = plan.with(format!("item{i}"), *c, elem);
        }
        prop_assert_eq!(plan.simulate_high_water(), plan.total_bytes());
    }

    /// Every fitted offload configuration's declared plans fit, and a
    /// real LocalStore reserving each plan's items peaks at the
    /// symbolic total without overflowing.
    #[test]
    fn fitted_offload_plans_allocate_cleanly(knots in 100usize..6000) {
        let cfg = OffloadConfig::optimized_for(knots);
        for plan in cfg.ldm_plans("prop", knots) {
            prop_assert!(plan.check().is_ok(), "{}", plan.kernel);
            let ls = LocalStore::new(plan.capacity);
            let handles: Vec<_> = plan
                .items
                .iter()
                .map(|item| {
                    ls.reserve(item.bytes())
                        .unwrap_or_else(|e| panic!("{}: {e}", plan.kernel))
                })
                .collect();
            prop_assert_eq!(ls.high_water(), plan.total_bytes());
            drop(handles);
        }
    }
}
