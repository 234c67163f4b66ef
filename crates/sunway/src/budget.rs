//! Symbolic LDM budget plans — the static side of [`crate::LocalStore`].
//!
//! The paper's whole local-store discipline (§2.1.2) exists because a
//! CPE kernel's resident tables, staging buffers, and retained ghost
//! data must *simultaneously* fit in 64 KB. The allocator enforces that
//! at runtime; this module lets a kernel *declare* its worst-case
//! footprint symbolically — as `count × elem_bytes` items derived from
//! plan constants (knots, block sites, buffering flags) — so the
//! `mmds-audit` LDM budget prover can verify every registered kernel
//! plan against [`crate::SwModel::sw26010`]`.ldm_bytes` without running
//! anything.
//!
//! The symbolic and concrete sides are tied together two ways:
//! * [`LdmPlan::simulate_high_water`] reserves the plan's items in a
//!   real [`crate::LocalStore`] and must reproduce
//!   [`LdmPlan::total_bytes`] exactly (property-tested in `mmds-audit`);
//! * [`crate::ClusterReport::ldm_high_water`] reports what a kernel
//!   actually kept live, which must stay at or below its declared plan.

use crate::local_store::LocalStore;

/// One item of a kernel's worst-case simultaneous-live set, kept in
/// `count × elem_bytes` form so budget tables show the formula, not
/// just the product.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LdmItem {
    /// What the bytes hold (e.g. `"resident table"`, `"block in"`).
    pub name: String,
    /// Element count (knots, sites×3, …).
    pub count: usize,
    /// Bytes per element.
    pub elem_bytes: usize,
}

impl LdmItem {
    /// Creates an item.
    pub fn new(name: impl Into<String>, count: usize, elem_bytes: usize) -> Self {
        Self {
            name: name.into(),
            count,
            elem_bytes,
        }
    }

    /// Total bytes of this item.
    pub fn bytes(&self) -> usize {
        self.count * self.elem_bytes
    }
}

/// The declared worst-case footprint of one CPE kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LdmPlan {
    /// Kernel identifier (e.g. `"md.offload/CompactedTable/force_pair"`).
    pub kernel: String,
    /// Simultaneously-live items.
    pub items: Vec<LdmItem>,
    /// Capacity the plan must fit in (normally
    /// [`crate::SwModel::sw26010`]`.ldm_bytes`).
    pub capacity: usize,
}

/// A plan that exceeds its capacity, with the per-item breakdown the
/// prover reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LdmBudgetError {
    /// The offending plan (items included for the breakdown).
    pub plan: LdmPlan,
    /// Its total bytes (> capacity).
    pub total: usize,
}

impl std::fmt::Display for LdmBudgetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "kernel `{}` needs {} B but the local store holds {} B:",
            self.plan.kernel, self.total, self.plan.capacity
        )?;
        for item in &self.plan.items {
            writeln!(
                f,
                "  {:<24} {:>7} × {:>2} B = {:>7} B",
                item.name,
                item.count,
                item.elem_bytes,
                item.bytes()
            )?;
        }
        write!(
            f,
            "  {:<24} {:>24} B over by {} B",
            "TOTAL",
            self.total,
            self.total - self.plan.capacity
        )
    }
}

impl std::error::Error for LdmBudgetError {}

impl LdmPlan {
    /// Creates an empty plan for `kernel` against `capacity` bytes.
    pub fn new(kernel: impl Into<String>, capacity: usize) -> Self {
        Self {
            kernel: kernel.into(),
            items: Vec::new(),
            capacity,
        }
    }

    /// Adds an item (builder style).
    pub fn with(mut self, name: impl Into<String>, count: usize, elem_bytes: usize) -> Self {
        self.items.push(LdmItem::new(name, count, elem_bytes));
        self
    }

    /// Worst-case simultaneous-live bytes.
    pub fn total_bytes(&self) -> usize {
        self.items.iter().map(LdmItem::bytes).sum()
    }

    /// Proves the plan fits its capacity, or returns the per-item
    /// breakdown of the overflow.
    pub fn check(&self) -> Result<(), LdmBudgetError> {
        let total = self.total_bytes();
        if total <= self.capacity {
            Ok(())
        } else {
            Err(LdmBudgetError {
                plan: self.clone(),
                total,
            })
        }
    }

    /// Fraction of capacity used (can exceed 1 for failing plans).
    pub fn utilisation(&self) -> f64 {
        self.total_bytes() as f64 / self.capacity as f64
    }

    /// Reserves this plan's items simultaneously in a real
    /// [`LocalStore`] (sized to the plan, so over-capacity plans can
    /// still be simulated) and returns the store's high-water mark.
    /// Must equal [`LdmPlan::total_bytes`] — the prover's symbolic
    /// arithmetic and the enforced allocator agree byte for byte.
    pub fn simulate_high_water(&self) -> usize {
        let ls = LocalStore::new(self.total_bytes().max(self.capacity));
        let held: Vec<_> = self
            .items
            .iter()
            .map(|item| {
                ls.reserve(item.bytes())
                    .expect("store sized to the plan total")
            })
            .collect();
        let hw = ls.high_water();
        drop(held);
        hw
    }
}

/// Renders the per-kernel budget table the `mmds-audit` LDM prover
/// emits: one section per plan, one row per item, with totals and
/// utilisation. The output is deterministic (plan/item order is the
/// caller's) and golden-tested in `mmds-audit`.
pub fn render_budget_table(plans: &[LdmPlan]) -> String {
    let mut out = String::new();
    out.push_str("LDM budget (worst-case simultaneous-live bytes per CPE)\n");
    for plan in plans {
        let total = plan.total_bytes();
        let verdict = if total <= plan.capacity { "ok" } else { "OVER" };
        out.push_str(&format!(
            "\n{}  [{} / {} B, {:.1}%, {}]\n",
            plan.kernel,
            total,
            plan.capacity,
            100.0 * plan.utilisation(),
            verdict
        ));
        for item in &plan.items {
            out.push_str(&format!(
                "  {:<24} {:>7} x {:>2} B = {:>7} B\n",
                item.name,
                item.count,
                item.elem_bytes,
                item.bytes()
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SwModel;

    #[test]
    fn compacted_plan_fits_traditional_does_not() {
        let ldm = SwModel::sw26010().ldm_bytes;
        let ok = LdmPlan::new("compacted", ldm)
            .with("resident table", 5000, 8)
            .with("block in", 448 * 3, 8);
        ok.check().unwrap();
        let over = LdmPlan::new("traditional-resident", ldm).with("resident table", 5000 * 7, 8);
        let err = over.check().unwrap_err();
        assert_eq!(err.total, 280_000);
        let msg = err.to_string();
        assert!(msg.contains("traditional-resident"), "{msg}");
        assert!(msg.contains("280000"), "{msg}");
    }

    #[test]
    fn simulation_matches_symbolic_total() {
        let plan = LdmPlan::new("k", 1024)
            .with("a", 10, 8)
            .with("b", 3, 24)
            .with("c", 1, 56);
        assert_eq!(plan.simulate_high_water(), plan.total_bytes());
    }

    #[test]
    fn budget_table_reports_overflow() {
        let plans = vec![
            LdmPlan::new("fits", 100).with("x", 4, 8),
            LdmPlan::new("blows", 100).with("y", 40, 8),
        ];
        let table = render_budget_table(&plans);
        assert!(table.contains("fits"));
        assert!(table.contains("OVER"));
        assert!(table.contains("320 B"));
    }
}
