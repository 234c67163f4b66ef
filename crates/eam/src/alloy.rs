//! Fe–Cu alloy table sets and the local-store placement policy.
//!
//! §2.1.2: *"For alloy materials, more interpolation tables are used ...
//! Taking the Fe-Cu alloy as an example, there are three kinds of
//! electron cloud density tables, for the atomic pairs of Fe-Fe, Cu-Cu,
//! and Fe-Cu ... The total size of these three compacted tables will
//! exceed the size of local store. Thus, we only load the compacted
//! table for the element with the highest content in the local store,
//! since it would be the most frequently used, and leave the other
//! tables in the main memory."*

use serde::{Deserialize, Serialize};

use crate::analytic::{AnalyticEam, Species};
use crate::compact::CompactTable;
use crate::potential::{RHO_MAX, R_MIN};

/// One logical table of an alloy set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AlloyTableId {
    /// Pair potential φ for a species pair.
    Pair(Species, Species),
    /// Electron density f for a species pair.
    Density(Species, Species),
    /// Embedding F for a species.
    Embed(Species),
}

fn canon(a: Species, b: Species) -> (Species, Species) {
    if a == Species::Cu && b == Species::Fe {
        (Species::Fe, Species::Cu)
    } else {
        (a, b)
    }
}

/// The complete compacted table set for a binary Fe–Cu alloy.
#[derive(Debug, Clone)]
pub struct AlloyEam {
    /// Fraction of Cu atoms (0 = pure Fe).
    pub cu_fraction: f64,
    /// Knots per table.
    pub n: usize,
    tables: Vec<(AlloyTableId, CompactTable)>,
}

impl AlloyEam {
    /// Builds the 8-table Fe–Cu set (3 pair, 3 density, 2 embedding).
    pub fn fe_cu(cu_fraction: f64, n: usize) -> Self {
        assert!((0.0..=1.0).contains(&cu_fraction));
        let pairs = [
            (Species::Fe, Species::Fe),
            (Species::Cu, Species::Cu),
            (Species::Fe, Species::Cu),
        ];
        let mut tables = Vec::new();
        for (a, b) in pairs {
            let p = AnalyticEam::for_pair(a, b);
            tables.push((
                AlloyTableId::Pair(a, b),
                CompactTable::build(|r| p.phi(r), R_MIN, p.r_cut, n),
            ));
            tables.push((
                AlloyTableId::Density(a, b),
                CompactTable::build(|r| p.density(r), R_MIN, p.r_cut, n),
            ));
        }
        for s in [Species::Fe, Species::Cu] {
            let p = AnalyticEam::for_pair(s, s);
            tables.push((
                AlloyTableId::Embed(s),
                CompactTable::build(|rho| p.embed(rho), 0.0, RHO_MAX, n),
            ));
        }
        Self {
            cu_fraction,
            n,
            tables,
        }
    }

    /// All tables with their ids.
    pub fn tables(&self) -> &[(AlloyTableId, CompactTable)] {
        &self.tables
    }

    /// Looks up one table.
    pub fn table(&self, id: AlloyTableId) -> &CompactTable {
        let id = match id {
            AlloyTableId::Pair(a, b) => {
                let (a, b) = canon(a, b);
                AlloyTableId::Pair(a, b)
            }
            AlloyTableId::Density(a, b) => {
                let (a, b) = canon(a, b);
                AlloyTableId::Density(a, b)
            }
            e => e,
        };
        &self
            .tables
            .iter()
            .find(|(t, _)| *t == id)
            .expect("table exists for every canonical id")
            .1
    }

    /// Fused φ/f lookup for the species pair `(a, b)`:
    /// `(φ(r), φ'(r), f(r), f'(r))` from ONE segment locate — the pair
    /// and density tables of a species pair are sampled on the same
    /// knot grid. Bit-identical to evaluating the two tables
    /// separately via [`AlloyEam::table`].
    #[inline]
    pub fn pair_density(&self, a: Species, b: Species, r: f64) -> (f64, f64, f64, f64) {
        let pair = self.table(AlloyTableId::Pair(a, b));
        let density = self.table(AlloyTableId::Density(a, b));
        pair.eval2(density, r)
    }

    /// Batched fused φ/f lookup for the species pair `(a, b)` — the
    /// batch counterpart of [`AlloyEam::pair_density`]. The linear
    /// table search behind [`AlloyEam::table`] runs **once per batch**
    /// instead of once per neighbour (the amortisation the contiguous
    /// gather buys on top of vectorization), then the whole batch goes
    /// through [`CompactTable::eval2_batch`]. Bitwise identical to
    /// per-element `pair_density` at every length, ragged tails
    /// included.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn pair_density_batch(
        &self,
        a: Species,
        b: Species,
        rs: &[f64],
        phi: &mut [f64],
        dphi: &mut [f64],
        f: &mut [f64],
        df: &mut [f64],
    ) {
        let pair = self.table(AlloyTableId::Pair(a, b));
        let density = self.table(AlloyTableId::Density(a, b));
        pair.eval2_batch(density, rs, phi, dphi, f, df);
    }

    /// Embedding `F(ρ)` and `F'(ρ)` of species `s` (single-locate by
    /// construction — one table).
    #[inline]
    pub fn embed(&self, s: Species, rho: f64) -> (f64, f64) {
        self.table(AlloyTableId::Embed(s)).eval_both(rho)
    }

    /// Relative access frequency of a table given the species
    /// concentrations (pair/density tables are hit proportionally to the
    /// product of their species' concentrations; embedding once per atom
    /// of its species).
    pub fn access_weight(&self, id: AlloyTableId) -> f64 {
        let c_cu = self.cu_fraction;
        let c_fe = 1.0 - c_cu;
        let conc = |s: Species| match s {
            Species::Fe => c_fe,
            Species::Cu => c_cu,
        };
        match id {
            // Mixed pairs occur twice as often as the product (AB + BA).
            AlloyTableId::Pair(a, b) | AlloyTableId::Density(a, b) => {
                let w = conc(a) * conc(b);
                if a == b {
                    w
                } else {
                    2.0 * w
                }
            }
            // Embedding is evaluated once per atom, which is ~1/40th of
            // the per-neighbour table traffic for a ~40-neighbour cutoff.
            AlloyTableId::Embed(s) => conc(s) / 40.0,
        }
    }

    /// Total bytes of all compacted tables.
    pub fn total_bytes(&self) -> usize {
        self.tables.iter().map(|(_, t)| t.memory_bytes()).sum()
    }
}

/// Which tables a CPE keeps resident in its local store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LdmPlacement {
    /// Ids chosen to be resident, most-frequently-accessed first.
    pub resident: Vec<AlloyTableId>,
    /// Ids left in main memory (per-access DMA).
    pub in_main_memory: Vec<AlloyTableId>,
    /// Bytes of local store consumed by the resident set.
    pub resident_bytes: usize,
}

impl LdmPlacement {
    /// Plans residency: greedily admits tables in decreasing access
    /// weight while they fit in `budget` bytes (the local store minus
    /// whatever the kernel reserves for atom block buffers).
    ///
    /// For Fe-dominated Fe–Cu this reproduces the paper's policy: the
    /// Fe–Fe tables (highest content) go resident, Cu tables stay in
    /// main memory.
    pub fn plan(alloy: &AlloyEam, budget: usize) -> Self {
        let mut ranked: Vec<(f64, AlloyTableId, usize)> = alloy
            .tables()
            .iter()
            .map(|(id, t)| (alloy.access_weight(*id), *id, t.memory_bytes()))
            .collect();
        ranked.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("weights are finite"));
        let mut resident = Vec::new();
        let mut in_main_memory = Vec::new();
        let mut used = 0usize;
        for (_, id, bytes) in ranked {
            if used + bytes <= budget {
                used += bytes;
                resident.push(id);
            } else {
                in_main_memory.push(id);
            }
        }
        Self {
            resident,
            in_main_memory,
            resident_bytes: used,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fe_cu_has_eight_tables() {
        let a = AlloyEam::fe_cu(0.01, 500);
        assert_eq!(a.tables().len(), 8);
        assert_eq!(a.total_bytes(), 8 * 500 * 8);
    }

    #[test]
    fn table_lookup_symmetric_pairs() {
        let a = AlloyEam::fe_cu(0.05, 300);
        let t1 = a.table(AlloyTableId::Pair(Species::Fe, Species::Cu));
        let t2 = a.table(AlloyTableId::Pair(Species::Cu, Species::Fe));
        assert_eq!(t1.values(), t2.values());
    }

    #[test]
    fn paper_policy_fe_dominates() {
        // Paper-sized tables: each 39 KiB; 8 tables = 312 KiB ≫ 64 KB.
        let ldm = mmds_sunway::SwModel::sw26010().ldm_bytes;
        let a = AlloyEam::fe_cu(0.01, 5000);
        assert!(a.total_bytes() > ldm);
        // Budget: LDM minus 24 KB of block buffers.
        let plan = LdmPlacement::plan(&a, ldm - 24 * 1024);
        // The most frequent table is Fe-Fe density/pair; exactly one
        // 39 KiB table fits in a 40 KB budget.
        assert_eq!(plan.resident.len(), 1);
        match plan.resident[0] {
            AlloyTableId::Pair(Species::Fe, Species::Fe)
            | AlloyTableId::Density(Species::Fe, Species::Fe) => {}
            other => panic!("expected an Fe-Fe table resident, got {other:?}"),
        }
        assert_eq!(plan.in_main_memory.len(), 7);
    }

    #[test]
    fn cu_rich_alloy_flips_placement() {
        let a = AlloyEam::fe_cu(0.9, 5000);
        let plan = LdmPlacement::plan(&a, 41_000);
        match plan.resident[0] {
            AlloyTableId::Pair(Species::Cu, Species::Cu)
            | AlloyTableId::Density(Species::Cu, Species::Cu) => {}
            other => panic!("expected a Cu-Cu table resident, got {other:?}"),
        }
    }

    #[test]
    fn generous_budget_admits_everything() {
        let a = AlloyEam::fe_cu(0.5, 400);
        let plan = LdmPlacement::plan(&a, 1 << 20);
        assert_eq!(plan.resident.len(), 8);
        assert!(plan.in_main_memory.is_empty());
        assert_eq!(plan.resident_bytes, a.total_bytes());
    }

    #[test]
    fn access_weights_sum_sensibly() {
        let a = AlloyEam::fe_cu(0.25, 300);
        // Pair weights over the 3 pair tables: 0.75² + 0.25² + 2·0.75·0.25 = 1.
        let w: f64 = [
            AlloyTableId::Pair(Species::Fe, Species::Fe),
            AlloyTableId::Pair(Species::Cu, Species::Cu),
            AlloyTableId::Pair(Species::Fe, Species::Cu),
        ]
        .iter()
        .map(|&id| a.access_weight(id))
        .sum();
        assert!((w - 1.0).abs() < 1e-12);
    }
}
