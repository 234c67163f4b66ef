//! A complete single-species EAM potential in both table forms.
//!
//! Both MD and KMC access the potential exclusively through the three
//! interpolation tables (pair, density, embedding — §2.1.2); the
//! analytic functions exist only to *generate* the tables and for
//! accuracy tests.

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::analytic::{AnalyticEam, Species};
use crate::compact::CompactTable;
use crate::spline::{TraditionalTable, PAPER_TABLE_N};

/// Which table machinery evaluates the potential — the Fig. 9 ablation
/// axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TableForm {
    /// 5000×7 coefficient rows; too large for the CPE local store, so a
    /// CPE pays one DMA row-fetch per neighbour per table.
    Traditional,
    /// 5000 sample values; local-store resident, coefficients
    /// reconstructed on the fly.
    Compacted,
}

/// The tables of one species (or species pair): pair potential φ(r),
/// electron density f(r), and embedding F(ρ).
///
/// A potential holds what its lookups read: the compacted tables (the
/// sample values and their slope memo) from construction, and the
/// traditional tables only once a [`TableForm::Traditional`] lookup
/// has asked for them. Only the Fig. 9 and ablation variants do; the
/// production path never builds them.
#[derive(Debug, Clone)]
pub struct EamPotential {
    /// Which species this parameterisation describes.
    pub species: Species,
    /// Analytic source functions.
    pub analytic: AnalyticEam,
    /// Traditional tables, built on first use.
    traditional: OnceLock<Traditional>,
    /// Compacted pair table.
    pub comp_pair: CompactTable,
    /// Compacted density table.
    pub comp_density: CompactTable,
    /// Compacted embedding table.
    pub comp_embed: CompactTable,
}

/// The traditional tables of one potential, on the compacted tables'
/// knot grids.
#[derive(Debug, Clone)]
struct Traditional {
    pair: TraditionalTable,
    density: TraditionalTable,
    embed: TraditionalTable,
}

/// Inner edge of the tabulated r-domain (Å); below this the potential is
/// clamped (standard practice — cascades rarely probe r < 1 Å at the
/// energies we scale to).
pub const R_MIN: f64 = 1.0;

/// Upper edge of the tabulated ρ-domain; generous multiple of the
/// equilibrium BCC density.
pub const RHO_MAX: f64 = 60.0;

impl EamPotential {
    /// Builds the full table set for `species` with `n` knots per table.
    pub fn new(species: Species, n: usize) -> Self {
        let analytic = match species {
            Species::Fe => AnalyticEam::fe(),
            Species::Cu => AnalyticEam::cu(),
        };
        Self::from_analytic(species, analytic, n)
    }

    /// Builds the paper-sized (5000-knot) Fe potential.
    pub fn fe() -> Self {
        Self::new(Species::Fe, PAPER_TABLE_N)
    }

    /// Builds tables from an explicit analytic parameter set (used for
    /// mixed Fe–Cu pair tables too).
    pub fn from_analytic(species: Species, analytic: AnalyticEam, n: usize) -> Self {
        let rc = analytic.r_cut;
        Self {
            species,
            analytic,
            traditional: OnceLock::new(),
            comp_pair: CompactTable::build(|r| analytic.phi(r), R_MIN, rc, n),
            comp_density: CompactTable::build(|r| analytic.density(r), R_MIN, rc, n),
            comp_embed: CompactTable::build(|rho| analytic.embed(rho), 0.0, RHO_MAX, n),
        }
    }

    /// The traditional tables, built by the first call.
    fn traditional(&self) -> &Traditional {
        self.traditional.get_or_init(|| {
            let (a, n) = (self.analytic, self.knots());
            Traditional {
                pair: TraditionalTable::build(|r| a.phi(r), R_MIN, a.r_cut, n),
                density: TraditionalTable::build(|r| a.density(r), R_MIN, a.r_cut, n),
                embed: TraditionalTable::build(|rho| a.embed(rho), 0.0, RHO_MAX, n),
            }
        })
    }

    /// Traditional pair table (built on first use).
    pub fn trad_pair(&self) -> &TraditionalTable {
        &self.traditional().pair
    }

    /// Traditional electron-density table (built on first use).
    pub fn trad_density(&self) -> &TraditionalTable {
        &self.traditional().density
    }

    /// Traditional embedding table, whose domain is ρ, not r (built on
    /// first use).
    pub fn trad_embed(&self) -> &TraditionalTable {
        &self.traditional().embed
    }

    /// Knots per table; every table of the potential has this many.
    pub fn knots(&self) -> usize {
        self.comp_pair.n()
    }

    /// Cutoff radius (Å).
    pub fn cutoff(&self) -> f64 {
        self.analytic.r_cut
    }

    /// φ(r) and φ'(r) via the chosen table form.
    #[inline]
    pub fn pair(&self, form: TableForm, r: f64) -> (f64, f64) {
        match form {
            TableForm::Traditional => self.trad_pair().eval_both(r),
            TableForm::Compacted => self.comp_pair.eval_both(r),
        }
    }

    /// f(r) and f'(r) via the chosen table form.
    #[inline]
    pub fn density(&self, form: TableForm, r: f64) -> (f64, f64) {
        match form {
            TableForm::Traditional => self.trad_density().eval_both(r),
            TableForm::Compacted => self.comp_density.eval_both(r),
        }
    }

    /// F(ρ) and F'(ρ) via the chosen table form. Already a fused
    /// single-locate access: one locate yields both the value and the
    /// derivative of the embedding table.
    #[inline]
    pub fn embed(&self, form: TableForm, rho: f64) -> (f64, f64) {
        match form {
            TableForm::Traditional => self.trad_embed().eval_both(rho),
            TableForm::Compacted => self.comp_embed.eval_both(rho),
        }
    }

    /// Fused φ/f lookup: `(φ(r), φ'(r), f(r), f'(r))` from **one**
    /// segment locate (and, in compacted form, one shared Hermite
    /// basis) serving both r-indexed tables — the pair and density
    /// tables are sampled on the same knot grid, so the force pass
    /// never needs the two independent locates the separate
    /// [`EamPotential::pair`] + [`EamPotential::density`] calls pay.
    /// Results are bit-identical to the separate calls.
    #[inline]
    pub fn pair_density(&self, form: TableForm, r: f64) -> (f64, f64, f64, f64) {
        match form {
            TableForm::Traditional => {
                let t = self.traditional();
                t.pair.eval2(&t.density, r)
            }
            TableForm::Compacted => self.comp_pair.eval2(&self.comp_density, r),
        }
    }

    /// Batched fused φ/f lookup: the batch counterpart of
    /// [`EamPotential::pair_density`] — the table-form dispatch and the
    /// table pair are resolved **once per batch** instead of once per
    /// neighbour, then the whole batch runs through the SoA lane
    /// kernels ([`CompactTable::eval2_batch`] /
    /// [`TraditionalTable::eval2_batch`]). Output streams are bitwise
    /// identical to per-element `pair_density` calls at every length,
    /// ragged tails included.
    #[inline]
    pub fn pair_density_batch(
        &self,
        form: TableForm,
        rs: &[f64],
        phi: &mut [f64],
        dphi: &mut [f64],
        f: &mut [f64],
        df: &mut [f64],
    ) {
        match form {
            TableForm::Traditional => {
                let t = self.traditional();
                t.pair.eval2_batch(&t.density, rs, phi, dphi, f, df)
            }
            TableForm::Compacted => {
                self.comp_pair
                    .eval2_batch(&self.comp_density, rs, phi, dphi, f, df)
            }
        }
    }

    /// Total bytes of the three tables in the given form — what a CPE
    /// would need to hold them resident. Computed from the knot count:
    /// asking builds no table.
    pub fn table_bytes(&self, form: TableForm) -> usize {
        match form {
            TableForm::Traditional => 3 * TraditionalTable::bytes_for(self.knots()),
            TableForm::Compacted => {
                self.comp_pair.memory_bytes()
                    + self.comp_density.memory_bytes()
                    + self.comp_embed.memory_bytes()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fe_small() -> EamPotential {
        EamPotential::new(Species::Fe, 1200)
    }

    #[test]
    fn tables_match_analytic() {
        let p = fe_small();
        for i in 0..60 {
            let r = 1.2 + i as f64 * 0.06;
            let (phi_t, dphi_t) = p.pair(TableForm::Traditional, r);
            let (phi_c, dphi_c) = p.pair(TableForm::Compacted, r);
            assert!((phi_t - p.analytic.phi(r)).abs() < 1e-6, "trad phi at {r}");
            assert!((phi_c - p.analytic.phi(r)).abs() < 1e-6, "comp phi at {r}");
            assert!((dphi_t - p.analytic.dphi(r)).abs() < 1e-3);
            assert!((dphi_c - p.analytic.dphi(r)).abs() < 1e-3);
        }
    }

    #[test]
    fn forms_agree_with_each_other_tightly() {
        let p = fe_small();
        for i in 0..200 {
            let r = 1.05 + i as f64 * 0.019;
            let (vt, dt) = p.density(TableForm::Traditional, r);
            let (vc, dc) = p.density(TableForm::Compacted, r);
            assert!((vt - vc).abs() < 1e-7, "density value at {r}");
            assert!((dt - dc).abs() < 1e-4, "density deriv at {r}");
        }
    }

    #[test]
    fn embedding_domain_covers_bcc_density() {
        let p = fe_small();
        // Equilibrium BCC Fe: 8 1NN + 6 2NN contributions.
        let a = p.analytic;
        let rho_eq = 8.0 * a.density(2.4724) + 6.0 * a.density(2.855);
        assert!(rho_eq < RHO_MAX / 2.0, "rho_eq = {rho_eq}");
        let (f_val, _) = p.embed(TableForm::Compacted, rho_eq);
        assert!((f_val - a.embed(rho_eq)).abs() < 1e-6);
    }

    #[test]
    fn paper_sized_table_budget() {
        let p = EamPotential::fe();
        let ldm = mmds_sunway::SwModel::sw26010().ldm_bytes;
        // Traditional: 3 × 273 KiB ≫ 64 KB; compacted: 3 × 39 KiB ≈ 117 KiB
        // (only the r-indexed pair+density tables plus embedding — the
        // paper loads the compacted tables of ONE element, 39 KB each, and
        // our MD kernel stages them one at a time or merged; see md::offload).
        assert!(p.table_bytes(TableForm::Traditional) > 3 * ldm);
        assert_eq!(p.table_bytes(TableForm::Compacted), 3 * 40_000);
    }

    #[test]
    fn traditional_tables_are_built_on_first_use() {
        let p = fe_small();
        let copy = {
            for i in 0..50 {
                let r = 1.1 + i as f64 * 0.07;
                p.pair(TableForm::Compacted, r);
                p.density(TableForm::Compacted, r);
                p.pair_density(TableForm::Compacted, r);
                p.embed(TableForm::Compacted, 4.0 * r);
            }
            let rs = [2.3, 2.5, 3.1];
            let mut out = [[0.0; 3]; 4];
            let [phi, dphi, f, df] = &mut out;
            p.pair_density_batch(TableForm::Compacted, &rs, phi, dphi, f, df);
            p.clone()
        };
        assert_eq!(
            p.table_bytes(TableForm::Traditional),
            3 * TraditionalTable::bytes_for(1200)
        );
        assert!(
            p.traditional.get().is_none() && copy.traditional.get().is_none(),
            "a compacted lookup, a clone or a size built the traditional tables"
        );

        p.pair(TableForm::Traditional, 2.5);
        assert!(p.traditional.get().is_some() && copy.traditional.get().is_none());
        let a = p.analytic;
        let bits = |t: &TraditionalTable| {
            let c: Vec<u64> = t.coeff.iter().flatten().map(|x| x.to_bits()).collect();
            (t.x0.to_bits(), t.dx.to_bits(), c)
        };
        let built = [
            TraditionalTable::build(|r| a.phi(r), R_MIN, a.r_cut, 1200),
            TraditionalTable::build(|r| a.density(r), R_MIN, a.r_cut, 1200),
            TraditionalTable::build(|rho| a.embed(rho), 0.0, RHO_MAX, 1200),
        ];
        let lazy = [p.trad_pair(), p.trad_density(), p.trad_embed()];
        for (lazy, built) in lazy.into_iter().zip(&built) {
            assert_eq!(bits(lazy), bits(built));
        }
        assert_eq!(
            p.table_bytes(TableForm::Traditional),
            built
                .iter()
                .map(TraditionalTable::memory_bytes)
                .sum::<usize>()
        );
    }

    #[test]
    fn cutoff_reported() {
        assert_eq!(EamPotential::fe().cutoff(), 5.0);
    }
}
