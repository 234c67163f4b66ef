//! On-lattice EAM energetics and transition rates (Eq. 4).
//!
//! "KMC uses the EAM potential to calculate the probability of the
//! vacancy transition. ... We use the interpolation method to calculate
//! the EAM potential, which is the same as MD" (§2.2). On a rigid
//! lattice every neighbour sits at a shell-ideal distance, so the
//! interpolation tables are sampled once per offset at construction and
//! the inner loop reduces to occupancy sums. The embedding term is
//! still evaluated through the (compacted) table at run time.
//!
//! Alloys are supported end to end: the paper's Fe–Cu case (§2.1.2)
//! uses one pair/density table per species pair and one embedding
//! table per species — exactly the sampled-shell tables held here.

use mmds_eam::analytic::{AnalyticEam, Species};
use mmds_eam::compact::CompactTable;
use mmds_eam::potential::{RHO_MAX, R_MIN};
use serde::{Deserialize, Serialize};

use crate::config::KmcConfig;
use crate::lattice::{KmcLattice, SiteState};

/// Species-pair index: Fe-Fe = 0, Cu-Cu = 1, Fe-Cu = 2.
#[inline]
fn pair_idx(a: SiteState, b: SiteState) -> usize {
    match (a, b) {
        (SiteState::Fe, SiteState::Fe) => 0,
        (SiteState::Cu, SiteState::Cu) => 1,
        _ => 2,
    }
}

/// Table-sampled pair/density values per neighbour offset, per species
/// pair, plus per-species embedding tables.
#[derive(Debug, Clone)]
pub struct EnergyModel {
    /// φ(r_ideal) per `[pair][basis][offset]`.
    pub phi: [[Vec<f64>; 2]; 3],
    /// f(r_ideal) per `[pair][basis][offset]`.
    pub f: [[Vec<f64>; 2]; 3],
    /// Compacted embedding tables per species (Fe, Cu).
    pub embed: [CompactTable; 2],
    /// k_B·T (eV).
    pub kbt: f64,
    /// Attempt frequency (1/s).
    pub nu: f64,
    /// Kang–Weinberg base barrier (eV).
    pub e_mig0: f64,
    /// Barrier floor (eV).
    pub e_floor: f64,
}

/// Statistics of rate evaluations (feeds the compute-time model).
/// `rate_evals` and `site_evals` count modelled MPE kernel evaluations:
/// each rate the solver's event catalogue (re-)evaluates is charged its
/// whole patch twice, before and after the swap, so they grow with the
/// rates evaluated, not with `events × active vacancies`, and not with
/// what the host memoises. `host_site_evals` is what the host computed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RateStats {
    /// Modelled rate evaluations.
    pub rate_evals: u64,
    /// Modelled patch-site energy evaluations (`2·|patch|` per rate).
    pub site_evals: u64,
    /// Site energies the host actually computed.
    pub host_site_evals: u64,
}

/// Direct-mapped slots of an [`EmbedMemo`], per species.
const EMBED_SLOTS: usize = 64;

/// Embedding energies by species and exact density bits. `F_s` is a
/// pure function of `ρ`, so a hit returns the bits a table lookup
/// would; in a dilute lattice a few densities (full shell, one site
/// vacant) recur across a whole patch. Recycled, never reallocated.
#[derive(Debug, Clone, Default)]
pub(crate) struct EmbedMemo {
    /// `(ρ bits, F(ρ))`: Fe's slots, then Cu's.
    slots: Vec<Option<(u64, f64)>>,
}

impl EmbedMemo {
    /// Forgets every entry (a memo serves one model at a time).
    pub(crate) fn reset(&mut self) {
        self.slots.clear();
        self.slots.resize(2 * EMBED_SLOTS, None);
    }

    /// `F_species(rho)` of an atom.
    fn embed(&mut self, model: &EnergyModel, species: SiteState, rho: f64) -> f64 {
        let bits = rho.to_bits();
        let hash = bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - EMBED_SLOTS.trailing_zeros());
        let slot = &mut self.slots[species as usize * EMBED_SLOTS + hash as usize];
        match *slot {
            Some((b, e)) if b == bits => e,
            _ => {
                let e = model.embed_energy(species, rho);
                *slot = Some((bits, e));
                e
            }
        }
    }
}

impl EnergyModel {
    /// Builds the full Fe/Cu/Fe-Cu model from a config. Pure-Fe systems
    /// simply never index the Cu tables.
    pub fn new(cfg: &KmcConfig, lat: &KmcLattice) -> Self {
        let n = cfg.table_knots;
        let pair_params = [
            AnalyticEam::for_pair(Species::Fe, Species::Fe),
            AnalyticEam::for_pair(Species::Cu, Species::Cu),
            AnalyticEam::for_pair(Species::Fe, Species::Cu),
        ];
        // Sample the pair/density *tables* at the shell-ideal distances
        // (the tables are the paper's machinery; building them from the
        // compacted form keeps KMC and MD numerically aligned).
        let mut phi: [[Vec<f64>; 2]; 3] = Default::default();
        let mut f: [[Vec<f64>; 2]; 3] = Default::default();
        for (pi, p) in pair_params.iter().enumerate() {
            let t_phi = CompactTable::build(|r| p.phi(r), R_MIN, p.r_cut, n);
            let t_f = CompactTable::build(|r| p.density(r), R_MIN, p.r_cut, n);
            for b in 0..2 {
                let offs = lat.offsets.for_basis(b);
                phi[pi][b] = offs.iter().map(|o| t_phi.eval(o.r_ideal)).collect();
                f[pi][b] = offs.iter().map(|o| t_f.eval(o.r_ideal)).collect();
            }
        }
        let embed_of = |s: Species| {
            let p = AnalyticEam::for_pair(s, s);
            CompactTable::build(move |rho| p.embed(rho), 0.0, RHO_MAX, n)
        };
        Self {
            phi,
            f,
            embed: [embed_of(Species::Fe), embed_of(Species::Cu)],
            kbt: cfg.kbt(),
            nu: cfg.nu,
            e_mig0: cfg.e_mig0,
            e_floor: cfg.e_mig_floor,
        }
    }

    /// Embedding energy of a `species` atom at density `rho`.
    #[inline]
    fn embed_energy(&self, species: SiteState, rho: f64) -> f64 {
        let idx = match species {
            SiteState::Fe => 0,
            SiteState::Cu => 1,
            SiteState::Vacancy => return 0.0,
        };
        self.embed[idx].eval(rho)
    }

    /// Energy of one site given current occupancies:
    /// `F_s(ρ_s) + ½ Σ_j φ_{s,s_j}(r_sj)` (zero for a vacancy).
    pub fn site_energy(&self, lat: &KmcLattice, s: usize) -> f64 {
        self.site_energy_with(lat, s, |me, rho| self.embed_energy(me, rho))
    }

    /// [`Self::site_energy`] with its embedding term looked up in `memo`.
    pub(crate) fn site_energy_memo(&self, lat: &KmcLattice, s: usize, memo: &mut EmbedMemo) -> f64 {
        self.site_energy_with(lat, s, |me, rho| memo.embed(self, me, rho))
    }

    fn site_energy_with(
        &self,
        lat: &KmcLattice,
        s: usize,
        embed: impl FnOnce(SiteState, f64) -> f64,
    ) -> f64 {
        let me = lat.state[s];
        if me == SiteState::Vacancy {
            return 0.0;
        }
        let b = s & 1;
        let mut rho = 0.0;
        let mut pair = 0.0;
        for (idx, &d) in lat.deltas[b].iter().enumerate() {
            let n = (s as isize + d) as usize;
            let them = lat.state[n];
            if them.is_atom() {
                let pi = pair_idx(me, them);
                rho += self.f[pi][b][idx];
                pair += self.phi[pi][b][idx];
            }
        }
        embed(me, rho) + 0.5 * pair
    }

    /// Transition rate `k = ν exp(−E_m/k_B T)` of a hop whose final
    /// state lies `de` above the initial one, with the Kang–Weinberg
    /// barrier `E_m = max(floor, E_m⁰ + ΔE/2)`.
    pub(crate) fn rate_of(&self, de: f64) -> f64 {
        let barrier = (self.e_mig0 + 0.5 * de).max(self.e_floor);
        self.nu * (-barrier / self.kbt).exp()
    }
}

/// The per-rate path the solver's shaped patches replaced: the bitwise
/// oracle for them.
#[cfg(test)]
impl EnergyModel {
    /// Energy of the patch affected by swapping `v` (vacancy) and `n`
    /// (atom): the two sites plus every neighbour of either.
    fn patch_energy(&self, lat: &KmcLattice, patch: &[usize], stats: &mut RateStats) -> f64 {
        stats.site_evals += patch.len() as u64;
        stats.host_site_evals += patch.len() as u64;
        patch.iter().map(|&s| self.site_energy(lat, s)).sum()
    }

    /// Builds the affected patch for an exchange.
    pub(crate) fn patch(&self, lat: &KmcLattice, v: usize, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = Vec::with_capacity(32);
        p.push(v);
        p.push(n);
        p.extend(lat.neighbors(v));
        p.extend(lat.neighbors(n));
        p.sort_unstable();
        p.dedup();
        p
    }

    /// ΔE of exchanging the vacancy at `v` with the atom at `n`
    /// (positive = final state higher).
    pub(crate) fn delta_e(
        &self,
        lat: &mut KmcLattice,
        v: usize,
        n: usize,
        stats: &mut RateStats,
    ) -> f64 {
        debug_assert_eq!(lat.state[v], SiteState::Vacancy);
        debug_assert!(lat.state[n].is_atom());
        let patch = self.patch(lat, v, n);
        let before = self.patch_energy(lat, &patch, stats);
        let atom = lat.state[n];
        lat.state[n] = SiteState::Vacancy;
        lat.state[v] = atom;
        let after = self.patch_energy(lat, &patch, stats);
        lat.state[v] = SiteState::Vacancy;
        lat.state[n] = atom;
        after - before
    }

    /// Transition rate of exchanging the vacancy at `v` with the atom at
    /// `n`.
    pub(crate) fn rate(
        &self,
        lat: &mut KmcLattice,
        v: usize,
        n: usize,
        stats: &mut RateStats,
    ) -> f64 {
        stats.rate_evals += 1;
        let de = self.delta_e(lat, v, n, stats);
        self.rate_of(de)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmds_lattice::{BccGeometry, LocalGrid};

    fn setup() -> (KmcLattice, EnergyModel, RateStats) {
        let grid = LocalGrid::whole(BccGeometry::fe_cube(6), 2);
        let lat = KmcLattice::all_fe(grid, 3.0);
        let cfg = KmcConfig {
            table_knots: 1000,
            ..Default::default()
        };
        let model = EnergyModel::new(&cfg, &lat);
        (lat, model, RateStats::default())
    }

    #[test]
    fn patch_shapes_equal_the_oracle_patches() {
        for rate_cutoff in [3.0, 5.0] {
            let cfg = KmcConfig {
                table_knots: 600,
                rate_cutoff,
                ..Default::default()
            };
            let ghost = crate::lattice::required_ghost(cfg.a0, rate_cutoff);
            let lat = KmcLattice::all_fe(
                LocalGrid::whole(BccGeometry::fe_cube(4), ghost),
                rate_cutoff,
            );
            let m = EnergyModel::new(&cfg, &lat);
            let mut shapes = 0;
            for v in lat.grid.interior_ids() {
                let shape = &lat.patches[v & 1];
                let mut slot_site = vec![None; shape.union_len];
                for (dir, n) in lat.nn1(v).enumerate() {
                    let sites: Vec<usize> = shape.dirs[dir]
                        .iter()
                        .map(|p| (v as isize + p.delta) as usize)
                        .collect();
                    assert_eq!(
                        sites,
                        m.patch(&lat, v, n),
                        "cutoff {rate_cutoff}, v {v}, n {n}"
                    );
                    for (p, &s) in shape.dirs[dir].iter().zip(&sites) {
                        // A slot names one site across all directions.
                        assert_eq!(*slot_site[p.slot].get_or_insert(s), s, "slot {}", p.slot);
                        let reads_partner = lat.neighbors(s).any(|x| x == n);
                        assert_eq!(p.shared_after, s != v && s != n && !reads_partner);
                    }
                    shapes += 1;
                }
                // Slots are dense: every one names a site.
                assert!(slot_site.iter().all(Option::is_some));
            }
            assert_eq!(shapes, 8 * lat.n_owned());
        }
    }

    #[test]
    fn embed_memo_returns_the_table_bits() {
        // One density for both species, with Cu given its own embedding
        // function (the shipped model gives Cu iron's, so the rate
        // oracles cannot tell the species slots apart).
        let (_, mut m, _) = setup();
        m.embed[1] = CompactTable::build(|rho| 0.5 * rho - 1.0, 0.0, RHO_MAX, 100);
        let mut memo = EmbedMemo::default();
        memo.reset();
        for rho in [0.0, 1.5, 1.5 + f64::EPSILON, 7.25] {
            for species in [SiteState::Fe, SiteState::Cu, SiteState::Fe, SiteState::Cu] {
                let want = m.embed_energy(species, rho);
                assert_eq!(memo.embed(&m, species, rho).to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn shell_samples_match_analytic() {
        let (lat, m, _) = setup();
        let p = AnalyticEam::fe();
        for (idx, o) in lat.offsets.basis0.iter().enumerate() {
            assert!((m.phi[0][0][idx] - p.phi(o.r_ideal)).abs() < 1e-6);
            assert!((m.f[0][0][idx] - p.density(o.r_ideal)).abs() < 1e-6);
        }
    }

    #[test]
    fn isolated_vacancy_hops_are_symmetric() {
        let (mut lat, m, mut st) = setup();
        let v = lat.grid.site_id(4, 4, 4, 0);
        lat.set_state(v, SiteState::Vacancy);
        let nns: Vec<usize> = lat.nn1(v).collect();
        let rates: Vec<f64> = nns
            .iter()
            .map(|&n| m.rate(&mut lat, v, n, &mut st))
            .collect();
        // All 8 hops of an isolated vacancy are equivalent by symmetry.
        for w in rates.windows(2) {
            assert!((w[0] - w[1]).abs() / w[0] < 1e-9, "{rates:?}");
        }
        // ΔE ≈ 0 for a symmetric exchange ⇒ k ≈ reference rate.
        let k_ref = m.nu * (-m.e_mig0 / m.kbt).exp();
        assert!(
            (rates[0] - k_ref).abs() / k_ref < 0.05,
            "{} vs {k_ref}",
            rates[0]
        );
        assert!(st.rate_evals == 8);
    }

    #[test]
    fn delta_e_antisymmetric() {
        let (mut lat, m, mut st) = setup();
        let v = lat.grid.site_id(4, 4, 4, 0);
        let n = lat.grid.site_id(4, 4, 4, 1);
        // Add a second vacancy nearby to break symmetry.
        let v2 = lat.grid.site_id(5, 4, 4, 0);
        lat.set_state(v, SiteState::Vacancy);
        lat.set_state(v2, SiteState::Vacancy);
        let de_fwd = m.delta_e(&mut lat, v, n, &mut st);
        let atom = lat.state[n];
        lat.set_state(n, SiteState::Vacancy);
        lat.set_state(v, atom);
        let de_bwd = m.delta_e(&mut lat, n, v, &mut st);
        assert!((de_fwd + de_bwd).abs() < 1e-9, "{de_fwd} vs {de_bwd}");
    }

    #[test]
    fn divacancy_binding_is_attractive() {
        // Separating a bound 1NN divacancy must cost energy — the
        // clustering driver of Fig. 17.
        let (mut lat, m, mut st) = setup();
        let v1 = lat.grid.site_id(4, 4, 4, 0);
        let v2 = lat.grid.site_id(4, 4, 4, 1); // 1NN pair
        lat.set_state(v1, SiteState::Vacancy);
        lat.set_state(v2, SiteState::Vacancy);
        let far = lat.grid.site_id(3, 3, 3, 1);
        assert!(lat.nn1(v1).any(|x| x == far));
        let de_separate = m.delta_e(&mut lat, v1, far, &mut st);
        assert!(
            de_separate > 0.05,
            "separation must cost energy: {de_separate}"
        );
    }

    #[test]
    fn swap_restores_state() {
        let (mut lat, m, mut st) = setup();
        let v = lat.grid.site_id(3, 3, 3, 0);
        lat.set_state(v, SiteState::Vacancy);
        let n = lat.nn1(v).next().unwrap();
        let before = lat.state.clone();
        let _ = m.rate(&mut lat, v, n, &mut st);
        assert_eq!(lat.state, before, "rate evaluation must not mutate");
    }

    /// 8-cell lattice where all probe sites sit ≥ 2 cells inside the
    /// interior, so no energy evaluation reads (stale, all-Fe) ghosts.
    fn deep_setup() -> (KmcLattice, EnergyModel, RateStats) {
        let grid = LocalGrid::whole(BccGeometry::fe_cube(8), 2);
        let lat = KmcLattice::all_fe(grid, 3.0);
        let cfg = KmcConfig {
            table_knots: 1000,
            ..Default::default()
        };
        let model = EnergyModel::new(&cfg, &lat);
        (lat, model, RateStats::default())
    }

    #[test]
    fn cu_impurity_changes_energetics() {
        // A lone V–Cu swap is symmetric (ΔE = 0, same rate as Fe), so
        // break the symmetry with a second Cu: hopping the vacancy
        // toward vs away from the Cu pair must differ.
        let (mut lat, m, mut st) = deep_setup();
        let v = lat.grid.site_id(5, 5, 5, 0);
        lat.set_state(v, SiteState::Vacancy);
        lat.set_state(lat.grid.site_id(6, 6, 6, 0), SiteState::Cu);
        let partners: Vec<usize> = lat.nn1(v).collect();
        let rates: Vec<f64> = partners
            .iter()
            .map(|&n| m.rate(&mut lat, v, n, &mut st))
            .collect();
        let spread = rates.iter().fold(f64::MIN, |a, &b| a.max(b))
            / rates.iter().fold(f64::MAX, |a, &b| a.min(b));
        assert!(spread > 1.0 + 1e-6, "Cu must bias the hop rates: {rates:?}");
    }

    #[test]
    fn cu_vacancy_exchange_is_not_frozen() {
        // The vacancy-mediated Cu transport mechanism: the barrier for a
        // V–Cu exchange must be of the same order as the Fe one (the
        // Kang–Weinberg form keeps lone-pair exchanges symmetric).
        let (mut lat, m, mut st) = deep_setup();
        let v = lat.grid.site_id(5, 5, 5, 0);
        lat.set_state(v, SiteState::Vacancy);
        let n = lat.nn1(v).next().unwrap();
        let k_fe = m.rate(&mut lat, v, n, &mut st);
        lat.set_state(n, SiteState::Cu);
        let k_cu = m.rate(&mut lat, v, n, &mut st);
        assert!(
            k_cu > 0.05 * k_fe && k_cu < 20.0 * k_fe,
            "V-Cu exchange rate out of range: {k_cu} vs {k_fe}"
        );
    }

    #[test]
    fn cu_pair_binding_drives_demixing() {
        // Positive heat of mixing: two adjacent Cu atoms are lower in
        // energy than two separated ones — the precipitation driver.
        let (mut lat, m, _) = deep_setup();
        let owned: Vec<usize> = lat.grid.interior_ids().collect();
        let a = lat.grid.site_id(5, 5, 5, 0);
        let b_near = lat.grid.site_id(5, 5, 5, 1); // 1NN
        let b_far = lat.grid.site_id(8, 8, 8, 1);
        lat.set_state(a, SiteState::Cu);
        lat.set_state(b_near, SiteState::Cu);
        let e_pair: f64 = owned.iter().map(|&s| m.site_energy(&lat, s)).sum();
        lat.set_state(b_near, SiteState::Fe);
        lat.set_state(b_far, SiteState::Cu);
        let e_sep: f64 = owned.iter().map(|&s| m.site_energy(&lat, s)).sum();
        assert!(
            e_pair < e_sep,
            "Cu-Cu binding must be attractive: pair {e_pair} vs separated {e_sep}"
        );
    }

    #[test]
    fn pair_index_symmetric() {
        assert_eq!(pair_idx(SiteState::Fe, SiteState::Cu), 2);
        assert_eq!(pair_idx(SiteState::Cu, SiteState::Fe), 2);
        assert_eq!(pair_idx(SiteState::Fe, SiteState::Fe), 0);
        assert_eq!(pair_idx(SiteState::Cu, SiteState::Cu), 1);
    }
}
