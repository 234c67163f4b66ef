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
//! Most shells of a dilute alloy are near-perfect: every neighbour is Fe,
//! or all but one, which is Cu or a vacancy. Such a shell has one of
//! `2 · 2 · (1 + 2·offsets)` energies (116 at 3 Å), so construction
//! precomputes them into shell tables through the same summation a
//! general shell runs, and a site energy locates its shell with integer
//! ops before it sums anything (DESIGN §6.19).
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
///
/// The samples are read-only once built: the shell tables are derived
/// from them, so a changed sample would leave them stale.
#[derive(Debug, Clone)]
pub struct EnergyModel {
    /// φ(r_ideal) per `[pair][basis][offset]`.
    phi: [[Vec<f64>; 2]; 3],
    /// f(r_ideal) per `[pair][basis][offset]`.
    f: [[Vec<f64>; 2]; 3],
    /// Compacted embedding tables per species (Fe, Cu).
    embed: [CompactTable; 2],
    /// Site energies of near-perfect shells per `[central species][basis]`,
    /// indexed by [`ShellKey`]: every shell with at most one non-Fe
    /// neighbour, computed by [`Self::shell_energy`] like every other.
    shells: [[Vec<f64>; 2]; 2],
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

/// Where a shell with at most one non-Fe neighbour sits in its shell
/// table: 0 for a shell of Fe only, `2·idx + code` for one whose single
/// non-Fe neighbour sits at offset `idx` with state code `code` (Cu = 1,
/// vacancy = 2). Fe's code is 0, so summing [`ShellKey::one`] over a
/// shell gives its key whenever at most one term is non-zero.
struct ShellKey;

impl ShellKey {
    /// Table length for `offsets` neighbour offsets.
    fn len(offsets: usize) -> usize {
        1 + 2 * offsets
    }

    /// The key term of state code `code` at offset `idx`.
    #[inline]
    fn one(idx: usize, code: usize) -> usize {
        (code != 0) as usize * (2 * idx + code)
    }

    /// The state at offset `idx` of the shell with key `key`.
    fn state_at(key: usize, idx: usize) -> SiteState {
        if key != 0 && (key - 1) / 2 == idx {
            SiteState::from_u8((2 - key % 2) as u8)
        } else {
            SiteState::Fe
        }
    }
}

/// Direct-mapped slots of an [`EmbedMemo`], per species.
const EMBED_SLOTS: usize = 64;

/// Embedding energies by species and exact density bits. `F_s` is a
/// pure function of `ρ`, so a hit returns the bits a table lookup
/// would. It serves only shells with two or more non-Fe neighbours (the
/// shell tables answer the rest), whose densities still recur across a
/// patch: a divacancy, a vacancy beside a Cu atom. Recycled, never
/// reallocated.
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
        let mut model = Self {
            phi,
            f,
            embed: [embed_of(Species::Fe), embed_of(Species::Cu)],
            shells: Default::default(),
            kbt: cfg.kbt(),
            nu: cfg.nu,
            e_mig0: cfg.e_mig0,
            e_floor: cfg.e_mig_floor,
        };
        model.shells = model.shell_tables();
        model
    }

    /// φ(r_ideal) per `[pair][basis][offset]` (Fe-Fe, Cu-Cu, Fe-Cu).
    pub(crate) fn phi(&self) -> &[[Vec<f64>; 2]; 3] {
        &self.phi
    }

    /// f(r_ideal) per `[pair][basis][offset]` (Fe-Fe, Cu-Cu, Fe-Cu).
    pub(crate) fn f(&self) -> &[[Vec<f64>; 2]; 3] {
        &self.f
    }

    /// Compacted embedding tables per species (Fe, Cu).
    pub(crate) fn embed(&self) -> &[CompactTable; 2] {
        &self.embed
    }

    /// The shell tables of the current samples: for each central atom
    /// species and basis, the energy of the all-Fe shell and of every
    /// shell with one Cu or one vacancy at one offset.
    fn shell_tables(&self) -> [[Vec<f64>; 2]; 2] {
        let mut shells: [[Vec<f64>; 2]; 2] = Default::default();
        for (me, per_basis) in [SiteState::Fe, SiteState::Cu].into_iter().zip(&mut shells) {
            for (b, table) in per_basis.iter_mut().enumerate() {
                let offsets = self.f[0][b].len();
                *table = (0..ShellKey::len(offsets))
                    .map(|key| {
                        let shell = |idx| ShellKey::state_at(key, idx);
                        self.shell_energy(me, b, shell, |me, rho| self.embed_energy(me, rho))
                    })
                    .collect();
            }
        }
        shells
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
            .0
    }

    /// [`Self::site_energy`] with its embedding term looked up in `memo`,
    /// and whether the shell tables answered it.
    pub(crate) fn site_energy_memo(
        &self,
        lat: &KmcLattice,
        s: usize,
        memo: &mut EmbedMemo,
    ) -> (f64, bool) {
        self.site_energy_with(lat, s, |me, rho| memo.embed(self, me, rho))
    }

    /// A site's energy and whether the shell tables answered it. A shell
    /// with at most one non-Fe neighbour is located with integer ops
    /// alone; every other shell runs [`Self::shell_energy`].
    fn site_energy_with(
        &self,
        lat: &KmcLattice,
        s: usize,
        embed: impl FnOnce(SiteState, f64) -> f64,
    ) -> (f64, bool) {
        let me = lat.state[s];
        if me == SiteState::Vacancy {
            return (0.0, false);
        }
        let b = s & 1;
        let neighbour = |idx: usize| lat.state[(s as isize + lat.deltas[b][idx]) as usize];
        let (mut others, mut key) = (0, 0);
        for idx in 0..lat.deltas[b].len() {
            let code = neighbour(idx) as usize;
            others += (code != 0) as usize;
            key += ShellKey::one(idx, code);
        }
        if others <= 1 {
            return (self.shells[me as usize][b][key], true);
        }
        (self.shell_energy(me, b, neighbour, embed), false)
    }

    /// `F_me(ρ) + ½ Σ_j φ_j` of a `me` atom on basis `b` whose neighbour
    /// at offset `idx` holds `shell(idx)`: the one summation behind every
    /// site energy, table entry or not, so both have one op order.
    fn shell_energy(
        &self,
        me: SiteState,
        b: usize,
        shell: impl Fn(usize) -> SiteState,
        embed: impl FnOnce(SiteState, f64) -> f64,
    ) -> f64 {
        let mut rho = 0.0;
        let mut pair = 0.0;
        for idx in 0..self.f[0][b].len() {
            let them = shell(idx);
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
    /// The site energy loop the shell tables replaced, verbatim: the
    /// bitwise oracle for the tables and for [`Self::shell_energy`].
    fn site_energy_full_loop(&self, lat: &KmcLattice, s: usize) -> f64 {
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
        self.embed_energy(me, rho) + 0.5 * pair
    }

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
        m.shells = m.shell_tables();
        let mut memo = EmbedMemo::default();
        memo.reset();
        for rho in [0.0, 1.5, 1.5 + f64::EPSILON, 7.25] {
            for species in [SiteState::Fe, SiteState::Cu, SiteState::Fe, SiteState::Cu] {
                let want = m.embed_energy(species, rho);
                assert_eq!(memo.embed(&m, species, rho).to_bits(), want.to_bits());
            }
        }
    }

    /// A lattice whose interior sites read only sites inside the grid,
    /// at `rate_cutoff`.
    fn oracle_box(cells: usize, rate_cutoff: f64) -> (KmcLattice, EnergyModel) {
        let cfg = KmcConfig {
            table_knots: 600,
            rate_cutoff,
            ..Default::default()
        };
        let ghost = crate::lattice::required_ghost(cfg.a0, rate_cutoff);
        let lat = KmcLattice::all_fe(
            LocalGrid::whole(BccGeometry::fe_cube(cells), ghost),
            rate_cutoff,
        );
        let model = EnergyModel::new(&cfg, &lat);
        (lat, model)
    }

    #[test]
    fn every_shell_table_entry_equals_the_full_loop() {
        for rate_cutoff in [3.0, 5.0] {
            let (mut lat, m) = oracle_box(4, rate_cutoff);
            let mut entries = 0;
            for b in 0..2 {
                let s = lat.grid.site_id(3, 3, 3, b);
                let shell: Vec<usize> = lat.neighbors(s).collect();
                let keys = ShellKey::len(shell.len());
                for me in [SiteState::Fe, SiteState::Cu] {
                    lat.set_state(s, me);
                    for key in 0..keys {
                        for (idx, &n) in shell.iter().enumerate() {
                            lat.set_state(n, ShellKey::state_at(key, idx));
                        }
                        let non_fe = shell.iter().filter(|&&n| lat.state[n] != SiteState::Fe);
                        assert_eq!(non_fe.count(), (key != 0) as usize, "key {key}");
                        let want = m.site_energy_full_loop(&lat, s).to_bits();
                        let entry = m.shells[me as usize][b][key];
                        assert_eq!(entry.to_bits(), want, "{me:?}, basis {b}, key {key}");
                        let (got, hit) =
                            m.site_energy_with(&lat, s, |me, rho| m.embed_energy(me, rho));
                        assert!(hit, "{me:?}, basis {b}, key {key} missed its table");
                        assert_eq!(got.to_bits(), want, "{me:?}, basis {b}, key {key}");
                        entries += 1;
                    }
                }
            }
            // Both species × both bases × (all-Fe + Cu or a vacancy at
            // every offset); 116 entries at 3 Å.
            let per_basis = ShellKey::len(lat.deltas[0].len());
            assert_eq!(entries, 2 * 2 * per_basis, "cutoff {rate_cutoff}");
            if rate_cutoff == 3.0 {
                assert_eq!(entries, 116);
            }
        }
    }

    #[test]
    fn every_site_energy_equals_the_full_loop() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        // Table answers and full sums per cutoff: both paths must run.
        let mut paths = [[0usize; 2]; 2];
        for (rate_cutoff, cu, vac) in [
            (3.0, 0.0f64, 0.05),
            (3.0, 0.02, 0.05),
            (3.0, 0.3, 0.1),
            (5.0, 0.01, 0.01),
            (5.0, 0.25, 0.05),
        ] {
            let (mut lat, m) = oracle_box(6, rate_cutoff);
            let mut rng = StdRng::seed_from_u64(rate_cutoff.to_bits() ^ cu.to_bits());
            for s in 0..lat.state.len() {
                let u: f64 = rng.random();
                let st = if u < vac {
                    SiteState::Vacancy
                } else if u < vac + cu {
                    SiteState::Cu
                } else {
                    SiteState::Fe
                };
                lat.set_state(s, st);
            }
            let mut memo = EmbedMemo::default();
            memo.reset();
            for s in lat.grid.interior_ids() {
                let want = m.site_energy_full_loop(&lat, s).to_bits();
                let why = format!("cutoff {rate_cutoff}, Cu {cu}, vacancies {vac}, site {s}");
                assert_eq!(m.site_energy(&lat, s).to_bits(), want, "{why}");
                let (got, hit) = m.site_energy_memo(&lat, s, &mut memo);
                assert_eq!(got.to_bits(), want, "{why}, through the memo");
                if lat.state[s].is_atom() {
                    paths[(rate_cutoff == 5.0) as usize][hit as usize] += 1;
                }
            }
        }
        for ran in paths {
            assert!(
                ran.iter().all(|&n| n > 0),
                "full sums, table answers: {ran:?}"
            );
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
