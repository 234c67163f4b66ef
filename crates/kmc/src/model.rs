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
//! general shell runs. A site energy first walks its shell with integer
//! ops into a `Shell` — the non-Fe count, the table key and the full
//! 2-bit code — which the solver records and adjusts for the after-swap
//! energies instead of walking again; any other shell is summed, or
//! answered by a `ShellMemo` keyed by its full code, which holds that
//! sum's own bits (DESIGN §6.19).
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

/// One site's shell as a walk over its neighbour offsets records it:
/// enough to locate its energy, and to derive the shell after a hop
/// changes one or two of its neighbours without walking it again.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Shell {
    /// Neighbours that are not Fe.
    others: u32,
    /// Σ [`ShellKey::one`]: the shell table index when `others ≤ 1`.
    key: u32,
    /// Every neighbour's state code, 2 bits per offset (offset 0
    /// lowest): the shell itself, 28 bits at 3 Å and 116 at 5 Å.
    code: u128,
}

impl Shell {
    /// The shell of site `s`, whose neighbours sit at `deltas`.
    #[inline]
    pub(crate) fn walk(state: &[SiteState], deltas: &[isize], s: usize) -> Self {
        let (mut others, mut key) = (0, 0);
        // Two 64-bit halves, so the shifts stay in one register.
        let mut code = [0u64; 2];
        for (idx, &d) in deltas.iter().enumerate() {
            let c = state[(s as isize + d) as usize] as usize;
            others += (c != 0) as u32;
            key += ShellKey::one(idx, c) as u32;
            code[idx / 32] |= (c as u64) << (2 * (idx % 32));
        }
        Self {
            others,
            key,
            code: code[0] as u128 | (code[1] as u128) << 64,
        }
    }

    /// This shell with the neighbour at offset `at` (if any) changed from
    /// `from` to `to`.
    #[inline]
    pub(crate) fn replace(self, at: Option<u8>, from: SiteState, to: SiteState) -> Self {
        let Some(idx) = at else {
            return self;
        };
        let idx = idx as usize;
        let (from, to) = (from as usize, to as usize);
        debug_assert_eq!((self.code >> (2 * idx)) as usize & 3, from);
        Self {
            others: self.others - (from != 0) as u32 + (to != 0) as u32,
            key: (self.key as usize - ShellKey::one(idx, from) + ShellKey::one(idx, to)) as u32,
            code: self.code ^ ((from ^ to) as u128) << (2 * idx),
        }
    }

    /// The state at offset `idx`.
    fn state_at(&self, idx: usize) -> SiteState {
        SiteState::from_u8((self.code >> (2 * idx)) as u8 & 3)
    }
}

/// Most offsets a [`Shell`] code holds with the [`ShellMemo`] tag above
/// it: rate cutoffs below the sixth BCC shell (2·a0).
const SHELL_OFFSETS_MAX: usize = 63;

/// Sets of the [`ShellMemo`], a power of two.
const SHELL_MEMO_SETS: usize = 512;

/// Entries per set of the [`ShellMemo`].
const SHELL_MEMO_WAYS: usize = 2;

/// Site energies of shells with two or more non-Fe neighbours, by central
/// species, basis and full shell code: the shells the shell tables do not
/// hold, which still recur across a patch and across vacancies (a
/// divacancy, a vacancy beside a Cu atom). A bounded set-associative
/// table, `SHELL_MEMO_SETS × SHELL_MEMO_WAYS` entries of 24 B; a fixed
/// multiply-xorshift of the key names the set, and a set keeps its
/// entries most recently used first, so its counters repeat from run to
/// run. A miss computes through [`EnergyModel::shell_energy`], so an
/// answer is always that sum's bits and no result depends on a hit. The
/// solver's rate table owns it and binds it to one model, as it binds
/// itself.
#[derive(Debug, Clone)]
pub(crate) struct ShellMemo {
    /// Keys, `ways` per set, most recently used first; 0 marks an empty
    /// slot (a memoised shell has two non-Fe codes, so its key is not 0).
    /// Allocated by the first store.
    keys: Vec<u128>,
    /// The energy of each key's shell.
    energies: Vec<f64>,
    /// Sets, a power of two.
    sets: usize,
    /// Slots per set.
    ways: usize,
    /// Energies answered from the memo, ever: host telemetry, never reset.
    hits: u64,
    /// Energies computed through it, ever: likewise.
    misses: u64,
}

impl Default for ShellMemo {
    fn default() -> Self {
        Self::with_shape(SHELL_MEMO_SETS, SHELL_MEMO_WAYS)
    }
}

impl ShellMemo {
    fn with_shape(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two() && ways > 0);
        Self {
            keys: Vec::new(),
            energies: Vec::new(),
            sets,
            ways,
            hits: 0,
            misses: 0,
        }
    }

    /// Tests: a memo of one entry, so every other shell evicts.
    #[cfg(test)]
    pub(crate) fn one_slot() -> Self {
        Self::with_shape(1, 1)
    }

    /// Forgets every entry (the model changed).
    pub(crate) fn clear(&mut self) {
        self.keys.fill(0);
    }

    /// Energies answered from the memo so far.
    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }

    /// Energies computed through the memo so far.
    pub(crate) fn misses(&self) -> u64 {
        self.misses
    }

    /// The energy of a `me` atom on basis `b` with shell code `code`,
    /// from the memo or from `compute`.
    fn energy(
        &mut self,
        me: SiteState,
        b: usize,
        code: u128,
        compute: impl FnOnce() -> f64,
    ) -> f64 {
        let key = code | (me as u128) << 126 | (b as u128) << 127;
        debug_assert!(code >> 126 == 0 && code != 0);
        let mut h = (key as u64 ^ ((key >> 64) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 29;
        let set = (h ^ (h >> 32)) as usize & (self.sets - 1);
        if self.keys.is_empty() {
            self.keys.resize(self.sets * self.ways, 0);
            self.energies.resize(self.sets * self.ways, 0.0);
        }
        let range = set * self.ways..(set + 1) * self.ways;
        let (keys, energies) = (&mut self.keys[range.clone()], &mut self.energies[range]);
        let way = match keys.iter().position(|&k| k == key) {
            Some(way) => {
                self.hits += 1;
                way
            }
            None => {
                self.misses += 1;
                // The least recently used slot takes the new shell.
                let last = self.ways - 1;
                keys[last] = key;
                energies[last] = compute();
                last
            }
        };
        keys[..=way].rotate_right(1);
        energies[..=way].rotate_right(1);
        energies[0]
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
        assert!(
            lat.deltas.iter().all(|d| d.len() <= SHELL_OFFSETS_MAX),
            "a shell code holds at most {SHELL_OFFSETS_MAX} neighbour offsets"
        );
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
        let me = lat.state[s];
        if me == SiteState::Vacancy {
            return 0.0;
        }
        let shell = Shell::walk(&lat.state, &lat.deltas[s & 1], s);
        self.site_energy_with(me, s & 1, &shell, None).0
    }

    /// The energy of a `me` atom on basis `b` whose neighbours form
    /// `shell`, and whether the shell tables answered it. A shell with at
    /// most one non-Fe neighbour is a table entry; every other shell runs
    /// [`Self::shell_energy`], through `memo` when one is given.
    #[inline]
    pub(crate) fn site_energy_with(
        &self,
        me: SiteState,
        b: usize,
        shell: &Shell,
        memo: Option<&mut ShellMemo>,
    ) -> (f64, bool) {
        if shell.others <= 1 {
            return (self.shells[me as usize][b][shell.key as usize], true);
        }
        let sum = || {
            let embed = |me, rho| self.embed_energy(me, rho);
            self.shell_energy(me, b, |idx| shell.state_at(idx), embed)
        };
        let e = match memo {
            Some(memo) => memo.energy(me, b, shell.code, sum),
            None => sum(),
        };
        (e, false)
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
    pub(crate) fn site_energy_full_loop(&self, lat: &KmcLattice, s: usize) -> f64 {
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
    fn shell_memo_returns_the_sum_bits() {
        // Cu is given its own embedding function (the shipped model gives
        // Cu iron's, so the rate oracles cannot tell the species apart):
        // one code, two species and two bases are four shells.
        let (lat, mut m, _) = setup();
        m.embed[1] = CompactTable::build(|rho| 0.5 * rho - 1.0, 0.0, RHO_MAX, 100);
        m.shells = m.shell_tables();
        let offsets = lat.deltas[0].len();
        // Two non-Fe neighbours at least, so no shell table holds them.
        let codes: Vec<u128> = (0..6u32)
            .map(|i| {
                let at = |k: u32| (k as usize * 5 + 3) % offsets;
                let mut code = 2u128 << (2 * at(i)) | 1u128 << (2 * at(i + 1));
                code |= ((i % 3) as u128) << (2 * at(i + 2));
                code
            })
            .collect();
        let direct = |me: SiteState, b: usize, code: u128| {
            let shell = Shell {
                others: 2,
                key: 0,
                code,
            };
            m.site_energy_with(me, b, &shell, None).0
        };
        for (memo, want_hits) in [(ShellMemo::default(), true), (ShellMemo::one_slot(), false)] {
            let mut memo = memo;
            for round in 0..2 {
                for &code in &codes {
                    for me in [SiteState::Fe, SiteState::Cu] {
                        for b in 0..2 {
                            let shell = Shell {
                                others: 2,
                                key: 0,
                                code,
                            };
                            let (got, hit) = m.site_energy_with(me, b, &shell, Some(&mut memo));
                            assert!(!hit, "no shell table holds two non-Fe neighbours");
                            let want = direct(me, b, code);
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "{me:?}, basis {b}, round {round}"
                            );
                        }
                    }
                }
            }
            let lookups = 2 * codes.len() as u64 * 4;
            assert_eq!(memo.hits() + memo.misses(), lookups);
            if want_hits {
                assert_eq!(memo.hits(), lookups / 2, "the second round hits");
            } else {
                assert_eq!(memo.hits(), 0, "one slot holds one shell");
            }
        }
        assert_ne!(
            direct(SiteState::Fe, 0, codes[0]).to_bits(),
            direct(SiteState::Cu, 0, codes[0]).to_bits(),
            "the species must differ for the key to matter"
        );
    }

    #[test]
    fn a_replaced_shell_equals_the_walk_of_the_changed_lattice() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let states = [SiteState::Fe, SiteState::Cu, SiteState::Vacancy];
        for rate_cutoff in [3.0, 5.0] {
            let (mut lat, _) = oracle_box(4, rate_cutoff);
            let mut rng = StdRng::seed_from_u64(rate_cutoff.to_bits());
            for s in 0..lat.state.len() {
                lat.state[s] = states[rng.random_range(0..3usize)];
            }
            for b in 0..2 {
                let s = lat.grid.site_id(3, 3, 3, b);
                let deltas = lat.deltas[b].clone();
                for (i, &di) in deltas.iter().enumerate() {
                    // One neighbour, then that one and another, changed.
                    let j = (i * 7 + 1) % deltas.len();
                    let dj = deltas[j];
                    let before = Shell::walk(&lat.state, &deltas, s);
                    let (ni, nj) = ((s as isize + di) as usize, (s as isize + dj) as usize);
                    let (was_i, was_j) = (lat.state[ni], lat.state[nj]);
                    let (to_i, to_j) = (
                        states[rng.random_range(0..3usize)],
                        states[rng.random_range(0..3usize)],
                    );
                    lat.state[ni] = to_i;
                    let one = before.replace(Some(i as u8), was_i, to_i);
                    assert_eq!(
                        one,
                        Shell::walk(&lat.state, &deltas, s),
                        "cutoff {rate_cutoff}"
                    );
                    if j != i {
                        lat.state[nj] = to_j;
                        let two = one.replace(Some(j as u8), was_j, to_j);
                        assert_eq!(two, Shell::walk(&lat.state, &deltas, s));
                        assert_eq!(two.replace(None, was_j, to_j), two, "no offset, no change");
                    }
                    lat.state[nj] = was_j;
                    lat.state[ni] = was_i;
                }
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
                        let walked = Shell::walk(&lat.state, &lat.deltas[b], s);
                        let (got, hit) = m.site_energy_with(me, b, &walked, None);
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
            let mut memo = ShellMemo::default();
            for s in lat.grid.interior_ids() {
                let want = m.site_energy_full_loop(&lat, s).to_bits();
                let why = format!("cutoff {rate_cutoff}, Cu {cu}, vacancies {vac}, site {s}");
                assert_eq!(m.site_energy(&lat, s).to_bits(), want, "{why}");
                let me = lat.state[s];
                if me.is_atom() {
                    let shell = Shell::walk(&lat.state, &lat.deltas[s & 1], s);
                    let (got, hit) = m.site_energy_with(me, s & 1, &shell, Some(&mut memo));
                    assert_eq!(got.to_bits(), want, "{why}, through the memo");
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
