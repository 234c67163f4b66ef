//! On-lattice site states for AKMC.
//!
//! "AKMC uses an on-lattice approximation method to map each atom or
//! vacancy to a lattice point, and the atoms and vacancies are
//! uniformly named as 'sites'" (§2.2). We reuse the BCC grid machinery
//! of `mmds-lattice`; states are one byte per site, stored in the
//! grid's `(k, j, i, basis)` order, so the `i`/basis run of one `(k, j)`
//! row is one contiguous slice of [`KmcLattice::state`] — the fact the
//! full-ghost slab exchange (`crate::exchange`, DESIGN §6.21) packs by.
//!
//! Besides the states the lattice carries things derived from them or
//! from its geometry: the owned-vacancy index, which
//! [`KmcLattice::set_state`] keeps equal to
//! `{owned s : state[s] == Vacancy}` (every state write outside a rate
//! evaluation's swap-and-restore goes through it), the rate patch shapes
//! and footprints with the solver's recycled energy memo and its rate
//! cache, and the exchange's scratch — the recycled slab wire buffer and
//! the cell reach of one hop.

use std::collections::BTreeSet;

use mmds_lattice::neighbor_offsets::NeighborOffsets;
use mmds_lattice::LocalGrid;
use serde::{Deserialize, Serialize};

use crate::solver::{RateCache, RateMemo};

/// What occupies a lattice site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum SiteState {
    /// An iron atom.
    Fe = 0,
    /// A copper atom (alloy runs).
    Cu = 1,
    /// A vacancy.
    Vacancy = 2,
}

impl SiteState {
    /// True for any atom.
    pub fn is_atom(&self) -> bool {
        !matches!(self, SiteState::Vacancy)
    }

    /// Wire encoding.
    pub fn to_u8(self) -> u8 {
        self as u8
    }

    /// Wire decoding; panics on a byte that encodes no state.
    pub fn from_u8(v: u8) -> Self {
        Self::try_from_u8(v).unwrap_or_else(|| panic!("invalid site state {v}"))
    }

    /// Wire decoding of a byte from outside the program (checkpoints).
    pub fn try_from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(SiteState::Fe),
            1 => Some(SiteState::Cu),
            2 => Some(SiteState::Vacancy),
            _ => None,
        }
    }
}

/// Ghost width (in cells) a KMC lattice needs: rate evaluation swaps a
/// vacancy with a (possibly ghost) 1NN partner and recomputes the
/// energy of every site within the cutoff of either, each of which
/// scans its own cutoff neighbourhood — three reaches deep in the worst
/// case.
pub fn required_ghost(a0: f64, rate_cutoff: f64) -> usize {
    3 * NeighborOffsets::generate(a0, rate_cutoff).max_cell_reach()
}

/// A rank's KMC lattice: states + ghost shell + vacancy index.
#[derive(Debug, Clone)]
pub struct KmcLattice {
    /// The local grid (owned cells + ghost shell).
    pub grid: LocalGrid,
    /// Neighbour offsets within the rate cutoff.
    pub offsets: NeighborOffsets,
    /// Flat-index deltas per basis (rate cutoff).
    pub deltas: [Vec<isize>; 2],
    /// Flat-index deltas per basis, 1NN only (the event directions).
    pub nn1_deltas: [Vec<isize>; 2],
    /// Per-site state (ghosts included).
    pub state: Vec<SiteState>,
    /// Owned vacancies (sorted for deterministic iteration).
    vacancies: BTreeSet<usize>,
    /// Cell reach of one 1NN hop — how far beyond its sector an event
    /// can write (the depth of the traditional put slabs).
    pub(crate) event_reach: usize,
    /// The full-ghost exchange's wire buffer: whatever
    /// `KmcTransport::shift` returned last, kept to be the next send
    /// buffer, so the slab exchange allocates nothing in steady state.
    pub(crate) wire: Vec<u8>,
    /// Rate patch shapes per vacancy basis.
    pub(crate) patches: [PatchShapes; 2],
    /// The solver's per-vacancy energy memo, recycled like `wire`.
    pub(crate) memo: RateMemo,
    /// The solver's per-vacancy rates, valid while their footprint's
    /// states are.
    pub(crate) rate_cache: RateCache,
}

/// One site of a rate patch, as seen from the vacancy.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PatchSite {
    /// Flat-index delta from the vacancy.
    pub(crate) delta: isize,
    /// Index in the union of the vacancy basis's patches: the site's
    /// memo slot.
    pub(crate) slot: usize,
    /// Neither end of the swap and does not read the partner, so after
    /// the swap the site sees only the species that moved onto the
    /// vacancy: one energy serves every partner of that species.
    pub(crate) shared_after: bool,
}

/// The rate patches of a vacancy on one basis.
#[derive(Debug, Clone)]
pub(crate) struct PatchShapes {
    /// Per `nn1` direction, the patch `{v, n} ∪ N(v) ∪ N(n)` in
    /// ascending delta — the ascending site-id order of the sums.
    pub(crate) dirs: Vec<Vec<PatchSite>>,
    /// Distinct sites over all directions.
    pub(crate) union_len: usize,
    /// Every site a rate of the vacancy reads, in ascending delta: the
    /// union of the patches and their cutoff neighbours (169 sites at
    /// 3 Å, of the 686 in the Chebyshev cube the catalogue invalidates).
    pub(crate) footprint: Vec<isize>,
}

impl PatchShapes {
    fn build(b: usize, deltas: &[Vec<isize>; 2], nn1: &[isize]) -> Self {
        // Does the site at `from` read the site at `to` (both deltas)?
        let reads = |from: isize, to: isize| {
            let basis = ((b as isize + from) & 1) as usize;
            deltas[basis].contains(&(to - from))
        };
        let patches: Vec<Vec<isize>> = nn1
            .iter()
            .map(|&dn| {
                let mut p = vec![0, dn];
                p.extend(&deltas[b]);
                p.extend(deltas[1 - b].iter().map(|&d| dn + d));
                p.sort_unstable();
                p.dedup();
                p
            })
            .collect();
        let mut union = patches.concat();
        union.sort_unstable();
        union.dedup();
        let mut footprint: Vec<isize> = union
            .iter()
            .flat_map(|&p| {
                let basis = ((b as isize + p) & 1) as usize;
                std::iter::once(p).chain(deltas[basis].iter().map(move |&d| p + d))
            })
            .collect();
        footprint.sort_unstable();
        footprint.dedup();
        let dirs = patches
            .iter()
            .zip(nn1)
            .map(|(p, &dn)| {
                p.iter()
                    .map(|&delta| PatchSite {
                        delta,
                        slot: union
                            .binary_search(&delta)
                            .expect("a patch site is in the union"),
                        shared_after: delta != 0 && delta != dn && !reads(delta, dn),
                    })
                    .collect()
            })
            .collect();
        Self {
            dirs,
            union_len: union.len(),
            footprint,
        }
    }
}

impl KmcLattice {
    /// All-iron lattice.
    pub fn all_fe(grid: LocalGrid, rate_cutoff: f64) -> Self {
        let offsets = NeighborOffsets::generate(grid.global.a0, rate_cutoff);
        grid.validate_ghost(&offsets);
        let deltas = [
            grid.flat_deltas(&offsets.basis0, 0),
            grid.flat_deltas(&offsets.basis1, 1),
        ];
        let first_shell = [offsets.first_shell(0), offsets.first_shell(1)];
        let nn1_deltas = [
            grid.flat_deltas(&first_shell[0], 0),
            grid.flat_deltas(&first_shell[1], 1),
        ];
        let event_reach = first_shell
            .iter()
            .flatten()
            .flat_map(|o| {
                [
                    o.di.unsigned_abs(),
                    o.dj.unsigned_abs(),
                    o.dk.unsigned_abs(),
                ]
            })
            .max()
            .unwrap_or(1) as usize;
        let patches = [0, 1].map(|b| PatchShapes::build(b, &deltas, &nn1_deltas[b]));
        let n = grid.n_sites();
        Self {
            grid,
            offsets,
            deltas,
            nn1_deltas,
            state: vec![SiteState::Fe; n],
            vacancies: BTreeSet::new(),
            event_reach,
            wire: Vec::new(),
            patches,
            memo: RateMemo::default(),
            rate_cache: RateCache::default(),
        }
    }

    /// Number of stored sites.
    pub fn n_sites(&self) -> usize {
        self.state.len()
    }

    /// Owned sites.
    pub fn n_owned(&self) -> usize {
        self.grid.n_owned_sites()
    }

    /// Is this site's *local cell* interior (owned)?
    #[inline]
    pub fn is_owned(&self, s: usize) -> bool {
        let (i, j, k, _) = self.grid.decode(s);
        self.grid.is_interior(i, j, k)
    }

    /// Sets a site's state, maintaining the owned-vacancy index.
    pub fn set_state(&mut self, s: usize, st: SiteState) {
        self.state[s] = st;
        if self.is_owned(s) {
            if st == SiteState::Vacancy {
                self.vacancies.insert(s);
            } else {
                self.vacancies.remove(&s);
            }
        }
    }

    /// True if the owned-vacancy index equals
    /// `{owned s : state[s] == Vacancy}` — the invariant that makes
    /// re-writing a site's current state a no-op, which the slab unpack
    /// relies on to skip unchanged sites. O(sites): debug builds and
    /// tests only.
    pub(crate) fn vacancy_index_is_exact(&self) -> bool {
        let owned_vacancies = self
            .grid
            .interior_ids()
            .filter(|&s| self.state[s] == SiteState::Vacancy);
        // Both ascend: `interior_ids` walks (k, j, i, basis) like `site_id`.
        owned_vacancies.eq(self.vacancies())
    }

    /// Owned vacancies in deterministic (sorted) order.
    pub fn vacancies(&self) -> impl Iterator<Item = usize> + '_ {
        self.vacancies.iter().copied()
    }

    /// Owned vacancy count.
    pub fn n_vacancies(&self) -> usize {
        self.vacancies.len()
    }

    /// Seeds `n` vacancies at deterministic pseudo-random owned sites.
    pub fn seed_vacancies(&mut self, n: usize, seed: u64) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut owned: Vec<usize> = self.grid.interior_ids().collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        owned.shuffle(&mut rng);
        for &s in owned.iter().take(n) {
            self.set_state(s, SiteState::Vacancy);
        }
    }

    /// Seeds `n_total` vacancies at deterministic pseudo-random *global*
    /// sites; every rank calls this with the same `seed` and places the
    /// ones it owns, so the configuration is independent of the
    /// decomposition (fixed-box strong scaling compares identical
    /// systems at every rank count).
    pub fn seed_vacancies_global(&mut self, n_total: usize, seed: u64) -> usize {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dims = [
            self.grid.global.nx,
            self.grid.global.ny,
            self.grid.global.nz,
        ];
        let mut chosen = std::collections::BTreeSet::new();
        while chosen.len() < n_total.min(self.grid.global.n_sites()) {
            let g = [
                rng.random_range(0..dims[0]),
                rng.random_range(0..dims[1]),
                rng.random_range(0..dims[2]),
            ];
            let b = rng.random_range(0..2usize);
            chosen.insert((g, b));
        }
        let mut placed = 0;
        for (g, b) in chosen {
            if let Some(s) = self.global_to_local(g, b) {
                if self.is_owned(s) {
                    self.set_state(s, SiteState::Vacancy);
                    placed += 1;
                }
            }
        }
        placed
    }

    /// Seeds `n_total` substitutional Cu solutes at deterministic
    /// pseudo-random global sites (skipping non-Fe sites), same-seed
    /// consistent across ranks like [`Self::seed_vacancies_global`].
    pub fn seed_solutes_global(&mut self, n_total: usize, seed: u64) -> usize {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dims = [
            self.grid.global.nx,
            self.grid.global.ny,
            self.grid.global.nz,
        ];
        let mut chosen = std::collections::BTreeSet::new();
        let mut guard = 0;
        while chosen.len() < n_total.min(self.grid.global.n_sites()) && guard < 100 * n_total + 100
        {
            guard += 1;
            let g = [
                rng.random_range(0..dims[0]),
                rng.random_range(0..dims[1]),
                rng.random_range(0..dims[2]),
            ];
            let b = rng.random_range(0..2usize);
            chosen.insert((g, b));
        }
        let mut placed = 0;
        for (g, b) in chosen {
            if let Some(s) = self.global_to_local(g, b) {
                if self.is_owned(s) && self.state[s] == SiteState::Fe {
                    self.set_state(s, SiteState::Cu);
                    placed += 1;
                }
            }
        }
        placed
    }

    /// Places vacancies at the given owned sites (e.g. from MD output).
    pub fn set_vacancies(&mut self, sites: &[usize]) {
        for &s in sites {
            self.set_state(s, SiteState::Vacancy);
        }
    }

    /// The 8 first-neighbour site ids of `s`.
    #[inline]
    pub fn nn1(&self, s: usize) -> impl Iterator<Item = usize> + '_ {
        self.nn1_deltas[s & 1]
            .iter()
            .map(move |&d| (s as isize + d) as usize)
    }

    /// All rate-cutoff neighbour site ids of `s`.
    #[inline]
    pub fn neighbors(&self, s: usize) -> impl Iterator<Item = usize> + '_ {
        self.deltas[s & 1]
            .iter()
            .map(move |&d| (s as isize + d) as usize)
    }

    /// Maps a *global* site (canonical cell + basis) to local storage
    /// coordinates if it lies within the stored region (owned or ghost),
    /// taking periodic wrap into account.
    pub fn global_to_local(&self, gcell: [usize; 3], basis: usize) -> Option<usize> {
        let dims = self.grid.dims();
        let global_dims = [
            self.grid.global.nx,
            self.grid.global.ny,
            self.grid.global.nz,
        ];
        let mut local = [0usize; 3];
        for ax in 0..3 {
            let raw = gcell[ax] as i64 - self.grid.start[ax] as i64 + self.grid.ghost as i64;
            // Try the three periodic images; exactly one can be in range
            // for subdomains larger than the ghost width.
            let candidates = [
                raw,
                raw + global_dims[ax] as i64,
                raw - global_dims[ax] as i64,
            ];
            let hit = candidates
                .into_iter()
                .find(|&c| c >= 0 && (c as usize) < dims[ax])?;
            local[ax] = hit as usize;
        }
        Some(self.grid.site_id(local[0], local[1], local[2], basis))
    }

    /// Inverse of [`Self::global_to_local`]: the canonical global cell
    /// and basis of a stored site.
    pub fn local_to_global(&self, s: usize) -> ([usize; 3], usize) {
        let (i, j, k, b) = self.grid.decode(s);
        (self.grid.global_cell(i, j, k), b)
    }

    /// Position of a site (lattice point, Å; ghost images unwrapped).
    pub fn position(&self, s: usize) -> [f64; 3] {
        let (i, j, k, b) = self.grid.decode(s);
        self.grid.site_position(i, j, k, b)
    }

    /// Vacancy concentration among owned sites.
    pub fn vacancy_concentration(&self) -> f64 {
        self.n_vacancies() as f64 / self.n_owned() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmds_lattice::BccGeometry;

    fn lat() -> KmcLattice {
        let grid = LocalGrid::whole(BccGeometry::fe_cube(6), 2);
        KmcLattice::all_fe(grid, 3.0)
    }

    #[test]
    fn starts_all_iron() {
        let l = lat();
        assert_eq!(l.n_vacancies(), 0);
        assert!(l.state.iter().all(|s| *s == SiteState::Fe));
    }

    #[test]
    fn state_round_trip() {
        for v in [SiteState::Fe, SiteState::Cu, SiteState::Vacancy] {
            assert_eq!(SiteState::from_u8(v.to_u8()), v);
        }
    }

    #[test]
    fn vacancy_index_tracks_set_state() {
        let mut l = lat();
        let s = l.grid.site_id(3, 3, 3, 0);
        l.set_state(s, SiteState::Vacancy);
        assert_eq!(l.n_vacancies(), 1);
        assert_eq!(l.vacancies().next(), Some(s));
        l.set_state(s, SiteState::Fe);
        assert_eq!(l.n_vacancies(), 0);
    }

    #[test]
    fn ghost_vacancies_not_indexed() {
        let mut l = lat();
        let ghost = l.grid.site_id(0, 3, 3, 0);
        l.set_state(ghost, SiteState::Vacancy);
        assert_eq!(l.n_vacancies(), 0);
        assert_eq!(l.state[ghost], SiteState::Vacancy);
    }

    #[test]
    fn nn1_has_8_entries() {
        let l = lat();
        let s = l.grid.site_id(3, 3, 3, 1);
        assert_eq!(l.nn1(s).count(), 8);
        // 1NN+2NN within 3.0 Å: 8 + 6 = 14.
        assert_eq!(l.neighbors(s).count(), 14);
    }

    #[test]
    fn seed_vacancies_deterministic() {
        let mut a = lat();
        let mut b = lat();
        a.seed_vacancies(10, 42);
        b.seed_vacancies(10, 42);
        assert_eq!(
            a.vacancies().collect::<Vec<_>>(),
            b.vacancies().collect::<Vec<_>>()
        );
        assert_eq!(a.n_vacancies(), 10);
        assert!((a.vacancy_concentration() - 10.0 / 432.0).abs() < 1e-12);
    }

    #[test]
    fn global_local_round_trip() {
        let l = lat();
        for s in [
            l.grid.site_id(2, 2, 2, 0),
            l.grid.site_id(5, 3, 4, 1),
            l.grid.site_id(0, 0, 0, 0), // ghost corner
            l.grid.site_id(9, 9, 9, 1), // ghost corner
        ] {
            let (g, b) = l.local_to_global(s);
            let back = l.global_to_local(g, b).unwrap();
            // Ghost corners map to their canonical interior image, which
            // for a whole-box grid is the interior site, not the ghost.
            let (gi, gb) = l.local_to_global(back);
            assert_eq!((gi, gb), (g, b));
        }
    }
}
