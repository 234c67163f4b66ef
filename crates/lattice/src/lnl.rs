//! The lattice neighbor list (paper §2.1.1, Figs. 2–3).
//!
//! Atom information is stored in one flat array indexed by lattice site;
//! neighbours are found by *static index offsets*. When an atom runs
//! away from its lattice point, the entry becomes a **vacancy** (ID made
//! negative) and the atom's record moves to a pool of run-away atoms
//! organised as **linked lists anchored at the nearest lattice point** —
//! the paper's improvement over Crystal MD's fixed array, giving dynamic
//! capacity and `O(N)` neighbour search among run-aways.

use serde::{Deserialize, Serialize};

use crate::grid::LocalGrid;
use crate::neighbor_offsets::NeighborOffsets;

/// What currently occupies a lattice site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteKind {
    /// A (near-lattice) atom.
    Atom,
    /// A vacancy left behind by a run-away atom.
    Vacancy,
}

/// A run-away atom record, linked to its nearest lattice site.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RunawayAtom {
    /// Original atom id (non-negative).
    pub id: i64,
    /// Position (unwrapped local frame, Å).
    pub pos: [f64; 3],
    /// Velocity (Å/ps).
    pub vel: [f64; 3],
    /// Accumulated force (eV/Å).
    pub force: [f64; 3],
    /// Electron density at the atom.
    pub rho: f64,
    /// Embedding derivative F'(ρ).
    pub fp: f64,
    /// Next record in the chain (-1 terminates).
    pub next: i32,
    /// Site the record is anchored to.
    pub home: u32,
    /// False once removed (recycled via the free list).
    pub alive: bool,
    /// True for ghost copies mirrored from a neighbouring subdomain (or
    /// periodic image); cleared and rebuilt on every ghost exchange.
    pub ghost: bool,
}

/// The lattice neighbor list for one rank's subdomain.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatticeNeighborList {
    /// The local grid (owned cells + ghost shell).
    pub grid: LocalGrid,
    /// Neighbour offset tables.
    pub offsets: NeighborOffsets,
    deltas: [Vec<isize>; 2],
    /// Per basis, the entries of `deltas` that point to a higher site
    /// index, in offset order.
    forward: [Vec<isize>; 2],
    nn1_deltas: [Vec<isize>; 2],
    /// Per-site ownership: true for interior sites, false for ghosts.
    owned: Vec<bool>,
    /// Per-site atom id; negative values mark vacancies (paper Fig. 3).
    pub id: Vec<i64>,
    /// Per-site atom position (Å, unwrapped local frame).
    pub pos: Vec<[f64; 3]>,
    /// Per-site velocity (Å/ps).
    pub vel: Vec<[f64; 3]>,
    /// Per-site force accumulator (eV/Å).
    pub force: Vec<[f64; 3]>,
    /// Per-site electron density ρ_i.
    pub rho: Vec<f64>,
    /// Per-site embedding derivative F'(ρ_i).
    pub fp: Vec<f64>,
    /// Head of the run-away chain anchored at each site (-1 = none).
    pub head: Vec<i32>,
    pool: Vec<RunawayAtom>,
    free: Vec<u32>,
    n_runaways: usize,
    ghost_epoch: u64,
    /// The ghost exchange's wire buffer: whatever the last slab shift
    /// returned, kept to be the next send buffer, so the exchange
    /// allocates nothing in steady state. Scratch, not state: a
    /// checkpoint neither writes nor reads it.
    #[serde(skip)]
    pub wire: Vec<u8>,
    /// Staging for passes over the live run-aways that read the whole
    /// list while they compute and write each record afterwards (the
    /// offload's MPE run-away passes): the values, in
    /// [`Self::live_runaways`] order. Recycled, so such a pass allocates
    /// nothing in steady state. Scratch, not state, like `wire`.
    #[serde(skip)]
    pub runaway_stage: Vec<f64>,
}

impl LatticeNeighborList {
    /// Builds a perfect lattice: every site holds an atom at its lattice
    /// point with zero velocity. Atom ids are the flat site indices.
    pub fn perfect(grid: LocalGrid, cutoff: f64) -> Self {
        let offsets = NeighborOffsets::generate(grid.global.a0, cutoff);
        grid.validate_ghost(&offsets);
        let n = grid.n_sites();
        let mut pos = vec![[0.0; 3]; n];
        let mut id = vec![0i64; n];
        for s in 0..n {
            let (i, j, k, b) = grid.decode(s);
            pos[s] = grid.site_position(i, j, k, b);
            id[s] = s as i64;
        }
        let deltas = [
            grid.flat_deltas(&offsets.basis0, 0),
            grid.flat_deltas(&offsets.basis1, 1),
        ];
        let nn1_deltas = [
            grid.flat_deltas(&offsets.first_shell(0), 0),
            grid.flat_deltas(&offsets.first_shell(1), 1),
        ];
        let forward = deltas
            .clone()
            .map(|ds| ds.into_iter().filter(|&d| d > 0).collect());
        let mut owned = vec![false; n];
        for s in grid.interior_ids() {
            owned[s] = true;
        }
        Self {
            grid,
            offsets,
            deltas,
            forward,
            nn1_deltas,
            owned,
            id,
            pos,
            vel: vec![[0.0; 3]; n],
            force: vec![[0.0; 3]; n],
            rho: vec![0.0; n],
            fp: vec![0.0; n],
            head: vec![-1; n],
            pool: Vec::new(),
            free: Vec::new(),
            n_runaways: 0,
            ghost_epoch: 0,
            wire: Vec::new(),
            runaway_stage: Vec::new(),
        }
    }

    /// Number of stored sites.
    pub fn n_sites(&self) -> usize {
        self.id.len()
    }

    /// Kind of site `s`.
    #[inline]
    pub fn kind(&self, s: usize) -> SiteKind {
        if self.id[s] < 0 {
            SiteKind::Vacancy
        } else {
            SiteKind::Atom
        }
    }

    /// True if site `s` is a vacancy.
    #[inline]
    pub fn is_vacancy(&self, s: usize) -> bool {
        self.id[s] < 0
    }

    /// Flat-index deltas to every cutoff neighbour of a site with the
    /// basis of `s`. Valid for sites at least `max_cell_reach` cells
    /// from the storage edge (all interior sites).
    #[inline]
    pub fn neighbor_deltas(&self, s: usize) -> &[isize] {
        &self.deltas[s & 1]
    }

    /// The [`Self::neighbor_deltas`] of `s` that point to a higher site
    /// index, in offset order. The offset set is symmetric, so each
    /// unordered pair of neighbouring sites is a forward delta of its
    /// lower end only.
    #[inline]
    pub fn forward_deltas(&self, s: usize) -> &[isize] {
        &self.forward[s & 1]
    }

    /// True if site `s` is owned (interior), false for a ghost site.
    #[inline]
    pub fn is_owned(&self, s: usize) -> bool {
        self.owned[s]
    }

    /// Flat-index deltas to the 8 first-nearest neighbours of `s`.
    #[inline]
    pub fn nn1_deltas(&self, s: usize) -> &[isize] {
        &self.nn1_deltas[s & 1]
    }

    /// Iterates the cutoff-neighbour site ids of `s`.
    pub fn neighbor_ids(&self, s: usize) -> impl Iterator<Item = usize> + '_ {
        self.neighbor_deltas(s)
            .iter()
            .map(move |&d| (s as isize + d) as usize)
    }

    // ------------------------------------------------------------------
    // Vacancies and run-away atoms
    // ------------------------------------------------------------------

    /// Turns site `s` into a vacancy, returning the displaced atom id.
    /// The paper's encoding: the ID becomes negative; we use
    /// `-(id + 1)` so it stays recoverable.
    pub fn make_vacancy(&mut self, s: usize) -> i64 {
        let old = self.id[s];
        assert!(old >= 0, "site {s} is already a vacancy");
        self.id[s] = -(old + 1);
        // The vacancy "position" is the lattice point (used by KMC).
        let (i, j, k, b) = self.grid.decode(s);
        self.pos[s] = self.grid.site_position(i, j, k, b);
        self.vel[s] = [0.0; 3];
        old
    }

    /// Fills vacancy `s` with an atom (a run-away moving back onto the
    /// lattice, or ghost-unpacking). Overwrites the vacancy record.
    pub fn occupy(&mut self, s: usize, id: i64, pos: [f64; 3], vel: [f64; 3]) {
        assert!(self.id[s] < 0, "occupy() on a filled site {s}");
        assert!(id >= 0);
        self.id[s] = id;
        self.pos[s] = pos;
        self.vel[s] = vel;
    }

    /// Anchors a new run-away atom record at site `home`. Returns the
    /// pool index.
    pub fn add_runaway(&mut self, home: usize, id: i64, pos: [f64; 3], vel: [f64; 3]) -> u32 {
        self.add_runaway_impl(home, id, pos, vel, false)
    }

    /// Anchors a *ghost* run-away record (a mirrored copy from a
    /// neighbouring subdomain); excluded from [`Self::n_runaways`] and
    /// [`Self::live_runaways`], removed by [`Self::clear_ghost_runaways`].
    pub fn add_ghost_runaway(&mut self, home: usize, id: i64, pos: [f64; 3], vel: [f64; 3]) -> u32 {
        self.add_runaway_impl(home, id, pos, vel, true)
    }

    fn add_runaway_impl(
        &mut self,
        home: usize,
        id: i64,
        pos: [f64; 3],
        vel: [f64; 3],
        ghost: bool,
    ) -> u32 {
        assert!(id >= 0);
        let rec = RunawayAtom {
            id,
            pos,
            vel,
            force: [0.0; 3],
            rho: 0.0,
            fp: 0.0,
            next: self.head[home],
            home: home as u32,
            alive: true,
            ghost,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.pool[i as usize] = rec;
                i
            }
            None => {
                self.pool.push(rec);
                (self.pool.len() - 1) as u32
            }
        };
        self.head[home] = idx as i32;
        if ghost {
            self.ghost_epoch += 1;
        } else {
            self.n_runaways += 1;
        }
        idx
    }

    /// Unlinks and frees run-away record `idx`, returning it.
    pub fn remove_runaway(&mut self, idx: u32) -> RunawayAtom {
        let rec = self.pool[idx as usize];
        assert!(rec.alive, "double free of run-away {idx}");
        let home = rec.home as usize;
        // Unlink from the chain.
        if self.head[home] == idx as i32 {
            self.head[home] = rec.next;
        } else {
            let mut cur = self.head[home];
            loop {
                assert!(cur >= 0, "run-away {idx} not in its home chain");
                let nxt = self.pool[cur as usize].next;
                if nxt == idx as i32 {
                    self.pool[cur as usize].next = rec.next;
                    break;
                }
                cur = nxt;
            }
        }
        self.pool[idx as usize].alive = false;
        self.free.push(idx);
        if rec.ghost {
            self.ghost_epoch += 1;
        } else {
            self.n_runaways -= 1;
        }
        rec
    }

    /// Removes every ghost run-away record (start of a ghost refresh).
    /// Removals run in pool order, so the free list is the same however
    /// the records are chained.
    pub fn clear_ghost_runaways(&mut self) {
        for idx in 0..self.pool.len() as u32 {
            let rec = &self.pool[idx as usize];
            if rec.alive && rec.ghost {
                self.remove_runaway(idx);
            }
        }
    }

    /// Re-anchors run-away `idx` to a new home site (it moved).
    pub fn rehome_runaway(&mut self, idx: u32, new_home: usize) {
        let rec = self.remove_runaway(idx);
        let new_idx = self.add_runaway(new_home, rec.id, rec.pos, rec.vel);
        debug_assert_eq!(new_idx, idx, "free-list returns the freed slot");
    }

    /// The run-away chain anchored at site `s` (pool indices).
    pub fn chain(&self, s: usize) -> ChainIter<'_> {
        ChainIter {
            pool: &self.pool,
            cur: self.head[s],
        }
    }

    /// Read access to a pool record.
    pub fn runaway(&self, idx: u32) -> &RunawayAtom {
        &self.pool[idx as usize]
    }

    /// Write access to a pool record.
    pub fn runaway_mut(&mut self, idx: u32) -> &mut RunawayAtom {
        &mut self.pool[idx as usize]
    }

    /// Counts every ghost run-away record added or removed: pool
    /// indices of ghost records are stable while it holds still (a
    /// position ghost exchange rebuilds them; an F' exchange does not).
    pub fn ghost_epoch(&self) -> u64 {
        self.ghost_epoch
    }

    /// Live run-away count.
    pub fn n_runaways(&self) -> usize {
        self.n_runaways
    }

    /// Run-away pool slots, live or free: every pool index is below it.
    pub fn runaway_slots(&self) -> usize {
        self.pool.len()
    }

    /// Indices of all live, non-ghost run-aways.
    pub fn live_runaways(&self) -> Vec<u32> {
        self.live_runaway_ids().collect()
    }

    /// [`Self::live_runaways`] without collecting them.
    pub fn live_runaway_ids(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.pool.len() as u32)
            .filter(|&i| self.pool[i as usize].alive && !self.pool[i as usize].ghost)
    }

    /// The live, non-ghost run-away records, in [`Self::live_runaways`]
    /// order.
    pub fn live_runaways_mut(&mut self) -> impl Iterator<Item = &mut RunawayAtom> {
        self.pool.iter_mut().filter(|r| r.alive && !r.ghost)
    }

    /// Nearest *storage* site to a position, if it falls inside the
    /// stored region (owned + ghost).
    pub fn nearest_local_site(&self, p: [f64; 3]) -> Option<usize> {
        let a0 = self.grid.global.a0;
        let d = self.grid.dims();
        let mut best: Option<(f64, usize)> = None;
        for b in 0..2usize {
            let h = 0.5 * b as f64;
            let mut c = [0i64; 3];
            let mut d2 = 0.0;
            for ax in 0..3 {
                // Local storage cell index.
                let u = p[ax] / a0 - h - self.grid.start[ax] as f64 + self.grid.ghost as f64;
                let r = u.round();
                c[ax] = r as i64;
                let delta = (u - r) * a0;
                d2 += delta * delta;
            }
            if (0..3).all(|ax| c[ax] >= 0 && (c[ax] as usize) < d[ax]) {
                let s = self
                    .grid
                    .site_id(c[0] as usize, c[1] as usize, c[2] as usize, b);
                if best.is_none_or(|(bd, _)| d2 < bd) {
                    best = Some((d2, s));
                }
            }
        }
        best.map(|(_, s)| s)
    }

    /// Counts interior vacancies.
    pub fn n_vacancies(&self) -> usize {
        self.grid
            .interior_ids()
            .filter(|&s| self.is_vacancy(s))
            .count()
    }

    /// Bytes of atom storage: the per-site arrays and the run-away pool
    /// (the quantity behind the paper's capacity claim; see
    /// [`crate::memory`]). The index tables derived from the grid — the
    /// flat deltas and the ownership mask — are not counted.
    pub fn memory_bytes(&self) -> usize {
        let per_site = 8  // id
            + 24 // pos
            + 24 // vel
            + 24 // force
            + 8  // rho
            + 8  // fp
            + 4; // head
        self.n_sites() * per_site + self.pool.len() * std::mem::size_of::<RunawayAtom>()
    }
}

/// Iterator over a run-away chain.
pub struct ChainIter<'a> {
    pool: &'a [RunawayAtom],
    cur: i32,
}

impl<'a> Iterator for ChainIter<'a> {
    type Item = (u32, &'a RunawayAtom);
    fn next(&mut self) -> Option<Self::Item> {
        if self.cur < 0 {
            return None;
        }
        let idx = self.cur as u32;
        let rec = &self.pool[idx as usize];
        self.cur = rec.next;
        Some((idx, rec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bcc::BccGeometry;

    fn lnl() -> LatticeNeighborList {
        let grid = LocalGrid::whole(BccGeometry::fe_cube(6), 2);
        LatticeNeighborList::perfect(grid, 5.0)
    }

    #[test]
    fn the_wire_buffer_is_not_serialised() {
        use serde::{Deserialize, Serialize};
        let mut l = lnl();
        l.wire = vec![7; 64];
        l.runaway_stage = vec![0.5; 8];
        let v = l.to_value();
        assert!(v.get("wire").is_none() && v.get("ghost_epoch").is_some());
        assert!(v.get("runaway_stage").is_none());
        let back = LatticeNeighborList::from_value(&v).unwrap();
        assert!(back.wire.is_empty() && back.runaway_stage.is_empty());
        assert_eq!(back.id, l.id);
    }

    #[test]
    fn perfect_lattice_all_atoms() {
        let l = lnl();
        assert_eq!(l.n_vacancies(), 0);
        assert_eq!(l.n_runaways(), 0);
        for s in 0..l.n_sites() {
            assert_eq!(l.kind(s), SiteKind::Atom);
        }
    }

    #[test]
    fn neighbor_ids_are_at_ideal_distances() {
        let l = lnl();
        let s = l.grid.site_id(4, 4, 4, 1);
        let p0 = l.pos[s];
        let mut count = 0;
        for (nid, off) in l.neighbor_ids(s).zip(l.offsets.for_basis(1)) {
            let p = l.pos[nid];
            let d =
                ((p[0] - p0[0]).powi(2) + (p[1] - p0[1]).powi(2) + (p[2] - p0[2]).powi(2)).sqrt();
            assert!((d - off.r_ideal).abs() < 1e-9);
            count += 1;
        }
        assert_eq!(count, 58);
    }

    #[test]
    fn forward_deltas_hold_each_pair_once() {
        let l = lnl();
        let interior: Vec<usize> = l.grid.interior_ids().collect();
        for &s in &interior {
            let nbrs: Vec<usize> = l.neighbor_ids(s).collect();
            for &t in &nbrs {
                // Exactly one end of each pair holds it as a forward
                // delta: the lower-indexed one.
                let d = t as isize - s as isize;
                assert_eq!(l.forward_deltas(s).contains(&d), t > s);
                assert_eq!(l.forward_deltas(t).contains(&-d), s > t);
            }
        }
        assert_eq!(l.owned.iter().filter(|&&o| o).count(), interior.len());
        assert!(interior.iter().all(|&s| l.is_owned(s)));
    }

    #[test]
    fn vacancy_round_trip() {
        let mut l = lnl();
        let s = l.grid.site_id(5, 5, 5, 0);
        let old = l.make_vacancy(s);
        assert!(l.is_vacancy(s));
        assert_eq!(l.n_vacancies(), 1);
        l.occupy(s, old, l.pos[s], [1.0, 0.0, 0.0]);
        assert!(!l.is_vacancy(s));
        assert_eq!(l.n_vacancies(), 0);
    }

    #[test]
    #[should_panic(expected = "already a vacancy")]
    fn double_vacancy_rejected() {
        let mut l = lnl();
        let s = l.grid.site_id(5, 5, 5, 0);
        l.make_vacancy(s);
        l.make_vacancy(s);
    }

    #[test]
    fn runaway_chain_push_and_iterate() {
        let mut l = lnl();
        let home = l.grid.site_id(4, 4, 4, 0);
        let i1 = l.add_runaway(home, 1001, [1.0, 2.0, 3.0], [0.0; 3]);
        let i2 = l.add_runaway(home, 1002, [1.1, 2.1, 3.1], [0.0; 3]);
        assert_eq!(l.n_runaways(), 2);
        let ids: Vec<i64> = l.chain(home).map(|(_, r)| r.id).collect();
        assert_eq!(ids, vec![1002, 1001]); // LIFO chain
        l.remove_runaway(i1);
        let ids: Vec<i64> = l.chain(home).map(|(_, r)| r.id).collect();
        assert_eq!(ids, vec![1002]);
        l.remove_runaway(i2);
        assert_eq!(l.n_runaways(), 0);
        assert!(l.chain(home).next().is_none());
    }

    #[test]
    fn remove_middle_of_chain() {
        let mut l = lnl();
        let home = l.grid.site_id(4, 4, 4, 1);
        let _a = l.add_runaway(home, 1, [0.0; 3], [0.0; 3]);
        let b = l.add_runaway(home, 2, [0.0; 3], [0.0; 3]);
        let _c = l.add_runaway(home, 3, [0.0; 3], [0.0; 3]);
        l.remove_runaway(b);
        let ids: Vec<i64> = l.chain(home).map(|(_, r)| r.id).collect();
        assert_eq!(ids, vec![3, 1]);
    }

    #[test]
    fn free_list_recycles_slots() {
        let mut l = lnl();
        let home = l.grid.site_id(3, 3, 3, 0);
        let a = l.add_runaway(home, 1, [0.0; 3], [0.0; 3]);
        l.remove_runaway(a);
        let b = l.add_runaway(home, 2, [0.0; 3], [0.0; 3]);
        assert_eq!(a, b, "slot reused");
    }

    #[test]
    fn rehome_moves_chain_membership() {
        let mut l = lnl();
        let h1 = l.grid.site_id(3, 3, 3, 0);
        let h2 = l.grid.site_id(4, 3, 3, 0);
        let idx = l.add_runaway(h1, 7, [0.0; 3], [0.0; 3]);
        l.rehome_runaway(idx, h2);
        assert!(l.chain(h1).next().is_none());
        assert_eq!(l.chain(h2).next().unwrap().1.id, 7);
        assert_eq!(l.n_runaways(), 1);
    }

    #[test]
    fn nearest_local_site_matches_position() {
        let l = lnl();
        for &(i, j, k, b) in &[(2usize, 3usize, 4usize, 0usize), (5, 5, 5, 1), (2, 2, 2, 0)] {
            let p = l.grid.site_position(i, j, k, b);
            let s = l.nearest_local_site(p).unwrap();
            assert_eq!(s, l.grid.site_id(i, j, k, b));
            // Displaced by less than half 1NN still maps home.
            let q = [p[0] + 0.6, p[1] - 0.5, p[2] + 0.4];
            assert_eq!(l.nearest_local_site(q).unwrap(), s);
        }
    }

    #[test]
    fn memory_grows_with_runaways_only_slightly() {
        let mut l = lnl();
        let base = l.memory_bytes();
        let home = l.grid.site_id(4, 4, 4, 0);
        for i in 0..10 {
            l.add_runaway(home, 100 + i, [0.0; 3], [0.0; 3]);
        }
        let grown = l.memory_bytes();
        assert!(grown > base);
        assert!(grown - base < 10 * 200, "pool records are compact");
    }

    #[test]
    fn unbounded_runaway_capacity() {
        // The paper's motivation for linked lists over Crystal MD's
        // array: the number of run-aways may exceed any fixed size.
        let mut l = lnl();
        let home = l.grid.site_id(4, 4, 4, 0);
        for i in 0..10_000 {
            l.add_runaway(home, i, [0.0; 3], [0.0; 3]);
        }
        assert_eq!(l.n_runaways(), 10_000);
        assert_eq!(l.chain(home).count(), 10_000);
    }
}
