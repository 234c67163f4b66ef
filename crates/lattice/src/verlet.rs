//! Verlet neighbour list baseline (LAMMPS-style, §2.1.1).
//!
//! "For neighbor list, each atom maintains a list to store all the
//! neighbor atoms within a distance which is equal to the cutoff radius
//! plus a skin distance. Thus, the memory consumption of neighbor list
//! is costly." This baseline exists (a) to property-test the lattice
//! neighbor list against, and (b) to quantify the memory claim of
//! Fig. 11 / §3.

use serde::{Deserialize, Serialize};

/// A classic per-atom neighbour list.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VerletList {
    /// Cutoff + skin used at build time.
    pub r_list: f64,
    /// Neighbour indices, concatenated.
    pub neighbors: Vec<u32>,
    /// Per-atom start offsets into `neighbors` (length n+1).
    pub starts: Vec<u32>,
    /// Positions snapshot at build time: what a skin-based rebuild
    /// check compares against, counted by [`VerletList::memory_bytes`].
    pub build_pos: Vec<[f64; 3]>,
}

impl VerletList {
    /// Builds the full list with a cell-assisted `O(N)` sweep over open
    /// (non-periodic) coordinates.
    pub fn build(pos: &[[f64; 3]], cutoff: f64, skin: f64) -> Self {
        let r_list = cutoff + skin;
        let n = pos.len();
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); n];
        if n > 0 {
            // Cell binning.
            let mut lo = [f64::INFINITY; 3];
            let mut hi = [f64::NEG_INFINITY; 3];
            for p in pos {
                for ax in 0..3 {
                    lo[ax] = lo[ax].min(p[ax]);
                    hi[ax] = hi[ax].max(p[ax]);
                }
            }
            let cell = r_list.max(1e-9);
            let dims: Vec<usize> = (0..3)
                .map(|ax| (((hi[ax] - lo[ax]) / cell).floor() as usize + 1).max(1))
                .collect();
            let cell_of = |p: &[f64; 3]| -> [usize; 3] {
                let mut c = [0usize; 3];
                for ax in 0..3 {
                    c[ax] = (((p[ax] - lo[ax]) / cell) as usize).min(dims[ax] - 1);
                }
                c
            };
            let mut bins: Vec<Vec<u32>> = vec![Vec::new(); dims[0] * dims[1] * dims[2]];
            let flat = |c: [usize; 3]| (c[2] * dims[1] + c[1]) * dims[0] + c[0];
            for (i, p) in pos.iter().enumerate() {
                bins[flat(cell_of(p))].push(i as u32);
            }
            let r2 = r_list * r_list;
            for (i, p) in pos.iter().enumerate() {
                let c = cell_of(p);
                for dz in -1i64..=1 {
                    for dy in -1i64..=1 {
                        for dx in -1i64..=1 {
                            let q = [c[0] as i64 + dx, c[1] as i64 + dy, c[2] as i64 + dz];
                            if q.iter().zip(&dims).any(|(&v, &d)| v < 0 || v >= d as i64) {
                                continue;
                            }
                            for &j in &bins[flat([q[0] as usize, q[1] as usize, q[2] as usize])] {
                                if j as usize == i {
                                    continue;
                                }
                                let pj = pos[j as usize];
                                let d2 = (p[0] - pj[0]).powi(2)
                                    + (p[1] - pj[1]).powi(2)
                                    + (p[2] - pj[2]).powi(2);
                                if d2 <= r2 {
                                    lists[i].push(j);
                                }
                            }
                        }
                    }
                }
            }
        }
        let mut starts = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::new();
        starts.push(0u32);
        for mut l in lists {
            l.sort_unstable();
            neighbors.extend_from_slice(&l);
            starts.push(neighbors.len() as u32);
        }
        Self {
            r_list,
            neighbors,
            starts,
            build_pos: pos.to_vec(),
        }
    }

    /// Number of atoms the list covers.
    pub fn n_atoms(&self) -> usize {
        self.starts.len() - 1
    }

    /// Neighbour indices of atom `i` (within cutoff+skin at build time).
    pub fn neighbors_of(&self, i: usize) -> &[u32] {
        let a = self.starts[i] as usize;
        let b = self.starts[i + 1] as usize;
        &self.neighbors[a..b]
    }

    /// Memory consumed by the structure (the paper's "costly" part).
    pub fn memory_bytes(&self) -> usize {
        self.neighbors.len() * 4 + self.starts.len() * 4 + self.build_pos.len() * 24
    }

    /// Mean neighbours per atom.
    pub fn mean_neighbors(&self) -> f64 {
        if self.n_atoms() == 0 {
            0.0
        } else {
            self.neighbors.len() as f64 / self.n_atoms() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_force(pos: &[[f64; 3]], r: f64) -> Vec<Vec<u32>> {
        let r2 = r * r;
        (0..pos.len())
            .map(|i| {
                (0..pos.len())
                    .filter(|&j| {
                        j != i && {
                            let d2 = (pos[i][0] - pos[j][0]).powi(2)
                                + (pos[i][1] - pos[j][1]).powi(2)
                                + (pos[i][2] - pos[j][2]).powi(2);
                            d2 <= r2
                        }
                    })
                    .map(|j| j as u32)
                    .collect()
            })
            .collect()
    }

    fn pseudo_positions(n: usize, scale: f64, seed: u64) -> Vec<[f64; 3]> {
        // Deterministic quasi-random points.
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * scale
        };
        (0..n).map(|_| [next(), next(), next()]).collect()
    }

    #[test]
    fn matches_brute_force() {
        let pos = pseudo_positions(200, 10.0, 42);
        let list = VerletList::build(&pos, 2.0, 0.5);
        let bf = brute_force(&pos, 2.5);
        for i in 0..pos.len() {
            assert_eq!(list.neighbors_of(i), &bf[i][..], "atom {i}");
        }
    }

    #[test]
    fn symmetric_pairs() {
        let pos = pseudo_positions(120, 8.0, 7);
        let list = VerletList::build(&pos, 2.2, 0.3);
        for i in 0..pos.len() {
            for &j in list.neighbors_of(i) {
                assert!(
                    list.neighbors_of(j as usize).contains(&(i as u32)),
                    "pair ({i},{j}) asymmetric"
                );
            }
        }
    }

    #[test]
    fn empty_input() {
        let list = VerletList::build(&[], 2.0, 0.5);
        assert_eq!(list.n_atoms(), 0);
        assert_eq!(list.mean_neighbors(), 0.0);
    }

    #[test]
    fn memory_scales_with_neighbors() {
        let sparse = VerletList::build(&pseudo_positions(100, 50.0, 1), 2.0, 0.5);
        let dense = VerletList::build(&pseudo_positions(100, 6.0, 1), 2.0, 0.5);
        assert!(dense.memory_bytes() > sparse.memory_bytes());
    }
}
