//! Cartesian process topology and domain decomposition.
//!
//! Both MD and KMC use "standard domain decomposition to equally
//! partition the simulation box" (§2): ranks form a 3-D grid, each owns a
//! box-shaped subdomain, and ghost exchange pairs each rank with its 6
//! face neighbours (or up to 26 with corners, which the KMC sector logic
//! needs).

use serde::{Deserialize, Serialize};

use crate::Rank;

/// A 3-D Cartesian grid of ranks with periodic boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CartGrid {
    /// Ranks along each axis.
    pub dims: [usize; 3],
}

impl CartGrid {
    /// Builds a grid with explicit dimensions.
    pub fn new(dims: [usize; 3]) -> Self {
        assert!(dims.iter().all(|&d| d > 0), "grid dims must be positive");
        Self { dims }
    }

    /// Factorises `p` into a near-cubic 3-D grid (like
    /// `MPI_Dims_create`): dims are non-increasing and their product is
    /// exactly `p`.
    pub fn for_ranks(p: usize) -> Self {
        assert!(p > 0);
        let mut best = [p, 1, 1];
        let mut best_score = usize::MAX;
        let mut a = 1;
        while a * a * a <= p {
            if p.is_multiple_of(a) {
                let q = p / a;
                let mut b = a;
                while b * b <= q {
                    if q.is_multiple_of(b) {
                        let c = q / b;
                        // surface-to-volume proxy: minimise sum of dims
                        let score = a + b + c;
                        if score < best_score {
                            best_score = score;
                            best = [c, b, a];
                        }
                    }
                    b += 1;
                }
            }
            a += 1;
        }
        Self::new(best)
    }

    /// Total number of ranks.
    pub fn len(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// True only for the degenerate 1-rank grid.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Converts a rank to grid coordinates (x fastest).
    pub fn coords(&self, rank: Rank) -> [usize; 3] {
        assert!(rank < self.len(), "rank {rank} outside grid");
        let x = rank % self.dims[0];
        let y = (rank / self.dims[0]) % self.dims[1];
        let z = rank / (self.dims[0] * self.dims[1]);
        [x, y, z]
    }

    /// Converts grid coordinates to a rank.
    pub fn rank_of(&self, c: [usize; 3]) -> Rank {
        debug_assert!(c[0] < self.dims[0] && c[1] < self.dims[1] && c[2] < self.dims[2]);
        c[0] + self.dims[0] * (c[1] + self.dims[1] * c[2])
    }

    /// The rank at offset `d` (each component in `-1..=1`, periodic wrap)
    /// from `rank`.
    pub fn neighbor(&self, rank: Rank, d: [i64; 3]) -> Rank {
        let c = self.coords(rank);
        let mut n = [0usize; 3];
        for i in 0..3 {
            let dim = self.dims[i] as i64;
            n[i] = ((c[i] as i64 + d[i]).rem_euclid(dim)) as usize;
        }
        self.rank_of(n)
    }

    /// The peers of one staged shift along `axis`: `rank` sends to its
    /// neighbour on the high side (`toward_high`) or the low side, and
    /// receives from the opposite one. Returns `(dst, src)`.
    pub fn shift_peers(&self, rank: Rank, axis: usize, toward_high: bool) -> (Rank, Rank) {
        let mut d = [0i64; 3];
        d[axis] = if toward_high { 1 } else { -1 };
        (self.neighbor(rank, d), self.neighbor(rank, d.map(|c| -c)))
    }

    /// Splits a global extent of `cells` along axis `axis` into this
    /// grid's `dims[axis]` contiguous chunks; returns `(start, len)` for
    /// chunk `idx`. Remainder cells go to the lowest-index chunks.
    pub fn split_extent(&self, cells: usize, axis: usize, idx: usize) -> (usize, usize) {
        let parts = self.dims[axis];
        assert!(idx < parts);
        let base = cells / parts;
        let rem = cells % parts;
        let len = base + usize::from(idx < rem);
        let start = idx * base + idx.min(rem);
        (start, len)
    }

    /// The subdomain of `rank` in a global grid of `cells` per axis:
    /// `([start; 3], [len; 3])`.
    pub fn subdomain(&self, cells: [usize; 3], rank: Rank) -> ([usize; 3], [usize; 3]) {
        let c = self.coords(rank);
        let mut start = [0; 3];
        let mut len = [0; 3];
        for axis in 0..3 {
            let (s, l) = self.split_extent(cells[axis], axis, c[axis]);
            start[axis] = s;
            len[axis] = l;
        }
        (start, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factorisation_is_exact_and_balanced() {
        for p in [1, 2, 3, 4, 6, 8, 12, 16, 27, 64, 100, 128, 1024] {
            let g = CartGrid::for_ranks(p);
            assert_eq!(g.len(), p, "product must equal p for p={p}");
        }
        assert_eq!(CartGrid::for_ranks(8).dims, [2, 2, 2]);
        assert_eq!(CartGrid::for_ranks(64).dims, [4, 4, 4]);
        let g = CartGrid::for_ranks(12).dims;
        assert_eq!(g[0] * g[1] * g[2], 12);
        assert!(g[0] <= 3 + 1); // near-cubic: 3,2,2
    }

    #[test]
    fn coords_rank_round_trip() {
        let g = CartGrid::new([3, 4, 5]);
        for r in 0..g.len() {
            assert_eq!(g.rank_of(g.coords(r)), r);
        }
    }

    #[test]
    fn periodic_neighbors() {
        let g = CartGrid::new([3, 1, 1]);
        assert_eq!(g.neighbor(0, [-1, 0, 0]), 2);
        assert_eq!(g.neighbor(2, [1, 0, 0]), 0);
        // y/z wrap to self in a 1-deep axis.
        assert_eq!(g.neighbor(1, [0, 1, 0]), 1);
        assert_eq!(g.neighbor(1, [0, 0, -1]), 1);
    }

    #[test]
    fn shift_peers_are_the_two_face_neighbours() {
        let g = CartGrid::new([2, 3, 1]);
        // Rank 1 sits at (1, 0, 0): high y is rank 3, low y wraps to 5.
        assert_eq!(g.shift_peers(1, 1, true), (3, 5));
        assert_eq!(g.shift_peers(1, 1, false), (5, 3));
        assert_eq!(g.shift_peers(1, 0, true), (0, 0));
        assert_eq!(g.shift_peers(1, 2, false), (1, 1));
    }

    #[test]
    fn split_extent_covers_everything() {
        let g = CartGrid::new([4, 1, 1]);
        let mut covered = 0;
        let mut next = 0;
        for i in 0..4 {
            let (s, l) = g.split_extent(10, 0, i);
            assert_eq!(s, next);
            next = s + l;
            covered += l;
        }
        assert_eq!(covered, 10);
        // Remainder goes to low indices: 3,3,2,2.
        assert_eq!(g.split_extent(10, 0, 0).1, 3);
        assert_eq!(g.split_extent(10, 0, 3).1, 2);
    }

    #[test]
    fn subdomains_partition_box() {
        let g = CartGrid::for_ranks(8);
        let cells = [10, 9, 7];
        let mut total = 0;
        for r in 0..8 {
            let (_, len) = g.subdomain(cells, r);
            total += len[0] * len[1] * len[2];
        }
        assert_eq!(total, 10 * 9 * 7);
    }
}
