//! Body-centered cubic geometry.
//!
//! Each cubic cell of side `a0` carries two lattice sites (Fig. 1):
//! basis 0 at the cell corner and basis 1 at the cube centre. Site
//! coordinates are `(i + b/2, j + b/2, k + b/2) · a0`.

use serde::{Deserialize, Serialize};

/// BCC lattice over `nx × ny × nz` cubic cells.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BccGeometry {
    /// Lattice constant (Å).
    pub a0: f64,
    /// Cells along x.
    pub nx: usize,
    /// Cells along y.
    pub ny: usize,
    /// Cells along z.
    pub nz: usize,
}

impl BccGeometry {
    /// Creates a geometry.
    pub fn new(a0: f64, nx: usize, ny: usize, nz: usize) -> Self {
        assert!(a0 > 0.0 && nx > 0 && ny > 0 && nz > 0);
        Self { a0, nx, ny, nz }
    }

    /// Cubic geometry of `n` cells per axis with the paper's Fe lattice
    /// constant 2.855 Å.
    pub fn fe_cube(n: usize) -> Self {
        Self::new(2.855, n, n, n)
    }

    /// Number of cells.
    pub fn n_cells(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Number of lattice sites (2 per cell).
    pub fn n_sites(&self) -> usize {
        2 * self.n_cells()
    }

    /// Simulation box edge lengths (Å).
    pub fn box_lengths(&self) -> [f64; 3] {
        [
            self.nx as f64 * self.a0,
            self.ny as f64 * self.a0,
            self.nz as f64 * self.a0,
        ]
    }

    /// Ideal coordinates of site `(i, j, k, b)`.
    pub fn site_position(&self, i: usize, j: usize, k: usize, b: usize) -> [f64; 3] {
        debug_assert!(b < 2);
        let h = 0.5 * b as f64;
        [
            (i as f64 + h) * self.a0,
            (j as f64 + h) * self.a0,
            (k as f64 + h) * self.a0,
        ]
    }

    /// First-neighbour distance `√3/2 · a0`.
    pub fn nn1(&self) -> f64 {
        0.5 * 3.0_f64.sqrt() * self.a0
    }

    /// Second-neighbour distance `a0`.
    pub fn nn2(&self) -> f64 {
        self.a0
    }

    /// Minimum-image displacement `a − b` under periodic boundaries.
    pub fn min_image(&self, a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
        let l = self.box_lengths();
        let mut d = [0.0; 3];
        for ax in 0..3 {
            let mut x = a[ax] - b[ax];
            x -= (x / l[ax]).round() * l[ax];
            d[ax] = x;
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts() {
        let g = BccGeometry::fe_cube(4);
        assert_eq!(g.n_cells(), 64);
        assert_eq!(g.n_sites(), 128);
        assert_eq!(g.box_lengths(), [11.42, 11.42, 11.42]);
    }

    #[test]
    fn neighbor_shell_distances() {
        let g = BccGeometry::fe_cube(4);
        assert!((g.nn1() - 2.472_42).abs() < 1e-3);
        assert_eq!(g.nn2(), 2.855);
        // Corner site to centre site of same cell is 1NN.
        let a = g.site_position(1, 1, 1, 0);
        let b = g.site_position(1, 1, 1, 1);
        let d = ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2)).sqrt();
        assert!((d - g.nn1()).abs() < 1e-12);
    }

    #[test]
    fn min_image_wraps() {
        let g = BccGeometry::fe_cube(4);
        let l = g.box_lengths()[0];
        let d = g.min_image([0.1, 0.0, 0.0], [l - 0.1, 0.0, 0.0]);
        assert!((d[0] - 0.2).abs() < 1e-12);
    }
}
