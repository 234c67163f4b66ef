//! Ghost-exchange slabs and the row cursor both engines walk (DESIGN
//! §6.21).
//!
//! MD ("exchange the ghost data after each time step", §2) and the
//! traditional KMC exchange (§2.2.1, Fig. 8 b/c) run the same staged
//! six-direction shift over one [`LocalGrid`]: axis by axis, a rank sends
//! an owned edge slab and fills the opposite ghost slab, where slabs span
//! the full storage extent of the axes already staged, so edges and
//! corners arrive without extra messages. This module is that geometry:
//! which cells a [`Slab`] covers, the order of a ghost fill
//! ([`FILL_STAGES`]) and a division-free walk over a slab's `(k, j)`
//! rows ([`SlabRows`]). What a site puts on the wire is each engine's own
//! codec: variable-length MD records that carry run-away chains, 16 B
//! KMC state records.

use std::fmt;
use std::ops::Range;

use crate::grid::LocalGrid;

/// One side of an axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Toward lower cell coordinates.
    Low,
    /// Toward higher cell coordinates.
    High,
}

impl Side {
    /// The side a sector's corner touches along an axis.
    pub fn of_sector(sec: [usize; 3], axis: usize) -> Self {
        if sec[axis] == 0 {
            Side::Low
        } else {
            Side::High
        }
    }

    /// The other side.
    pub fn opposite(self) -> Self {
        match self {
            Side::Low => Side::High,
            Side::High => Side::Low,
        }
    }
}

/// Which side of the owned/ghost boundary a slab lies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Owned cells along the boundary.
    OwnedEdge,
    /// Ghost cells beyond it.
    Ghost,
}

/// The stages of a ghost fill, `(axis, side of the ghost slab filled)`,
/// in the order both engines run them: axis 0, 1, 2, the low ghost
/// first. A stage's slabs span the ghost cells of the stages before it.
pub const FILL_STAGES: [(usize, Side); 6] = [
    (0, Side::Low),
    (0, Side::High),
    (1, Side::Low),
    (1, Side::High),
    (2, Side::Low),
    (2, Side::High),
];

/// The stored cells of one exchange slab: `width` cells deep along
/// `axis`, hugging the owned/ghost boundary on `side`. Axes whose
/// staging has already completed (`b < axis`: ascending for a fill, and
/// the KMC put is its time reversal) span the full storage extent, so
/// corners ride along; the others span the owned cells.
#[derive(Debug, Clone)]
pub struct Slab {
    /// The axis the slab is deep along.
    pub axis: usize,
    /// Stored cell ranges per axis.
    pub cells: [Range<usize>; 3],
    side: Side,
    role: Role,
    grid: LocalGrid,
}

impl Slab {
    /// The slab of `grid`; `width` must be at least one and at most both
    /// the ghost shell and the owned span along `axis` (a deeper owned
    /// edge would ship part of the sender's own ghost shell as owned
    /// data).
    pub fn new(grid: LocalGrid, axis: usize, side: Side, role: Role, width: usize) -> Self {
        let g = grid.ghost;
        let len = grid.len;
        let dims = grid.dims();
        assert!(
            width >= 1 && width <= g && width <= len[axis],
            "a slab {width} cells deep along axis {axis} does not fit a grid with len {} \
             and ghost {g} there",
            len[axis]
        );
        let cells = std::array::from_fn(|b| {
            if b == axis {
                match (role, side) {
                    (Role::OwnedEdge, Side::Low) => g..g + width,
                    (Role::OwnedEdge, Side::High) => g + len[b] - width..g + len[b],
                    (Role::Ghost, Side::Low) => g - width..g,
                    (Role::Ghost, Side::High) => g + len[b]..g + len[b] + width,
                }
            } else if b < axis {
                0..dims[b]
            } else {
                g..g + len[b]
            }
        });
        Self {
            axis,
            side,
            role,
            cells,
            grid,
        }
    }

    /// The slabs of one ghost-fill stage, `(send, receive)`: the owned
    /// edge opposite `recv_side` goes to the neighbour beyond it, and
    /// the ghost slab on `recv_side` is filled from the neighbour there.
    pub fn fill_pair(grid: LocalGrid, axis: usize, recv_side: Side, width: usize) -> (Self, Self) {
        (
            Slab::new(grid, axis, recv_side.opposite(), Role::OwnedEdge, width),
            Slab::new(grid, axis, recv_side, Role::Ghost, width),
        )
    }

    /// Sites in the slab (both basis sites counted).
    pub fn sites(&self) -> usize {
        2 * self.cells.iter().map(Range::len).product::<usize>()
    }

    /// True if a payload packed from this slab travels toward the high
    /// neighbour. Either way it goes to the neighbour on the slab's
    /// side: an owned edge to the rank whose ghost it is, a ghost slab
    /// back to the rank that owns it.
    pub fn toward_high(&self) -> bool {
        self.side == Side::High
    }

    /// The slab's `(k, j)` rows in wire order.
    pub fn rows(&self) -> SlabRows {
        SlabRows::new(self)
    }
}

impl fmt::Display for Slab {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [x, y, z] = &self.cells;
        write!(
            f,
            "axis {} {:?} {:?} slab (cells {x:?} × {y:?} × {z:?})",
            self.axis, self.side, self.role
        )
    }
}

/// One `(k, j)` row of a slab: the `i`/basis run from the slab's first
/// `i` is the stored slice `s..s + 2·cells[0].len()`.
#[derive(Debug, Clone)]
pub struct SlabRow {
    /// Stored index of the row's first site (basis 0).
    pub s: usize,
    /// Stored `j` of the row.
    pub j: usize,
    /// Stored `k` of the row.
    pub k: usize,
    /// Global ids along the row.
    pub ids: RowIds,
}

/// The cursor behind [`Slab::rows`]: `global_cell` and `site_id` run for
/// the slab's first row only. From row to row `j` steps by one — the
/// stored index by `2·d0`, `gy` by one, wrapping at `ny` — and from
/// plane to plane `k` steps by one — the stored index by `2·d0·d1`
/// from the plane's first row, `gz` by one, wrapping at `nz`. No
/// division runs after the first row.
#[derive(Debug, Clone)]
pub struct SlabRows {
    /// Stored index of the next row's first site, and of the first row
    /// of its plane.
    s: usize,
    plane_s: usize,
    /// Stored-index steps between rows and between planes.
    row_step: usize,
    plane_step: usize,
    /// Stored cell of the next row; `j` runs over `js` in every plane,
    /// and the walk ends when `k` reaches `k_end`.
    j: usize,
    k: usize,
    js: Range<usize>,
    k_end: usize,
    /// Global cell of the next row's first cell; `gy` restarts at
    /// `gy0` with every plane, `gx` is the same for every row.
    gx: u64,
    gy: u64,
    gy0: u64,
    gz: u64,
    n: [u64; 3],
}

impl SlabRows {
    fn new(slab: &Slab) -> Self {
        let grid = slab.grid;
        let [i0, j0, k0] = slab.cells.clone().map(|r| r.start);
        let d = grid.dims();
        let g = grid.global_cell(i0, j0, k0).map(|c| c as u64);
        let s = grid.site_id(i0, j0, k0, 0);
        Self {
            s,
            plane_s: s,
            row_step: 2 * d[0],
            plane_step: 2 * d[0] * d[1],
            j: j0,
            k: k0,
            js: slab.cells[1].clone(),
            k_end: slab.cells[2].end,
            gx: g[0],
            gy: g[1],
            gy0: g[1],
            gz: g[2],
            n: [grid.global.nx, grid.global.ny, grid.global.nz].map(|n| n as u64),
        }
    }
}

/// `c + 1` on a periodic axis of `n` cells.
#[inline]
fn step_wrapping(c: u64, n: u64) -> u64 {
    if c + 1 == n {
        0
    } else {
        c + 1
    }
}

impl Iterator for SlabRows {
    type Item = SlabRow;

    #[inline]
    fn next(&mut self) -> Option<SlabRow> {
        if self.k == self.k_end {
            return None;
        }
        let [nx, ny, nz] = self.n;
        let row = SlabRow {
            s: self.s,
            j: self.j,
            k: self.k,
            ids: RowIds {
                row: (self.gz * ny + self.gy) * nx,
                gx: self.gx,
                nx,
            },
        };
        self.j += 1;
        if self.j < self.js.end {
            self.s += self.row_step;
            self.gy = step_wrapping(self.gy, ny);
        } else {
            self.j = self.js.start;
            self.k += 1;
            self.plane_s += self.plane_step;
            self.s = self.plane_s;
            self.gy = self.gy0;
            self.gz = step_wrapping(self.gz, nz);
        }
        Some(row)
    }
}

/// Canonical global ids — the SPPARKS-style record key
/// `((gz·ny + gy)·nx + gx)·2 + basis` — of the basis-0 sites along one
/// stored row; the basis-1 site of a cell is the next id. Stepping a
/// cell along `i` adds one to `gx`, which wraps at the periodic
/// boundary (twice, when a whole-box row starts and ends in ghosts);
/// `gy`/`gz` are fixed by the row.
#[derive(Debug, Clone)]
pub struct RowIds {
    row: u64,
    gx: u64,
    nx: u64,
}

impl RowIds {
    /// The id `next` returns next.
    #[inline]
    pub fn peek(&self) -> u64 {
        (self.row + self.gx) * 2
    }
}

impl Iterator for RowIds {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        let id = self.peek();
        self.gx = step_wrapping(self.gx, self.nx);
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bcc::BccGeometry;

    /// The canonical global id of stored site `s`, the per-site way: a
    /// `decode` and `global_cell`'s three `rem_euclid`.
    fn global_id(grid: LocalGrid, s: usize) -> u64 {
        let (i, j, k, b) = grid.decode(s);
        let g = grid.global_cell(i, j, k).map(|c| c as u64);
        let [nx, ny] = [grid.global.nx, grid.global.ny].map(|n| n as u64);
        ((g[2] * ny + g[1]) * nx + g[0]) * 2 + b as u64
    }

    /// Every slab a ghost fill or a KMC put (one cell deep) walks.
    fn exchange_slabs(grid: LocalGrid) -> Vec<Slab> {
        let mut slabs = Vec::new();
        for axis in 0..3 {
            for side in [Side::Low, Side::High] {
                for role in [Role::OwnedEdge, Role::Ghost] {
                    for width in [grid.ghost, 1] {
                        slabs.push(Slab::new(grid, axis, side, role, width));
                    }
                }
            }
        }
        slabs
    }

    #[test]
    fn row_cursor_matches_site_id_and_global_id_on_every_row() {
        // Whole boxes and rank sub-domains (`start ≠ 0`, reaching the end
        // of the box, so ghost rows cross the periodic wrap on every
        // axis), odd and even lengths, ghost widths 3 and 6. There `gy`
        // wraps twice across a whole box's full-extent planes and once,
        // mid-slab, across a sub-domain's; a slab's `k` range crosses the
        // box edge only on the last two grids, whose low (`start[2] = 1`)
        // and high (`start[2] + len[2] = nz - 1`) z ghost straddles it.
        let a0 = BccGeometry::fe_cube(1).a0;
        let mut grids = Vec::new();
        for g in [3, 6] {
            grids.push(LocalGrid::whole(BccGeometry::fe_cube(2 * g), g));
            grids.push(LocalGrid::whole(
                BccGeometry::new(a0, 2 * g + 1, 2 * g + 3, 2 * g),
                g,
            ));
            let len = [2 * g + 1, 2 * g, 2 * g + 2];
            let global = BccGeometry::new(a0, 2 * len[0], 2 * len[1], 3 * len[2]);
            grids.push(LocalGrid::new(global, [len[0], len[1], 2 * len[2]], len, g));
            grids.push(LocalGrid::new(global, [len[0], 0, len[2]], len, g));
        }
        let tall = BccGeometry::new(a0, 7, 6, 8);
        grids.push(LocalGrid::new(tall, [0, 3, 1], [7, 3, 3], 3));
        grids.push(LocalGrid::new(tall, [0, 0, 4], [7, 3, 3], 3));
        let mut rows_checked = 0;
        for grid in grids {
            for slab in exchange_slabs(grid) {
                let i0 = slab.cells[0].start;
                let mut rows = slab.rows();
                for k in slab.cells[2].clone() {
                    for j in slab.cells[1].clone() {
                        let row = rows.next().expect("a row per (k, j)");
                        assert_eq!((row.j, row.k), (j, k), "{slab}");
                        assert_eq!(row.s, grid.site_id(i0, j, k, 0), "{slab}: row ({k}, {j})");
                        assert_eq!(
                            row.ids.peek(),
                            global_id(grid, row.s),
                            "{slab}: row ({k}, {j}) on {grid:?}"
                        );
                        rows_checked += 1;
                    }
                }
                assert!(rows.next().is_none(), "{slab}: rows past the last plane");
            }
        }
        assert!(rows_checked > 10_000, "{rows_checked}");
    }

    #[test]
    fn whole_box_rows_wrap_twice() {
        // A full-extent row of a whole-box grid starts in the low ghost
        // (global x = nx − g), crosses the box and ends in the high
        // ghost: the strided id wraps at both boundaries.
        let grid = LocalGrid::whole(BccGeometry::fe_cube(6), 2);
        let slab = Slab::new(grid, 1, Side::Low, Role::Ghost, 2);
        assert_eq!(slab.cells[0], 0..10);
        let row = slab.rows().next().unwrap();
        let ids: Vec<u64> = row.ids.take(10).collect();
        let gx: Vec<u64> = ids.iter().map(|id| id / 2 - ids[2] / 2).collect();
        assert_eq!(gx, [4, 5, 0, 1, 2, 3, 4, 5, 0, 1]);
        let per_site: Vec<u64> = (0..10).map(|c| global_id(grid, row.s + 2 * c)).collect();
        assert_eq!(ids, per_site);
    }

    #[test]
    #[should_panic(expected = "a slab 3 cells deep along axis 2 does not fit a grid with len 2")]
    fn a_slab_deeper_than_the_owned_span_is_refused() {
        // 8 cells over 4 ranks along z at ghost 3: the owned edge would
        // reach into the sender's own low ghost.
        let grid = LocalGrid::new(BccGeometry::fe_cube(8), [0, 0, 2], [8, 8, 2], 3);
        Slab::new(grid, 2, Side::High, Role::OwnedEdge, 3);
    }
}
