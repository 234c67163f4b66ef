//! # mmds-lattice — BCC geometry and the lattice neighbor list
//!
//! The paper's contribution #1 (§2.1.1) is a dedicated data structure
//! for metals under irradiation, improving on Crystal MD \[11\]:
//!
//! * Atoms are ranked in the order of their spatial distribution and
//!   stored **in an array indexed by lattice site** — no per-atom
//!   neighbour lists (LAMMPS) and no per-step cell rebuilds (IMD's
//!   linked cells).
//! * The neighbours of a site sit at **static index offsets**, identical
//!   for every central site (per BCC basis), so neighbour discovery is
//!   pure arithmetic.
//! * An atom that leaves its lattice site becomes a **run-away atom**:
//!   the array entry turns into a *vacancy* (ID made negative) and the
//!   atom's record is kept in a **linked list anchored at the nearest
//!   lattice point** — the improvement over Crystal MD's array, giving
//!   dynamic capacity and `O(N)` run-away/run-away neighbour search.
//!
//! Both engines exchange ghosts through [`slab`]: the slab geometry,
//! the fill-stage order and the row cursor over a [`LocalGrid`].
//!
//! [`verlet::VerletList`] and [`linked_cell::LinkedCellList`] implement
//! the two mainstream baselines the paper compares against, and
//! [`memory`] provides the per-atom byte budgets behind the paper's
//! capacity claim (4·10¹² atoms with the LNL vs ~8·10¹¹ with a
//! traditional neighbour list on the same machine).

#![forbid(unsafe_code)]
// Fixed-axis coordinate math reads clearest as `for ax in 0..3`.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod bcc;
pub mod grid;
pub mod linked_cell;
pub mod lnl;
pub mod memory;
pub mod neighbor_offsets;
pub mod slab;
pub mod verlet;

pub use bcc::BccGeometry;
pub use grid::LocalGrid;
pub use linked_cell::LinkedCellList;
pub use lnl::{LatticeNeighborList, SiteKind};
pub use neighbor_offsets::{NeighborOffset, NeighborOffsets};
pub use verlet::VerletList;
