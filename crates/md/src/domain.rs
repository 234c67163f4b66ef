//! Domain decomposition: ghost exchange and run-away migration.
//!
//! "Each computation node (i.e., each process) is responsible for a
//! subdomain. ... each process should communicate with the neighbor
//! processes to exchange the ghost data after each time step" (§2).
//!
//! The exchange is the classic staged 6-direction shift: axis by axis,
//! each rank sends its owned edge slab and fills the opposite ghost
//! slab, where slabs span the *full storage extent* of already-exchanged
//! axes (so edges and corners arrive without extra messages). Ghost
//! atom positions travel as displacements from their lattice points, so
//! periodic wrap-around needs no special casing. Run-away atoms anchored
//! in a slab travel with it; run-aways that left the subdomain are
//! migrated to their owners.

use mmds_lattice::lnl::LatticeNeighborList;
use mmds_lattice::LocalGrid;
use mmds_swmpi::topology::CartGrid;
use mmds_swmpi::{Comm, Packer, Unpacker};

/// Moves slab payloads between neighbouring subdomains. `Loopback`
/// serves single-rank periodic boxes; [`CommTransport`] serves real
/// rank worlds.
pub trait Transport {
    /// Sends `payload` to the neighbour in `axis`/`toward_high` and
    /// returns the payload arriving from the opposite neighbour.
    fn shift(&mut self, axis: usize, toward_high: bool, payload: Vec<u8>) -> Vec<u8>;
    /// Gathers every rank's bytes (used for run-away migration).
    fn allgather(&mut self, payload: Vec<u8>) -> Vec<Vec<u8>>;
}

/// Single-rank transport: every neighbour is this rank itself.
pub struct Loopback;

impl Transport for Loopback {
    fn shift(&mut self, _axis: usize, _toward_high: bool, payload: Vec<u8>) -> Vec<u8> {
        payload
    }
    fn allgather(&mut self, payload: Vec<u8>) -> Vec<Vec<u8>> {
        vec![payload]
    }
}

/// Transport over a `mmds-swmpi` world with a Cartesian rank grid.
pub struct CommTransport<'a> {
    comm: &'a Comm,
    grid: CartGrid,
    tag_seq: u32,
}

impl<'a> CommTransport<'a> {
    /// Creates a transport; `grid.len()` must equal the world size.
    pub fn new(comm: &'a Comm, grid: CartGrid) -> Self {
        assert_eq!(grid.len(), comm.size(), "rank grid must cover the world");
        Self {
            comm,
            grid,
            tag_seq: 0x4D44_0000, // 'MD'
        }
    }

    /// The rank grid.
    pub fn grid(&self) -> CartGrid {
        self.grid
    }
}

impl Transport for CommTransport<'_> {
    fn shift(&mut self, axis: usize, toward_high: bool, payload: Vec<u8>) -> Vec<u8> {
        let mut d = [0i64; 3];
        d[axis] = if toward_high { 1 } else { -1 };
        let dst = self.grid.neighbor(self.comm.rank(), d);
        let mut back = [0i64; 3];
        back[axis] = -d[axis];
        let src = self.grid.neighbor(self.comm.rank(), back);
        let tag = self.tag_seq;
        self.tag_seq = self.tag_seq.wrapping_add(1);
        self.comm.sendrecv(dst, src, tag, payload)
    }

    fn allgather(&mut self, payload: Vec<u8>) -> Vec<Vec<u8>> {
        self.comm.allgather_bytes(payload)
    }
}

/// Which per-site payload an exchange carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GhostPhase {
    /// Site identity + displaced positions + run-away chains.
    Positions,
    /// Embedding derivatives F'(ρ) (between the two force passes).
    Fp,
}

/// The cell ranges of an exchange slab.
fn slab_ranges(
    l: &LatticeNeighborList,
    axis: usize,
    toward_high: bool,
    sender: bool,
) -> [std::ops::Range<usize>; 3] {
    let g = l.grid.ghost;
    let len = l.grid.len;
    let dims = l.grid.dims();
    let mut r: [std::ops::Range<usize>; 3] = [0..0, 0..0, 0..0];
    for b in 0..3 {
        r[b] = match b.cmp(&axis) {
            std::cmp::Ordering::Less => 0..dims[b],
            std::cmp::Ordering::Greater => g..g + len[b],
            std::cmp::Ordering::Equal => {
                if sender {
                    if toward_high {
                        g + len[b] - g..g + len[b]
                    } else {
                        g..g + g
                    }
                } else {
                    // Receiver: payload sent toward_high arrives from the
                    // low neighbour and fills my low ghost, and vice versa.
                    if toward_high {
                        0..g
                    } else {
                        g + len[b]..dims[b]
                    }
                }
            }
        };
    }
    r
}

fn for_each_slab_site(
    grid: LocalGrid,
    ranges: &[std::ops::Range<usize>; 3],
    mut f: impl FnMut(usize, [f64; 3]),
) {
    for k in ranges[2].clone() {
        for j in ranges[1].clone() {
            for i in ranges[0].clone() {
                for b in 0..2 {
                    let s = grid.site_id(i, j, k, b);
                    let lp = grid.site_position(i, j, k, b);
                    f(s, lp);
                }
            }
        }
    }
}

fn pack_slab(
    l: &LatticeNeighborList,
    ranges: &[std::ops::Range<usize>; 3],
    phase: GhostPhase,
) -> Vec<u8> {
    let mut p = Packer::new();
    for_each_slab_site(l.grid, ranges, |s, lp| match phase {
        GhostPhase::Positions => {
            p.put_u64(l.id[s] as u64);
            if l.id[s] >= 0 {
                let q = l.pos[s];
                p.put_f64(q[0] - lp[0]);
                p.put_f64(q[1] - lp[1]);
                p.put_f64(q[2] - lp[2]);
            }
            let chain: Vec<_> = l.chain(s).collect();
            p.put_u32(chain.len() as u32);
            for (_, rec) in chain {
                p.put_u64(rec.id as u64);
                p.put_f64(rec.pos[0] - lp[0]);
                p.put_f64(rec.pos[1] - lp[1]);
                p.put_f64(rec.pos[2] - lp[2]);
            }
        }
        GhostPhase::Fp => {
            p.put_f64(l.fp[s]);
            let chain: Vec<_> = l.chain(s).collect();
            p.put_u32(chain.len() as u32);
            for (_, rec) in chain {
                p.put_f64(rec.fp);
            }
        }
    });
    p.finish()
}

fn unpack_slab(
    l: &mut LatticeNeighborList,
    ranges: &[std::ops::Range<usize>; 3],
    phase: GhostPhase,
    bytes: &[u8],
) {
    // The grid is a copy, so the visitor may borrow `l` mutably.
    let mut u = Unpacker::new(bytes);
    for_each_slab_site(l.grid, ranges, |s, lp| match phase {
        GhostPhase::Positions => {
            let id = u.get_u64() as i64;
            l.id[s] = id;
            if id >= 0 {
                let d = [u.get_f64(), u.get_f64(), u.get_f64()];
                l.pos[s] = [lp[0] + d[0], lp[1] + d[1], lp[2] + d[2]];
            } else {
                l.pos[s] = lp;
            }
            // Replace the ghost chain: records were cleared at the
            // start of the exchange; later axes may overwrite a slab
            // that was already written — drop what's there first.
            let existing: Vec<(u32, bool)> = l.chain(s).map(|(i, r)| (i, r.ghost)).collect();
            for (idx, ghost) in existing {
                assert!(
                    ghost,
                    "real run-away anchored at ghost site {s} during exchange"
                );
                l.remove_runaway(idx);
            }
            let n = u.get_u32() as usize;
            let mut recs = Vec::with_capacity(n);
            for _ in 0..n {
                let rid = u.get_u64() as i64;
                let d = [u.get_f64(), u.get_f64(), u.get_f64()];
                recs.push((rid, [lp[0] + d[0], lp[1] + d[1], lp[2] + d[2]]));
            }
            // Insert reversed so the rebuilt chain iterates in the
            // sender's order (chains are LIFO).
            for (rid, pos) in recs.into_iter().rev() {
                l.add_ghost_runaway(s, rid, pos, [0.0; 3]);
            }
        }
        GhostPhase::Fp => {
            l.fp[s] = u.get_f64();
            let n = u.get_u32() as usize;
            let chain: Vec<u32> = l.chain(s).map(|(i, _)| i).collect();
            assert_eq!(chain.len(), n, "ghost chain drifted between phases");
            for (idx, _) in chain.into_iter().zip(0..n) {
                l.runaway_mut(idx).fp = u.get_f64();
            }
        }
    });
    assert!(u.is_exhausted(), "slab payload size mismatch");
}

/// Fills the ghost shell of a single-rank periodic box with this
/// rank's own images: positions + run-away chains, then F' values.
/// This is the one canonical "mirror" helper — force/offload tests and
/// single-rank drivers should use it instead of hand-copying site data
/// onto the ghost shell.
pub fn fill_periodic_ghosts(l: &mut LatticeNeighborList) {
    exchange_ghosts(l, &mut Loopback, GhostPhase::Positions);
    exchange_ghosts(l, &mut Loopback, GhostPhase::Fp);
}

/// Runs one full ghost exchange (6 staged shifts).
pub fn exchange_ghosts(l: &mut LatticeNeighborList, t: &mut impl Transport, phase: GhostPhase) {
    if phase == GhostPhase::Positions {
        l.clear_ghost_runaways();
    }
    for axis in 0..3 {
        for toward_high in [true, false] {
            let send_ranges = slab_ranges(l, axis, toward_high, true);
            let payload = pack_slab(l, &send_ranges, phase);
            let received = t.shift(axis, toward_high, payload);
            let recv_ranges = slab_ranges(l, axis, toward_high, false);
            unpack_slab(l, &recv_ranges, phase, &received);
        }
    }
}

/// Transfers run-aways anchored outside the owned region to their
/// owning rank. Returns how many this rank emitted.
pub fn migrate_runaways(l: &mut LatticeNeighborList, t: &mut impl Transport) -> usize {
    let mut emigrants = Vec::new();
    for idx in l.live_runaways() {
        let rec = *l.runaway(idx);
        let (i, j, k, b) = l.grid.decode(rec.home as usize);
        if !l.grid.is_interior(i, j, k) {
            let g = l.grid.global_cell(i, j, k);
            let lp = l.grid.site_position(i, j, k, b);
            emigrants.push((
                [g[0] as u64, g[1] as u64, g[2] as u64],
                b as u64,
                rec.id,
                [rec.pos[0] - lp[0], rec.pos[1] - lp[1], rec.pos[2] - lp[2]],
                rec.vel,
            ));
            l.remove_runaway(idx);
        }
    }
    let emitted = emigrants.len();
    let mut p = Packer::new();
    p.put_u32(emigrants.len() as u32);
    for (g, b, id, disp, vel) in emigrants {
        p.put_u64(g[0]);
        p.put_u64(g[1]);
        p.put_u64(g[2]);
        p.put_u64(b);
        p.put_u64(id as u64);
        for v in disp {
            p.put_f64(v);
        }
        for v in vel {
            p.put_f64(v);
        }
    }
    let all = t.allgather(p.finish());
    let start = l.grid.start;
    let len = l.grid.len;
    for bytes in all {
        let mut u = Unpacker::new(&bytes);
        let n = u.get_u32() as usize;
        for _ in 0..n {
            let g = [
                u.get_u64() as usize,
                u.get_u64() as usize,
                u.get_u64() as usize,
            ];
            let b = u.get_u64() as usize;
            let id = u.get_u64() as i64;
            let disp = [u.get_f64(), u.get_f64(), u.get_f64()];
            let vel = [u.get_f64(), u.get_f64(), u.get_f64()];
            let mine = (0..3).all(|ax| g[ax] >= start[ax] && g[ax] < start[ax] + len[ax]);
            if mine {
                let gh = l.grid.ghost;
                let (i, j, k) = (
                    g[0] - start[0] + gh,
                    g[1] - start[1] + gh,
                    g[2] - start[2] + gh,
                );
                let home = l.grid.site_id(i, j, k, b);
                let lp = l.grid.site_position(i, j, k, b);
                l.add_runaway(
                    home,
                    id,
                    [lp[0] + disp[0], lp[1] + disp[1], lp[2] + disp[2]],
                    vel,
                );
            }
        }
    }
    emitted
}

/// Declared communication skeletons of the MD exchange phases (the
/// `mmds-audit` protocol pass proves and reconciles these against
/// traced runs — keep them in lock-step with [`exchange_ghosts`] and
/// [`migrate_runaways`]).
///
/// * `md.ghost` — one per MD step: the run-away migration allgather
///   (u32 count + 88 B records), then the staged 6-shift Positions
///   exchange. Slab payloads carry per-site run-away chains, so their
///   size is dynamic.
/// * `md.offload` — one per MD step: the F'(ρ) exchange between the
///   two force passes, driven from inside the offload span.
pub fn comm_plans() -> Vec<mmds_swmpi::CommPlan> {
    use mmds_swmpi::{ByteSpec, CommPlan, SkelOp};
    let staged_shifts = || {
        let mut ops = Vec::new();
        for axis in 0..3 {
            for toward_high in [true, false] {
                ops.extend(SkelOp::shift(axis, toward_high, ByteSpec::Dynamic));
            }
        }
        ops
    };
    let mut ghost = vec![SkelOp::Allgather {
        bytes: ByteSpec::Records {
            header: 4,
            record: 88,
        },
    }];
    ghost.extend(staged_shifts());
    vec![
        CommPlan::new(
            "md.ghost",
            "crates/md/src/domain.rs",
            ghost,
            "per MD step: run-away migration allgather + staged Positions exchange",
        ),
        CommPlan::new(
            "md.offload",
            "crates/md/src/domain.rs",
            staged_shifts(),
            "per MD step: staged F'(rho) exchange between the two force passes",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmds_lattice::BccGeometry;

    fn lnl(n: usize) -> LatticeNeighborList {
        let grid = LocalGrid::whole(BccGeometry::fe_cube(n), 2);
        LatticeNeighborList::perfect(grid, 5.0)
    }

    #[test]
    fn loopback_positions_fill_ghosts_periodically() {
        let mut l = lnl(5);
        // Displace one interior atom near the low-x face; its periodic
        // image must appear in the high-x ghost shell.
        let s = l.grid.site_id(2, 4, 4, 0); // global cell (0,2,2)
        l.pos[s][0] += 0.21;
        exchange_ghosts(&mut l, &mut Loopback, GhostPhase::Positions);
        // Ghost image: storage cell (7,4,4) is global (5,2,2) ≡ (0,2,2).
        let ghost = l.grid.site_id(7, 4, 4, 0);
        let lp = l.grid.site_position(7, 4, 4, 0);
        assert_eq!(l.id[ghost], l.id[s]);
        assert!((l.pos[ghost][0] - (lp[0] + 0.21)).abs() < 1e-12);
    }

    #[test]
    fn loopback_vacancy_propagates_to_ghosts() {
        let mut l = lnl(5);
        let s = l.grid.site_id(2, 2, 2, 1); // global (0,0,0) basis 1
        l.make_vacancy(s);
        exchange_ghosts(&mut l, &mut Loopback, GhostPhase::Positions);
        let ghost = l.grid.site_id(7, 7, 7, 1); // global (5,5,5) ≡ (0,0,0)
        assert!(l.id[ghost] < 0, "vacancy must mirror into the corner ghost");
    }

    #[test]
    fn loopback_runaway_chain_mirrors() {
        let mut l = lnl(5);
        let s = l.grid.site_id(2, 4, 4, 0);
        let id = l.make_vacancy(s);
        let lp = l.grid.site_position(2, 4, 4, 0);
        l.add_runaway(s, id, [lp[0] + 0.9, lp[1] + 0.1, lp[2]], [0.0; 3]);
        exchange_ghosts(&mut l, &mut Loopback, GhostPhase::Positions);
        let ghost = l.grid.site_id(7, 4, 4, 0);
        let chain: Vec<_> = l.chain(ghost).collect();
        assert_eq!(chain.len(), 1);
        assert!(chain[0].1.ghost);
        let glp = l.grid.site_position(7, 4, 4, 0);
        assert!((chain[0].1.pos[0] - (glp[0] + 0.9)).abs() < 1e-12);
        // The real run-away is still the only non-ghost one.
        assert_eq!(l.n_runaways(), 1);
    }

    #[test]
    fn fp_phase_follows_chains() {
        let mut l = lnl(5);
        let s = l.grid.site_id(2, 4, 4, 0);
        let id = l.make_vacancy(s);
        let lp = l.grid.site_position(2, 4, 4, 0);
        let idx = l.add_runaway(s, id, [lp[0] + 0.9, lp[1], lp[2]], [0.0; 3]);
        exchange_ghosts(&mut l, &mut Loopback, GhostPhase::Positions);
        // Set owned fp values, then mirror them.
        for t in l.grid.interior_ids().collect::<Vec<_>>() {
            l.fp[t] = t as f64;
        }
        l.runaway_mut(idx).fp = 123.5;
        exchange_ghosts(&mut l, &mut Loopback, GhostPhase::Fp);
        let ghost = l.grid.site_id(7, 4, 4, 0);
        assert_eq!(l.fp[ghost], s as f64);
        let chain: Vec<_> = l.chain(ghost).collect();
        assert_eq!(chain[0].1.fp, 123.5);
    }

    #[test]
    fn repeated_exchanges_are_stable() {
        let mut l = lnl(4);
        let s = l.grid.site_id(2, 2, 2, 0);
        let id = l.make_vacancy(s);
        let lp = l.grid.site_position(2, 2, 2, 0);
        l.add_runaway(s, id, [lp[0] + 0.8, lp[1], lp[2]], [0.0; 3]);
        exchange_ghosts(&mut l, &mut Loopback, GhostPhase::Positions);
        let ghosts_after_one: usize = (0..l.n_sites())
            .map(|t| l.chain(t).filter(|(_, r)| r.ghost).count())
            .sum();
        for _ in 0..3 {
            exchange_ghosts(&mut l, &mut Loopback, GhostPhase::Positions);
        }
        let ghosts_after_four: usize = (0..l.n_sites())
            .map(|t| l.chain(t).filter(|(_, r)| r.ghost).count())
            .sum();
        assert_eq!(ghosts_after_one, ghosts_after_four, "no ghost accumulation");
        assert_eq!(l.n_runaways(), 1);
    }

    #[test]
    fn migration_loopback_rehomes_to_interior() {
        let mut l = lnl(5);
        // Anchor a run-away at a ghost site (as if it crossed the
        // boundary); migration must re-anchor it at the interior image.
        let ghost_home = l.grid.site_id(7, 4, 4, 0); // global (5,2,2) ≡ (0,2,2)
        let glp = l.grid.site_position(7, 4, 4, 0);
        l.add_runaway(
            ghost_home,
            42,
            [glp[0] + 0.2, glp[1], glp[2]],
            [1.0, 0.0, 0.0],
        );
        let emitted = migrate_runaways(&mut l, &mut Loopback);
        assert_eq!(emitted, 1);
        assert_eq!(l.n_runaways(), 1);
        let idx = l.live_runaways()[0];
        let rec = l.runaway(idx);
        let expect_home = l.grid.site_id(2, 4, 4, 0);
        assert_eq!(rec.home as usize, expect_home);
        let ilp = l.grid.site_position(2, 4, 4, 0);
        assert!((rec.pos[0] - (ilp[0] + 0.2)).abs() < 1e-12);
        assert_eq!(rec.vel, [1.0, 0.0, 0.0]);
    }
}
