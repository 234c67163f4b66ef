//! Domain decomposition: ghost exchange and run-away migration.
//!
//! "Each computation node (i.e., each process) is responsible for a
//! subdomain. ... each process should communicate with the neighbor
//! processes to exchange the ghost data after each time step" (§2).
//!
//! The exchange is the classic staged 6-direction shift the traditional
//! KMC exchange runs too, walked through the same slabs and row cursor
//! (`mmds_lattice::slab`, DESIGN §6.21): axis by axis, each rank sends
//! its owned edge slab and fills the opposite ghost slab, where slabs
//! span the *full storage extent* of already-exchanged axes (so edges
//! and corners arrive without extra messages). The codec is MD's own:
//! ghost atom positions travel as displacements from their lattice
//! points, so periodic wrap-around needs no special casing, and
//! run-away atoms anchored in a slab travel with it as variable-length
//! chains. Every slab is packed into the buffer the previous shift
//! returned, and chains are packed and unpacked in place. Run-aways
//! that left the subdomain are migrated to their owners.

use mmds_lattice::lnl::LatticeNeighborList;
use mmds_lattice::slab::{Side, Slab, FILL_STAGES};
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
        let (dst, src) = self.grid.shift_peers(self.comm.rank(), axis, toward_high);
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

/// Bytes of one run-away record in a Positions slab: the `u64` id and
/// the three `f64` components of its displacement.
const RUNAWAY_RECORD_BYTES: usize = 32;

/// Visits every site of `slab` in wire order, `(k, j, i, basis)`, with
/// its stored index and its lattice point, computed per site (never
/// accumulated), so displacements are bit-identical on both sides of
/// the wire.
fn visit_slab_sites(grid: LocalGrid, slab: &Slab, mut f: impl FnMut(usize, [f64; 3])) {
    for row in slab.rows() {
        for (c, i) in slab.cells[0].clone().enumerate() {
            for b in 0..2 {
                f(row.s + 2 * c + b, grid.site_position(i, row.j, row.k, b));
            }
        }
    }
}

/// Packs `slab` into `buf`, a recycled buffer. Per site, Positions: the
/// `u64` id, the displacement from the lattice point if the site holds
/// an atom, the `u32` length of its run-away chain and, per run-away, a
/// [`RUNAWAY_RECORD_BYTES`] record; F': the site's `f64`, the chain
/// length and the run-aways' `f64`s.
fn pack_slab(l: &LatticeNeighborList, slab: &Slab, phase: GhostPhase, buf: Vec<u8>) -> Vec<u8> {
    let mut p = Packer::reusing(buf);
    let put_disp = |p: &mut Packer, q: [f64; 3], lp: [f64; 3]| {
        for ax in 0..3 {
            p.put_f64(q[ax] - lp[ax]);
        }
    };
    visit_slab_sites(l.grid, slab, |s, lp| match phase {
        GhostPhase::Positions => {
            p.put_u64(l.id[s] as u64);
            if l.id[s] >= 0 {
                put_disp(&mut p, l.pos[s], lp);
            }
            p.put_u32(l.chain(s).count() as u32);
            for (_, rec) in l.chain(s) {
                p.put_u64(rec.id as u64);
                put_disp(&mut p, rec.pos, lp);
            }
        }
        GhostPhase::Fp => {
            p.put_f64(l.fp[s]);
            p.put_u32(l.chain(s).count() as u32);
            for (_, rec) in l.chain(s) {
                p.put_f64(rec.fp);
            }
        }
    });
    p.finish()
}

fn unpack_slab(l: &mut LatticeNeighborList, slab: &Slab, phase: GhostPhase, bytes: &[u8]) {
    let mut u = Unpacker::new(bytes);
    let get_point = |u: &mut Unpacker, lp: [f64; 3]| {
        let d = [u.get_f64(), u.get_f64(), u.get_f64()];
        [lp[0] + d[0], lp[1] + d[1], lp[2] + d[2]]
    };
    visit_slab_sites(l.grid, slab, |s, lp| match phase {
        GhostPhase::Positions => {
            let id = u.get_u64() as i64;
            l.id[s] = id;
            l.pos[s] = if id >= 0 { get_point(&mut u, lp) } else { lp };
            // Replace the ghost chain: records were cleared at the
            // start of the exchange; later axes may overwrite a slab
            // that was already written — drop what's there first,
            // head first.
            while l.head[s] >= 0 {
                let idx = l.head[s] as u32;
                assert!(
                    l.runaway(idx).ghost,
                    "real run-away anchored at ghost site {s} during exchange"
                );
                l.remove_runaway(idx);
            }
            // Insert back to front so the rebuilt chain iterates in
            // the sender's order (chains are LIFO).
            let n = u.get_u32() as usize;
            let recs = u.get_bytes(n * RUNAWAY_RECORD_BYTES);
            for rec in recs.chunks_exact(RUNAWAY_RECORD_BYTES).rev() {
                let mut r = Unpacker::new(rec);
                let rid = r.get_u64() as i64;
                let pos = get_point(&mut r, lp);
                l.add_ghost_runaway(s, rid, pos, [0.0; 3]);
            }
        }
        GhostPhase::Fp => {
            l.fp[s] = u.get_f64();
            let n = u.get_u32() as usize;
            assert_eq!(l.chain(s).count(), n, "ghost chain drifted between phases");
            let mut cur = l.head[s];
            while cur >= 0 {
                let rec = l.runaway_mut(cur as u32);
                rec.fp = u.get_f64();
                cur = rec.next;
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

/// Runs one full ghost exchange (the six [`FILL_STAGES`]), packing
/// every slab into the buffer the previous shift returned
/// (`LatticeNeighborList::wire`).
pub fn exchange_ghosts(l: &mut LatticeNeighborList, t: &mut impl Transport, phase: GhostPhase) {
    if phase == GhostPhase::Positions {
        l.clear_ghost_runaways();
    }
    for (axis, recv_side) in FILL_STAGES {
        let (send, recv) = Slab::fill_pair(l.grid, axis, recv_side, l.grid.ghost);
        let buf = std::mem::take(&mut l.wire);
        let received = t.shift(axis, send.toward_high(), pack_slab(l, &send, phase, buf));
        unpack_slab(l, &recv, phase, &received);
        l.wire = received;
    }
}

/// Transfers run-aways anchored outside the owned region to their
/// owning rank. Returns how many this rank emitted. The payload is
/// packed into the ghost exchange's recycled buffer
/// (`LatticeNeighborList::wire`), and the largest gathered buffer
/// becomes that buffer again: under [`Loopback`] it is the one packed,
/// so a step with no emigrant allocates nothing here.
pub fn migrate_runaways(l: &mut LatticeNeighborList, t: &mut impl Transport) -> usize {
    let grid = l.grid;
    let outside = |home: u32| {
        let (i, j, k, _) = grid.decode(home as usize);
        !grid.is_interior(i, j, k)
    };
    let emigrants: Vec<u32> = l
        .live_runaway_ids()
        .filter(|&i| outside(l.runaway(i).home))
        .collect();
    let mut p = Packer::reusing(std::mem::take(&mut l.wire));
    p.put_u32(emigrants.len() as u32);
    for &idx in &emigrants {
        let rec = l.remove_runaway(idx);
        let (i, j, k, b) = grid.decode(rec.home as usize);
        let g = grid.global_cell(i, j, k);
        let lp = grid.site_position(i, j, k, b);
        for v in [g[0], g[1], g[2], b] {
            p.put_u64(v as u64);
        }
        p.put_u64(rec.id as u64);
        for ax in 0..3 {
            p.put_f64(rec.pos[ax] - lp[ax]);
        }
        for v in rec.vel {
            p.put_f64(v);
        }
    }
    let all = t.allgather(p.finish());
    let (start, len) = (grid.start, grid.len);
    for bytes in &all {
        let mut u = Unpacker::new(bytes);
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
                let gh = grid.ghost;
                let (i, j, k) = (
                    g[0] - start[0] + gh,
                    g[1] - start[1] + gh,
                    g[2] - start[2] + gh,
                );
                let home = grid.site_id(i, j, k, b);
                let lp = grid.site_position(i, j, k, b);
                l.add_runaway(
                    home,
                    id,
                    [lp[0] + disp[0], lp[1] + disp[1], lp[2] + disp[2]],
                    vel,
                );
            }
        }
    }
    l.wire = all
        .into_iter()
        .max_by_key(Vec::capacity)
        .unwrap_or_default();
    emigrants.len()
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
        FILL_STAGES.iter().flat_map(|&(axis, recv_side)| {
            SkelOp::shift(axis, recv_side == Side::Low, ByteSpec::Dynamic)
        })
    };
    let migrate = SkelOp::Allgather {
        bytes: ByteSpec::Records {
            header: 4,
            record: 88,
        },
    };
    let ghost = std::iter::once(migrate).chain(staged_shifts()).collect();
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
            staged_shifts().collect(),
            "per MD step: staged F'(rho) exchange between the two force passes",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmds_lattice::BccGeometry;

    /// The per-site slab walk the shared row cursor replaced, kept as the
    /// byte-for-byte oracle: `slab_ranges` + `for_each_slab_site` (a
    /// `site_id` per site), a fresh `Packer` per slab and the run-away
    /// chains collected into `Vec`s.
    mod per_site {
        use super::*;

        /// The cell ranges of an exchange slab.
        pub fn slab_ranges(
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
                        } else if toward_high {
                            0..g
                        } else {
                            g + len[b]..dims[b]
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
                            f(grid.site_id(i, j, k, b), grid.site_position(i, j, k, b));
                        }
                    }
                }
            }
        }

        pub fn pack_slab(
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

        pub fn unpack_slab(
            l: &mut LatticeNeighborList,
            ranges: &[std::ops::Range<usize>; 3],
            phase: GhostPhase,
            bytes: &[u8],
        ) {
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
                    let existing: Vec<(u32, bool)> =
                        l.chain(s).map(|(i, r)| (i, r.ghost)).collect();
                    for (idx, ghost) in existing {
                        assert!(ghost, "real run-away anchored at ghost site {s}");
                        l.remove_runaway(idx);
                    }
                    let n = u.get_u32() as usize;
                    let mut recs = Vec::with_capacity(n);
                    for _ in 0..n {
                        let rid = u.get_u64() as i64;
                        let d = [u.get_f64(), u.get_f64(), u.get_f64()];
                        recs.push((rid, [lp[0] + d[0], lp[1] + d[1], lp[2] + d[2]]));
                    }
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

        /// The staged exchange as it was: axis 0..3, toward high first.
        pub fn exchange(l: &mut LatticeNeighborList, t: &mut impl Transport, phase: GhostPhase) {
            if phase == GhostPhase::Positions {
                l.clear_ghost_runaways();
            }
            for axis in 0..3 {
                for toward_high in [true, false] {
                    let payload = pack_slab(l, &slab_ranges(l, axis, toward_high, true), phase);
                    let received = t.shift(axis, toward_high, payload);
                    let recv = slab_ranges(l, axis, toward_high, false);
                    unpack_slab(l, &recv, phase, &received);
                }
            }
        }
    }

    /// A loopback that keeps a copy of every payload it carries.
    #[derive(Default)]
    struct Recorder(Vec<(usize, bool, Vec<u8>)>);

    impl Transport for Recorder {
        fn shift(&mut self, axis: usize, toward_high: bool, payload: Vec<u8>) -> Vec<u8> {
            self.0.push((axis, toward_high, payload.clone()));
            payload
        }
        fn allgather(&mut self, payload: Vec<u8>) -> Vec<Vec<u8>> {
            vec![payload]
        }
    }

    fn lnl(n: usize) -> LatticeNeighborList {
        let grid = LocalGrid::whole(BccGeometry::fe_cube(n), 2);
        LatticeNeighborList::perfect(grid, 5.0)
    }

    /// A whole box and two rank sub-domains (`start ≠ 0`): one whose high
    /// ghosts wrap on every axis, one whose low y ghost does.
    fn codec_grids() -> Vec<LocalGrid> {
        let a0 = BccGeometry::fe_cube(1).a0;
        let global = BccGeometry::new(a0, 8, 6, 7);
        vec![
            LocalGrid::whole(BccGeometry::fe_cube(5), 2),
            LocalGrid::new(global, [3, 2, 4], [5, 4, 3], 2),
            LocalGrid::new(global, [1, 0, 2], [4, 3, 3], 2),
        ]
    }

    /// A displaced lattice with vacancies and run-away chains of length
    /// 3, 1, 3 and 1 at a low corner, the high corner, an edge and a
    /// face site; every other site's chain is empty.
    fn runaway_lattice(grid: LocalGrid) -> LatticeNeighborList {
        let mut l = LatticeNeighborList::perfect(grid, 5.0);
        for s in grid.interior_ids() {
            for ax in 0..3 {
                l.pos[s][ax] += ((s * 7 + ax * 3) % 11) as f64 * 0.013 - 0.061;
            }
        }
        let (g, len) = (grid.ghost, grid.len);
        let hi = len.map(|n| g + n - 1);
        let anchors = [
            ((g, g, g, 0), 3),
            ((hi[0], hi[1], hi[2], 1), 1),
            ((g, hi[1], g + len[2] / 2, 0), 3),
            ((hi[0], g + 1, g + 1, 1), 1),
        ];
        let mut donor = grid.interior_ids().skip(grid.n_owned_sites() / 2);
        for (n, ((i, j, k, b), chain)) in anchors.into_iter().enumerate() {
            let home = grid.site_id(i, j, k, b);
            let lp = grid.site_position(i, j, k, b);
            for r in 0..chain {
                let id = l.make_vacancy(donor.next().unwrap());
                let d = [
                    0.91 - 0.2 * r as f64,
                    -0.33 * n as f64,
                    0.45 + 0.07 * r as f64,
                ];
                l.add_runaway(
                    home,
                    id,
                    [lp[0] + d[0], lp[1] + d[1], lp[2] + d[2]],
                    [0.0; 3],
                );
            }
        }
        for (n, s) in grid.interior_ids().enumerate() {
            l.fp[s] = -1.7 + n as f64 * 1e-3;
        }
        for (n, rec) in l.live_runaways_mut().enumerate() {
            rec.fp = 0.25 * n as f64 - 2.0;
        }
        l
    }

    /// Every observable of `a` and `b` agrees bit for bit: ids,
    /// positions, F', every chain's pool indices in order with their
    /// records, the run-away census and the free list.
    fn assert_same(a: &LatticeNeighborList, b: &LatticeNeighborList, what: &str) {
        let bits = |l: &LatticeNeighborList| -> Vec<[u64; 3]> {
            l.pos.iter().map(|p| p.map(f64::to_bits)).collect()
        };
        let chain = |l: &LatticeNeighborList, s| {
            l.chain(s)
                .map(|(i, r)| (i, r.id, r.pos.map(f64::to_bits), r.fp.to_bits(), r.ghost))
                .collect::<Vec<_>>()
        };
        assert_eq!(a.id, b.id, "{what}: ids");
        assert!(bits(a) == bits(b), "{what}: positions");
        assert!(
            a.fp.iter()
                .map(|f| f.to_bits())
                .eq(b.fp.iter().map(|f| f.to_bits())),
            "{what}: F'"
        );
        assert!(
            (0..a.n_sites()).all(|s| chain(a, s) == chain(b, s)),
            "{what}: chains"
        );
        assert_eq!(
            a.live_runaways(),
            b.live_runaways(),
            "{what}: live run-aways"
        );
        assert_eq!(a.ghost_epoch(), b.ghost_epoch(), "{what}: ghost epoch");
        let next_free = |l: &LatticeNeighborList| {
            let mut l = l.clone();
            [0, 1].map(|_| l.add_ghost_runaway(0, 1, [0.0; 3], [0.0; 3]))
        };
        assert_eq!(next_free(a), next_free(b), "{what}: free list");
    }

    #[test]
    fn slab_codec_matches_the_per_site_oracle() {
        let mut chained_sites = 0;
        for grid in codec_grids() {
            let mut l = runaway_lattice(grid);
            for phase in [GhostPhase::Positions, GhostPhase::Fp] {
                // A whole exchange: the same payloads, the same state.
                let (mut new, mut old) = (l.clone(), l.clone());
                let (mut sent_new, mut sent_old) = (Recorder::default(), Recorder::default());
                exchange_ghosts(&mut new, &mut sent_new, phase);
                per_site::exchange(&mut old, &mut sent_old, phase);
                assert!(sent_new.0 == sent_old.0, "{phase:?} payloads on {grid:?}");
                assert_same(&new, &old, &format!("{phase:?} exchange on {grid:?}"));
                l = new;
                // Each stage's payload unpacked over ghosts that already
                // hold their chains: the chain-replacing path.
                for (axis, recv_side) in FILL_STAGES {
                    let toward_high = recv_side == Side::Low;
                    let (send, recv) = Slab::fill_pair(grid, axis, recv_side, grid.ghost);
                    let want = per_site::pack_slab(
                        &l,
                        &per_site::slab_ranges(&l, axis, toward_high, true),
                        phase,
                    );
                    let got = pack_slab(&l, &send, phase, vec![0xAB; 7]);
                    assert!(got == want, "{phase:?} {send} on {grid:?}");
                    let recv_cells = per_site::slab_ranges(&l, axis, toward_high, false);
                    assert_eq!(recv.cells, recv_cells, "{recv}");
                    let (mut new, mut old) = (l.clone(), l.clone());
                    unpack_slab(&mut new, &recv, phase, &want);
                    per_site::unpack_slab(&mut old, &recv_cells, phase, &want);
                    assert_same(&new, &old, &format!("{phase:?} {recv} on {grid:?}"));
                }
            }
            chained_sites += (0..l.n_sites())
                .filter(|&s| !l.is_owned(s) && l.chain(s).count() > 0)
                .count();
        }
        assert!(
            chained_sites >= 3 * 4,
            "ghost chains were exchanged: {chained_sites}"
        );
    }

    #[test]
    fn slab_exchange_allocates_nothing_after_warm_up() {
        let mut l = runaway_lattice(LocalGrid::whole(BccGeometry::fe_cube(6), 2));
        fill_periodic_ghosts(&mut l);
        let (ptr, cap) = (l.wire.as_ptr(), l.wire.capacity());
        assert!(cap > 0);
        for n in 0..100 {
            // Keep the run-aways moving, so payloads carry new bits.
            for rec in l.live_runaways_mut() {
                rec.pos[n % 3] += 1e-3;
                rec.fp += 0.5;
            }
            exchange_ghosts(&mut l, &mut Loopback, GhostPhase::Positions);
            assert_eq!(
                (l.wire.as_ptr(), l.wire.capacity()),
                (ptr, cap),
                "positions {n}"
            );
            exchange_ghosts(&mut l, &mut Loopback, GhostPhase::Fp);
            assert_eq!((l.wire.as_ptr(), l.wire.capacity()), (ptr, cap), "F' {n}");
        }
        assert_eq!(l.n_runaways(), 8);
    }

    #[test]
    fn migration_allocates_no_wire_after_warm_up() {
        let mut l = lnl(5);
        let inner = l.grid.site_id(2, 4, 4, 0); // global (0,2,2)
        let ghost = l.grid.site_id(7, 4, 4, 0); // its image across the high x edge
        let lp = l.grid.site_position(2, 4, 4, 0);
        let id = l.make_vacancy(inner);
        l.add_runaway(inner, id, [lp[0] + 0.2, lp[1], lp[2]], [1.0, 0.0, 0.0]);
        fill_periodic_ghosts(&mut l);
        let (ptr, cap) = (l.wire.as_ptr(), l.wire.capacity());
        assert!(cap > 0);
        for n in 0..100 {
            // The run-away crosses the owned edge: it is filed under the
            // ghost image of its site, and migration brings it home.
            let idx = l.live_runaways()[0];
            l.rehome_runaway(idx, ghost);
            let glp = l.grid.site_position(7, 4, 4, 0);
            l.runaway_mut(idx).pos = [glp[0] + 0.2, glp[1], glp[2]];
            assert_eq!(migrate_runaways(&mut l, &mut Loopback), 1, "step {n}");
            let rec = l.runaway(l.live_runaways()[0]);
            assert_eq!(rec.home as usize, inner, "step {n}");
            assert_eq!(
                (l.wire.as_ptr(), l.wire.capacity()),
                (ptr, cap),
                "migration {n}"
            );
            // The wire holds the payload: a u32 count and one 88 B record.
            assert_eq!(l.wire.len(), 4 + 88, "migration {n}");
            assert_eq!(migrate_runaways(&mut l, &mut Loopback), 0, "step {n}");
            assert_eq!(l.wire.len(), 4, "an empty migration {n}");
            exchange_ghosts(&mut l, &mut Loopback, GhostPhase::Positions);
            assert_eq!(
                (l.wire.as_ptr(), l.wire.capacity()),
                (ptr, cap),
                "positions {n}"
            );
        }
        assert_eq!(l.n_runaways(), 1);
    }

    #[test]
    fn migration_over_comm_keeps_its_wire_after_warm_up() {
        // Two ranks split 10 × 5 × 5 cells along x; one run-away crosses
        // the shared face every round, filed by its holder under the
        // ghost image of a site the other rank owns. Each migration
        // hands every rank its own wire back, pointer and capacity.
        use mmds_swmpi::{MachineModel, World, WorldConfig};
        let world = World::new(WorldConfig {
            model: MachineModel::free(),
            ..Default::default()
        });
        let out = world.run(2, |comm| {
            let rank = comm.rank();
            let global = BccGeometry::new(BccGeometry::fe_cube(1).a0, 10, 5, 5);
            let grid = LocalGrid::new(global, [5 * rank, 0, 0], [5, 5, 5], 2);
            let mut l = LatticeNeighborList::perfect(grid, 5.0);
            let mut t = CommTransport::new(comm, CartGrid::new([2, 1, 1]));
            if rank == 0 {
                let inner = l.grid.site_id(6, 4, 4, 0); // global (4,2,2)
                let lp = l.grid.site_position(6, 4, 4, 0);
                let id = l.make_vacancy(inner);
                l.add_runaway(inner, id, [lp[0] + 0.2, lp[1], lp[2]], [1.0, 0.0, 0.0]);
            }
            exchange_ghosts(&mut l, &mut t, GhostPhase::Positions);
            exchange_ghosts(&mut l, &mut t, GhostPhase::Fp);
            assert!(l.wire.capacity() > 0);
            for n in 0..100 {
                // Rank 0 files it under its high x ghost (global x 5),
                // rank 1 under its low x ghost (global x 4).
                let holder = n % 2;
                if rank == holder {
                    let i = if rank == 0 { 7 } else { 1 };
                    let idx = l.live_runaways()[0];
                    l.rehome_runaway(idx, l.grid.site_id(i, 4, 4, 0));
                    let glp = l.grid.site_position(i, 4, 4, 0);
                    l.runaway_mut(idx).pos = [glp[0] + 0.2, glp[1], glp[2]];
                }
                let wire = (l.wire.as_ptr(), l.wire.capacity());
                let emigrants = migrate_runaways(&mut l, &mut t);
                assert_eq!(emigrants, usize::from(rank == holder), "round {n}");
                assert_eq!(l.n_runaways(), usize::from(rank != holder), "round {n}");
                assert_eq!(
                    (l.wire.as_ptr(), l.wire.capacity()),
                    wire,
                    "rank {rank} migration {n}"
                );
                exchange_ghosts(&mut l, &mut t, GhostPhase::Positions);
            }
            l.n_runaways()
        });
        // 100 crossings bring it back to rank 0.
        assert_eq!(out.iter().map(|r| r.result).collect::<Vec<_>>(), [1, 0]);
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
