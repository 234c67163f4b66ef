//! Two-pass EAM evaluation over the lattice neighbor list.
//!
//! Pass 1 accumulates the electron density ρ_i (Eq. 3); the embedding
//! pass evaluates F(ρ_i) and its derivative; after the caller refreshes
//! ghost F' values, pass 2 accumulates forces from
//!
//! ```text
//! f_i = − Σ_j [ φ'(r_ij) + (F'(ρ_i) + F'(ρ_j)) · f'(r_ij) ] · r̂_ij
//! ```
//!
//! Every pass visits, for each central atom, the regular atoms at the
//! static neighbour offsets **and** the run-away atoms linked to those
//! lattice points (paper §2.1.1); a run-away central uses the offset
//! list of its anchor site, exactly as the paper specifies.
//!
//! The passes run over a half list: a pair of two owned regular atoms
//! is evaluated once, by its lower-indexed end over the forward half of
//! the static offsets, and scattered to both ends (Newton's third law).
//! A pair with a ghost or a run-away at either end is evaluated by each
//! owned end, so no force flows back to a ghost.

use mmds_eam::{EamPotential, TableForm};
use mmds_lattice::lnl::LatticeNeighborList;
use mmds_lattice::LocalGrid;
use rayon::prelude::*;
use std::ops::Range;

/// Sites per parallel work unit. Chunking is fixed (not derived from
/// the worker count), so the sweep decomposition — and therefore every
/// result bit — is identical at any thread count.
pub const PAR_CHUNK_SITES: usize = 256;

/// Partners per fused batch-lookup call of the staging sweep — four
/// [`mmds_eam::BATCH_LANES`]-wide lane groups. A BCC central within the
/// paper's 5 Å cutoff sees ~58 partners, so most centrals take one full
/// window plus one partial; the window's φ/f value buffers stay small
/// enough to live on the stack host-side and inside the 64 KB
/// local-store plan on the CPE side (see `md::offload`).
pub const BATCH_GATHER_CAP: usize = 4 * mmds_eam::BATCH_LANES;

/// Which implementation of the host-side EAM passes runs. There are
/// exactly two: the production path (`Default`) and the scalar
/// reference it must reproduce bit for bit
/// ([`PassConfig::seed_serial`]).
///
/// The production path sweeps fixed [`PAR_CHUNK_SITES`]-site chunks
/// over the thread pool, stages each chunk's half-list pairs into the
/// persistent [`GatherPlan`] and evaluates them through the fused
/// lane-batched table kernels. Results are bitwise deterministic across
/// thread counts: chunk boundaries are fixed, per-pair work reads
/// shared state only, and every sum runs in one global order on the
/// calling thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PassConfig(Path);

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Path {
    #[default]
    Plan,
    Reference,
}

impl PassConfig {
    /// The scalar half-list oracle: serial sweeps over the same pairs,
    /// one `sqrt` and separate `pair` + `density` lookups per pair, and
    /// every sum in the production path's order (the private
    /// `reference` module).
    pub fn seed_serial() -> Self {
        Self(Path::Reference)
    }

    /// Whether the per-site sweeps are chunked over the thread pool.
    pub(crate) fn parallel(self) -> bool {
        self.0 == Path::Plan
    }
}

/// Per-pass statistics of the batched gather/eval path over the staged
/// pairs, summed in chunk order on the calling thread and emitted as
/// the `md.batch.*` counter family.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Full [`mmds_eam::BATCH_LANES`]-wide lane groups evaluated.
    pub batches: u64,
    /// Elements handled by the scalar tail loops.
    pub tail_elems: u64,
    /// Bytes staged into the SoA gather buffers.
    pub gather_bytes: u64,
}

impl BatchStats {
    /// Accounts one buffer flush of `elems` elements, each staging
    /// `bytes_per_elem` bytes of SoA data.
    fn charge(&mut self, elems: usize, bytes_per_elem: usize) {
        self.batches += (elems / mmds_eam::BATCH_LANES) as u64;
        self.tail_elems += (elems % mmds_eam::BATCH_LANES) as u64;
        self.gather_bytes += (elems * bytes_per_elem) as u64;
    }

    fn absorb(&mut self, o: BatchStats) {
        self.batches += o.batches;
        self.tail_elems += o.tail_elems;
        self.gather_bytes += o.gather_bytes;
    }

    fn emit(&self) {
        mmds_telemetry::add_counter("md.batch.batches", self.batches as f64);
        mmds_telemetry::add_counter("md.batch.tail_elems", self.tail_elems as f64);
        mmds_telemetry::add_counter("md.batch.gather_bytes", self.gather_bytes as f64);
    }
}

/// Maps `f` over `items`, either serially or as fixed-size chunks
/// distributed over the thread pool. The output order always matches
/// `items`, and each call of `f` is independent, so both strategies
/// produce identical bits. Public because read-only observability
/// sweeps (the defect census in [`crate::census`]) reuse the exact
/// decomposition of the force passes.
pub fn chunked_map<T, R, F>(items: &[T], parallel: bool, f: F) -> Vec<R>
where
    T: Copy + Send + Sync,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if !parallel || items.len() <= PAR_CHUNK_SITES {
        return items.iter().map(|&t| f(t)).collect();
    }
    let chunks: Vec<&[T]> = items.chunks(PAR_CHUNK_SITES).collect();
    let mapped: Vec<Vec<R>> = chunks
        .into_par_iter()
        .map(|c| c.iter().map(|&t| f(t)).collect())
        .collect();
    mapped.into_iter().flatten().collect()
}

/// Identifies the atom at the centre of a neighbour sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Central {
    /// A regular (on-lattice) atom stored at this site.
    Site(usize),
    /// A run-away atom by pool index.
    Runaway(u32),
}

/// One interaction partner seen from a central atom.
#[derive(Debug, Clone, Copy)]
pub struct Partner {
    /// `central_pos − partner_pos`.
    pub dx: [f64; 3],
    /// Distance (Å), guaranteed `0 < r ≤ cutoff`.
    pub r: f64,
    /// Partner's embedding derivative F'(ρ_j) (valid in the force pass).
    pub fp: f64,
    /// Storage site the partner lives at (its own site for regular
    /// atoms, the anchor site for run-aways). Used by the CPE offload
    /// kernel to decide whether the partner's data is local-store
    /// resident.
    pub site: usize,
    /// True if the partner is a run-away record.
    pub is_runaway: bool,
}

/// Pair and embedding energies of one evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergySample {
    /// ½ Σ φ over owned centrals (eV).
    pub pair: f64,
    /// Σ F(ρ) over owned centrals (eV).
    pub embed: f64,
}

impl EnergySample {
    /// Total potential energy (eV).
    pub fn total(&self) -> f64 {
        self.pair + self.embed
    }
}

/// One interaction partner as seen *before* the distance square root —
/// what the batched passes stage, so the `sqrt` itself runs as a
/// vectorizable lane loop inside the batch flush instead of one scalar
/// root per partner. `r2.sqrt()` is correctly rounded, so computing it
/// in the batch produces the identical bits the scalar
/// [`for_each_partner`] sweep sees.
#[derive(Debug, Clone, Copy)]
pub struct PartnerSq {
    /// `central_pos − partner_pos`.
    pub dx: [f64; 3],
    /// Squared distance (Å²), guaranteed `0 < r² ≤ cutoff²`.
    pub r2: f64,
    /// Partner's embedding derivative F'(ρ_j) (valid in the force pass).
    pub fp: f64,
    /// Storage site the partner lives at.
    pub site: usize,
    /// True if the partner is a run-away record.
    pub is_runaway: bool,
    /// Run-away pool index when `is_runaway` (`u32::MAX` otherwise).
    /// Lets the gather plan re-fetch the partner's F' in the force pass
    /// without re-walking the chain.
    pub ra_index: u32,
}

/// `central_pos − partner_pos` and its squared length: the one
/// expression every sweep and the force pass compute a pair's geometry
/// with, so a recomputed distance has the bits of the swept one.
#[inline]
pub(crate) fn separation(cpos: [f64; 3], ppos: [f64; 3]) -> ([f64; 3], f64) {
    let dx = [cpos[0] - ppos[0], cpos[1] - ppos[1], cpos[2] - ppos[2]];
    (dx, dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2])
}

/// Visits every interaction partner of `central` within `cutoff`,
/// before the distance square root ([`PartnerSq`]).
pub fn for_each_partner_sq(
    l: &LatticeNeighborList,
    central: Central,
    cutoff: f64,
    f: impl FnMut(PartnerSq),
) {
    partner_sweep::<true>(l, central, cutoff, f);
}

/// The partner sweep, monomorphized over whether the partners' F'
/// values are read. The plan-building density pass runs with
/// `NEED_FP = false`: F' isn't valid until after the embedding pass, so
/// skipping the load keeps a whole per-site array out of the sweep's
/// cache footprint (`PartnerSq::fp` is 0 in that mode).
fn partner_sweep<const NEED_FP: bool>(
    l: &LatticeNeighborList,
    central: Central,
    cutoff: f64,
    mut f: impl FnMut(PartnerSq),
) {
    let (anchor, cpos, skip) = match central {
        Central::Site(s) => {
            debug_assert!(l.id[s] >= 0, "central site {s} is a vacancy");
            (s, l.pos[s], None)
        }
        Central::Runaway(i) => {
            let r = l.runaway(i);
            (r.home as usize, r.pos, Some(i))
        }
    };
    let cut2 = cutoff * cutoff;
    let mut emit = |ppos: [f64; 3], pfp: f64, site: usize, ra_index: u32| {
        let (dx, r2) = separation(cpos, ppos);
        if r2 > 1e-12 && r2 <= cut2 {
            f(PartnerSq {
                dx,
                r2,
                fp: pfp,
                site,
                is_runaway: ra_index != u32::MAX,
                ra_index,
            });
        }
    };
    let site_fp = |s: usize| if NEED_FP { l.fp[s] } else { 0.0 };
    // The regular atom at the anchor site itself (relevant for run-away
    // centrals: interstitial/dumbbell configurations).
    if matches!(central, Central::Runaway(_)) && l.id[anchor] >= 0 {
        emit(l.pos[anchor], site_fp(anchor), anchor, u32::MAX);
    }
    // Run-aways linked to the anchor.
    for (idx, rec) in l.chain(anchor) {
        if Some(idx) != skip {
            emit(rec.pos, if NEED_FP { rec.fp } else { 0.0 }, anchor, idx);
        }
    }
    // Static offsets: regular atoms and their linked run-aways.
    for &d in l.neighbor_deltas(anchor) {
        let nid = (anchor as isize + d) as usize;
        if l.id[nid] >= 0 {
            emit(l.pos[nid], site_fp(nid), nid, u32::MAX);
        }
        for (idx, rec) in l.chain(nid) {
            emit(rec.pos, if NEED_FP { rec.fp } else { 0.0 }, nid, idx);
        }
    }
}

/// Visits every interaction partner of `central` within `cutoff`.
pub fn for_each_partner(
    l: &LatticeNeighborList,
    central: Central,
    cutoff: f64,
    mut f: impl FnMut(Partner),
) {
    for_each_partner_sq(l, central, cutoff, |p| {
        f(Partner {
            dx: p.dx,
            r: p.r2.sqrt(),
            fp: p.fp,
            site: p.site,
            is_runaway: p.is_runaway,
        })
    });
}

/// The far end of an evaluated pair, as the accumulation needs it,
/// packed into one `u32`: a 2-bit [`End`] tag over a 30-bit index.
/// [`density_pass_plan`] asserts that every site and run-away pool
/// index fits before it stages a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Far(u32);

/// A [`Far`], unpacked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum End {
    /// An owned regular atom at a higher site index than the central:
    /// the pair is evaluated only here and scattered to both ends
    /// (Newton's third law).
    Newton(usize),
    /// A regular atom at this storage site that the central evaluates
    /// for itself alone (Newton-off): a ghost, or any regular partner of
    /// a run-away central. If that atom is owned, its own sweep
    /// evaluates the pair too.
    Site(usize),
    /// A run-away record by pool index (owned or ghost), Newton-off:
    /// each owned end evaluates the pair.
    Runaway(u32),
}

impl Far {
    const INDEX_BITS: u32 = 30;
    /// Sites and run-away pool slots a plan can address.
    const CAPACITY: usize = 1 << Self::INDEX_BITS;
    const NEWTON: u32 = 0;
    const SITE: u32 = 1;
    const RUNAWAY: u32 = 2;

    #[inline]
    fn pack(tag: u32, index: usize) -> Self {
        debug_assert!(index < Self::CAPACITY, "far-end index {index} overflows");
        Self(tag << Self::INDEX_BITS | index as u32)
    }

    #[inline]
    fn newton(site: usize) -> Self {
        Self::pack(Self::NEWTON, site)
    }

    #[inline]
    fn site(site: usize) -> Self {
        Self::pack(Self::SITE, site)
    }

    #[inline]
    fn runaway(index: u32) -> Self {
        Self::pack(Self::RUNAWAY, index as usize)
    }

    #[inline]
    fn index(self) -> usize {
        (self.0 & (Self::CAPACITY as u32 - 1)) as usize
    }

    #[inline]
    fn is_newton(self) -> bool {
        self.0 >> Self::INDEX_BITS == Self::NEWTON
    }

    #[inline]
    fn end(self) -> End {
        match self.0 >> Self::INDEX_BITS {
            Self::NEWTON => End::Newton(self.index()),
            Self::SITE => End::Site(self.index()),
            _ => End::Runaway(self.index() as u32),
        }
    }

    /// The position and F' of the far end.
    #[inline]
    fn pos_fp(self, l: &LatticeNeighborList) -> ([f64; 3], f64) {
        match self.end() {
            End::Newton(j) | End::Site(j) => (l.pos[j], l.fp[j]),
            End::Runaway(i) => (l.runaway(i).pos, l.runaway(i).fp),
        }
    }

    /// The site of a Newton end.
    #[inline]
    fn newton_site(self) -> usize {
        debug_assert!(self.is_newton(), "a Newton-off pair has no far share");
        self.index()
    }
}

/// The run-away records, owned and ghost, within neighbour reach of
/// each owned site — its own chain and the chains of its cutoff
/// neighbours — as pool indices ordered by anchor site, then chain
/// order: `idx[start[s]..start[s + 1]]`. Rebuilt before every half-list
/// sweep, so a regular central finds its run-away partners without
/// testing the chain of each of its ~58 neighbours.
#[derive(Debug, Clone, Default)]
struct NearRunaways {
    start: Vec<u32>,
    idx: Vec<u32>,
}

impl NearRunaways {
    /// Rebuilds the table for the current chains of `l`, reusing its
    /// buffers.
    fn build(&mut self, l: &LatticeNeighborList) {
        let n = l.n_sites();
        // Every owned site `a + d` whose neighbour set holds anchor `a`
        // (the offset set is symmetric), and `a` itself. A ghost anchor
        // at the storage edge may reach past it; those targets, and any
        // that wrap a row, are ghost sites or out of range.
        let reach = |a: usize| {
            std::iter::once(0)
                .chain(l.neighbor_deltas(a).iter().copied())
                .map(move |d| a as isize + d)
                .filter(|&t| (0..n as isize).contains(&t) && l.is_owned(t as usize))
                .map(|t| t as usize)
        };
        let records = || (0..n).flat_map(|a| l.chain(a).map(move |(i, _)| (a, i)));
        self.start.clear();
        self.start.resize(n + 1, 0);
        for (a, _) in records() {
            for t in reach(a) {
                self.start[t + 1] += 1;
            }
        }
        for t in 0..n {
            self.start[t + 1] += self.start[t];
        }
        self.idx.resize(self.start[n] as usize, 0);
        // Fill with `start[t]` as site t's cursor, then shift the
        // cursors (each now at its site's end) back one site.
        for (a, i) in records() {
            for t in reach(a) {
                self.idx[self.start[t] as usize] = i;
                self.start[t] += 1;
            }
        }
        self.start.copy_within(0..n, 1);
        self.start[0] = 0;
    }

    /// The run-away records within reach of owned site `s`.
    fn of(&self, s: usize) -> &[u32] {
        &self.idx[self.start[s] as usize..self.start[s + 1] as usize]
    }
}

/// The ghost sites among each owned site's cutoff neighbours, in offset
/// order: `sites[start[s]..start[s + 1]]`. A property of the grid alone,
/// built by the first sweep that sees the grid; only the host passes
/// need it.
#[derive(Debug, Clone, Default)]
struct GhostNeighbors {
    grid: Option<LocalGrid>,
    start: Vec<u32>,
    sites: Vec<u32>,
}

impl GhostNeighbors {
    /// Builds the lists for `l`'s grid unless they are built already.
    fn ensure(&mut self, l: &LatticeNeighborList) {
        if self.grid == Some(l.grid) {
            return;
        }
        self.grid = Some(l.grid);
        self.start.clear();
        self.sites.clear();
        self.start.push(0);
        for s in 0..l.n_sites() {
            if l.is_owned(s) {
                let ghosts = l.neighbor_ids(s).filter(|&t| !l.is_owned(t));
                self.sites.extend(ghosts.map(|t| t as u32));
            }
            self.start.push(self.sites.len() as u32);
        }
    }

    /// The ghost neighbours of owned site `s`.
    fn of(&self, s: usize) -> &[u32] {
        &self.sites[self.start[s] as usize..self.start[s + 1] as usize]
    }
}

/// What a half-list sweep looks up besides the lattice: the static
/// ghost-neighbour lists and this step's run-aways within reach.
#[derive(Debug, Clone, Default)]
struct SweepIndex {
    ghosts: GhostNeighbors,
    near: NearRunaways,
}

impl SweepIndex {
    /// Brings both tables up to date with `l`.
    fn update(&mut self, l: &LatticeNeighborList) {
        self.ghosts.ensure(l);
        self.near.build(l);
    }
}

/// Offers the pairs `central` evaluates under the half list, before the
/// square root: `central_pos − partner_pos`, r², the far end, and
/// whether the pair is within `cutoff`. Candidates outside the cutoff
/// are offered too (`false`), so that a caller can stage without a
/// branch on the distance; a caller that does not stage skips them.
///
/// A regular central takes its owned regular partners over the forward
/// deltas only ([`End::Newton`]): the partner at the other end never
/// sees the pair. Ghost regular atoms and every run-away stay
/// Newton-off. The order is the Newton pairs in forward-delta order,
/// then the ghost neighbours' atoms in offset order
/// ([`GhostNeighbors`]), then the run-aways in [`NearRunaways`] order.
/// A run-away central visits its whole
/// [`for_each_partner_sq`] set, in that order, all Newton-off.
fn half_sweep(
    l: &LatticeNeighborList,
    index: &SweepIndex,
    central: Central,
    cutoff: f64,
    mut f: impl FnMut([f64; 3], f64, Far, bool),
) {
    let s = match central {
        Central::Site(s) => s,
        Central::Runaway(_) => {
            return partner_sweep::<false>(l, central, cutoff, |p| {
                let far = if p.is_runaway {
                    Far::runaway(p.ra_index)
                } else {
                    Far::site(p.site)
                };
                f(p.dx, p.r2, far, true)
            })
        }
    };
    debug_assert!(l.id[s] >= 0, "central site {s} is a vacancy");
    let cpos = l.pos[s];
    let cut2 = cutoff * cutoff;
    let mut emit = |ppos: [f64; 3], far: Far| {
        let (dx, r2) = separation(cpos, ppos);
        f(dx, r2, far, (r2 > 1e-12) & (r2 <= cut2));
    };
    for &d in l.forward_deltas(s) {
        let nid = (s as isize + d) as usize;
        if l.id[nid] >= 0 && l.is_owned(nid) {
            emit(l.pos[nid], Far::newton(nid));
        }
    }
    for &g in index.ghosts.of(s) {
        if l.id[g as usize] >= 0 {
            emit(l.pos[g as usize], Far::site(g as usize));
        }
    }
    for &i in index.near.of(s) {
        emit(l.runaway(i).pos, Far::runaway(i));
    }
}

/// The per-step half-list pair plan. The density pass sweeps each
/// central's [`half_sweep`] pairs and evaluates them through the
/// **fused** batch lookup; the plan keeps, per pair, what the force
/// pass reads: φ'(r)/r, f'(r)/r and the far end. The force pass reads
/// the plan back, so it does **no neighbour traversal and no table
/// evaluation at all**: it recomputes only Δ from the two positions,
/// through the sweep's own expression ([`separation`]), which is
/// cheaper than storing and re-reading it. φ(r) and f(r) are read once,
/// by the density sum right after staging, so they live in a
/// per-worker [`Scratch`] instead.
///
/// Validity: between the two passes only the embedding pass and the F'
/// ghost exchange run ([`crate::MdSimulation::compute_forces`]) —
/// positions, site occupancy, and run-away chains are structurally
/// frozen (`domain::unpack_slab` asserts the ghost chains don't drift
/// between phases), so the pair set, its order, and every staged value
/// are exactly what a fresh sweep would produce. Only the F' values
/// change between the passes, which is why a pair stores its far end
/// ([`Far`]) instead of F' itself. A position ghost exchange between
/// the passes would rebuild the ghost run-away records under new pool
/// indices; the force pass rejects such a plan as stale
/// ([`LatticeNeighborList::ghost_epoch`]).
///
/// Determinism: the per-pair work (sweep, square root, table lookup,
/// division by r) is done in parallel over fixed chunks of
/// [`PAR_CHUNK_SITES`] items, each worker writing only its own chunk
/// and scratch; every sum — ρ, ½Σφ and the forces, at both ends of a
/// pair — then runs on the calling thread in one global order:
/// centrals in order (interior sites, then live run-aways), each
/// central's pairs in [`half_sweep`] order. The density pass stages W
/// chunks at a time (W = the worker count) and sums each group before
/// it stages the next, which leaves that order as it is. The result
/// does not depend on the thread count, and [`PassConfig::seed_serial`]
/// sums in the same order.
///
/// Layout: the plan is **chunk-resident and persistent**. It owns one
/// [`PairChunk`] per work chunk — the chunks of the interior sites
/// (vacancies hold no pairs) followed by the chunks of the live
/// run-aways — one [`Scratch`] per worker a pass uses, the run-away
/// list it was staged for and the [`SweepIndex`], and keeps them across
/// steps: every step clears or rebuilds the arrays without releasing
/// them, so once the capacities have grown to the box's pair counts a
/// force evaluation stages, evaluates and accumulates without
/// allocating.
#[derive(Debug, Clone, Default)]
pub struct GatherPlan {
    chunks: Vec<PairChunk>,
    /// One per worker of the last density pass, at most one per chunk
    /// of a group.
    scratch: Vec<Scratch>,
    /// The live run-aways the plan was staged for, in pool order.
    runaways: Vec<u32>,
    /// [`LatticeNeighborList::ghost_epoch`] at staging: the ghost
    /// run-away records the plan's pool indices point at.
    ghost_epoch: u64,
    /// ½Σφ over the owned centrals, summed by the density pass.
    pair_energy: f64,
    index: SweepIndex,
}

impl GatherPlan {
    /// Panics unless the density pass staged this plan for exactly
    /// `interior`, the current live run-aways of `l` and its current
    /// ghost run-away records.
    fn check_staged(&self, l: &LatticeNeighborList, interior: &[usize]) {
        let site_lens = interior.chunks(PAR_CHUNK_SITES).map(<[usize]>::len);
        let ra_lens = self.runaways.chunks(PAR_CHUNK_SITES).map(<[u32]>::len);
        assert!(
            self.chunks
                .iter()
                .map(|c| c.counts.len())
                .eq(site_lens.chain(ra_lens))
                && l.live_runaway_ids().eq(self.runaways.iter().copied())
                && l.ghost_epoch() == self.ghost_epoch,
            "gather plan is stale: this step's density pass did not stage it for the current \
             central population"
        );
    }

    /// Runs `f` on every central in the global order — interior sites,
    /// then the plan's run-aways — with its chunk, its Newton pairs and
    /// its Newton-off pairs.
    fn for_each_central(
        &self,
        interior: &[usize],
        mut f: impl FnMut(Central, &PairChunk, Range<usize>, Range<usize>),
    ) {
        let (sites, ras) = self
            .chunks
            .split_at(interior.len().div_ceil(PAR_CHUNK_SITES));
        for (items, c) in interior.chunks(PAR_CHUNK_SITES).zip(sites) {
            c.for_each_central(items, Central::Site, |central, newton, off| {
                f(central, c, newton, off)
            });
        }
        for (items, c) in self.runaways.chunks(PAR_CHUNK_SITES).zip(ras) {
            c.for_each_central(items, Central::Runaway, |central, newton, off| {
                f(central, c, newton, off)
            });
        }
    }
}

/// One work chunk of the [`GatherPlan`]: its centrals' pair counts and,
/// in SoA layout and central order, what the force pass reads of each
/// pair.
#[derive(Debug, Clone, Default)]
struct PairChunk {
    /// Pairs staged per central, in central order.
    counts: Vec<u32>,
    /// How many of each central's pairs, leading its range, are
    /// Newton pairs ([`End::Newton`]).
    newton: Vec<u32>,
    /// φ'(r)/r and f'(r)/r.
    dphi_r: Vec<f64>,
    df_r: Vec<f64>,
    far: Vec<Far>,
}

/// Bytes a [`PairChunk`] keeps per pair: two `f64`s and the far end.
const PAIR_BYTES: usize = 2 * 8 + std::mem::size_of::<Far>();

/// What the density sum alone reads of one staged chunk: φ(r) and f(r)
/// per pair, in the chunk's pair order, and the chunk's batch counts.
/// One per worker, refilled chunk after chunk.
#[derive(Debug, Clone, Default)]
struct Scratch {
    phi: Vec<f64>,
    f: Vec<f64>,
    stats: BatchStats,
}

/// Bytes a [`Scratch`] holds per pair.
const SCRATCH_BYTES: usize = 2 * 8;

impl PairChunk {
    /// Empties every array, keeping its capacity.
    fn clear(&mut self) {
        self.counts.clear();
        self.newton.clear();
        self.dphi_r.clear();
        self.df_r.clear();
        self.far.clear();
    }

    /// Runs `f` on each of the chunk's centrals, `central(item)` for
    /// each of `items` in order, with its Newton pairs and its
    /// Newton-off pairs.
    fn for_each_central<T: Copy>(
        &self,
        items: &[T],
        central: fn(T) -> Central,
        mut f: impl FnMut(Central, Range<usize>, Range<usize>),
    ) {
        let mut at = 0;
        for ((&item, &n), &newton) in items.iter().zip(&self.counts).zip(&self.newton) {
            let (mid, end) = (at + newton as usize, at + n as usize);
            f(central(item), at..mid, mid..end);
            at = end;
        }
    }

    /// Evaluates one window of at most [`BATCH_GATHER_CAP`] staged
    /// pairs, their r² and far ends: the lane square roots, the fused
    /// lookup straight into the chunk's φ'/f' arrays and `scratch`'s φ
    /// and f arrays (each grown by the window), and the lane divisions
    /// by r in place; appends the far ends to the chunk.
    fn evaluate(
        &mut self,
        scratch: &mut Scratch,
        pot: &EamPotential,
        form: TableForm,
        r: &mut [f64],
        far: &[Far],
    ) {
        for x in r.iter_mut() {
            *x = x.sqrt();
        }
        let n = r.len();
        let grow = |v: &mut Vec<f64>| {
            let at = v.len();
            v.resize(at + n, 0.0);
            at
        };
        let at = grow(&mut self.dphi_r);
        grow(&mut self.df_r);
        let at_s = grow(&mut scratch.phi);
        grow(&mut scratch.f);
        let (dphi, df) = (&mut self.dphi_r[at..], &mut self.df_r[at..]);
        pot.pair_density_batch(
            form,
            r,
            &mut scratch.phi[at_s..],
            dphi,
            &mut scratch.f[at_s..],
            df,
        );
        for ((dphi, df), r) in dphi.iter_mut().zip(df.iter_mut()).zip(&*r) {
            *dphi /= r;
            *df /= r;
        }
        self.far.extend_from_slice(far);
        scratch.stats.charge(n, PAIR_BYTES + SCRATCH_BYTES);
    }
}

/// What staging reads besides the lattice: the sweep index and the
/// tables.
#[derive(Clone, Copy)]
struct Staging<'a> {
    index: &'a SweepIndex,
    pot: &'a EamPotential,
    form: TableForm,
}

/// ½Σφ as the density pass sums it, and its batch counts.
#[derive(Debug, Default)]
struct DensitySums {
    pair_energy: f64,
    stats: BatchStats,
}

impl Staging<'_> {
    /// Stages one work chunk into `c` and `scratch`, both emptied
    /// first: each central's [`half_sweep`] pairs are collected into a
    /// [`BATCH_GATHER_CAP`] window — every candidate is written and
    /// only those within the cutoff advance the window, so the distance
    /// test costs no branch — and every full window is evaluated as
    /// soon as it fills, while it is still in cache. A vacant site
    /// holds no pairs. `sqrt` and division are correctly rounded and
    /// the fused lookup replays the op sequence of the separate `pair`
    /// and `density` lookups per lane, so every staged value matches
    /// the scalar oracle's bit for bit.
    fn stage<T: Copy>(
        self,
        l: &LatticeNeighborList,
        items: &[T],
        central: fn(T) -> Central,
        c: &mut PairChunk,
        scratch: &mut Scratch,
    ) {
        c.clear();
        scratch.phi.clear();
        scratch.f.clear();
        scratch.stats = BatchStats::default();
        // A central has at most ~58 partners within the cutoff: one
        // up-front reservation on an array's first use, a no-op on
        // every later step.
        let cap = items.len() * 64;
        for v in [&mut c.dphi_r, &mut c.df_r, &mut scratch.phi, &mut scratch.f] {
            v.reserve(cap);
        }
        c.far.reserve(cap);
        let Self { index, pot, form } = self;
        let cutoff = pot.cutoff();
        let mut r2s = [0.0; BATCH_GATHER_CAP];
        let mut fars = [Far::site(0); BATCH_GATHER_CAP];
        let mut n = 0;
        for &item in items {
            let (mut count, mut newton) = (0, 0);
            let central = central(item);
            if !matches!(central, Central::Site(s) if l.id[s] < 0) {
                half_sweep(l, index, central, cutoff, |_, r2, far, keep| {
                    r2s[n] = r2;
                    fars[n] = far;
                    n += keep as usize;
                    count += keep as u32;
                    newton += (keep & far.is_newton()) as u32;
                    if n == BATCH_GATHER_CAP {
                        c.evaluate(scratch, pot, form, &mut r2s, &fars);
                        n = 0;
                    }
                });
            }
            c.counts.push(count);
            c.newton.push(newton);
        }
        c.evaluate(scratch, pot, form, &mut r2s[..n], &fars[..n]);
    }

    /// Stages the work chunks of `items` into `chunks`, `scratch.len()`
    /// of them at a time — one per scratch, across the thread pool —
    /// and after each group sums them on the calling thread, in central
    /// order: a pair adds its f(r) to its central's ρ and, for a Newton
    /// pair, to the far end's too; it adds φ(r) to ½Σφ in full for a
    /// Newton pair and half otherwise.
    fn stage_and_sum<T: Copy + Sync>(
        self,
        l: &mut LatticeNeighborList,
        items: &[T],
        central: fn(T) -> Central,
        chunks: &mut [PairChunk],
        scratch: &mut [Scratch],
        sums: &mut DensitySums,
    ) {
        let width = scratch.len();
        let groups = items.chunks(PAR_CHUNK_SITES * width);
        for (group, cs) in groups.zip(chunks.chunks_mut(width)) {
            let (lr, serial) = (&*l, cs.len() == 1);
            let work = group.chunks(PAR_CHUNK_SITES).zip(cs.iter_mut());
            let work = work.zip(scratch.iter_mut());
            let stage = |((items, c), s): ((&[T], &mut PairChunk), &mut Scratch)| {
                self.stage(lr, items, central, c, s)
            };
            if serial {
                work.for_each(stage);
            } else {
                work.collect::<Vec<_>>().into_par_iter().for_each(stage);
            }
            let staged = group.chunks(PAR_CHUNK_SITES).zip(&*cs).zip(&*scratch);
            for ((items, c), s) in staged {
                c.for_each_central(items, central, |central, newton, off| {
                    // Lower Newton partners have already added their share.
                    let mut rho = match central {
                        Central::Site(s) => l.rho[s],
                        Central::Runaway(_) => 0.0,
                    };
                    for k in newton {
                        rho += s.f[k];
                        l.rho[c.far[k].newton_site()] += s.f[k];
                        sums.pair_energy += s.phi[k];
                    }
                    for k in off {
                        rho += s.f[k];
                        sums.pair_energy += 0.5 * s.phi[k];
                    }
                    match central {
                        Central::Site(s) => l.rho[s] = rho,
                        Central::Runaway(i) => l.runaway_mut(i).rho = rho,
                    }
                });
                sums.stats.absorb(s.stats);
            }
        }
    }
}

/// Pass 1, building the per-step [`GatherPlan`] as a side effect: the
/// work chunks' pairs are staged and evaluated W at a time in parallel
/// (W = the worker count), and after each group ρ of its owned atoms
/// and live run-aways and their ½Σφ are summed on the calling thread
/// in the plan's global order (`Staging::stage_and_sum`). With
/// [`PassConfig::seed_serial`] the scalar `reference` sweep runs
/// instead and the plan is left empty, its capacity kept.
pub fn density_pass_plan(
    l: &mut LatticeNeighborList,
    pot: &EamPotential,
    form: TableForm,
    interior: &[usize],
    cfg: PassConfig,
    plan: &mut GatherPlan,
) {
    let _span = mmds_telemetry::span!("md.density");
    plan.runaways.clear();
    if cfg.0 == Path::Reference {
        plan.chunks.iter_mut().for_each(PairChunk::clear);
        return reference::density_sweep(l, pot, form, interior);
    }
    // A Newton pair's far end is owned, so it must be a central here.
    debug_assert_eq!(interior.len(), l.grid.n_owned_sites());
    assert!(
        l.n_sites() <= Far::CAPACITY && l.runaway_slots() <= Far::CAPACITY,
        "{} sites or {} run-away slots overflow a far end's index",
        l.n_sites(),
        l.runaway_slots()
    );
    plan.runaways.extend(l.live_runaway_ids());
    plan.ghost_epoch = l.ghost_epoch();
    plan.index.update(l);
    let site_chunks = interior.len().div_ceil(PAR_CHUNK_SITES);
    let ra_chunks = plan.runaways.len().div_ceil(PAR_CHUNK_SITES);
    plan.chunks
        .resize_with(site_chunks + ra_chunks, PairChunk::default);
    // No more scratches than a group of either kind fills.
    let width = rayon::current_num_threads().min(site_chunks.max(ra_chunks));
    plan.scratch.resize_with(width.max(1), Scratch::default);

    for &s in interior {
        l.rho[s] = 0.0;
    }
    let mut sums = DensitySums::default();
    let (sites, ras) = plan.chunks.split_at_mut(site_chunks);
    let staging = Staging {
        index: &plan.index,
        pot,
        form,
    };
    let scratch = &mut plan.scratch[..];
    staging.stage_and_sum(l, interior, Central::Site, sites, scratch, &mut sums);
    let runaways = &plan.runaways[..];
    staging.stage_and_sum(l, runaways, Central::Runaway, ras, scratch, &mut sums);
    plan.pair_energy = sums.pair_energy;
    sums.stats.emit();
}

/// Embedding pass: F'(ρ) for owned atoms/run-aways, returning Σ F(ρ)
/// summed in site order, then run-away order. One serial loop on either
/// path (`_cfg` picks nothing): a lookup per atom costs less than
/// handing chunks to workers, and the loop allocates nothing.
pub fn embedding_pass_with(
    l: &mut LatticeNeighborList,
    pot: &EamPotential,
    form: TableForm,
    interior: &[usize],
    _cfg: PassConfig,
) -> f64 {
    let _span = mmds_telemetry::span!("md.embed");
    let mut e = 0.0;
    for &s in interior {
        if l.id[s] >= 0 {
            let (f_val, f_der) = pot.embed(form, l.rho[s]);
            e += f_val;
            l.fp[s] = f_der;
        } else {
            l.fp[s] = 0.0;
        }
    }
    for r in l.live_runaways_mut() {
        let (f_val, f_der) = pot.embed(form, r.rho);
        e += f_val;
        r.fp = f_der;
    }
    e
}

/// Pass 2, reading back the [`GatherPlan`] built by
/// [`density_pass_plan`] in the same step: no neighbour traversal and
/// no table evaluation. On the calling thread, in the plan's global
/// order, each pair's Δ is recomputed from the two positions and its
/// force on the central
///
/// ```text
/// t = −(φ'(r)/r + (F'_central + F'_far) · f'(r)/r) · Δ
/// ```
///
/// is added to the central and, for a Newton pair ([`End::Newton`]), subtracted
/// from the far end. Returns the ½Σφ the density pass summed. Ghost F'
/// values must be current (exchange between the passes). Panics unless
/// the plan was staged for the current interior and run-away population
/// — a stale plan, or one the density pass never staged. With
/// [`PassConfig::seed_serial`] the scalar `reference` sweep runs instead
/// and the plan is not read.
pub fn force_pass_plan(
    l: &mut LatticeNeighborList,
    pot: &EamPotential,
    form: TableForm,
    interior: &[usize],
    cfg: PassConfig,
    plan: &mut GatherPlan,
) -> f64 {
    let _span = mmds_telemetry::span!("md.pair");
    if cfg.0 == Path::Reference {
        return reference::force_sweep(l, pot, form, interior);
    }
    plan.check_staged(l, interior);
    for &s in interior {
        l.force[s] = [0.0; 3];
    }
    let mut gathered = 0;
    plan.for_each_central(interior, |central, c, newton, off| {
        gathered += off.end - newton.start;
        // Lower Newton partners have already added their share.
        let (mut fv, (cpos, fp_c)) = match central {
            Central::Site(s) => (l.force[s], (l.pos[s], l.fp[s])),
            Central::Runaway(i) => ([0.0; 3], (l.runaway(i).pos, l.runaway(i).fp)),
        };
        let force_of = |k: usize, (ppos, fp): ([f64; 3], f64)| {
            let scale = -(c.dphi_r[k] + (fp_c + fp) * c.df_r[k]);
            separation(cpos, ppos).0.map(|d| scale * d)
        };
        for k in newton {
            let j = c.far[k].newton_site();
            let t = force_of(k, (l.pos[j], l.fp[j]));
            for ax in 0..3 {
                fv[ax] += t[ax];
                l.force[j][ax] -= t[ax];
            }
        }
        for k in off {
            let t = force_of(k, c.far[k].pos_fp(l));
            for ax in 0..3 {
                fv[ax] += t[ax];
            }
        }
        match central {
            Central::Site(s) => l.force[s] = fv,
            Central::Runaway(i) => l.runaway_mut(i).force = fv,
        }
    });
    // The far ends' positions and F': 32 B per pair.
    let stats = BatchStats {
        gather_bytes: 32 * gathered as u64,
        ..BatchStats::default()
    };
    stats.emit();
    plan.pair_energy
}

/// The scalar oracle the production passes are pinned against, bit for
/// bit: one central at a time on the calling thread over the same
/// [`half_sweep`] pairs, one `sqrt`, separate `pair` + `density` lookups
/// (two table locates) and two divisions by r per pair, and every sum
/// in the production passes' global order. Reached only through
/// [`density_pass_plan`] / [`force_pass_plan`] with
/// [`PassConfig::seed_serial`].
mod reference {
    use super::{half_sweep, Central, End, SweepIndex};
    use mmds_eam::{EamPotential, TableForm};
    use mmds_lattice::lnl::LatticeNeighborList;

    /// The centrals in the global order: owned regular atoms in
    /// `interior` order, then the live run-aways.
    fn centrals(l: &LatticeNeighborList, interior: &[usize]) -> Vec<Central> {
        let sites = interior.iter().filter(|&&s| l.id[s] >= 0);
        sites
            .map(|&s| Central::Site(s))
            .chain(l.live_runaways().into_iter().map(Central::Runaway))
            .collect()
    }

    /// Pass 1: ρ of every owned atom and live run-away (a vacancy gets 0).
    pub(super) fn density_sweep(
        l: &mut LatticeNeighborList,
        pot: &EamPotential,
        form: TableForm,
        interior: &[usize],
    ) {
        for &s in interior {
            l.rho[s] = 0.0;
        }
        let mut index = SweepIndex::default();
        index.update(l);
        for central in centrals(l, interior) {
            let mut rho = match central {
                Central::Site(s) => l.rho[s],
                Central::Runaway(_) => 0.0,
            };
            let mut newton = Vec::new();
            half_sweep(l, &index, central, pot.cutoff(), |_, r2, far, keep| {
                if !keep {
                    return;
                }
                let f = pot.density(form, r2.sqrt()).0;
                rho += f;
                if let End::Newton(j) = far.end() {
                    newton.push((j, f));
                }
            });
            for (j, f) in newton {
                l.rho[j] += f;
            }
            match central {
                Central::Site(s) => l.rho[s] = rho,
                Central::Runaway(i) => l.runaway_mut(i).rho = rho,
            }
        }
    }

    /// Pass 2: the force on every owned atom and live run-away (a
    /// vacancy gets 0), returning ½Σφ.
    pub(super) fn force_sweep(
        l: &mut LatticeNeighborList,
        pot: &EamPotential,
        form: TableForm,
        interior: &[usize],
    ) -> f64 {
        for &s in interior {
            l.force[s] = [0.0; 3];
        }
        let mut pair_energy = 0.0;
        let mut index = SweepIndex::default();
        index.update(l);
        for central in centrals(l, interior) {
            let (mut fv, fp_c) = match central {
                Central::Site(s) => (l.force[s], l.fp[s]),
                Central::Runaway(i) => ([0.0; 3], l.runaway(i).fp),
            };
            let mut newton = Vec::new();
            half_sweep(l, &index, central, pot.cutoff(), |dx, r2, far, keep| {
                if !keep {
                    return;
                }
                let r = r2.sqrt();
                let (phi, dphi) = pot.pair(form, r);
                let (_, df) = pot.density(form, r);
                let fp = far.pos_fp(l).1;
                let scale = -(dphi / r + (fp_c + fp) * (df / r));
                let t = dx.map(|d| scale * d);
                for ax in 0..3 {
                    fv[ax] += t[ax];
                }
                if let End::Newton(j) = far.end() {
                    pair_energy += phi;
                    newton.push((j, t));
                } else {
                    pair_energy += 0.5 * phi;
                }
            });
            for (j, t) in newton {
                for ax in 0..3 {
                    l.force[j][ax] -= t[ax];
                }
            }
            match central {
                Central::Site(s) => l.force[s] = fv,
                Central::Runaway(i) => l.runaway_mut(i).force = fv,
            }
        }
        pair_energy
    }
}

#[cfg(test)]
pub(crate) mod full_list {
    //! The full-list scalar sweep the half list replaced: every central
    //! evaluates every partner itself and sums in its own partner order.
    //! It pins the half list's physics to within round-off, and it
    //! reproduces the host trajectory from before the half list bit for
    //! bit (the offload tests warm their boxes up with it).
    use super::{for_each_partner, Central};
    use mmds_eam::{EamPotential, TableForm};
    use mmds_lattice::lnl::LatticeNeighborList;

    fn rho_of(l: &LatticeNeighborList, pot: &EamPotential, form: TableForm, c: Central) -> f64 {
        let mut rho = 0.0;
        for_each_partner(l, c, pot.cutoff(), |p| rho += pot.density(form, p.r).0);
        rho
    }

    /// Pass 1: ρ of every owned atom and live run-away (a vacancy gets 0).
    pub(crate) fn density_sweep(
        l: &mut LatticeNeighborList,
        pot: &EamPotential,
        form: TableForm,
        interior: &[usize],
    ) {
        for &s in interior {
            l.rho[s] = if l.id[s] < 0 {
                0.0
            } else {
                rho_of(l, pot, form, Central::Site(s))
            };
        }
        for i in l.live_runaways() {
            l.runaway_mut(i).rho = rho_of(l, pot, form, Central::Runaway(i));
        }
    }

    /// One central's force and ½Σφ.
    fn force_of(
        l: &LatticeNeighborList,
        pot: &EamPotential,
        form: TableForm,
        central: Central,
        fp_c: f64,
    ) -> ([f64; 3], f64) {
        let mut fv = [0.0; 3];
        let mut pair_e = 0.0;
        for_each_partner(l, central, pot.cutoff(), |p| {
            let (phi, dphi) = pot.pair(form, p.r);
            let (_, df) = pot.density(form, p.r);
            pair_e += 0.5 * phi;
            let scale = -(dphi + (fp_c + p.fp) * df) / p.r;
            for ax in 0..3 {
                fv[ax] += scale * p.dx[ax];
            }
        });
        (fv, pair_e)
    }

    /// Pass 2: the force on every owned atom and live run-away (a
    /// vacancy gets 0), returning ½Σφ summed in central order.
    pub(crate) fn force_sweep(
        l: &mut LatticeNeighborList,
        pot: &EamPotential,
        form: TableForm,
        interior: &[usize],
    ) -> f64 {
        let mut pair_energy = 0.0;
        for &s in interior {
            let (fv, pe) = if l.id[s] < 0 {
                ([0.0; 3], 0.0)
            } else {
                force_of(l, pot, form, Central::Site(s), l.fp[s])
            };
            l.force[s] = fv;
            pair_energy += pe;
        }
        for i in l.live_runaways() {
            let (fv, pe) = force_of(l, pot, form, Central::Runaway(i), l.runaway(i).fp);
            l.runaway_mut(i).force = fv;
            pair_energy += pe;
        }
        pair_energy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmds_eam::analytic::Species;
    use mmds_eam::EamPotential;
    use mmds_lattice::{BccGeometry, LatticeNeighborList, LocalGrid};

    fn setup(n_cells: usize) -> (LatticeNeighborList, EamPotential, Vec<usize>) {
        let grid = LocalGrid::whole(BccGeometry::fe_cube(n_cells), 2);
        let l = LatticeNeighborList::perfect(grid, 5.6);
        let pot = EamPotential::new(Species::Fe, 1500);
        let interior: Vec<usize> = l.grid.interior_ids().collect();
        (l, pot, interior)
    }

    use crate::domain::{exchange_ghosts, fill_periodic_ghosts, GhostPhase, Loopback};

    /// The F' ghost exchange [`crate::MdSimulation::compute_forces`]
    /// runs between the passes.
    fn exchange_fp(l: &mut LatticeNeighborList) {
        exchange_ghosts(l, &mut Loopback, GhostPhase::Fp);
    }

    /// One full force evaluation — the pass sequence of
    /// [`crate::MdSimulation::compute_forces`] — on the path `cfg` names.
    fn eval_with(
        l: &mut LatticeNeighborList,
        pot: &EamPotential,
        form: TableForm,
        interior: &[usize],
        cfg: PassConfig,
    ) -> EnergySample {
        let mut plan = GatherPlan::default();
        fill_periodic_ghosts(l);
        density_pass_plan(l, pot, form, interior, cfg, &mut plan);
        let embed = embedding_pass_with(l, pot, form, interior, cfg);
        exchange_fp(l);
        let pair = force_pass_plan(l, pot, form, interior, cfg, &mut plan);
        EnergySample { pair, embed }
    }

    /// The production path, as `MdSimulation` runs it.
    fn eval(l: &mut LatticeNeighborList, pot: &EamPotential, interior: &[usize]) -> EnergySample {
        let cfg = PassConfig::default();
        eval_with(l, pot, TableForm::Compacted, interior, cfg)
    }

    #[test]
    fn perfect_lattice_forces_vanish() {
        let (mut l, pot, interior) = setup(5);
        let e = eval(&mut l, &pot, &interior);
        for &s in &interior {
            for ax in 0..3 {
                assert!(
                    l.force[s][ax].abs() < 1e-6,
                    "site {s} axis {ax}: {}",
                    l.force[s][ax]
                );
            }
        }
        // Cohesive energy per atom should be negative and of eV order.
        let per_atom = e.total() / interior.len() as f64;
        assert!(per_atom < -0.5 && per_atom > -20.0, "E/atom = {per_atom}");
    }

    #[test]
    fn displaced_atom_is_pulled_back() {
        let (mut l, pot, interior) = setup(5);
        let s = l.grid.site_id(4, 4, 4, 0);
        l.pos[s][0] += 0.25;
        eval(&mut l, &pot, &interior);
        assert!(
            l.force[s][0] < -0.05,
            "restoring force expected, got {}",
            l.force[s][0]
        );
        // And the other components stay symmetric (≈ 0).
        assert!(l.force[s][1].abs() < 1e-6);
        assert!(l.force[s][2].abs() < 1e-6);
    }

    #[test]
    fn newtons_third_law_on_dimer_displacement() {
        let (mut l, pot, interior) = setup(5);
        let s = l.grid.site_id(4, 4, 4, 0);
        l.pos[s] = [l.pos[s][0] + 0.15, l.pos[s][1] - 0.1, l.pos[s][2] + 0.05];
        eval(&mut l, &pot, &interior);
        // Total force over all atoms must vanish (translational invariance).
        let mut tot = [0.0; 3];
        for &x in &interior {
            for ax in 0..3 {
                tot[ax] += l.force[x][ax];
            }
        }
        for ax in 0..3 {
            assert!(tot[ax].abs() < 1e-6, "net force axis {ax}: {}", tot[ax]);
        }
    }

    #[test]
    fn force_matches_energy_gradient() {
        let (mut l, pot, interior) = setup(4);
        let s = l.grid.site_id(3, 3, 3, 1);
        l.pos[s][0] += 0.2;
        let h = 1e-5;
        l.pos[s][0] += h;
        let e_plus = eval(&mut l, &pot, &interior).total();
        l.pos[s][0] -= 2.0 * h;
        let e_minus = eval(&mut l, &pot, &interior).total();
        l.pos[s][0] += h;
        eval(&mut l, &pot, &interior);
        let numeric = -(e_plus - e_minus) / (2.0 * h);
        assert!(
            (l.force[s][0] - numeric).abs() < 1e-4,
            "analytic {} vs numeric {numeric}",
            l.force[s][0]
        );
    }

    #[test]
    fn runaway_participates_in_forces() {
        let (mut l, pot, interior) = setup(5);
        // Promote one atom to a run-away sitting between sites.
        let s = l.grid.site_id(4, 4, 4, 0);
        let id = l.make_vacancy(s);
        let lp = l.grid.site_position(4, 4, 4, 0);
        let idx = l.add_runaway(s, id, [lp[0] + 1.3, lp[1], lp[2]], [0.0; 3]);
        eval(&mut l, &pot, &interior);
        let f = l.runaway(idx).force;
        assert!(
            f.iter().any(|c| c.abs() > 1e-3),
            "run-away must feel a force: {f:?}"
        );
        // Its neighbours feel it too: the atom nearest to the run-away
        // gets pushed, breaking the perfect-lattice zero.
        let near = l.grid.site_id(4, 4, 4, 1);
        assert!(l.force[near].iter().any(|c| c.abs() > 1e-3));
    }

    #[test]
    fn vacancy_contributes_nothing() {
        let (mut l, pot, interior) = setup(5);
        let s = l.grid.site_id(4, 4, 4, 0);
        l.make_vacancy(s);
        eval(&mut l, &pot, &interior);
        assert_eq!(l.force[s], [0.0; 3]);
        assert_eq!(l.rho[s], 0.0);
        // Neighbours of the vacancy feel a net pull toward it... or push,
        // but in any case a nonzero force along the 1NN direction.
        let n = l.grid.site_id(4, 4, 4, 1);
        let fnorm: f64 = l.force[n].iter().map(|c| c * c).sum::<f64>().sqrt();
        assert!(fnorm > 1e-3, "|f| = {fnorm}");
    }

    #[test]
    fn plan_passes_agree_bitwise_with_reference() {
        // The production pipeline (chunked fused staging in the density
        // pass, traversal-free replay in the force pass) must reproduce
        // the scalar reference exactly — a displaced atom, a vacancy and
        // a run-away central, whose partner counts exercise the ragged
        // scalar tails of the lane kernels.
        let run = |cfg: PassConfig| {
            let (mut l, pot, interior) = setup(5);
            let s = l.grid.site_id(4, 4, 4, 0);
            l.pos[s] = [l.pos[s][0] + 0.21, l.pos[s][1] - 0.13, l.pos[s][2] + 0.07];
            let v = l.grid.site_id(3, 3, 3, 0);
            let id = l.make_vacancy(v);
            let lp = l.grid.site_position(3, 3, 3, 0);
            let idx = l.add_runaway(v, id, [lp[0] + 1.3, lp[1] + 0.4, lp[2]], [0.0; 3]);
            let e = eval_with(&mut l, &pot, TableForm::Compacted, &interior, cfg);
            let ra = l.runaway(idx);
            (l.rho.clone(), l.force.clone(), e, ra.rho, ra.force)
        };
        let reference = run(PassConfig::seed_serial());
        let plan = run(PassConfig::default());
        assert_eq!(reference.0, plan.0, "rho arrays differ");
        assert_eq!(reference.1, plan.1, "force arrays differ");
        assert_eq!(reference.2, plan.2, "pair or embedding energy differs");
        assert_eq!(reference.3, plan.3, "run-away rho differs");
        assert_eq!(reference.4, plan.4, "run-away force differs");
    }

    /// Address and capacity of every array of the plan: each chunk's,
    /// each scratch's, then the run-away list's and the sweep index's.
    fn footprint(plan: &GatherPlan) -> Vec<(usize, usize)> {
        fn of<T>(v: &Vec<T>) -> (usize, usize) {
            (v.as_ptr() as usize, v.capacity())
        }
        let chunks = plan.chunks.iter().flat_map(|c| {
            [
                of(&c.counts),
                of(&c.newton),
                of(&c.dphi_r),
                of(&c.df_r),
                of(&c.far),
            ]
        });
        let scratch = plan.scratch.iter().flat_map(|s| [of(&s.phi), of(&s.f)]);
        let index = &plan.index;
        let plan_wide = [
            of(&plan.runaways),
            of(&index.ghosts.start),
            of(&index.ghosts.sites),
            of(&index.near.start),
            of(&index.near.idx),
        ];
        chunks.chain(scratch).chain(plan_wide).collect()
    }

    #[test]
    fn a_pair_keeps_only_what_the_force_pass_reads() {
        assert_eq!(std::mem::size_of::<Far>(), 4);
        assert_eq!(PAIR_BYTES, 20);
        // Pair counts, Newton counts, φ'/r, f'/r and the far ends: no
        // φ or f array, which live in a worker's scratch.
        assert_eq!(
            std::mem::size_of::<PairChunk>(),
            5 * std::mem::size_of::<Vec<u8>>()
        );
        let ends = [
            (Far::newton(0), End::Newton(0)),
            (Far::site(7), End::Site(7)),
            (Far::runaway(3), End::Runaway(3)),
            (
                Far::newton(Far::CAPACITY - 1),
                End::Newton(Far::CAPACITY - 1),
            ),
            (Far::site(Far::CAPACITY - 1), End::Site(Far::CAPACITY - 1)),
            (
                Far::runaway(Far::CAPACITY as u32 - 1),
                End::Runaway(Far::CAPACITY as u32 - 1),
            ),
        ];
        for (far, end) in ends {
            assert_eq!(far.end(), end);
            assert_eq!(far.is_newton(), matches!(end, End::Newton(_)));
        }
    }

    /// A 300 K two-chunk box (6³ cells, 432 sites) with one live
    /// run-away, and a velocity-Verlet step over the plan passes that
    /// applies no transitions, so the central population stays put.
    fn thermal_box_with_runaway() -> (LatticeNeighborList, EamPotential, Vec<usize>) {
        use rand::SeedableRng;
        let (mut l, pot, interior) = setup(6);
        assert!(interior.len() > PAR_CHUNK_SITES, "two site chunks");
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        crate::integrate::maxwell_boltzmann(&mut l, &interior, Species::Fe.mass(), 300.0, &mut rng);
        let v = l.grid.site_id(3, 3, 3, 0);
        let id = l.make_vacancy(v);
        let lp = l.grid.site_position(3, 3, 3, 0);
        l.add_runaway(v, id, [lp[0] + 1.3, lp[1] + 0.4, lp[2]], [0.0; 3]);
        (l, pot, interior)
    }

    fn plan_step(
        l: &mut LatticeNeighborList,
        pot: &EamPotential,
        interior: &[usize],
        plan: &mut GatherPlan,
    ) {
        use crate::integrate::{drift, kick};
        let (dt, mass) = (crate::MdConfig::default().dt, Species::Fe.mass());
        let cfg = PassConfig::default();
        kick(l, interior, 0.5 * dt, mass);
        drift(l, interior, dt);
        fill_periodic_ghosts(l);
        density_pass_plan(l, pot, TableForm::Compacted, interior, cfg, plan);
        embedding_pass_with(l, pot, TableForm::Compacted, interior, cfg);
        exchange_fp(l);
        force_pass_plan(l, pot, TableForm::Compacted, interior, cfg, plan);
        kick(l, interior, 0.5 * dt, mass);
    }

    /// Every directed (central, partner) link of the full list, as
    /// `(central, partner site, partner run-away index)` keys.
    fn directed_links(
        l: &LatticeNeighborList,
        interior: &[usize],
        cutoff: f64,
        half: bool,
    ) -> Vec<(Central, usize, u32)> {
        let mut centrals: Vec<Central> = interior
            .iter()
            .filter(|&&s| l.id[s] >= 0)
            .map(|&s| Central::Site(s))
            .collect();
        centrals.extend(l.live_runaways().into_iter().map(Central::Runaway));
        let mut links = Vec::new();
        let mut index = SweepIndex::default();
        index.update(l);
        for &c in &centrals {
            if half {
                half_sweep(l, &index, c, cutoff, |_, _, far, keep| match far.end() {
                    _ if !keep => {}
                    End::Newton(j) => {
                        let Central::Site(s) = c else {
                            panic!("a run-away central took a Newton pair")
                        };
                        links.push((c, j, u32::MAX));
                        links.push((Central::Site(j), s, u32::MAX));
                    }
                    End::Site(j) => links.push((c, j, u32::MAX)),
                    End::Runaway(i) => links.push((c, l.runaway(i).home as usize, i)),
                });
            } else {
                for_each_partner_sq(l, c, cutoff, |p| {
                    links.push((c, p.site, p.ra_index));
                });
            }
        }
        let key = |c: &Central| match *c {
            Central::Site(s) => (0, s),
            Central::Runaway(i) => (1, i as usize),
        };
        links.sort_by_key(|(c, site, ra)| (key(c), *site, *ra));
        links
    }

    #[test]
    fn half_sweep_covers_every_directed_link_once() {
        let (mut l, pot, interior) = thermal_box_with_runaway();
        let mut plan = GatherPlan::default();
        for _ in 0..3 {
            plan_step(&mut l, &pot, &interior, &mut plan);
        }
        let full = directed_links(&l, &interior, pot.cutoff(), false);
        let half = directed_links(&l, &interior, pot.cutoff(), true);
        assert_eq!(half, full);
        // The half list sweeps well under the full list's pairs: only
        // pairs with a ghost or a run-away end are swept twice.
        let (mut swept, mut index) = (0, SweepIndex::default());
        index.update(&l);
        for &s in interior.iter().filter(|&&s| l.id[s] >= 0) {
            half_sweep(
                &l,
                &index,
                Central::Site(s),
                pot.cutoff(),
                |_, _, _, keep| swept += keep as usize,
            );
        }
        assert!(swept < full.len() * 3 / 4, "{swept} of {}", full.len());
    }

    #[test]
    fn half_list_agrees_with_the_full_list_within_round_off() {
        // A thermal two-chunk box with a vacancy and a run-away: pairs
        // cross the chunk boundary and the periodic ghost shell, and
        // the run-away's pairs stay Newton-off.
        let (mut l, pot, interior) = thermal_box_with_runaway();
        let mut plan = GatherPlan::default();
        for _ in 0..5 {
            plan_step(&mut l, &pot, &interior, &mut plan);
        }
        let form = TableForm::Compacted;
        let half = eval(&mut l, &pot, &interior);
        let (rho, force) = (l.rho.clone(), l.force.clone());
        let ra: Vec<_> = l
            .live_runaways()
            .into_iter()
            .map(|i| (l.runaway(i).rho, l.runaway(i).force))
            .collect();
        assert!(!ra.is_empty());

        fill_periodic_ghosts(&mut l);
        full_list::density_sweep(&mut l, &pot, form, &interior);
        let embed = embedding_pass_with(&mut l, &pot, form, &interior, PassConfig::default());
        exchange_fp(&mut l);
        let pair = full_list::force_sweep(&mut l, &pot, form, &interior);

        let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(f64::MIN_POSITIVE);
        assert!(rel(half.pair, pair) < 1e-12, "pair {} vs {pair}", half.pair);
        assert!(
            rel(half.embed, embed) < 1e-12,
            "embed {} vs {embed}",
            half.embed
        );
        let mut rhos: Vec<(f64, f64)> = interior.iter().map(|&s| (rho[s], l.rho[s])).collect();
        let mut forces: Vec<([f64; 3], [f64; 3])> =
            interior.iter().map(|&s| (force[s], l.force[s])).collect();
        for (i, (rho_h, force_h)) in l.live_runaways().into_iter().zip(ra) {
            rhos.push((rho_h, l.runaway(i).rho));
            forces.push((force_h, l.runaway(i).force));
        }
        for (a, b) in rhos {
            assert!(a == b || rel(a, b) < 1e-12, "rho {a} vs {b}");
        }
        let f_max = forces
            .iter()
            .flat_map(|(_, b)| b.map(f64::abs))
            .fold(0.0, f64::max);
        assert!(f_max > 0.1, "a thermal box has real forces: {f_max}");
        for (a, b) in forces {
            for ax in 0..3 {
                assert!(
                    (a[ax] - b[ax]).abs() <= 1e-12 * f_max,
                    "force {a:?} vs {b:?}"
                );
            }
        }
        // A re-pin, not a copy: the half list sums in another order.
        assert_ne!(
            force, l.force,
            "the half list reproduced the full list's bits"
        );
    }

    #[test]
    fn plan_arrays_are_not_reallocated_after_warm_up() {
        let (mut l, pot, interior) = thermal_box_with_runaway();
        let mut plan = GatherPlan::default();
        for _ in 0..20 {
            plan_step(&mut l, &pot, &interior, &mut plan);
        }
        assert_eq!(
            plan.chunks.len(),
            3,
            "two site chunks and one run-away chunk"
        );
        // A group of site chunks fills every scratch there is.
        let workers = rayon::current_num_threads();
        assert_eq!(plan.scratch.len(), workers.min(2));
        let warm = footprint(&plan);
        assert!(warm.iter().all(|&(_, cap)| cap > 0));
        for _ in 0..20 {
            plan_step(&mut l, &pot, &interior, &mut plan);
        }
        assert_eq!(warm, footprint(&plan), "a chunk array moved or grew");

        // The reference path empties the plan and keeps the chunks and
        // the run-away list.
        let cfg = PassConfig::seed_serial();
        density_pass_plan(
            &mut l,
            &pot,
            TableForm::Compacted,
            &interior,
            cfg,
            &mut plan,
        );
        assert!(plan.chunks.iter().all(|c| c.counts.is_empty()));
        assert!(plan.runaways.is_empty());
        assert_eq!(
            warm,
            footprint(&plan),
            "the reference path dropped capacity"
        );
    }

    #[test]
    #[should_panic(expected = "gather plan is stale")]
    fn plan_staged_for_another_population_is_rejected() {
        let (mut l, pot, interior) = thermal_box_with_runaway();
        let (cfg, mut plan) = (PassConfig::default(), GatherPlan::default());
        // A plan no density pass ever staged is stale too: it must be
        // rejected, not served through some other path.
        let never_staged = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            force_pass_plan(
                &mut l,
                &pot,
                TableForm::Compacted,
                &interior,
                cfg,
                &mut plan,
            )
        }));
        let why = never_staged.expect_err("a never-staged plan was accepted");
        let why = why
            .downcast_ref::<&str>()
            .expect("a literal assert message");
        assert!(why.starts_with("gather plan is stale"), "{why}");

        plan_step(&mut l, &pot, &interior, &mut plan);
        // A second run-away joins the first one's chunk: the chunk count
        // still matches, the chunk's central count does not.
        let v = l.grid.site_id(5, 5, 5, 1);
        let (pos, vel) = (l.pos[v], l.vel[v]);
        let id = l.make_vacancy(v);
        l.add_runaway(v, id, pos, vel);
        force_pass_plan(
            &mut l,
            &pot,
            TableForm::Compacted,
            &interior,
            cfg,
            &mut plan,
        );
    }

    #[test]
    #[should_panic(expected = "gather plan is stale")]
    fn plan_across_a_position_exchange_is_rejected() {
        // A position ghost exchange rebuilds the ghost run-away records
        // under new pool indices, which the plan's far ends point at.
        let (mut l, pot, interior) = thermal_box_with_runaway();
        let (cfg, mut plan) = (PassConfig::default(), GatherPlan::default());
        let form = TableForm::Compacted;
        fill_periodic_ghosts(&mut l);
        density_pass_plan(&mut l, &pot, form, &interior, cfg, &mut plan);
        embedding_pass_with(&mut l, &pot, form, &interior, cfg);
        fill_periodic_ghosts(&mut l);
        force_pass_plan(&mut l, &pot, form, &interior, cfg, &mut plan);
    }

    #[test]
    fn table_forms_agree() {
        let (mut l, pot, interior) = setup(4);
        let s = l.grid.site_id(3, 3, 3, 0);
        l.pos[s][0] += 0.2;
        let cfg = PassConfig::default();
        eval_with(&mut l, &pot, TableForm::Compacted, &interior, cfg);
        let rho_c = l.rho[s];
        eval_with(&mut l, &pot, TableForm::Traditional, &interior, cfg);
        let rho_t = l.rho[s];
        assert!((rho_c - rho_t).abs() < 1e-6, "{rho_c} vs {rho_t}");
    }
}
