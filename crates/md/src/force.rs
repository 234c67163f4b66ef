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

use mmds_eam::{EamPotential, TableForm};
use mmds_lattice::lnl::LatticeNeighborList;
use rayon::prelude::*;

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
/// over the thread pool, stages each chunk's partners into the
/// persistent [`GatherPlan`] and evaluates them through the fused
/// lane-batched table kernels. Results are bitwise deterministic across
/// thread counts: chunk boundaries are fixed, per-site work reads
/// shared state only, and write-back and energy reduction happen in
/// site order on the calling thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PassConfig(Path);

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Path {
    #[default]
    Plan,
    Reference,
}

impl PassConfig {
    /// The pre-optimisation host path, kept as the bitwise oracle:
    /// serial sweeps, one `sqrt` and separate `pair` + `density`
    /// lookups per partner (the private `reference` module).
    pub fn seed_serial() -> Self {
        Self(Path::Reference)
    }

    /// Whether the per-site sweeps are chunked over the thread pool.
    pub(crate) fn parallel(self) -> bool {
        self.0 == Path::Plan
    }
}

/// Per-pass statistics of the batched gather/eval path, summed in site
/// order on the calling thread and emitted as the `md.batch.*` counter
/// family.
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
        let dx = [cpos[0] - ppos[0], cpos[1] - ppos[1], cpos[2] - ppos[2]];
        let r2 = dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2];
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

/// The per-step SoA gather plan: the density pass runs each central's
/// neighbour sweep through the **fused** batch lookup and stages
/// everything the force pass will need — partner displacements, r,
/// φ'(r), f'(r), a partner reference for the deferred F' fetch, and the
/// per-central ½Σφ — so the force pass does **no neighbour traversal
/// and no table evaluation at all**.
///
/// Validity: between the two passes only the embedding pass and the F'
/// ghost exchange run ([`crate::MdSimulation::compute_forces`]) —
/// positions, site occupancy, and run-away chains are structurally
/// frozen (`domain::unpack_slab` asserts the ghost chains don't drift
/// between phases), so the partner set, its traversal order, and every
/// staged value are exactly what a fresh force sweep would produce.
/// Only the partners' F' values change between the passes, which is why
/// the plan stores a partner *reference* (`pref`) instead of F' itself.
///
/// Bitwise identity: φ, φ', f, f' are pure functions of r, and the
/// fused lookup replays the op sequence of the separate lookups, so
/// evaluating them during the density pass produces exactly the bits
/// the scalar force sweep would compute; the per-central ½Σφ and the
/// force accumulation replay the scalar accumulation order unchanged.
///
/// Layout: the plan is **chunk-resident and persistent**. It owns one
/// [`DensityChunk`] per fixed [`PAR_CHUNK_SITES`]-item work chunk — the
/// chunks of the interior sites (vacancies hold an empty range) followed
/// by the chunks of the live run-aways — and keeps them across steps:
/// every step clears the chunk arrays without releasing them, so once
/// the capacities have grown to the box's partner counts a force
/// evaluation stages, replays and writes back without allocating, the
/// host-side analogue of the paper's fixed LDM staging buffer. The
/// density pass hands chunk *i* of the items together with `&mut` chunk
/// *i* of the plan to a worker; the force pass replays each chunk in
/// place. Chunk boundaries never depend on the worker count, and every
/// reduction over chunks runs in chunk order on the calling thread, so
/// the results do not depend on it either.
///
/// Each central's partner range is addressed by a chunk-local `u32`
/// start. A chunk stages at most [`PAR_CHUNK_SITES`] centrals, so the
/// start cannot wrap (a rank-wide `u32` offset would, past 2³² staged
/// partners — about 9·10⁷ atoms per rank); the staging loop
/// `debug_assert!`s the chunk-local bound.
#[derive(Debug, Clone, Default)]
pub struct GatherPlan {
    chunks: Vec<DensityChunk>,
}

impl GatherPlan {
    /// Sizes the plan for `sites` interior sites and `runaways` live
    /// run-aways (a no-op unless a chunk count changed) and returns the
    /// site chunks and the run-away chunks.
    fn split_for(
        &mut self,
        sites: usize,
        runaways: usize,
    ) -> (&mut [DensityChunk], &mut [DensityChunk]) {
        let site_chunks = sites.div_ceil(PAR_CHUNK_SITES);
        let ra_chunks = runaways.div_ceil(PAR_CHUNK_SITES);
        self.chunks
            .resize_with(site_chunks + ra_chunks, DensityChunk::default);
        self.chunks.split_at_mut(site_chunks)
    }

    /// The site chunks and the run-away chunks as the density pass left
    /// them. Panics unless every chunk holds exactly the centrals of
    /// the matching chunk of `interior`, then of `runaways`.
    fn split_staged(
        &mut self,
        interior: &[usize],
        runaways: &[u32],
    ) -> (&mut [DensityChunk], &mut [DensityChunk]) {
        let site_lens = interior.chunks(PAR_CHUNK_SITES).map(<[usize]>::len);
        let ra_lens = runaways.chunks(PAR_CHUNK_SITES).map(<[u32]>::len);
        assert!(
            self.chunks
                .iter()
                .map(|c| c.counts.len())
                .eq(site_lens.chain(ra_lens)),
            "gather plan is stale: this step's density pass did not stage it for the current \
             central population"
        );
        self.chunks
            .split_at_mut(interior.len().div_ceil(PAR_CHUNK_SITES))
    }
}

/// One work chunk of the [`GatherPlan`]: the chunk's centrals' staged
/// partner data in SoA layout, their partner ranges, and the per-central
/// outputs of both passes (ρ and ½Σφ from the density pass, the force
/// from the replay), which the calling thread writes back in order.
#[derive(Debug, Clone, Default)]
struct DensityChunk {
    rhos: Vec<f64>,
    /// Per-central ½Σφ, accumulated in partner order.
    pair_es: Vec<f64>,
    forces: Vec<[f64; 3]>,
    /// `starts[k]..starts[k] + counts[k]` is central `k`'s partner range
    /// in the arrays below.
    starts: Vec<u32>,
    counts: Vec<u32>,
    dx: Vec<f64>,
    dy: Vec<f64>,
    dz: Vec<f64>,
    /// Partner distance r (the density pass's lane square roots).
    r: Vec<f64>,
    /// φ'(r) from the fused batch lookup.
    dphi: Vec<f64>,
    /// f'(r) from the fused batch lookup.
    df: Vec<f64>,
    /// Partner reference for the deferred F' fetch: the storage site as
    /// a non-negative value for regular atoms, `-(pool_index + 1)` for
    /// run-away records.
    pref: Vec<i64>,
    stats: BatchStats,
}

impl DensityChunk {
    /// Empties every array, keeping its capacity.
    fn clear(&mut self) {
        self.rhos.clear();
        self.pair_es.clear();
        self.forces.clear();
        self.starts.clear();
        self.counts.clear();
        self.dx.clear();
        self.dy.clear();
        self.dz.clear();
        self.r.clear();
        self.dphi.clear();
        self.df.clear();
        self.pref.clear();
        self.stats = BatchStats::default();
    }
}

/// Runs `f` on every fixed-size chunk of `items` paired with its plan
/// chunk across the thread pool. The decomposition matches
/// [`chunked_map`], and each call writes only its own plan chunk, so
/// the outcome is independent of the thread count and of the order in
/// which the workers run.
fn for_each_chunk<T, F>(items: &[T], chunks: &mut [DensityChunk], f: F)
where
    T: Sync,
    F: Fn(&[T], &mut DensityChunk) + Sync,
{
    let work = items.chunks(PAR_CHUNK_SITES).zip(chunks);
    if items.len() <= PAR_CHUNK_SITES {
        work.for_each(|(it, c)| f(it, c));
    } else {
        work.collect::<Vec<_>>()
            .into_par_iter()
            .for_each(|(it, c)| f(it, c));
    }
}

/// Runs the plan-building density sweep for one work chunk: partners
/// are staged straight into the chunk's resident SoA buffers, then each
/// central's staged range goes through the lane square roots and the
/// **fused** batch lookup in [`BATCH_GATHER_CAP`] windows. `sqrt` is
/// correctly rounded, the fused lookup replays the op sequence of the
/// separate ones per lane, and accumulation stays in partner order, so
/// every staged φ', f' and the accumulated ρ and ½Σφ match the
/// [`reference`] sweeps bit for bit. φ' and f' land in the chunk's SoA
/// arrays for the force pass to replay; φ and f are folded into ½Σφ and
/// ρ on the spot.
fn stage_chunk<T: Copy>(
    l: &LatticeNeighborList,
    pot: &EamPotential,
    form: TableForm,
    cutoff: f64,
    items: &[T],
    as_central: impl Fn(T) -> Option<Central>,
    c: &mut DensityChunk,
) {
    c.clear();
    // A BCC central sees ~58 partners within the cutoff: one up-front
    // reservation on a chunk's first use, a no-op on every later step.
    let cap = items.len() * 64;
    c.dx.reserve(cap);
    c.dy.reserve(cap);
    c.dz.reserve(cap);
    c.r.reserve(cap);
    c.dphi.reserve(cap);
    c.df.reserve(cap);
    c.pref.reserve(cap);
    let mut phi = [0.0; BATCH_GATHER_CAP];
    let mut fval = [0.0; BATCH_GATHER_CAP];
    for &item in items {
        let start = c.r.len();
        if let Some(central) = as_central(item) {
            partner_sweep::<false>(l, central, cutoff, |p| {
                // `r` temporarily holds r²; the lane loop below replaces
                // it with the square root.
                c.r.push(p.r2);
                c.dx.push(p.dx[0]);
                c.dy.push(p.dx[1]);
                c.dz.push(p.dx[2]);
                c.pref.push(if p.is_runaway {
                    -(p.ra_index as i64) - 1
                } else {
                    p.site as i64
                });
            });
        }
        let end = c.r.len();
        debug_assert!(
            end <= u32::MAX as usize,
            "chunk-local partner range exceeds u32"
        );
        c.dphi.resize(end, 0.0);
        c.df.resize(end, 0.0);
        let mut rho = 0.0;
        let mut pair_e = 0.0;
        let mut at = start;
        while at < end {
            let len = (end - at).min(BATCH_GATHER_CAP);
            // The deferred square roots, as one vectorizable lane loop.
            for r in c.r[at..at + len].iter_mut() {
                *r = r.sqrt();
            }
            pot.pair_density_batch(
                form,
                &c.r[at..at + len],
                &mut phi[..len],
                &mut c.dphi[at..at + len],
                &mut fval[..len],
                &mut c.df[at..at + len],
            );
            for k in 0..len {
                rho += fval[k];
                pair_e += 0.5 * phi[k];
            }
            at += len;
        }
        c.rhos.push(rho);
        c.pair_es.push(pair_e);
        c.starts.push(start as u32);
        c.counts.push((end - start) as u32);
        // The plan stages the three displacement components, r, φ', f'
        // and the partner reference: 56 B per partner.
        c.stats.charge(end - start, 56);
    }
}

/// Pass 1, building the per-step [`GatherPlan`] as a side effect: each
/// work chunk's partner sweeps are staged into the plan's resident
/// chunk, ρ is evaluated from the staged records through the batch
/// kernels and written back in central order, and the staged records
/// stay where they are for the force pass to replay. With
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
    if cfg.0 == Path::Reference {
        plan.chunks.iter_mut().for_each(DensityChunk::clear);
        return reference::density_sweep(l, pot, form, interior);
    }
    let cutoff = pot.cutoff();
    let runaways = l.live_runaways();
    let (site_chunks, ra_chunks) = plan.split_for(interior.len(), runaways.len());
    let mut stats = BatchStats::default();
    for_each_chunk(interior, site_chunks, |sites, c| {
        let as_central = |s| (l.id[s] >= 0).then_some(Central::Site(s));
        stage_chunk(l, pot, form, cutoff, sites, as_central, c)
    });
    for (sites, c) in interior.chunks(PAR_CHUNK_SITES).zip(&*site_chunks) {
        for (&rho, &s) in c.rhos.iter().zip(sites) {
            l.rho[s] = rho;
        }
        stats.absorb(c.stats);
    }
    for_each_chunk(&runaways, ra_chunks, |ras, c| {
        stage_chunk(l, pot, form, cutoff, ras, |i| Some(Central::Runaway(i)), c)
    });
    for (ras, c) in runaways.chunks(PAR_CHUNK_SITES).zip(&*ra_chunks) {
        for (&rho, &i) in c.rhos.iter().zip(ras) {
            l.runaway_mut(i).rho = rho;
        }
        stats.absorb(c.stats);
    }
    stats.emit();
}

/// Embedding pass: F'(ρ) for owned atoms/run-aways, returning Σ F(ρ).
/// The reduction runs in site order on the calling thread, so the
/// energy is identical on either path and at any thread count.
pub fn embedding_pass_with(
    l: &mut LatticeNeighborList,
    pot: &EamPotential,
    form: TableForm,
    interior: &[usize],
    cfg: PassConfig,
) -> f64 {
    let _span = mmds_telemetry::span!("md.embed");
    let site_embed = chunked_map(interior, cfg.parallel(), |s| {
        if l.id[s] < 0 {
            return (0.0, 0.0);
        }
        pot.embed(form, l.rho[s])
    });
    let mut e = 0.0;
    for (&s, (f_val, f_der)) in interior.iter().zip(site_embed) {
        e += f_val;
        l.fp[s] = f_der;
    }
    let runaways = l.live_runaways();
    let ra_embed = chunked_map(&runaways, cfg.parallel(), |i| {
        pot.embed(form, l.runaway(i).rho)
    });
    for (&i, (f_val, f_der)) in runaways.iter().zip(ra_embed) {
        e += f_val;
        l.runaway_mut(i).fp = f_der;
    }
    e
}

/// Force accumulation for one work chunk, replaying each central's
/// staged partner range in place. Only the partners' F' values are
/// fetched fresh (8 B per partner); r, the displacements, φ' and f'
/// come straight from the chunk's SoA arrays, and ½Σφ was already
/// accumulated by the density pass. The per-partner scale expression
/// and the accumulation order are exactly those of
/// [`reference::force_sweep`], so the bits match the scalar sweep. A
/// vacancy holds an empty range and so gets a zero force.
fn replay_chunk<T: Copy>(
    l: &LatticeNeighborList,
    items: &[T],
    fp_of: impl Fn(T) -> f64,
    c: &mut DensityChunk,
) {
    c.forces.clear();
    for ((&item, &start), &count) in items.iter().zip(&c.starts).zip(&c.counts) {
        let fp_c = fp_of(item);
        let mut fv = [0.0; 3];
        for k in start as usize..start as usize + count as usize {
            let pr = c.pref[k];
            let fp = if pr >= 0 {
                l.fp[pr as usize]
            } else {
                l.runaway((-pr - 1) as u32).fp
            };
            let scale = -(c.dphi[k] + (fp_c + fp) * c.df[k]) / c.r[k];
            fv[0] += scale * c.dx[k];
            fv[1] += scale * c.dy[k];
            fv[2] += scale * c.dz[k];
        }
        c.forces.push(fv);
    }
}

/// Pass 2, replaying the [`GatherPlan`] built by [`density_pass_plan`]
/// in the same step: no second neighbour traversal and no table
/// evaluation — each chunk's staged partner ranges are replayed in
/// place, with only the partners' F' fetched fresh, and the forces and
/// the ½Σφ reduction are written back in central order on the calling
/// thread. Ghost F' values must be current (exchange between the
/// passes). Panics if any plan chunk's central count does not match the
/// current interior + run-away population — a stale plan, or one the
/// density pass never staged. With [`PassConfig::seed_serial`] the
/// scalar `reference` sweep runs instead and the plan is not read.
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
    let runaways = l.live_runaways();
    let (site_chunks, ra_chunks) = plan.split_staged(interior, &runaways);
    let mut pair_energy = 0.0;
    let mut stats = BatchStats::default();
    for_each_chunk(interior, site_chunks, |sites, c| {
        replay_chunk(l, sites, |s| l.fp[s], c)
    });
    for (sites, c) in interior.chunks(PAR_CHUNK_SITES).zip(&*site_chunks) {
        for (k, &s) in sites.iter().enumerate() {
            l.force[s] = c.forces[k];
            pair_energy += c.pair_es[k];
            stats.charge(c.counts[k] as usize, 8);
        }
    }
    for_each_chunk(&runaways, ra_chunks, |ras, c| {
        replay_chunk(l, ras, |i| l.runaway(i).fp, c)
    });
    for (ras, c) in runaways.chunks(PAR_CHUNK_SITES).zip(&*ra_chunks) {
        for (k, &i) in ras.iter().enumerate() {
            l.runaway_mut(i).force = c.forces[k];
            pair_energy += c.pair_es[k];
            stats.charge(c.counts[k] as usize, 8);
        }
    }
    stats.emit();
    pair_energy
}

/// The scalar oracle the production passes are pinned against, bit for
/// bit: one central at a time on the calling thread, one `sqrt` and
/// separate `pair` + `density` lookups (two table locates) per partner,
/// accumulation in partner order. Reached only through
/// [`density_pass_plan`] / [`force_pass_plan`] with
/// [`PassConfig::seed_serial`].
mod reference {
    use super::{for_each_partner, Central};
    use mmds_eam::{EamPotential, TableForm};
    use mmds_lattice::lnl::LatticeNeighborList;

    fn rho_of(l: &LatticeNeighborList, pot: &EamPotential, form: TableForm, c: Central) -> f64 {
        let mut rho = 0.0;
        for_each_partner(l, c, pot.cutoff(), |p| rho += pot.density(form, p.r).0);
        rho
    }

    /// Pass 1: ρ of every owned atom and live run-away (a vacancy gets 0).
    pub(super) fn density_sweep(
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
    pub(super) fn force_sweep(
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

    use crate::domain::fill_periodic_ghosts;

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
        fill_periodic_ghosts(l);
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

    /// Address and capacity of every array of every plan chunk.
    fn footprint(plan: &GatherPlan) -> Vec<(usize, usize)> {
        fn of<T>(v: &Vec<T>) -> (usize, usize) {
            (v.as_ptr() as usize, v.capacity())
        }
        plan.chunks
            .iter()
            .flat_map(|c| {
                [
                    of(&c.rhos),
                    of(&c.pair_es),
                    of(&c.forces),
                    of(&c.starts),
                    of(&c.counts),
                    of(&c.dx),
                    of(&c.dy),
                    of(&c.dz),
                    of(&c.r),
                    of(&c.dphi),
                    of(&c.df),
                    of(&c.pref),
                ]
            })
            .collect()
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
        fill_periodic_ghosts(l);
        force_pass_plan(l, pot, TableForm::Compacted, interior, cfg, plan);
        kick(l, interior, 0.5 * dt, mass);
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
        let warm = footprint(&plan);
        assert!(warm.iter().all(|&(_, cap)| cap > 0));
        for _ in 0..20 {
            plan_step(&mut l, &pot, &interior, &mut plan);
        }
        assert_eq!(warm, footprint(&plan), "a chunk array moved or grew");

        // The reference path empties the plan and keeps the chunks.
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
