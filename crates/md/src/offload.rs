//! CPE offload of the EAM passes — the Fig. 9 machinery.
//!
//! "The subdomain of each process is further equally partitioned into
//! slabs, and each thread \[CPE\] is responsible for one slab. ... each
//! slab is further partitioned into blocks, and each slave core
//! processes the blocks one by one" (§2.1.2). Per block the kernel
//! stages atom data into the local store (stream DMA), computes the EAM
//! pass — issuing latency-bound *gather* DMAs for anything not resident
//! (traditional table rows, halo atoms outside the retained window) —
//! and puts the results back. Each distinct halo site is fetched once
//! per block (it stays in the local store for the rest of the block).
//!
//! In compacted mode the three tables "are accessed sequentially"
//! (paper): the *modelled* force computation is two one-table-resident
//! sweeps (pair sweep, then density-gradient sweep), because two 39 KiB
//! tables plus block buffers cannot coexist in the 64 KB local store.
//! That is a constraint of the modelled machine, not of the host, so
//! the host runs them as **one** launch: each CPE carries one
//! [`CpeCtx`] per modelled sweep, walks each central's partners once,
//! evaluates pair and density through one fused lookup
//! ([`CompactTable::eval2_slice`] / `eval2_batch_slice`) into separate
//! accumulators, and charges each context exactly the sequence its own
//! sweep would be charged. Every bit and every virtual number equals
//! the two launches' (DESIGN §6.22; the two-launch oracle is kept under
//! `#[cfg(test)]`). The traditional force sweep evaluates pair and
//! density in one fused lookup in the model too — the tables share a
//! knot grid, so one segment locate serves both rows
//! ([`EamPotential::pair_density`] on the host,
//! `charge_table_access(LOCATE, SEG_EVAL, 2)` here).
//!
//! The three optimisation axes of Fig. 9:
//! * [`mmds_eam::TableForm`]: `Traditional` gathers one 56 B coefficient
//!   row per table access; `Compacted` holds the 39 KiB value table
//!   resident (its bytes reserved in the capacity-enforced store, the
//!   host reading the table in place) and reconstructs coefficients on
//!   the fly.
//! * `data_reuse`: the previous block's edge atoms stay in the local
//!   store, so backward halo references are free.
//! * `double_buffer`: block staging DMA overlaps compute (Fig. 6).

use mmds_eam::compact::{CompactTable, RECON_EXTRA_FLOPS};
use mmds_eam::spline::{TraditionalTable, PAPER_TABLE_N};
use mmds_eam::{EamPotential, TableForm, LOCATE_FLOPS, SEG_EVAL_FLOPS};
use mmds_lattice::lnl::LatticeNeighborList;
use mmds_sunway::{ClusterReport, CpeCluster, CpeCtx, LdmPlan, LsReservation, LsView, SwModel};
use serde::{Deserialize, Serialize};

use crate::force::{for_each_partner, Central, Partner, BATCH_GATHER_CAP};

/// Flops charged for computing one pair separation (r², √).
const R_FLOPS: u64 = 18;
/// Per-atom bookkeeping flops.
const ATOM_FLOPS: u64 = 6;

/// Bytes staged into the local store per block site (x, y, z as f64) —
/// the unit every block-buffer term of the LDM plan is expressed in.
pub const STAGE_BYTES_PER_SITE: usize = 24;

/// Offload configuration (the Fig. 9 ablation axes).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct OffloadConfig {
    /// Table machinery.
    pub form: TableForm,
    /// Keep the previous block's edge resident (ghost-data reuse).
    pub data_reuse: bool,
    /// Overlap staging DMA with compute.
    pub double_buffer: bool,
    /// Evaluate resident-table lookups through the SoA lane-batch
    /// kernels (the CPE mirror of the host's lane-batched plan path).
    /// Reserves lane buffers in the LDM plan; only effective with
    /// compacted tables (traditional rows are gathered per access, so
    /// there is nothing contiguous to batch).
    pub batched: bool,
    /// Sites per block. [`OffloadConfig::fit_block_sites`] derives the
    /// largest value whose declared LDM plan (table + block buffers +
    /// reuse margin) fits the 64 KB local store.
    pub block_sites: usize,
}

impl OffloadConfig {
    /// Upper bound on block sites regardless of spare LDM (the paper's
    /// block granularity; larger blocks stop paying off once staging
    /// startup is amortised).
    pub const MAX_BLOCK_SITES: usize = 448;

    /// The paper's best configuration, with the block size fitted to
    /// the paper's 5000-knot tables by [`OffloadConfig::fit_block_sites`].
    pub fn optimized() -> Self {
        Self::optimized_for(PAPER_TABLE_N)
    }

    /// The best configuration for tables of `knots` samples.
    pub fn optimized_for(knots: usize) -> Self {
        Self {
            form: TableForm::Compacted,
            data_reuse: true,
            double_buffer: true,
            batched: true,
            block_sites: Self::fit_block_sites(TableForm::Compacted, true, true, true, knots),
        }
    }

    /// The baseline configuration (traditional tables, no reuse, single
    /// buffer).
    pub fn traditional() -> Self {
        Self {
            form: TableForm::Traditional,
            data_reuse: false,
            double_buffer: false,
            batched: false,
            block_sites: Self::fit_block_sites(
                TableForm::Traditional,
                false,
                false,
                false,
                PAPER_TABLE_N,
            ),
        }
    }

    /// The four Fig. 9 variants in presentation order, each with its
    /// block size fitted to its own LDM plan (reuse and double
    /// buffering consume local store, so later variants run smaller
    /// blocks — the trade the prover makes explicit).
    pub fn fig9_variants() -> [(&'static str, Self); 4] {
        let t = Self::traditional();
        // The Fig. 9 ablation stays scalar: lane batching is a later
        // optimisation layered on top (the `optimized()` default).
        let fit = |data_reuse, double_buffer| Self {
            form: TableForm::Compacted,
            data_reuse,
            double_buffer,
            batched: false,
            block_sites: Self::fit_block_sites(
                TableForm::Compacted,
                data_reuse,
                double_buffer,
                false,
                PAPER_TABLE_N,
            ),
        };
        [
            ("TraditionalTable", t),
            ("CompactedTable", fit(false, false)),
            ("CompactedTable+DataReuse", fit(true, false)),
            ("CompactedTable+DataReuse+DoubleBuffer", fit(true, true)),
        ]
    }

    /// The largest block size (a multiple of 16, capped at
    /// [`OffloadConfig::MAX_BLOCK_SITES`]) whose worst sweep fits the
    /// SW26010 local store: resident table + (double-buffered) in/out
    /// block buffers + ghost-reuse margin, all per the declared plan.
    pub fn fit_block_sites(
        form: TableForm,
        data_reuse: bool,
        double_buffer: bool,
        batched: bool,
        knots: usize,
    ) -> usize {
        let ldm = SwModel::sw26010().ldm_bytes;
        let table = match form {
            TableForm::Compacted => knots * 8,
            TableForm::Traditional => 0,
        };
        // The batched sweeps stage partners through 9 lane buffers of
        // [`BATCH_GATHER_CAP`] f64 each (r, Δx/Δy/Δz, partner F', four
        // eval outputs) — reserved off the top like the table.
        let lanes = if batched { 9 * BATCH_GATHER_CAP * 8 } else { 0 };
        // Worst sweep stages positions in and 3 force words out.
        let copies = if double_buffer { 2 } else { 1 };
        let per_site =
            copies * 2 * STAGE_BYTES_PER_SITE + if data_reuse { STAGE_BYTES_PER_SITE } else { 0 };
        let fit = ldm.saturating_sub(table + lanes) / per_site;
        (fit & !15).clamp(16, Self::MAX_BLOCK_SITES)
    }

    /// The worst-case LDM footprint of every CPE sweep this
    /// configuration models — one plan per sweep, so the compacted
    /// force is two plans although the host runs it as one launch. The
    /// plans are declared symbolically from the plan constants (`knots`,
    /// `block_sites`, the buffering flags); the `mmds-audit` budget
    /// prover checks them against [`SwModel::sw26010`]`.ldm_bytes`. The
    /// kernels below reserve the same bytes per sweep context in the
    /// capacity-enforced store, so [`ClusterReport::ldm_high_water`] can
    /// never exceed the declared plan.
    pub fn ldm_plans(&self, label: &str, knots: usize) -> Vec<LdmPlan> {
        let sweep = |name: &str, resident: bool, out_words_per_site: usize| {
            let mut plan = LdmPlan::new(
                format!("md.offload/{label}/{name}"),
                SwModel::sw26010().ldm_bytes,
            );
            if resident {
                plan = plan.with("resident table", knots, 8);
            }
            plan = plan.with("block in", self.block_sites * 3, 8);
            if self.double_buffer {
                plan = plan.with("block in shadow", self.block_sites * 3, 8);
            }
            plan = plan.with("block out", self.block_sites * out_words_per_site, 8);
            if self.double_buffer {
                plan = plan.with("block out shadow", self.block_sites * out_words_per_site, 8);
            }
            if self.data_reuse {
                plan = plan.with("ghost-reuse margin", self.block_sites * 3, 8);
            }
            if self.batched && resident {
                plan = plan.with("batch gather+eval lanes", 9 * BATCH_GATHER_CAP, 8);
            }
            plan
        };
        match self.form {
            TableForm::Traditional => {
                vec![sweep("density", false, 1), sweep("force_both", false, 3)]
            }
            TableForm::Compacted => vec![
                sweep("density", true, 1),
                sweep("force_pair", true, 3),
                sweep("force_density", true, 3),
            ],
        }
    }
}

/// What one CPE launch computes. A launch gives every CPE one context
/// per *modelled* sweep and charges each context exactly what its sweep
/// would be charged launched on its own; the host walks each central's
/// partners once, whatever the number of contexts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sweep {
    /// ρ accumulation, density table resident in compacted mode. One
    /// context.
    Density,
    /// Traditional force: pair and density rows gathered per partner,
    /// ONE locate serving both segment evaluations (host parity). One
    /// context.
    ForceBoth,
    /// Compacted force: the paper's pair sweep (context 0, pair table
    /// resident) and density-gradient sweep (context 1, density table
    /// resident), walked once through one fused lookup per partner.
    ForceCompacted,
    /// The pair sweep launched on its own (the two-sweep oracle).
    #[cfg(test)]
    ForcePair,
    /// The density-gradient sweep launched on its own (the oracle).
    #[cfg(test)]
    ForceDensity,
}

impl Sweep {
    /// `f64` words of one site's result: ρ, or a force vector.
    fn out_words(self) -> usize {
        if self == Sweep::Density {
            1
        } else {
            3
        }
    }

    /// The compacted table context `k` keeps resident.
    fn resident(self, pot: &EamPotential, k: usize) -> &CompactTable {
        match (self, k) {
            (Sweep::ForceCompacted, 0) => &pot.comp_pair,
            #[cfg(test)]
            (Sweep::ForcePair, _) => &pot.comp_pair,
            _ => &pot.comp_density,
        }
    }
}

/// The retained-window width for data reuse: the farthest backward flat
/// offset any neighbour can have.
fn reach_flat(l: &LatticeNeighborList) -> usize {
    l.neighbor_deltas(0)
        .iter()
        .chain(l.neighbor_deltas(1))
        .map(|&d| d.unsigned_abs())
        .max()
        .unwrap_or(0)
}

/// Where one slab's results go: ρ per site, or one force term per
/// context per site plus the slab's ½Σφ.
enum SlabOut<'a, const K: usize> {
    Rho(&'a mut [f64]),
    Force {
        force: &'a mut [[[f64; 3]; K]],
        pair: &'a mut f64,
    },
}

struct SlabItem<'a, const K: usize> {
    sites: &'a [usize],
    out: SlabOut<'a, K>,
}

/// One central's running sums, accumulated in partner order: ρ, or one
/// force term per context (pair, density gradient) and ½Σφ.
struct CentralSums<const K: usize> {
    rho: f64,
    force: [[f64; 3]; K],
    pair: f64,
}

impl<const K: usize> CentralSums<K> {
    fn new() -> Self {
        Self {
            rho: 0.0,
            force: [[0.0; 3]; K],
            pair: 0.0,
        }
    }
}

/// SoA staging buffers for one central's partners in a batched sweep —
/// the CPE twin of the host gather plan's per-partner record (r, Δ
/// components, partner F'), capped at [`BATCH_GATHER_CAP`] and flushed
/// through the lane kernels when full. Staged once per partner, read by
/// every context's lookup.
struct BatchStage {
    rs: [f64; BATCH_GATHER_CAP],
    dxs: [f64; BATCH_GATHER_CAP],
    dys: [f64; BATCH_GATHER_CAP],
    dzs: [f64; BATCH_GATHER_CAP],
    fps: [f64; BATCH_GATHER_CAP],
}

impl BatchStage {
    fn new() -> Self {
        Self {
            rs: [0.0; BATCH_GATHER_CAP],
            dxs: [0.0; BATCH_GATHER_CAP],
            dys: [0.0; BATCH_GATHER_CAP],
            dzs: [0.0; BATCH_GATHER_CAP],
            fps: [0.0; BATCH_GATHER_CAP],
        }
    }

    fn put(&mut self, k: usize, p: &Partner) {
        self.rs[k] = p.r;
        self.dxs[k] = p.dx[0];
        self.dys[k] = p.dx[1];
        self.dzs[k] = p.dx[2];
        self.fps[k] = p.fp;
    }

    fn dx(&self, k: usize) -> [f64; 3] {
        [self.dxs[k], self.dys[k], self.dzs[k]]
    }
}

/// The halo positions one block has already fetched: an exact set over
/// the only partners a block can have — storage sites within `reach`
/// of the block, each in two planes (the site's regular atom, and the
/// run-aways anchored there, which travel as one fetch). A bitmap
/// indexed relative to the block's window: no hashing on a path that
/// runs for roughly every second partner of every central. One set
/// serves every context of a launch: their sweeps fetch the same halo.
#[derive(Default)]
struct HaloSeen {
    bits: Vec<u64>,
    lo: usize,
}

impl HaloSeen {
    /// Empties the set and re-centres it on the block `blk_lo..=blk_hi`.
    /// The backing store is reused from block to block.
    fn start_block(&mut self, blk_lo: usize, blk_hi: usize, reach: usize) {
        self.lo = blk_lo.saturating_sub(reach);
        let slots = 2 * (blk_hi + reach - self.lo + 1);
        self.bits.clear();
        self.bits.resize(slots.div_ceil(64), 0);
    }

    /// Records the partner's fetch; true if it is the block's first.
    fn insert(&mut self, site: usize, is_runaway: bool) -> bool {
        let slot = 2 * (site - self.lo) + usize::from(is_runaway);
        let (word, bit) = (slot / 64, 1u64 << (slot % 64));
        let first = self.bits[word] & bit == 0;
        self.bits[word] |= bit;
        first
    }
}

/// The resident tables of a compacted launch, one per context, sharing
/// one knot grid (`x0`, `dx`).
struct Tables<'t, const K: usize> {
    values: [&'t [f64]; K],
    x0: f64,
    dx: f64,
}

/// One partner, scalar path: each context's table lookup charged as its
/// sweep would charge it, the result folded into `sums`.
fn partner_lookup<const K: usize>(
    ctxs: &mut [CpeCtx; K],
    sweep: Sweep,
    pot: &EamPotential,
    tables: Option<&Tables<'_, K>>,
    fp_c: f64,
    p: &Partner,
    sums: &mut CentralSums<K>,
) {
    let Some(t) = tables else {
        // Traditional rows: every access gathers its coefficient rows.
        let ctx = &mut ctxs[0];
        if sweep == Sweep::Density {
            ctx.charge_dma_gather(TraditionalTable::ROW_BYTES);
            ctx.charge_table_access(LOCATE_FLOPS, SEG_EVAL_FLOPS, 1);
            sums.rho += pot.trad_density.eval(p.r);
        } else {
            // Fused lookup: the pair and density rows are still two
            // gathers, but ONE locate serves both segment evaluations.
            ctx.charge_dma_gather(2 * TraditionalTable::ROW_BYTES);
            ctx.charge_table_access(LOCATE_FLOPS, SEG_EVAL_FLOPS, 2);
            let (phi, dphi, _, df) = pot.trad_pair.eval2(&pot.trad_density, p.r);
            sums.pair += 0.5 * phi;
            let scale = -(dphi + (fp_c + p.fp) * df) / p.r;
            for ax in 0..3 {
                sums.force[0][ax] += scale * p.dx[ax];
            }
        }
        return;
    };
    // Resident tables: each context's sweep does one compacted lookup.
    for ctx in ctxs.iter_mut() {
        ctx.charge_table_access(LOCATE_FLOPS, SEG_EVAL_FLOPS + RECON_EXTRA_FLOPS, 1);
    }
    let (x0, dx) = (t.x0, t.dx);
    match sweep {
        Sweep::Density => sums.rho += CompactTable::eval_slice(t.values[0], x0, dx, p.r).0,
        Sweep::ForceCompacted => {
            let (phi, dphi, _, df) =
                CompactTable::eval2_slice(t.values[0], t.values[1], x0, dx, p.r);
            sums.pair += 0.5 * phi;
            let pair_scale = -dphi / p.r;
            let grad_scale = -((fp_c + p.fp) * df) / p.r;
            for ax in 0..3 {
                sums.force[0][ax] += pair_scale * p.dx[ax];
                sums.force[1][ax] += grad_scale * p.dx[ax];
            }
        }
        #[cfg(test)]
        Sweep::ForcePair => {
            let (phi, dphi) = CompactTable::eval_slice(t.values[0], x0, dx, p.r);
            sums.pair += 0.5 * phi;
            let scale = -dphi / p.r;
            for ax in 0..3 {
                sums.force[0][ax] += scale * p.dx[ax];
            }
        }
        #[cfg(test)]
        Sweep::ForceDensity => {
            let (_, df) = CompactTable::eval_slice(t.values[0], x0, dx, p.r);
            let scale = -((fp_c + p.fp) * df) / p.r;
            for ax in 0..3 {
                sums.force[0][ax] += scale * p.dx[ax];
            }
        }
        Sweep::ForceBoth => unreachable!("traditional sweeps gather their rows"),
    }
}

/// Evaluates one staged batch against the resident tables and folds the
/// results into the central's sums **in partner order** — the batch
/// kernels replay the scalar expressions per element, so the bits match
/// the scalar sweep exactly. Each context is charged one batch token per
/// full lane group and a scalar table access per ragged-tail element
/// (same flop totals as the scalar sweep, reconciled by the
/// `mmds-audit` flop ledger).
fn flush_table_batch<const K: usize>(
    ctxs: &mut [CpeCtx; K],
    sweep: Sweep,
    t: &Tables<'_, K>,
    fp_c: f64,
    stage: &BatchStage,
    n: usize,
    sums: &mut CentralSums<K>,
) {
    let full = n - n % mmds_eam::BATCH_LANES;
    for ctx in ctxs.iter_mut() {
        for _ in 0..full / mmds_eam::BATCH_LANES {
            ctx.charge_table_batch(
                LOCATE_FLOPS,
                SEG_EVAL_FLOPS + RECON_EXTRA_FLOPS,
                1,
                mmds_eam::BATCH_LANES as u64,
            );
        }
        for _ in full..n {
            ctx.charge_table_access(LOCATE_FLOPS, SEG_EVAL_FLOPS + RECON_EXTRA_FLOPS, 1);
        }
    }
    let (x0, dx) = (t.x0, t.dx);
    let rs = &stage.rs[..n];
    let mut val = [0.0; BATCH_GATHER_CAP];
    let mut der = [0.0; BATCH_GATHER_CAP];
    match sweep {
        Sweep::Density => {
            CompactTable::eval_values_batch_slice(t.values[0], x0, dx, rs, &mut val[..n]);
            for f_r in &val[..n] {
                sums.rho += f_r;
            }
        }
        Sweep::ForceCompacted => {
            let mut f = [0.0; BATCH_GATHER_CAP];
            let mut df = [0.0; BATCH_GATHER_CAP];
            CompactTable::eval2_batch_slice(
                t.values[0],
                t.values[1],
                x0,
                dx,
                rs,
                &mut val[..n],
                &mut der[..n],
                &mut f[..n],
                &mut df[..n],
            );
            for k in 0..n {
                sums.pair += 0.5 * val[k];
                let pair_scale = -der[k] / rs[k];
                let grad_scale = -((fp_c + stage.fps[k]) * df[k]) / rs[k];
                let d = stage.dx(k);
                for ax in 0..3 {
                    sums.force[0][ax] += pair_scale * d[ax];
                    sums.force[1][ax] += grad_scale * d[ax];
                }
            }
        }
        #[cfg(test)]
        Sweep::ForcePair | Sweep::ForceDensity => {
            CompactTable::eval_batch_slice(t.values[0], x0, dx, rs, &mut val[..n], &mut der[..n]);
            for k in 0..n {
                let scale = if sweep == Sweep::ForcePair {
                    sums.pair += 0.5 * val[k];
                    -der[k] / rs[k]
                } else {
                    -((fp_c + stage.fps[k]) * der[k]) / rs[k]
                };
                let d = stage.dx(k);
                for ax in 0..3 {
                    sums.force[0][ax] += scale * d[ax];
                }
            }
        }
        Sweep::ForceBoth => unreachable!("traditional sweeps are never batched"),
    }
}

/// Charges + computes one slab of `sweep` on one CPE's `K` contexts,
/// writing per-site outputs. Block staging, halo fetches and partner
/// staging happen once; every charge is issued to every context, so
/// each context sees the exact sequence its own sweep would.
fn slab_kernel<const K: usize>(
    ctxs: &mut [CpeCtx; K],
    l: &LatticeNeighborList,
    pot: &EamPotential,
    cfg: &OffloadConfig,
    sweep: Sweep,
    reach: usize,
    mut item: SlabItem<'_, K>,
) {
    let cutoff = pot.cutoff();
    let compacted = cfg.form == TableForm::Compacted;
    // Each context's resident table: its bytes reserved and its bulk
    // DMA charged, read in place (capacity enforced, nothing copied).
    let resident: [Option<LsView<'_, f64>>; K] = std::array::from_fn(|k| {
        compacted.then(|| {
            ctxs[k]
                .load_resident_table(&sweep.resident(pot, k).values)
                .expect("a compacted table fits in the local store")
        })
    });
    // The 273 KiB traditional table cannot be resident — prove it.
    debug_assert!(
        compacted
            || ctxs[0]
                .local_store()
                .reserve(pot.trad_pair.memory_bytes())
                .is_err()
    );
    let tables = compacted.then(|| {
        debug_assert_eq!(pot.comp_pair.x0, pot.comp_density.x0, "one knot grid");
        debug_assert_eq!(pot.comp_pair.dx, pot.comp_density.dx, "one knot grid");
        Tables {
            values: resident
                .each_ref()
                .map(|t| t.as_deref().unwrap_or_default()),
            x0: pot.comp_density.x0,
            dx: pot.comp_density.dx,
        }
    });
    // Block I/O buffers (positions in, results out), the double-buffer
    // shadows, the ghost-reuse margin and — with a resident table to
    // evaluate against — the batch lanes. The kernel reads main memory
    // directly, so these are reservations: the capacity-enforced store
    // still proves the declared `OffloadConfig::ldm_plans` budget honest.
    let use_batch = cfg.batched && compacted;
    let copies = if cfg.double_buffer { 2 } else { 1 };
    let words = copies * cfg.block_sites * (3 + sweep.out_words())
        + if cfg.data_reuse {
            reach.min(cfg.block_sites) * 3
        } else {
            0
        }
        + if use_batch { 9 * BATCH_GATHER_CAP } else { 0 };
    let _buffers: [LsReservation; K] = std::array::from_fn(|k| {
        ctxs[k]
            .reserve_f64(words)
            .expect("block buffers, shadows, reuse margin and lanes fit in the local store")
    });

    let mut halo_seen = HaloSeen::default();
    let mut stage = BatchStage::new();
    for ctx in ctxs.iter_mut() {
        ctx.begin_blocks(cfg.double_buffer);
    }
    let nblocks = item.sites.len().div_ceil(cfg.block_sites).max(1);
    for (bi, block) in item.sites.chunks(cfg.block_sites.max(1)).enumerate() {
        let blk_lo = block[0];
        let blk_hi = *block.last().expect("chunks are non-empty");
        debug_assert!(block.is_sorted(), "slab sites ascend");
        halo_seen.start_block(blk_lo, blk_hi, reach);
        let window_lo = if cfg.data_reuse {
            blk_lo.saturating_sub(reach)
        } else {
            blk_lo
        };
        // Stage the block in.
        for ctx in ctxs.iter_mut() {
            ctx.charge_dma_get(block.len() * STAGE_BYTES_PER_SITE);
        }
        let base = bi * cfg.block_sites;
        for (oi, &s) in block.iter().enumerate() {
            if l.id[s] < 0 {
                // A vacancy: its output stays the zero it starts as.
                continue;
            }
            for ctx in ctxs.iter_mut() {
                ctx.charge_flops(ATOM_FLOPS);
            }
            let fp_c = l.fp[s];
            let mut sums = CentralSums::new();
            let mut staged = 0;
            for_each_partner(l, Central::Site(s), cutoff, |p| {
                for ctx in ctxs.iter_mut() {
                    ctx.charge_flops(R_FLOPS);
                }
                // Halo position fetch: once per distinct off-window site
                // per block (it stays in the local store afterwards).
                if (p.is_runaway || p.site < window_lo || p.site > blk_hi)
                    && halo_seen.insert(p.site, p.is_runaway)
                {
                    for ctx in ctxs.iter_mut() {
                        ctx.charge_dma_gather(STAGE_BYTES_PER_SITE);
                    }
                }
                match &tables {
                    // Batched: stage, flush through the batch kernels at
                    // the cap and at the end — identical partner order,
                    // identical bits.
                    Some(t) if use_batch => {
                        stage.put(staged, &p);
                        staged += 1;
                        if staged == BATCH_GATHER_CAP {
                            flush_table_batch(ctxs, sweep, t, fp_c, &stage, staged, &mut sums);
                            staged = 0;
                        }
                    }
                    t => partner_lookup(ctxs, sweep, pot, t.as_ref(), fp_c, &p, &mut sums),
                }
            });
            if staged > 0 {
                let t = tables.as_ref().expect("only resident-table lookups stage");
                flush_table_batch(ctxs, sweep, t, fp_c, &stage, staged, &mut sums);
            }
            let o = base + oi;
            match &mut item.out {
                SlabOut::Rho(rho) => rho[o] = sums.rho,
                SlabOut::Force { force, pair } => {
                    force[o] = sums.force;
                    **pair += sums.pair;
                }
            }
        }
        // Stage the block's results out.
        for ctx in ctxs.iter_mut() {
            ctx.charge_dma_put(block.len() * 8 * sweep.out_words());
        }
        if bi + 1 < nblocks {
            for ctx in ctxs.iter_mut() {
                ctx.next_block();
            }
        }
    }
    for ctx in ctxs.iter_mut() {
        ctx.finish_blocks();
    }
}

/// Sites per slab: the interior split evenly over the cluster's CPEs.
fn slab_len(interior: &[usize], cluster: &CpeCluster) -> usize {
    interior.len().div_ceil(cluster.n_cpes()).max(1)
}

/// One CPE launch of `sweep` over the slabs in `items`.
fn launch<const K: usize>(
    l: &LatticeNeighborList,
    pot: &EamPotential,
    cluster: &CpeCluster,
    cfg: &OffloadConfig,
    sweep: Sweep,
    items: Vec<SlabItem<'_, K>>,
) -> [ClusterReport; K] {
    let reach = reach_flat(l);
    cluster.run(items, |ctxs, item| {
        slab_kernel(ctxs, l, pot, cfg, sweep, reach, item)
    })
}

/// The density sweep on the CPEs; the MPE scatters ρ back.
fn density_sweep(
    l: &mut LatticeNeighborList,
    pot: &EamPotential,
    cluster: &CpeCluster,
    cfg: &OffloadConfig,
    interior: &[usize],
) -> ClusterReport {
    let slab = slab_len(interior, cluster);
    let mut rho = vec![0.0f64; interior.len()];
    let items = interior
        .chunks(slab)
        .zip(rho.chunks_mut(slab))
        .map(|(sites, rho)| SlabItem {
            sites,
            out: SlabOut::Rho(rho),
        })
        .collect();
    let [report] = launch(l, pot, cluster, cfg, Sweep::Density, items);
    for (&s, rho) in interior.iter().zip(rho) {
        l.rho[s] = rho;
    }
    report
}

/// A force launch of `K` contexts, one force term each. The MPE sets
/// each site's force to context 0's term, then adds each later
/// context's — the order the separate sweeps' scatters ran in.
/// Returns the contexts' reports and ½Σφ.
fn force_sweep<const K: usize>(
    l: &mut LatticeNeighborList,
    pot: &EamPotential,
    cluster: &CpeCluster,
    cfg: &OffloadConfig,
    interior: &[usize],
    sweep: Sweep,
) -> ([ClusterReport; K], f64) {
    let slab = slab_len(interior, cluster);
    let mut force = vec![[[0.0f64; 3]; K]; interior.len()];
    let mut pair = vec![0.0f64; interior.len().div_ceil(slab).max(1)];
    let items = interior
        .chunks(slab)
        .zip(force.chunks_mut(slab))
        .zip(pair.iter_mut())
        .map(|((sites, force), pair)| SlabItem {
            sites,
            out: SlabOut::Force { force, pair },
        })
        .collect();
    let reports = launch(l, pot, cluster, cfg, sweep, items);
    for (&s, terms) in interior.iter().zip(force) {
        l.force[s] = terms[0];
        for term in &terms[1..] {
            for ax in 0..3 {
                l.force[s][ax] += term[ax];
            }
        }
    }
    (reports, pair.iter().sum())
}

/// The CPE force computation: one launch. The compacted form's two
/// modelled sweeps are its two contexts, reported merged.
fn force_sweeps(
    l: &mut LatticeNeighborList,
    pot: &EamPotential,
    cluster: &CpeCluster,
    cfg: &OffloadConfig,
    interior: &[usize],
) -> (ClusterReport, f64) {
    match cfg.form {
        TableForm::Traditional => {
            let ([report], pair) = force_sweep(l, pot, cluster, cfg, interior, Sweep::ForceBoth);
            (report, pair)
        }
        TableForm::Compacted => {
            let ([pair_sweep, gradient_sweep], pair) =
                force_sweep(l, pot, cluster, cfg, interior, Sweep::ForceCompacted);
            (merge_reports(pair_sweep, gradient_sweep), pair)
        }
    }
}

/// Outcome of an offloaded two-pass force computation.
#[derive(Debug, Clone, Copy)]
pub struct OffloadOutcome {
    /// Density-pass cluster report.
    pub density: ClusterReport,
    /// Force-pass cluster report (both sweeps merged in compacted mode).
    pub force: ClusterReport,
    /// Pair energy (eV).
    pub pair_energy: f64,
    /// Embedding energy (eV).
    pub embed_energy: f64,
}

impl OffloadOutcome {
    /// Total CPE kernel time (virtual seconds).
    pub fn kernel_time(&self) -> f64 {
        self.density.time + self.force.time
    }
}

fn merge_reports(a: ClusterReport, b: ClusterReport) -> ClusterReport {
    ClusterReport {
        time: a.time + b.time,
        counters: a.counters.merge(&b.counters),
        active_cpes: a.active_cpes.max(b.active_cpes),
        ldm_high_water: a.ldm_high_water.max(b.ldm_high_water),
    }
}

/// The CPE force step: `(l, pot, cluster, cfg, interior)` → (merged
/// report, ½Σφ).
type ForceStep = fn(
    &mut LatticeNeighborList,
    &EamPotential,
    &CpeCluster,
    &OffloadConfig,
    &[usize],
) -> (ClusterReport, f64);

/// Runs the density pass (CPE), the embedding pass (MPE), and — after
/// the caller exchanges ghost F' — the force sweep(s) (CPE). Run-away
/// centrals are handled on the MPE (they are a few millionths of the
/// atoms). The caller supplies the ghost-exchange hook between the
/// passes.
pub fn offload_compute_forces(
    l: &mut LatticeNeighborList,
    pot: &EamPotential,
    cluster: &CpeCluster,
    cfg: &OffloadConfig,
    interior: &[usize],
    exchange_fp: impl FnMut(&mut LatticeNeighborList),
) -> OffloadOutcome {
    compute_forces_with(l, pot, cluster, cfg, interior, exchange_fp, force_sweeps)
}

/// [`offload_compute_forces`] with the CPE force step passed in, so the
/// tests can run the two-sweep oracle through the same MPE passes.
fn compute_forces_with(
    l: &mut LatticeNeighborList,
    pot: &EamPotential,
    cluster: &CpeCluster,
    cfg: &OffloadConfig,
    interior: &[usize],
    mut exchange_fp: impl FnMut(&mut LatticeNeighborList),
    force_step: ForceStep,
) -> OffloadOutcome {
    let density_rep = {
        let _span = mmds_telemetry::span!("md.offload.density");
        density_sweep(l, pot, cluster, cfg, interior)
    };
    // Run-away densities on the MPE.
    let runaways = l.live_runaways();
    let cutoff = pot.cutoff();
    let mut ra_rho = Vec::with_capacity(runaways.len());
    for &i in &runaways {
        let mut rho = 0.0;
        for_each_partner(l, Central::Runaway(i), cutoff, |p| {
            rho += pot.density(cfg.form, p.r).0;
        });
        ra_rho.push(rho);
    }
    for (&i, rho) in runaways.iter().zip(ra_rho) {
        l.runaway_mut(i).rho = rho;
    }
    let embed_energy =
        crate::force::embedding_pass_with(l, pot, cfg.form, interior, Default::default());
    exchange_fp(l);
    let (force_rep, mut pair_energy) = {
        let _span = mmds_telemetry::span!("md.offload.force");
        force_step(l, pot, cluster, cfg, interior)
    };
    // Run-away forces on the MPE.
    let mut ra_force = Vec::with_capacity(runaways.len());
    for &i in &runaways {
        let fp_c = l.runaway(i).fp;
        let mut fv = [0.0; 3];
        for_each_partner(l, Central::Runaway(i), cutoff, |p| {
            let (phi, dphi, _, df) = pot.pair_density(cfg.form, p.r);
            pair_energy += 0.5 * phi;
            let scale = -(dphi + (fp_c + p.fp) * df) / p.r;
            for ax in 0..3 {
                fv[ax] += scale * p.dx[ax];
            }
        });
        ra_force.push(fv);
    }
    for (&i, fv) in runaways.iter().zip(ra_force) {
        l.runaway_mut(i).force = fv;
    }
    OffloadOutcome {
        density: density_rep,
        force: force_rep,
        pair_energy,
        embed_energy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MdConfig;
    use crate::domain::{exchange_ghosts, GhostPhase, Loopback};
    use crate::sim::MdSimulation;
    use mmds_sunway::SwModel;

    #[test]
    fn halo_seen_is_an_exact_per_block_set() {
        let mut seen = HaloSeen::default();
        // Block 100..=163 with reach 40: window 60..=203, and a block
        // near the origin whose window is cut at site 0.
        for (blk_lo, blk_hi, reach) in [(100, 163, 40), (3, 66, 40)] {
            seen.start_block(blk_lo, blk_hi, reach);
            let (lo, hi) = (blk_lo.saturating_sub(reach), blk_hi + reach);
            let mut reference = std::collections::HashSet::new();
            // Every slot of both planes, visited twice in a scrambled
            // order: first visits report true, repeats false.
            let span = hi - lo + 1;
            for k in 0..4 * span {
                let site = lo + (k * 37) % span;
                let is_runaway = (k / span) % 2 == 1;
                assert_eq!(
                    seen.insert(site, is_runaway),
                    reference.insert((site, is_runaway)),
                    "site {site} run-away {is_runaway}"
                );
            }
            assert_eq!(reference.len(), 2 * span);
        }
    }

    fn sim() -> MdSimulation {
        let cfg = MdConfig {
            table_knots: 5000,
            ..Default::default()
        };
        let mut s = MdSimulation::single_box(cfg, 5);
        // Perturb so forces are nontrivial.
        let a = s.lnl.grid.site_id(4, 4, 4, 0);
        s.lnl.pos[a][0] += 0.22;
        let b = s.lnl.grid.site_id(3, 4, 5, 1);
        s.lnl.pos[b][1] -= 0.17;
        s
    }

    fn offload_forces_on(
        s: &mut MdSimulation,
        ocfg: &OffloadConfig,
        model: SwModel,
    ) -> OffloadOutcome {
        let cluster = CpeCluster::new(model);
        exchange_ghosts(&mut s.lnl, &mut Loopback, GhostPhase::Positions);
        let interior = s.interior.clone();
        let pot = s.pot.clone();
        offload_compute_forces(&mut s.lnl, &pot, &cluster, ocfg, &interior, |l| {
            exchange_ghosts(l, &mut Loopback, GhostPhase::Fp)
        })
    }

    fn offload_forces(s: &mut MdSimulation, ocfg: &OffloadConfig) -> OffloadOutcome {
        offload_forces_on(s, ocfg, SwModel::sw26010())
    }

    /// The compacted force as the parent ran it: the pair sweep and the
    /// density-gradient sweep as two launches, each walking every
    /// neighbour list with its own one-table lookups, scattered
    /// set-then-add. The traditional form had one sweep already.
    fn two_sweep_forces(
        l: &mut LatticeNeighborList,
        pot: &EamPotential,
        cluster: &CpeCluster,
        cfg: &OffloadConfig,
        interior: &[usize],
    ) -> (ClusterReport, f64) {
        if cfg.form == TableForm::Traditional {
            return force_sweeps(l, pot, cluster, cfg, interior);
        }
        let ([pair_sweep], pair) = force_sweep(l, pot, cluster, cfg, interior, Sweep::ForcePair);
        let pair_terms: Vec<[f64; 3]> = interior.iter().map(|&s| l.force[s]).collect();
        let ([gradient_sweep], _) =
            force_sweep(l, pot, cluster, cfg, interior, Sweep::ForceDensity);
        for (&s, pair_term) in interior.iter().zip(pair_terms) {
            let gradient_term = l.force[s];
            l.force[s] = pair_term;
            for ax in 0..3 {
                l.force[s][ax] += gradient_term[ax];
            }
        }
        (merge_reports(pair_sweep, gradient_sweep), pair)
    }

    /// [`offload_forces_on`] through the two-sweep oracle.
    fn two_sweep_forces_on(
        s: &mut MdSimulation,
        ocfg: &OffloadConfig,
        model: SwModel,
    ) -> OffloadOutcome {
        let cluster = CpeCluster::new(model);
        exchange_ghosts(&mut s.lnl, &mut Loopback, GhostPhase::Positions);
        let interior = s.interior.clone();
        let pot = s.pot.clone();
        let exchange =
            |l: &mut LatticeNeighborList| exchange_ghosts(l, &mut Loopback, GhostPhase::Fp);
        compute_forces_with(
            &mut s.lnl,
            &pot,
            &cluster,
            ocfg,
            &interior,
            exchange,
            two_sweep_forces,
        )
    }

    #[test]
    fn offload_matches_serial_forces() {
        let mut s1 = sim();
        let mut t = Loopback;
        let serial = s1.compute_forces(&mut t);
        let mut s2 = sim();
        let out = offload_forces(&mut s2, &OffloadConfig::optimized());
        assert!((out.pair_energy - serial.pair).abs() < 1e-9, "pair energy");
        assert!(
            (out.embed_energy - serial.embed).abs() < 1e-9,
            "embed energy"
        );
        for &site in &s1.interior {
            for ax in 0..3 {
                assert!(
                    (s1.lnl.force[site][ax] - s2.lnl.force[site][ax]).abs() < 1e-10,
                    "force mismatch at {site}"
                );
            }
        }
    }

    #[test]
    fn traditional_mode_matches_too() {
        let mut s1 = sim();
        s1.table_form = TableForm::Traditional;
        let serial = s1.compute_forces(&mut Loopback);
        let mut s2 = sim();
        let out = offload_forces(&mut s2, &OffloadConfig::traditional());
        assert!((out.pair_energy - serial.pair).abs() < 1e-9);
    }

    #[test]
    fn fig9_ordering_traditional_slowest() {
        // Use 8 CPEs so each slab holds several realistic blocks.
        let model = SwModel {
            n_cpes: 8,
            ..SwModel::sw26010()
        };
        let mut times = Vec::new();
        for (name, mut ocfg) in OffloadConfig::fig9_variants() {
            ocfg.block_sites = 64;
            let mut s = sim();
            let out = offload_forces_on(&mut s, &ocfg, model);
            times.push((name, out.kernel_time()));
        }
        // Compaction should win big (paper: ≈2.2×); each added
        // optimisation must not hurt.
        let ratio = times[0].1 / times[1].1;
        assert!(ratio > 1.5, "compaction ratio {ratio:.2}: {times:?}");
        assert!(times[2].1 <= times[1].1 * 1.001, "{times:?}");
        assert!(times[3].1 <= times[2].1 * 1.001, "{times:?}");
    }

    #[test]
    fn traditional_table_never_resident() {
        let mut s = sim();
        let out = offload_forces(&mut s, &OffloadConfig::traditional());
        // Every neighbour interaction paid table-row gathers.
        assert!(out.density.counters.dma_gets > s.interior.len() as u64 * 10);
    }

    #[test]
    fn ldm_high_water_within_declared_plan() {
        // Every Fig. 9 variant's declared symbolic plan must (a) pass
        // the budget prover and (b) upper-bound what the kernels
        // actually kept live in the capacity-enforced store.
        for (name, ocfg) in all_configs() {
            let plans = ocfg.ldm_plans(name, 5000);
            let worst = plans
                .iter()
                .map(|p| p.total_bytes())
                .max()
                .expect("every config has sweeps");
            for plan in &plans {
                plan.check().unwrap_or_else(|e| panic!("{e}"));
            }
            let mut s = sim();
            let out = offload_forces(&mut s, &ocfg);
            assert!(
                out.density.ldm_high_water <= worst,
                "{name}: density high-water {} exceeds declared plan {worst}",
                out.density.ldm_high_water
            );
            assert!(
                out.force.ldm_high_water <= worst,
                "{name}: force high-water {} exceeds declared plan {worst}",
                out.force.ldm_high_water
            );
            if matches!(ocfg.form, TableForm::Compacted) {
                // Nontrivial bound: the resident table really was live.
                assert!(out.force.ldm_high_water >= 5000 * 8, "{name}");
            }
        }
    }

    #[test]
    fn fitted_block_sites_track_ldm_pressure() {
        let fit = |reuse, db, batched| {
            OffloadConfig::fit_block_sites(TableForm::Compacted, reuse, db, batched, 5000)
        };
        // Each added optimisation consumes LDM, shrinking the block.
        assert!(fit(false, false, false) >= fit(true, false, false));
        assert!(fit(true, false, false) > fit(true, true, false));
        assert_eq!(fit(false, false, false) % 16, 0);
        // Lane batching reserves 9 × 32 × 8 B = 2304 B of stage/eval
        // buffers, shrinking the fitted block one more notch.
        assert!(fit(true, true, true) < fit(true, true, false));
        assert_eq!(fit(true, true, true) % 16, 0);
        // Traditional tables leave the whole store to block buffers.
        assert_eq!(
            OffloadConfig::fit_block_sites(TableForm::Traditional, false, false, false, 5000),
            OffloadConfig::MAX_BLOCK_SITES
        );
    }

    #[test]
    fn batched_sweeps_match_scalar_sweeps_bitwise() {
        // The batched CPE sweeps must be a pure accounting/layout
        // change: identical ρ, forces, and energies to the scalar
        // sweeps (the batch kernels replay the scalar expressions per
        // lane and accumulation stays in partner order). Block
        // decomposition differs (the lane buffers shrink the fitted
        // block), which may only affect charge counters, never values.
        let scalar_cfg = OffloadConfig {
            batched: false,
            ..OffloadConfig::optimized()
        };
        let mut s1 = sim();
        let scalar = offload_forces(&mut s1, &scalar_cfg);
        let mut s2 = sim();
        let batched = offload_forces(&mut s2, &OffloadConfig::optimized());
        assert_eq!(
            scalar.pair_energy.to_bits(),
            batched.pair_energy.to_bits(),
            "pair energy"
        );
        assert_eq!(
            scalar.embed_energy.to_bits(),
            batched.embed_energy.to_bits(),
            "embed energy"
        );
        assert_eq!(s1.lnl.rho, s2.lnl.rho, "rho");
        assert_eq!(s1.lnl.force, s2.lnl.force, "force");
        // The batch token is charged only on the batched run, and the
        // flop totals reconcile exactly (same arithmetic, different
        // access granularity).
        assert_eq!(scalar.force.counters.table_batches, 0);
        assert!(batched.force.counters.table_batches > 0);
        assert_eq!(
            scalar.density.counters.flops + scalar.force.counters.flops,
            batched.density.counters.flops + batched.force.counters.flops,
        );
    }

    /// `MdSimulation::compute_forces` over the full-list oracle that the
    /// host passes replaced: the boxes below are warmed up on the host
    /// trajectory the offload accounting was pinned on, whatever order
    /// the host passes sum in.
    fn full_list_forces(s: &mut MdSimulation) {
        use crate::force::{embedding_pass_with, full_list};
        let (form, interior) = (s.table_form, s.interior.clone());
        exchange_ghosts(&mut s.lnl, &mut Loopback, GhostPhase::Positions);
        full_list::density_sweep(&mut s.lnl, &s.pot, form, &interior);
        embedding_pass_with(&mut s.lnl, &s.pot, form, &interior, Default::default());
        exchange_ghosts(&mut s.lnl, &mut Loopback, GhostPhase::Fp);
        full_list::force_sweep(&mut s.lnl, &s.pot, form, &interior);
    }

    /// `MdSimulation::step` with the forces of [`full_list_forces`]
    /// (current on entry).
    fn full_list_step(s: &mut MdSimulation) {
        use crate::integrate::{drift, kick};
        let (dt, mass, interior) = (s.cfg.dt, s.mass, s.interior.clone());
        kick(&mut s.lnl, &interior, 0.5 * dt, mass);
        drift(&mut s.lnl, &interior, dt);
        crate::runaway::apply_transitions(&mut s.lnl, &s.cfg, &interior);
        crate::domain::migrate_runaways(&mut s.lnl, &mut Loopback);
        full_list_forces(s);
        kick(&mut s.lnl, &interior, 0.5 * dt, mass);
        if let Some(tau) = s.cfg.thermostat_tau {
            let t = s.cfg.temperature;
            crate::thermostat::berendsen(&mut s.lnl, &interior, mass, t, dt, tau);
        }
    }

    /// A thermal box of `cells`³ (600 K, two [`full_list_step`]s) with
    /// run-aways anchored at the sites that open and close the slabs and
    /// blocks of an `n_cpes`-slab, `block_sites`-block decomposition —
    /// so halo gathers of run-away partners, vacant centrals and the MPE
    /// run-away passes all meet the edges of the reuse window.
    fn thermal_box_with_runaways(cells: usize, n_cpes: usize, block_sites: usize) -> MdSimulation {
        let cfg = MdConfig {
            table_knots: 5000,
            temperature: 600.0,
            ..Default::default()
        };
        let mut s = MdSimulation::single_box(cfg, cells);
        s.init_velocities();
        full_list_forces(&mut s);
        for _ in 0..2 {
            full_list_step(&mut s);
        }
        let slab = s.interior.len().div_ceil(n_cpes);
        for k in [
            slab - 1,
            slab,
            slab + block_sites - 1,
            slab + block_sites,
            3 * slab - 1,
        ] {
            let site = s.interior[k];
            let (pos, vel) = (s.lnl.pos[site], s.lnl.vel[site]);
            let id = s.lnl.make_vacancy(site);
            s.lnl
                .add_runaway(site, id, [pos[0] + 1.3, pos[1] + 0.4, pos[2]], vel);
        }
        assert_eq!(s.lnl.live_runaways().len(), 5);
        s
    }

    /// The bits of a [`ClusterReport`], field by field.
    #[derive(Debug, PartialEq)]
    struct ReportBits {
        time: u64,
        counters: [u64; 8],
        ldm_high_water: usize,
        active_cpes: usize,
    }

    impl ReportBits {
        fn of(r: &ClusterReport) -> Self {
            let c = &r.counters;
            Self {
                time: r.time.to_bits(),
                counters: [
                    c.dma_gets,
                    c.dma_puts,
                    c.bytes_in,
                    c.bytes_out,
                    c.flops,
                    c.table_batches,
                    c.dma_time.to_bits(),
                    c.compute_time.to_bits(),
                ],
                ldm_high_water: r.ldm_high_water,
                active_cpes: r.active_cpes,
            }
        }
    }

    /// Everything one offloaded force evaluation produced, as bits.
    #[derive(Debug, PartialEq)]
    struct Evaluation {
        rho: Vec<u64>,
        force: Vec<[u64; 3]>,
        runaways: Vec<(u64, [u64; 3])>,
        pair: u64,
        embed: u64,
        density: ReportBits,
        force_report: ReportBits,
    }

    impl Evaluation {
        fn of(s: &MdSimulation, out: &OffloadOutcome) -> Self {
            Self {
                rho: s.lnl.rho.iter().map(|r| r.to_bits()).collect(),
                force: s.lnl.force.iter().map(|f| f.map(f64::to_bits)).collect(),
                runaways: s
                    .lnl
                    .live_runaways()
                    .iter()
                    .map(|&i| {
                        let r = s.lnl.runaway(i);
                        (r.rho.to_bits(), r.force.map(f64::to_bits))
                    })
                    .collect(),
                pair: out.pair_energy.to_bits(),
                embed: out.embed_energy.to_bits(),
                density: ReportBits::of(&out.density),
                force_report: ReportBits::of(&out.force),
            }
        }
    }

    /// The four Fig. 9 variants and `optimized()`.
    fn all_configs() -> Vec<(&'static str, OffloadConfig)> {
        OffloadConfig::fig9_variants()
            .into_iter()
            .chain([("Optimized+BatchedLanes", OffloadConfig::optimized())])
            .collect()
    }

    /// 8 CPEs, 64-site blocks, 8³ cells: 128-site slabs of two blocks
    /// each, so every slab has a block whose reuse window is live.
    fn small_shape() -> (SwModel, usize, usize) {
        let model = SwModel {
            n_cpes: 8,
            ..SwModel::sw26010()
        };
        (model, 64, 8)
    }

    #[test]
    fn offload_accounting_is_pinned() {
        // FNV-1a over the `Debug` rendering of every configuration's
        // evaluation, computed at the parent of the fused force sweep
        // (two one-table launches, copied resident tables, zero-filled
        // block buffers). A change to the cost model, the charge
        // sequence or the arithmetic shows up here as a failing
        // constant.
        const PINNED: u64 = 0x2e60_b675_f4c0_0b8f;
        let (model, block_sites, cells) = small_shape();
        let evaluations: Vec<(&str, Evaluation)> = all_configs()
            .into_iter()
            .map(|(name, ocfg)| {
                let ocfg = OffloadConfig {
                    block_sites,
                    ..ocfg
                };
                let mut s = thermal_box_with_runaways(cells, model.n_cpes, block_sites);
                let out = offload_forces_on(&mut s, &ocfg, model);
                (name, Evaluation::of(&s, &out))
            })
            .collect();
        let hash = mmds_telemetry::canon::fnv1a64(format!("{evaluations:?}").as_bytes());
        assert_eq!(hash, PINNED, "{hash:#018x}");
    }

    /// Every configuration on one shape: the fused launch against the
    /// two-sweep oracle, every bit and every report field.
    fn assert_fused_matches_two_sweeps(model: SwModel, block_sites: Option<usize>, cells: usize) {
        for (name, ocfg) in all_configs() {
            let ocfg = OffloadConfig {
                block_sites: block_sites.unwrap_or(ocfg.block_sites),
                ..ocfg
            };
            let slab = (2 * cells.pow(3)).div_ceil(model.n_cpes);
            assert!(
                slab >= 2 * ocfg.block_sites,
                "{name}: slabs span two blocks"
            );
            let build = || thermal_box_with_runaways(cells, model.n_cpes, ocfg.block_sites);
            let mut fused = build();
            let fused_out = offload_forces_on(&mut fused, &ocfg, model);
            let mut oracle = build();
            let oracle_out = two_sweep_forces_on(&mut oracle, &ocfg, model);
            let (fused, oracle) = (
                Evaluation::of(&fused, &fused_out),
                Evaluation::of(&oracle, &oracle_out),
            );
            assert!(
                oracle.force_report.counters[0] > 0,
                "{name}: the force sweeps ran"
            );
            assert_eq!(fused.rho, oracle.rho, "{name}: rho");
            assert_eq!(fused.force, oracle.force, "{name}: force");
            assert_eq!(fused.runaways, oracle.runaways, "{name}: run-aways");
            assert_eq!(fused.pair, oracle.pair, "{name}: pair energy");
            assert_eq!(fused.embed, oracle.embed, "{name}: embed energy");
            assert_eq!(fused.density, oracle.density, "{name}: density report");
            assert_eq!(
                fused.force_report, oracle.force_report,
                "{name}: force report"
            );
        }
    }

    #[test]
    fn fused_force_sweep_matches_two_sweeps() {
        let (model, block_sites, cells) = small_shape();
        assert_fused_matches_two_sweeps(model, Some(block_sites), cells);
    }

    /// The production shape: 64 CPEs, each configuration's fitted block
    /// size, and a 32³ box (1 024-site slabs, at least two blocks of
    /// the largest fitted block). Too slow for the debug tier-1 run.
    #[test]
    #[cfg_attr(debug_assertions, ignore)]
    fn fused_force_sweep_matches_two_sweeps_at_production_shape() {
        assert_fused_matches_two_sweeps(SwModel::sw26010(), None, 32);
    }

    #[test]
    fn data_reuse_reduces_gather_bytes() {
        let model = SwModel {
            n_cpes: 8,
            ..SwModel::sw26010()
        };
        let base = OffloadConfig {
            form: TableForm::Compacted,
            data_reuse: false,
            double_buffer: false,
            batched: false,
            block_sites: 64,
        };
        let mut s1 = sim();
        let no_reuse = offload_forces_on(&mut s1, &base, model);
        let mut s2 = sim();
        let reuse = offload_forces_on(
            &mut s2,
            &OffloadConfig {
                data_reuse: true,
                ..base
            },
            model,
        );
        assert!(
            reuse.density.counters.bytes_in < no_reuse.density.counters.bytes_in,
            "reuse {} !< no-reuse {}",
            reuse.density.counters.bytes_in,
            no_reuse.density.counters.bytes_in
        );
    }
}
