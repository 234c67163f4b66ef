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
//! (paper): the force computation runs as two one-table-resident sweeps
//! (pair sweep, then density-gradient sweep), because two 39 KiB tables
//! plus block buffers cannot coexist in the 64 KB local store. The
//! traditional force sweep instead evaluates pair and density in one
//! fused lookup — the tables share a knot grid, so one segment locate
//! serves both rows ([`EamPotential::pair_density`] on the host,
//! `charge_table_access(LOCATE, SEG_EVAL, 2)` here).
//!
//! The three optimisation axes of Fig. 9:
//! * [`mmds_eam::TableForm`]: `Traditional` gathers one 56 B coefficient
//!   row per table access; `Compacted` holds the 39 KiB value table
//!   resident (enforced by real allocation) and reconstructs
//!   coefficients on the fly.
//! * `data_reuse`: the previous block's edge atoms stay in the local
//!   store, so backward halo references are free.
//! * `double_buffer`: block staging DMA overlaps compute (Fig. 6).

use mmds_eam::compact::{CompactTable, RECON_EXTRA_FLOPS};
use mmds_eam::spline::{TraditionalTable, PAPER_TABLE_N};
use mmds_eam::{EamPotential, TableForm, LOCATE_FLOPS, SEG_EVAL_FLOPS};
use mmds_lattice::lnl::LatticeNeighborList;
use mmds_sunway::{ClusterReport, CpeCluster, CpeCtx, LdmPlan, SwModel};
use serde::{Deserialize, Serialize};

use crate::force::{for_each_partner, Central, BATCH_GATHER_CAP};

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
    /// configuration launches, declared symbolically from the plan
    /// constants (`knots`, `block_sites`, the buffering flags). The
    /// `mmds-audit` budget prover checks these against
    /// [`SwModel::sw26010`]`.ldm_bytes`; the kernels below allocate the
    /// same buffers for real, so [`ClusterReport::ldm_high_water`] can
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

/// Which sweep a kernel runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// ρ accumulation (density table).
    Density,
    /// Traditional single-sweep force (pair + density rows gathered).
    ForceBoth,
    /// Compacted sweep 1: pair term, pair table resident.
    ForcePair,
    /// Compacted sweep 2: embedding-gradient term, density table resident.
    ForceDensity,
}

impl Pass {
    fn writes_force(&self) -> bool {
        !matches!(self, Pass::Density)
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

struct SlabItem<'a> {
    sites: &'a [usize],
    out_rho: &'a mut [f64],
    out_force: &'a mut [[f64; 3]],
    out_pair: &'a mut f64,
}

/// SoA staging buffers for one central's partners in a batched sweep —
/// the CPE twin of the host gather plan's per-partner record (r, Δ
/// components, partner F'), capped at [`BATCH_GATHER_CAP`] and flushed
/// through the lane kernels when full.
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
}

/// The halo positions one block has already fetched: an exact set over
/// the only partners a block can have — storage sites within `reach`
/// of the block, each in two planes (the site's regular atom, and the
/// run-aways anchored there, which travel as one fetch). A bitmap
/// indexed relative to the block's window: no hashing on a path that
/// runs for roughly every second partner of every central in all
/// three sweeps.
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

/// Evaluates one staged batch against the resident table and folds the
/// results into the central's accumulators **in partner order** — the
/// batch kernels replay the scalar expressions per element, so the
/// accumulated ρ/force/pair bits match the scalar sweep exactly.
/// Charges one batch token per full lane group and a scalar table
/// access per ragged-tail element (same flop totals as the scalar
/// sweep, reconciled by the `mmds-audit` flop ledger).
#[allow(clippy::too_many_arguments)]
fn flush_table_batch(
    ctx: &mut CpeCtx,
    pass: Pass,
    table: (&[f64], f64, f64),
    fp_c: f64,
    n: usize,
    stage: &BatchStage,
    rho: &mut f64,
    fv: &mut [f64; 3],
    pair_e: &mut f64,
) {
    let (buf, x0, dx) = table;
    let rs = &stage.rs[..n];
    let full = n - n % mmds_eam::BATCH_LANES;
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
    match pass {
        Pass::Density => {
            let mut fval = [0.0; BATCH_GATHER_CAP];
            CompactTable::eval_values_batch_slice(buf, x0, dx, rs, &mut fval[..n]);
            for f_r in &fval[..n] {
                *rho += f_r;
            }
        }
        Pass::ForcePair => {
            let mut phi = [0.0; BATCH_GATHER_CAP];
            let mut dphi = [0.0; BATCH_GATHER_CAP];
            CompactTable::eval_batch_slice(buf, x0, dx, rs, &mut phi[..n], &mut dphi[..n]);
            for k in 0..n {
                *pair_e += 0.5 * phi[k];
                let scale = -dphi[k] / rs[k];
                fv[0] += scale * stage.dxs[k];
                fv[1] += scale * stage.dys[k];
                fv[2] += scale * stage.dzs[k];
            }
        }
        Pass::ForceDensity => {
            let mut fval = [0.0; BATCH_GATHER_CAP];
            let mut df = [0.0; BATCH_GATHER_CAP];
            CompactTable::eval_batch_slice(buf, x0, dx, rs, &mut fval[..n], &mut df[..n]);
            for k in 0..n {
                let scale = -((fp_c + stage.fps[k]) * df[k]) / rs[k];
                fv[0] += scale * stage.dxs[k];
                fv[1] += scale * stage.dys[k];
                fv[2] += scale * stage.dzs[k];
            }
        }
        Pass::ForceBoth => unreachable!("traditional sweeps are never batched"),
    }
}

/// Charges + computes one sweep over `sites`, writing per-site outputs.
fn slab_kernel(
    ctx: &mut CpeCtx,
    l: &LatticeNeighborList,
    pot: &EamPotential,
    cfg: &OffloadConfig,
    pass: Pass,
    reach: usize,
    item: SlabItem<'_>,
) {
    let cutoff = pot.cutoff();
    // Resident table for this sweep (really allocated: capacity enforced).
    let resident: Option<(mmds_sunway::LsVec<f64>, f64, f64)> = match (cfg.form, pass) {
        (TableForm::Compacted, Pass::Density) | (TableForm::Compacted, Pass::ForceDensity) => {
            let t = &pot.comp_density;
            let buf = ctx
                .load_resident_table(&t.values)
                .expect("compacted density table fits in the local store");
            Some((buf, t.x0, t.dx))
        }
        (TableForm::Compacted, Pass::ForcePair) => {
            let t = &pot.comp_pair;
            let buf = ctx
                .load_resident_table(&t.values)
                .expect("compacted pair table fits in the local store");
            Some((buf, t.x0, t.dx))
        }
        (TableForm::Compacted, Pass::ForceBoth) => {
            unreachable!("compacted mode uses the two-sweep force path")
        }
        (TableForm::Traditional, _) => {
            // The 273 KiB table cannot be resident — prove it.
            debug_assert!(ctx
                .local_store()
                .alloc_f64(pot.trad_pair.coeff.len() * 7)
                .is_err());
            None
        }
    };
    // Block I/O buffers (positions in, results out) — real allocations.
    let out_words = if pass.writes_force() {
        cfg.block_sites * 3
    } else {
        cfg.block_sites
    };
    let _in_buf = ctx
        .alloc_f64(cfg.block_sites * 3)
        .expect("block input buffer fits in the local store");
    let _out_buf = ctx
        .alloc_f64(out_words)
        .expect("block output buffer fits in the local store");
    // Double buffering really owns a second staging pair (ping-pong),
    // and ghost reuse retains up to one block's worth of edge sites —
    // allocated so the capacity-enforced store proves the declared
    // `OffloadConfig::ldm_plans` budget is honest.
    let _in_shadow = cfg.double_buffer.then(|| {
        ctx.alloc_f64(cfg.block_sites * 3)
            .expect("double-buffer input shadow fits in the local store")
    });
    let _out_shadow = cfg.double_buffer.then(|| {
        ctx.alloc_f64(out_words)
            .expect("double-buffer output shadow fits in the local store")
    });
    let _reuse_edge = cfg.data_reuse.then(|| {
        ctx.alloc_f64(reach.min(cfg.block_sites) * 3)
            .expect("ghost-reuse margin fits in the local store")
    });
    // Lane batching needs a resident table to evaluate against; the
    // stage + eval buffers are really allocated so the capacity-enforced
    // store proves the "batch gather+eval lanes" plan item honest.
    let use_batch = cfg.batched && resident.is_some();
    let _lane_buf = use_batch.then(|| {
        ctx.alloc_f64(9 * BATCH_GATHER_CAP)
            .expect("batch gather+eval lane buffers fit in the local store")
    });

    let mut halo_seen = HaloSeen::default();
    ctx.begin_blocks(cfg.double_buffer);
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
        ctx.charge_dma_get(block.len() * 24);
        let base = bi * cfg.block_sites;
        for (oi, &s) in block.iter().enumerate() {
            let o = base + oi;
            if l.id[s] < 0 {
                if pass.writes_force() {
                    item.out_force[o] = [0.0; 3];
                } else {
                    item.out_rho[o] = 0.0;
                }
                continue;
            }
            ctx.charge_flops(ATOM_FLOPS);
            let fp_c = l.fp[s];
            let mut rho = 0.0;
            let mut fv = [0.0; 3];
            let mut pair_e = 0.0;
            if use_batch {
                // Batched sweep: stage partners into SoA lane buffers,
                // flush through the batch kernels at the cap and at the
                // end — identical partner order, identical bits.
                let (buf, x0, dx) = {
                    let (b, x0, dx) = resident.as_ref().expect("batched sweeps keep a table");
                    (&b[..], *x0, *dx)
                };
                let mut stage = BatchStage::new();
                let mut len = 0usize;
                for_each_partner(l, Central::Site(s), cutoff, |p| {
                    ctx.charge_flops(R_FLOPS);
                    if (p.is_runaway || p.site < window_lo || p.site > blk_hi)
                        && halo_seen.insert(p.site, p.is_runaway)
                    {
                        ctx.charge_dma_gather(24);
                    }
                    stage.rs[len] = p.r;
                    stage.dxs[len] = p.dx[0];
                    stage.dys[len] = p.dx[1];
                    stage.dzs[len] = p.dx[2];
                    stage.fps[len] = p.fp;
                    len += 1;
                    if len == BATCH_GATHER_CAP {
                        flush_table_batch(
                            ctx,
                            pass,
                            (buf, x0, dx),
                            fp_c,
                            len,
                            &stage,
                            &mut rho,
                            &mut fv,
                            &mut pair_e,
                        );
                        len = 0;
                    }
                });
                if len > 0 {
                    flush_table_batch(
                        ctx,
                        pass,
                        (buf, x0, dx),
                        fp_c,
                        len,
                        &stage,
                        &mut rho,
                        &mut fv,
                        &mut pair_e,
                    );
                }
                if pass.writes_force() {
                    item.out_force[o] = fv;
                    *item.out_pair += pair_e;
                } else {
                    item.out_rho[o] = rho;
                }
                continue;
            }
            for_each_partner(l, Central::Site(s), cutoff, |p| {
                ctx.charge_flops(R_FLOPS);
                // Halo position fetch: once per distinct off-window site
                // per block (it stays in the local store afterwards).
                if (p.is_runaway || p.site < window_lo || p.site > blk_hi)
                    && halo_seen.insert(p.site, p.is_runaway)
                {
                    ctx.charge_dma_gather(24);
                }
                match pass {
                    Pass::Density => {
                        let f_r = match &resident {
                            Some((buf, x0, dx)) => {
                                ctx.charge_table_access(
                                    LOCATE_FLOPS,
                                    SEG_EVAL_FLOPS + RECON_EXTRA_FLOPS,
                                    1,
                                );
                                CompactTable::eval_slice(buf, *x0, *dx, p.r).0
                            }
                            None => {
                                ctx.charge_dma_gather(TraditionalTable::ROW_BYTES);
                                ctx.charge_table_access(LOCATE_FLOPS, SEG_EVAL_FLOPS, 1);
                                pot.trad_density.eval(p.r)
                            }
                        };
                        rho += f_r;
                    }
                    Pass::ForceBoth => {
                        // Fused lookup: the pair and density rows are
                        // still two gathers, but ONE locate serves both
                        // segment evaluations (host parity).
                        ctx.charge_dma_gather(2 * TraditionalTable::ROW_BYTES);
                        ctx.charge_table_access(LOCATE_FLOPS, SEG_EVAL_FLOPS, 2);
                        let (phi, dphi, _, df) = pot.trad_pair.eval2(&pot.trad_density, p.r);
                        pair_e += 0.5 * phi;
                        let scale = -(dphi + (fp_c + p.fp) * df) / p.r;
                        for ax in 0..3 {
                            fv[ax] += scale * p.dx[ax];
                        }
                    }
                    Pass::ForcePair => {
                        let (buf, x0, dx) = resident.as_ref().expect("pair table resident");
                        ctx.charge_table_access(
                            LOCATE_FLOPS,
                            SEG_EVAL_FLOPS + RECON_EXTRA_FLOPS,
                            1,
                        );
                        let (phi, dphi) = CompactTable::eval_slice(buf, *x0, *dx, p.r);
                        pair_e += 0.5 * phi;
                        let scale = -dphi / p.r;
                        for ax in 0..3 {
                            fv[ax] += scale * p.dx[ax];
                        }
                    }
                    Pass::ForceDensity => {
                        let (buf, x0, dx) = resident.as_ref().expect("density table resident");
                        ctx.charge_table_access(
                            LOCATE_FLOPS,
                            SEG_EVAL_FLOPS + RECON_EXTRA_FLOPS,
                            1,
                        );
                        let (_, df) = CompactTable::eval_slice(buf, *x0, *dx, p.r);
                        let scale = -((fp_c + p.fp) * df) / p.r;
                        for ax in 0..3 {
                            fv[ax] += scale * p.dx[ax];
                        }
                    }
                }
            });
            if pass.writes_force() {
                item.out_force[o] = fv;
                *item.out_pair += pair_e;
            } else {
                item.out_rho[o] = rho;
            }
        }
        // Stage the block's results out.
        ctx.charge_dma_put(if pass.writes_force() {
            block.len() * 24
        } else {
            block.len() * 8
        });
        if bi + 1 < nblocks {
            ctx.next_block();
        }
    }
    ctx.finish_blocks();
}

/// Scatter policy for a sweep's force output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scatter {
    Rho,
    SetForce,
    AddForce,
}

fn run_pass(
    l: &mut LatticeNeighborList,
    pot: &EamPotential,
    cluster: &CpeCluster,
    cfg: &OffloadConfig,
    interior: &[usize],
    pass: Pass,
    scatter: Scatter,
) -> (ClusterReport, f64) {
    let n = interior.len();
    let n_cpes = cluster.n_cpes();
    let slab = n.div_ceil(n_cpes).max(1);
    let reach = reach_flat(l);

    let mut rho_out = vec![0.0f64; n];
    let mut force_out = vec![[0.0f64; 3]; n];
    let n_slabs = n.div_ceil(slab).max(1);
    let mut pair_out = vec![0.0f64; n_slabs];

    let items: Vec<SlabItem<'_>> = interior
        .chunks(slab)
        .zip(rho_out.chunks_mut(slab))
        .zip(force_out.chunks_mut(slab))
        .zip(pair_out.iter_mut())
        .map(|(((sites, out_rho), out_force), out_pair)| SlabItem {
            sites,
            out_rho,
            out_force,
            out_pair,
        })
        .collect();

    let report = cluster.run(items, |ctx, item| {
        slab_kernel(ctx, l, pot, cfg, pass, reach, item);
    });

    // MPE scatters the results back into the structure.
    match scatter {
        Scatter::Rho => {
            for (&s, rho) in interior.iter().zip(rho_out) {
                l.rho[s] = rho;
            }
        }
        Scatter::SetForce => {
            for (&s, fv) in interior.iter().zip(force_out) {
                l.force[s] = fv;
            }
        }
        Scatter::AddForce => {
            for (&s, fv) in interior.iter().zip(force_out) {
                for ax in 0..3 {
                    l.force[s][ax] += fv[ax];
                }
            }
        }
    }
    (report, pair_out.iter().sum())
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
    mut exchange_fp: impl FnMut(&mut LatticeNeighborList),
) -> OffloadOutcome {
    let (density_rep, _) = run_pass(l, pot, cluster, cfg, interior, Pass::Density, Scatter::Rho);
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
    let (force_rep, mut pair_energy) = match cfg.form {
        TableForm::Traditional => run_pass(
            l,
            pot,
            cluster,
            cfg,
            interior,
            Pass::ForceBoth,
            Scatter::SetForce,
        ),
        TableForm::Compacted => {
            let (rep_p, pair) = run_pass(
                l,
                pot,
                cluster,
                cfg,
                interior,
                Pass::ForcePair,
                Scatter::SetForce,
            );
            let (rep_d, _) = run_pass(
                l,
                pot,
                cluster,
                cfg,
                interior,
                Pass::ForceDensity,
                Scatter::AddForce,
            );
            (merge_reports(rep_p, rep_d), pair)
        }
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
        let variants = OffloadConfig::fig9_variants()
            .into_iter()
            .chain([("Optimized+BatchedLanes", OffloadConfig::optimized())]);
        for (name, ocfg) in variants {
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
