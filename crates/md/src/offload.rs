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
//! the host runs them as **one** launch. The two sweeps keep tables of
//! one length resident and see the same partners over the same blocks,
//! so they receive identical charges: each CPE charges one [`CpeCtx`],
//! and the launch reports it as both sweeps. The host walks each
//! central's partners once and evaluates pair and density through one
//! fused lookup ([`CompactTable::eval2_batch`]) into separate
//! accumulators. Every bit and every virtual number equals the two
//! launches' (DESIGN §6.22; the two-launch oracle is kept under
//! `#[cfg(test)]`). The traditional force sweep evaluates pair and
//! density in one fused lookup in the model too — the tables share a
//! knot grid, so one segment locate serves both rows
//! ([`EamPotential::pair_density`] on the host,
//! `charge_table_access(LOCATE, SEG_EVAL, 2)` here).
//!
//! Every configuration stages a central's partners into one
//! structure-of-arrays window ([`BATCH_GATHER_CAP`] lanes, in
//! [`for_each_partner`] order) and evaluates it through the lane
//! kernels; the configuration decides only what is charged.
//!
//! The three optimisation axes of Fig. 9:
//! * [`mmds_eam::TableForm`]: `Traditional` gathers one 56 B coefficient
//!   row per table access; `Compacted` holds the 39 KiB value table
//!   resident (its bytes reserved in the capacity-enforced store, the
//!   host reading the table in place) and reconstructs coefficients on
//!   the fly — in the model; the host reads the knot slopes from the
//!   table's memo (DESIGN §6.17).
//! * `data_reuse`: the previous block's edge atoms stay in the local
//!   store, so backward halo references are free.
//! * `double_buffer`: block staging DMA overlaps compute (Fig. 6).

use mmds_eam::compact::{CompactTable, RECON_EXTRA_FLOPS};
use mmds_eam::spline::{TraditionalTable, PAPER_TABLE_N};
use mmds_eam::{EamPotential, TableForm, BATCH_LANES, LOCATE_FLOPS, SEG_EVAL_FLOPS};
use mmds_lattice::lnl::LatticeNeighborList;
use mmds_sunway::{BlockCharges, ClusterReport, CpeCluster, CpeCtx, LdmPlan, Priced, SwModel};
use serde::{Deserialize, Serialize};

use crate::force::{for_each_partner, separation, Central, BATCH_GATHER_CAP};

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
    /// kernels below reserve the same bytes per launch in the
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

/// What one CPE launch computes. A launch charges one context per CPE
/// exactly what the modelled sweep is charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sweep {
    /// ρ accumulation, density table resident in compacted mode.
    Density,
    /// Traditional force: pair and density rows gathered per partner,
    /// ONE locate serving both segment evaluations (host parity).
    ForceBoth,
    /// Compacted force: the paper's pair sweep (pair table resident)
    /// and density-gradient sweep (density table resident). Both keep a
    /// table of one length resident and see the same partners over the
    /// same blocks, so they are charged identically: one context is
    /// charged and reported as both. The host evaluates both tables
    /// through one fused lookup per partner, into separate pair and
    /// gradient terms.
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

    /// The compacted table the charged context keeps resident. The
    /// fused force charges its pair table for both sweeps; the density
    /// table has the same length ([`force_sweeps`] asserts it).
    fn resident(self, pot: &EamPotential) -> &CompactTable {
        match self {
            Sweep::ForceCompacted => &pot.comp_pair,
            #[cfg(test)]
            Sweep::ForcePair => &pot.comp_pair,
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

/// Where one slab's results go: ρ per site, or per site a force term
/// and a density-gradient term (the latter written by the compacted
/// force only), plus the slab's ½Σφ.
enum SlabOut<'a> {
    Rho(&'a mut [f64]),
    Force {
        force: &'a mut [[[f64; 3]; 2]],
        pair: &'a mut f64,
    },
}

struct SlabItem<'a> {
    sites: &'a [usize],
    out: SlabOut<'a>,
}

/// One central's running sums, accumulated in partner order: ρ, the
/// force term and the density-gradient term, and ½Σφ.
#[derive(Default)]
struct CentralSums {
    rho: f64,
    force: [[f64; 3]; 2],
    pair: f64,
}

/// One regular central's partners, staged in [`for_each_partner`] order
/// as structure-of-arrays lanes of at most [`BATCH_GATHER_CAP`] — the
/// CPE twin of the host passes' staging window, and in the batched
/// configurations the lane buffers the LDM plan reserves.
struct LaneWindow {
    /// `central_pos − partner_pos`, one lane array per axis (force
    /// walks only).
    d: [[f64; BATCH_GATHER_CAP]; 3],
    /// r² as staged; r when the window flushes.
    r: [f64; BATCH_GATHER_CAP],
    /// The partner's F′ (force walks only).
    fp: [f64; BATCH_GATHER_CAP],
    /// Accepted partners.
    n: usize,
}

impl LaneWindow {
    fn new() -> Self {
        Self {
            d: [[0.0; BATCH_GATHER_CAP]; 3],
            r: [0.0; BATCH_GATHER_CAP],
            fp: [0.0; BATCH_GATHER_CAP],
            n: 0,
        }
    }

    /// Stages the partners of the regular atom at site `s` — its own
    /// chain, then each flat delta's atom and chain, the walk of
    /// [`for_each_partner`] — tells `sink` of each accepted partner as
    /// it is staged, and hands it every full window, and the last
    /// partial one, with r in place of r². Every candidate is written;
    /// the window advances only past an occupied one inside the cutoff,
    /// so the distance test costs no branch in the staging (only the
    /// sink's call does, and nearly every candidate is accepted).
    /// Monomorphised over what the sweep reads, as
    /// `force::partner_sweep` is: a density walk (`FORCE = false`)
    /// stages neither Δ nor F′, and the lanes it leaves alone hold
    /// whatever an earlier walk put there. The fill count lives in a
    /// local until the window flushes, and every helper is inlined, so
    /// nothing a candidate touches goes through memory but its lanes.
    #[inline(always)]
    fn walk<const FORCE: bool>(
        &mut self,
        l: &LatticeNeighborList,
        s: usize,
        cut2: f64,
        sink: &mut impl WindowSink,
    ) {
        debug_assert!(l.id[s] >= 0, "central site {s} is a vacancy");
        debug_assert_eq!(self.n, 0, "a walk starts on an empty window");
        let cpos = l.pos[s];
        let accept = |r2: f64, live: bool| live & (r2 > 1e-12) & (r2 <= cut2);
        let mut n = 0;
        for (_, rec) in l.chain(s) {
            let (d, r2) = separation(cpos, rec.pos);
            let key = halo_key(s, true);
            n = self.stage::<FORCE>(n, d, r2, rec.fp, key, accept(r2, true), sink);
            n = self.flush_full(n, sink);
        }
        for &delta in l.neighbor_deltas(s) {
            let nid = (s as isize + delta) as usize;
            let (d, r2) = separation(cpos, l.pos[nid]);
            let fp = if FORCE { l.fp[nid] } else { 0.0 };
            let live = accept(r2, l.id[nid] >= 0);
            n = self.stage::<FORCE>(n, d, r2, fp, halo_key(nid, false), live, sink);
            n = self.flush_full(n, sink);
            for (_, rec) in l.chain(nid) {
                let (d, r2) = separation(cpos, rec.pos);
                let key = halo_key(nid, true);
                n = self.stage::<FORCE>(n, d, r2, rec.fp, key, accept(r2, true), sink);
                n = self.flush_full(n, sink);
            }
        }
        if n > 0 {
            self.emit(n, sink);
        }
    }

    /// Writes one candidate into lane `n` — Δ and F′ for a force walk
    /// only — and returns the fill count after it: `n + 1` if `accept`,
    /// after `sink` has seen the partner.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn stage<const FORCE: bool>(
        &mut self,
        n: usize,
        d: [f64; 3],
        r2: f64,
        fp: f64,
        key: usize,
        accept: bool,
        sink: &mut impl WindowSink,
    ) -> usize {
        if FORCE {
            for ax in 0..3 {
                self.d[ax][n] = d[ax];
            }
            self.fp[n] = fp;
        }
        self.r[n] = r2;
        if accept {
            sink.partner(key);
        }
        n + usize::from(accept)
    }

    /// Flushes a full window; returns the fill count after it.
    #[inline(always)]
    fn flush_full(&mut self, n: usize, sink: &mut impl WindowSink) -> usize {
        if n == BATCH_GATHER_CAP {
            self.emit(n, sink);
            0
        } else {
            n
        }
    }

    /// Takes the square roots of the first `n` lanes, flushes them, and
    /// empties the window.
    #[inline(always)]
    fn emit(&mut self, n: usize, sink: &mut impl WindowSink) {
        for r in &mut self.r[..n] {
            *r = r.sqrt();
        }
        self.n = n;
        sink.window(self);
        self.n = 0;
    }
}

/// What a [`LaneWindow::walk`] feeds: each accepted partner as it is
/// staged, and each window as it flushes.
trait WindowSink {
    /// An accepted partner, by [`halo_key`], in walk order.
    fn partner(&mut self, key: usize);
    /// A full window, or a central's last, with r in its lanes.
    fn window(&mut self, w: &LaneWindow);
}

/// The lookup outputs and force scales of one window: one per slab
/// kernel, overwritten window after window — a window reads only the
/// lanes it has just written.
struct EvalLanes {
    phi: [f64; BATCH_GATHER_CAP],
    dphi: [f64; BATCH_GATHER_CAP],
    f: [f64; BATCH_GATHER_CAP],
    df: [f64; BATCH_GATHER_CAP],
    /// −φ′/r (or the summed traditional scale) and −(F′ᵢ + F′ⱼ)·f′/r.
    scale: [[f64; BATCH_GATHER_CAP]; 2],
}

impl EvalLanes {
    fn new() -> Self {
        Self {
            phi: [0.0; BATCH_GATHER_CAP],
            dphi: [0.0; BATCH_GATHER_CAP],
            f: [0.0; BATCH_GATHER_CAP],
            df: [0.0; BATCH_GATHER_CAP],
            scale: [[0.0; BATCH_GATHER_CAP]; 2],
        }
    }
}

/// A partner's halo fetch key: its storage site, in two planes — the
/// site's regular atom (even) and the run-aways anchored there (odd),
/// which travel as one fetch.
fn halo_key(site: usize, is_runaway: bool) -> usize {
    2 * site + usize::from(is_runaway)
}

/// The halo positions one block has already fetched: an exact set over
/// the only partners a block can have — storage sites within `reach`
/// of the block, each in two planes (the site's regular atom, and the
/// run-aways anchored there, which travel as one fetch). A bitmap
/// indexed relative to the block's window: no hashing on a path that
/// runs for every partner of every central.
#[derive(Default)]
struct HaloSeen {
    bits: Vec<u64>,
    lo: usize,
    /// The [`halo_key`]s of the regular atoms the block holds resident
    /// (its own sites, and with data reuse the retained window before
    /// it): never fetched.
    resident: (usize, usize),
}

impl HaloSeen {
    /// Empties the set and re-centres it on the block `blk_lo..=blk_hi`,
    /// whose regular atoms from `window_lo` on are resident. The backing
    /// store is reused from block to block.
    fn start_block(&mut self, blk_lo: usize, blk_hi: usize, reach: usize, window_lo: usize) {
        self.lo = blk_lo.saturating_sub(reach);
        self.resident = (halo_key(window_lo, false), halo_key(blk_hi, false));
        let slots = 2 * (blk_hi + reach - self.lo + 1);
        self.bits.clear();
        self.bits.resize(slots.div_ceil(64), 0);
    }

    /// Whether the partner with [`halo_key`] `key` is fetched now: true
    /// for the block's first fetch of a run-away or of a site outside
    /// the resident window, which is recorded. A resident atom is never
    /// fetched and its slot is left alone: the test is arithmetic on one
    /// word, and the one branch is on the rare first fetch.
    #[inline]
    fn fetch(&mut self, key: usize) -> bool {
        let off = (key & 1 == 1) | (key < self.resident.0) | (key > self.resident.1);
        let slot = key - 2 * self.lo;
        let (word, bit) = (slot / 64, 1u64 << (slot % 64));
        let first = off & (self.bits[word] & bit == 0);
        if first {
            self.bits[word] |= bit;
        }
        first
    }
}

/// A sweep's per-partner charges, priced once per slab kernel: each
/// adds to the block's accumulators exactly what the per-call charge of
/// the modelled sweep adds.
struct PartnerPrices {
    /// `R_FLOPS`: one pair separation.
    r: Priced,
    /// One halo position fetch.
    halo: Priced,
    /// The coefficient rows a traditional access gathers: one row for
    /// the density sweep; for the force, the pair and density rows,
    /// still two gathers although ONE locate serves both segment
    /// evaluations. None when the table is resident.
    rows: Option<Priced>,
    /// One scalar table access — also a batched window's ragged-tail
    /// element.
    access: Priced,
    /// One full lane group's batch token against the resident table
    /// (same flop total as its lanes' scalar accesses, reconciled by
    /// the `mmds-audit` flop ledger).
    batch: Priced,
    /// Whether the lookups are charged as batches (lane-batched
    /// configuration, compacted table).
    batched: bool,
}

impl PartnerPrices {
    fn new(ctx: &CpeCtx, cfg: &OffloadConfig, sweep: Sweep) -> Self {
        let (rows, access) = match (cfg.form, sweep) {
            (TableForm::Compacted, _) => (
                None,
                ctx.price_table_access(LOCATE_FLOPS, SEG_EVAL_FLOPS + RECON_EXTRA_FLOPS, 1),
            ),
            (TableForm::Traditional, Sweep::Density) => (
                Some(ctx.price_gather(TraditionalTable::ROW_BYTES)),
                ctx.price_table_access(LOCATE_FLOPS, SEG_EVAL_FLOPS, 1),
            ),
            (TableForm::Traditional, _) => (
                Some(ctx.price_gather(2 * TraditionalTable::ROW_BYTES)),
                ctx.price_table_access(LOCATE_FLOPS, SEG_EVAL_FLOPS, 2),
            ),
        };
        Self {
            r: ctx.price_flops(R_FLOPS),
            halo: ctx.price_gather(STAGE_BYTES_PER_SITE),
            rows,
            access,
            batch: ctx.price_table_batch(
                LOCATE_FLOPS,
                SEG_EVAL_FLOPS + RECON_EXTRA_FLOPS,
                1,
                BATCH_LANES as u64,
            ),
            batched: cfg.batched && cfg.form == TableForm::Compacted,
        }
    }

    /// Charges one accepted partner, as it is staged: `R_FLOPS`, the
    /// halo first fetch, then (scalar configurations) the table access.
    #[inline(always)]
    fn charge_partner(&self, charges: &mut BlockCharges, halo: &mut HaloSeen, key: usize) {
        charges.flops(self.r);
        // A halo position is fetched once per block; it stays in the
        // local store afterwards.
        if halo.fetch(key) {
            charges.gather(self.halo);
        }
        if !self.batched {
            if let Some(rows) = self.rows {
                charges.gather(rows);
            }
            charges.flops(self.access);
        }
    }

    /// Charges a flushed window's batch tokens, after its partners.
    fn charge_batches(&self, charges: &mut BlockCharges, w: &LaneWindow) {
        if self.batched {
            for _ in 0..w.n / BATCH_LANES {
                charges.table_batch(self.batch);
            }
            for _ in 0..w.n % BATCH_LANES {
                charges.flops(self.access);
            }
        }
    }
}

/// Evaluates one window into `e` and folds it into the central's sums
/// **in partner order**. The batch kernels replay the scalar lookups per
/// lane and the divisions by r run as lane loops ahead of the ordered
/// accumulation, so every bit equals a partner-at-a-time sweep's.
fn evaluate(
    pot: &EamPotential,
    form: TableForm,
    sweep: Sweep,
    fp_c: f64,
    w: &LaneWindow,
    e: &mut EvalLanes,
    sums: &mut CentralSums,
) {
    let n = w.n;
    let rs = &w.r[..n];
    let (phi, dphi, f, df) = (
        &mut e.phi[..n],
        &mut e.dphi[..n],
        &mut e.f[..n],
        &mut e.df[..n],
    );
    match (sweep, form) {
        (Sweep::Density, TableForm::Compacted) => pot.comp_density.eval_values_batch(rs, f),
        (Sweep::Density, TableForm::Traditional) => pot.trad_density().eval_batch(rs, f, df),
        // The oracle's sweeps read the table they do not evaluate as 0.
        #[cfg(test)]
        (Sweep::ForcePair, _) => {
            pot.comp_pair.eval_batch(rs, phi, dphi);
            df.fill(0.0);
        }
        #[cfg(test)]
        (Sweep::ForceDensity, _) => {
            pot.comp_density.eval_batch(rs, f, df);
            phi.fill(0.0);
        }
        _ => pot.pair_density_batch(form, rs, phi, dphi, f, df),
    }
    if sweep == Sweep::Density {
        for f_r in &*f {
            sums.rho += f_r;
        }
        return;
    }
    // −φ′/r and the gradient scale −(F′ᵢ + F′ⱼ)·f′/r, as lane divisions:
    // summed into one term (traditional), kept apart (compacted), or
    // one of the two alone (the oracle's sweeps).
    let [s0, s1] = &mut e.scale;
    for k in 0..n {
        let gradient = (fp_c + w.fp[k]) * df[k];
        (s0[k], s1[k]) = match sweep {
            Sweep::ForceBoth => (-(dphi[k] + gradient) / rs[k], 0.0),
            #[cfg(test)]
            Sweep::ForceDensity => (-gradient / rs[k], 0.0),
            _ => (-dphi[k] / rs[k], -gradient / rs[k]),
        };
    }
    for k in 0..n {
        sums.pair += 0.5 * phi[k];
        for (term, scale) in sums.force.iter_mut().zip(&e.scale) {
            for ax in 0..3 {
                term[ax] += scale[k] * w.d[ax][k];
            }
        }
    }
}

/// Charges + computes one slab of `sweep` on one CPE, writing per-site
/// outputs. `FORCE` is whether the sweep is a force sweep (the walk
/// stages Δ and F′ only then). Each accepted partner is charged as the
/// walk stages it — `R_FLOPS`, the halo first fetch, then (scalar
/// configurations) the table access — and a window's batch tokens when
/// it flushes, after its partners: each of the context's three
/// accumulators (compute, gather, stream) sees the operands of a
/// partner-at-a-time sweep in that sweep's order. Every per-partner
/// charge is priced once per slab ([`PartnerPrices`]) and lands in
/// register copies of the block's accumulators ([`BlockCharges`]).
fn slab_kernel<const FORCE: bool>(
    ctx: &mut CpeCtx,
    l: &LatticeNeighborList,
    pot: &EamPotential,
    cfg: &OffloadConfig,
    sweep: Sweep,
    reach: usize,
    mut item: SlabItem<'_>,
) {
    debug_assert_eq!(FORCE, sweep != Sweep::Density);
    let cut2 = pot.cutoff() * pot.cutoff();
    let compacted = cfg.form == TableForm::Compacted;
    // The resident table: its bytes reserved and its bulk DMA charged.
    // The lookups read the host table in place, slope memo included.
    let _resident = compacted.then(|| {
        ctx.load_resident_table(sweep.resident(pot).values())
            .expect("a compacted table fits in the local store")
    });
    // The 273 KiB traditional table cannot be resident — prove it.
    debug_assert!(
        compacted
            || ctx
                .local_store()
                .reserve(TraditionalTable::bytes_for(pot.knots()))
                .is_err()
    );
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
    let _buffers = ctx
        .reserve_f64(words)
        .expect("block buffers, shadows, reuse margin and lanes fit in the local store");

    let atom = ctx.price_flops(ATOM_FLOPS);
    let prices = PartnerPrices::new(ctx, cfg, sweep);
    let mut halo = HaloSeen::default();
    let mut window = LaneWindow::new();
    let mut lanes = EvalLanes::new();
    ctx.begin_blocks(cfg.double_buffer);
    let nblocks = item.sites.len().div_ceil(cfg.block_sites).max(1);
    for (bi, block) in item.sites.chunks(cfg.block_sites.max(1)).enumerate() {
        let blk_lo = block[0];
        let blk_hi = *block.last().expect("chunks are non-empty");
        debug_assert!(block.is_sorted(), "slab sites ascend");
        let window_lo = if cfg.data_reuse {
            blk_lo.saturating_sub(reach)
        } else {
            blk_lo
        };
        halo.start_block(blk_lo, blk_hi, reach, window_lo);
        // Stage the block in.
        ctx.charge_dma_get(block.len() * STAGE_BYTES_PER_SITE);
        let mut sink = BlockSink {
            prices: &prices,
            charges: ctx.block_charges(),
            halo: &mut halo,
            lanes: &mut lanes,
            pot,
            form: cfg.form,
            sweep,
            fp_c: 0.0,
            sums: CentralSums::default(),
        };
        let base = bi * cfg.block_sites;
        for (oi, &s) in block.iter().enumerate() {
            if l.id[s] < 0 {
                // A vacancy: its output stays the zero it starts as.
                continue;
            }
            sink.charges.flops(atom);
            (sink.fp_c, sink.sums) = (l.fp[s], CentralSums::default());
            window.walk::<FORCE>(l, s, cut2, &mut sink);
            let o = base + oi;
            match &mut item.out {
                SlabOut::Rho(rho) => rho[o] = sink.sums.rho,
                SlabOut::Force { force, pair } => {
                    force[o] = sink.sums.force;
                    **pair += sink.sums.pair;
                }
            }
        }
        drop(sink);
        // Stage the block's results out.
        ctx.charge_dma_put(block.len() * 8 * sweep.out_words());
        if bi + 1 < nblocks {
            ctx.next_block();
        }
    }
    ctx.finish_blocks();
}

/// One block's walks on one CPE: its charges, halo set and evaluation
/// lanes, and the central in flight. It charges what a
/// partner-at-a-time sweep charges, in that sweep's order — each
/// partner's charges as the walk stages it, a window's batch tokens when
/// it flushes — and folds each window into the central's sums.
struct BlockSink<'k, 'c> {
    prices: &'k PartnerPrices,
    charges: BlockCharges<'c>,
    halo: &'k mut HaloSeen,
    lanes: &'k mut EvalLanes,
    pot: &'k EamPotential,
    form: TableForm,
    sweep: Sweep,
    /// The central's F′ and running sums.
    fp_c: f64,
    sums: CentralSums,
}

impl WindowSink for BlockSink<'_, '_> {
    #[inline(always)]
    fn partner(&mut self, key: usize) {
        self.prices
            .charge_partner(&mut self.charges, self.halo, key);
    }

    #[inline(always)]
    fn window(&mut self, w: &LaneWindow) {
        self.prices.charge_batches(&mut self.charges, w);
        let (pot, form, sweep, fp_c) = (self.pot, self.form, self.sweep, self.fp_c);
        evaluate(pot, form, sweep, fp_c, w, self.lanes, &mut self.sums);
    }
}

/// Sites per slab: the interior split evenly over the cluster's CPEs.
fn slab_len(interior: &[usize], cluster: &CpeCluster) -> usize {
    interior.len().div_ceil(cluster.n_cpes()).max(1)
}

/// One CPE launch of `sweep` over the slabs in `items`.
fn launch(
    l: &LatticeNeighborList,
    pot: &EamPotential,
    cluster: &CpeCluster,
    cfg: &OffloadConfig,
    sweep: Sweep,
    items: Vec<SlabItem<'_>>,
) -> ClusterReport {
    let reach = reach_flat(l);
    if sweep == Sweep::Density {
        cluster.run(items, |ctx, item| {
            slab_kernel::<false>(ctx, l, pot, cfg, sweep, reach, item)
        })
    } else {
        cluster.run(items, |ctx, item| {
            slab_kernel::<true>(ctx, l, pot, cfg, sweep, reach, item)
        })
    }
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
    let report = launch(l, pot, cluster, cfg, Sweep::Density, items);
    for (&s, rho) in interior.iter().zip(rho) {
        l.rho[s] = rho;
    }
    report
}

/// A force launch. The MPE sets each site's force to its force term,
/// then, for the compacted force, adds the density-gradient term — the
/// order the two modelled sweeps' scatters ran in. Returns the report
/// and ½Σφ.
fn force_sweep(
    l: &mut LatticeNeighborList,
    pot: &EamPotential,
    cluster: &CpeCluster,
    cfg: &OffloadConfig,
    interior: &[usize],
    sweep: Sweep,
) -> (ClusterReport, f64) {
    let slab = slab_len(interior, cluster);
    let mut force = vec![[[0.0f64; 3]; 2]; interior.len()];
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
    let report = launch(l, pot, cluster, cfg, sweep, items);
    for (&s, [term, gradient]) in interior.iter().zip(force) {
        l.force[s] = term;
        if sweep == Sweep::ForceCompacted {
            for ax in 0..3 {
                l.force[s][ax] += gradient[ax];
            }
        }
    }
    (report, pair.iter().sum())
}

/// The CPE force computation: one launch. The compacted form's two
/// modelled sweeps are charged as one context and reported merged.
fn force_sweeps(
    l: &mut LatticeNeighborList,
    pot: &EamPotential,
    cluster: &CpeCluster,
    cfg: &OffloadConfig,
    interior: &[usize],
) -> (ClusterReport, f64) {
    match cfg.form {
        TableForm::Traditional => force_sweep(l, pot, cluster, cfg, interior, Sweep::ForceBoth),
        TableForm::Compacted => {
            assert!(
                pot.comp_pair.n() == pot.comp_density.n(),
                "one charged context stands for both compacted force sweeps only if their \
                 resident tables have one length (pair {} knots, density {})",
                pot.comp_pair.n(),
                pot.comp_density.n()
            );
            let (sweep, pair) = force_sweep(l, pot, cluster, cfg, interior, Sweep::ForceCompacted);
            (merge_reports(sweep, sweep), pair)
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
    // Run-away densities on the MPE, staged and then written back.
    let cutoff = pot.cutoff();
    let mut stage = std::mem::take(&mut l.runaway_stage);
    {
        let _span = mmds_telemetry::span!("md.offload.runaways");
        stage.clear();
        for i in l.live_runaway_ids() {
            let mut rho = 0.0;
            for_each_partner(l, Central::Runaway(i), cutoff, |p| {
                rho += pot.density(cfg.form, p.r).0;
            });
            stage.push(rho);
        }
        for (rec, &rho) in l.live_runaways_mut().zip(&stage) {
            rec.rho = rho;
        }
    }
    let embed_energy =
        crate::force::embedding_pass_with(l, pot, cfg.form, interior, Default::default());
    exchange_fp(l);
    let (force_rep, mut pair_energy) = {
        let _span = mmds_telemetry::span!("md.offload.force");
        force_step(l, pot, cluster, cfg, interior)
    };
    // Run-away forces on the MPE.
    {
        let _span = mmds_telemetry::span!("md.offload.runaways");
        stage.clear();
        for i in l.live_runaway_ids() {
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
            stage.extend(fv);
        }
        for (rec, fv) in l.live_runaways_mut().zip(stage.chunks_exact(3)) {
            rec.force.copy_from_slice(fv);
        }
    }
    l.runaway_stage = stage;
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
        // Block 100..=163 with reach 40: partners 60..=203, and a block
        // near the origin whose window is cut at site 0; each with and
        // without a retained window before the block.
        for (blk_lo, blk_hi, reach) in [(100usize, 163, 40), (3, 66, 40)] {
            let (lo, hi) = (blk_lo.saturating_sub(reach), blk_hi + reach);
            for window_lo in [lo, blk_lo] {
                seen.start_block(blk_lo, blk_hi, reach, window_lo);
                let mut reference = std::collections::HashSet::new();
                // Every slot of both planes, visited twice in a scrambled
                // order: first visits of a run-away or a site outside the
                // window report true, repeats and resident atoms false.
                let span = hi - lo + 1;
                for k in 0..4 * span {
                    let site = lo + (k * 37) % span;
                    let is_runaway = (k / span) % 2 == 1;
                    let resident = !is_runaway && (window_lo..=blk_hi).contains(&site);
                    assert_eq!(
                        seen.fetch(halo_key(site, is_runaway)),
                        !resident && reference.insert((site, is_runaway)),
                        "site {site} run-away {is_runaway} window {window_lo}"
                    );
                }
                let resident = blk_hi - window_lo + 1;
                assert_eq!(reference.len(), 2 * span - resident);
            }
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
        let (pair_sweep, pair) = force_sweep(l, pot, cluster, cfg, interior, Sweep::ForcePair);
        let pair_terms: Vec<[f64; 3]> = interior.iter().map(|&s| l.force[s]).collect();
        let (gradient_sweep, _) = force_sweep(l, pot, cluster, cfg, interior, Sweep::ForceDensity);
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

    /// One staged partner, as bits: site, run-away flag, r, Δ and F′.
    type StagedBits = (usize, bool, u64, [u64; 3], u64);

    /// A sink that records what a walk hands it: the partner keys as
    /// they are staged, and each window's size and lanes — a window's
    /// partners are the last keys it was told of.
    #[derive(Default)]
    struct Recorder {
        keys: Vec<usize>,
        windows: Vec<usize>,
        staged: Vec<StagedBits>,
    }

    impl WindowSink for Recorder {
        fn partner(&mut self, key: usize) {
            self.keys.push(key);
        }

        fn window(&mut self, w: &LaneWindow) {
            self.windows.push(w.n);
            let keys = &self.keys[self.keys.len() - w.n..];
            for (k, key) in keys.iter().enumerate() {
                let d = [w.d[0][k], w.d[1][k], w.d[2][k]];
                self.staged.push((
                    key / 2,
                    key % 2 == 1,
                    w.r[k].to_bits(),
                    d.map(f64::to_bits),
                    w.fp[k].to_bits(),
                ));
            }
        }
    }

    #[test]
    fn lane_window_is_the_partner_walk() {
        // Each configuration's box, with run-aways on its slab and block
        // edges, plus two chained on one central's own site, one on a
        // neighbour and a vacant neighbour: every central's accepted
        // window sequence is `for_each_partner`'s, bit for bit, and the
        // sink hears of each partner, in order, before its window
        // flushes. The density walk, run through the same window right
        // after, stages the same r, site and run-away lanes in the same
        // windows.
        let (model, _, cells) = small_shape();
        for (name, ocfg) in all_configs() {
            let mut s = thermal_box_with_runaways(cells, model.n_cpes, ocfg.block_sites);
            let c = s.interior[s.interior.len() / 2];
            let deltas = s.lnl.neighbor_deltas(c).to_vec();
            let [near, vacant] =
                [deltas[0], deltas[deltas.len() / 2]].map(|d| (c as isize + d) as usize);
            s.lnl.make_vacancy(vacant);
            let pc = s.lnl.pos[c];
            for (k, (home, off)) in [(c, 0.9), (c, -1.1), (near, 0.7)].into_iter().enumerate() {
                let i = s.lnl.add_runaway(
                    home,
                    1_000_000 + k as i64,
                    [pc[0] + off, pc[1], pc[2]],
                    [0.0; 3],
                );
                s.lnl.runaway_mut(i).fp = -0.25 * (k + 1) as f64;
            }
            let l = &s.lnl;
            let cut = s.pot.cutoff();
            let mut window = LaneWindow::new();
            let mut full_windows = 0;
            for &site in s.interior.iter().filter(|&&site| l.id[site] >= 0) {
                let mut walk: Vec<StagedBits> = Vec::new();
                for_each_partner(l, Central::Site(site), cut, |p| {
                    walk.push((
                        p.site,
                        p.is_runaway,
                        p.r.to_bits(),
                        p.dx.map(f64::to_bits),
                        p.fp.to_bits(),
                    ));
                });
                let mut force = Recorder::default();
                window.walk::<true>(l, site, cut * cut, &mut force);
                full_windows += force
                    .windows
                    .iter()
                    .filter(|&&n| n == BATCH_GATHER_CAP)
                    .count();
                assert_eq!(force.staged, walk, "{name}: central {site}");
                let keys: Vec<_> = walk.iter().map(|p| halo_key(p.0, p.1)).collect();
                assert_eq!(force.keys, keys, "{name}: partners of central {site}");
                let mut density = Recorder::default();
                window.walk::<false>(l, site, cut * cut, &mut density);
                let lanes = |staged: &[StagedBits]| -> Vec<_> {
                    staged.iter().map(|p| (p.0, p.1, p.2)).collect()
                };
                assert_eq!(
                    lanes(&density.staged),
                    lanes(&walk),
                    "{name}: density walk of central {site}"
                );
                assert_eq!(density.keys, keys, "{name}: central {site}");
                assert_eq!(density.windows, force.windows, "{name}: central {site}");
                if site == c {
                    assert_eq!(walk.iter().filter(|p| p.1 && p.0 == c).count(), 2, "{name}");
                    assert!(walk.iter().any(|p| p.1 && p.0 == near), "{name}");
                    assert!(walk.iter().all(|p| p.1 || p.0 != vacant), "{name}");
                }
            }
            assert!(full_windows > 0, "{name}: windows fill and flush mid-walk");
        }
    }

    #[test]
    fn runaway_passes_allocate_nothing_after_warm_up() {
        // The MPE run-away passes stage through the list's recycled
        // buffer: one warm-up evaluation sizes it, and 100 more with the
        // run-aways moving keep its pointer and capacity.
        let (model, block_sites, cells) = small_shape();
        let ocfg = OffloadConfig {
            block_sites,
            ..OffloadConfig::optimized()
        };
        let mut s = thermal_box_with_runaways(cells, model.n_cpes, block_sites);
        offload_forces_on(&mut s, &ocfg, model);
        let stage =
            |s: &MdSimulation| (s.lnl.runaway_stage.as_ptr(), s.lnl.runaway_stage.capacity());
        let warm = stage(&s);
        assert!(warm.1 >= 3 * 5, "five run-aways' forces");
        for n in 0..100 {
            for rec in s.lnl.live_runaways_mut() {
                rec.pos[n % 3] += 1e-3;
            }
            offload_forces_on(&mut s, &ocfg, model);
            assert_eq!(stage(&s), warm, "evaluation {n}");
            // The buffer holds the forces the records were given.
            let forces: Vec<f64> = s.lnl.live_runaways_mut().flat_map(|r| r.force).collect();
            assert_eq!(s.lnl.runaway_stage, forces, "evaluation {n}");
        }
    }

    #[test]
    fn one_context_stands_for_both_compacted_force_sweeps() {
        // The pair and density-gradient sweeps are charged alike, so the
        // one charged context's report, merged with itself, is the
        // two-sweep oracle's merge.
        let (model, block_sites, cells) = small_shape();
        let cluster = CpeCluster::new(model);
        for (name, ocfg) in all_configs() {
            if ocfg.form != TableForm::Compacted {
                continue;
            }
            let ocfg = OffloadConfig {
                block_sites,
                ..ocfg
            };
            let mut s = thermal_box_with_runaways(cells, model.n_cpes, block_sites);
            let (pot, interior, l) = (s.pot.clone(), s.interior.clone(), &mut s.lnl);
            let (fused, _) = force_sweeps(l, &pot, &cluster, &ocfg, &interior);
            let (pair, _) = force_sweep(l, &pot, &cluster, &ocfg, &interior, Sweep::ForcePair);
            let (gradient, _) =
                force_sweep(l, &pot, &cluster, &ocfg, &interior, Sweep::ForceDensity);
            assert!(pair.counters.flops > 0, "{name}: the sweeps ran");
            assert_eq!(ReportBits::of(&pair), ReportBits::of(&gradient), "{name}");
            assert_eq!(
                ReportBits::of(&fused),
                ReportBits::of(&merge_reports(pair, gradient)),
                "{name}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "one charged context stands for both compacted force sweeps")]
    fn unequal_compacted_force_tables_are_refused() {
        let mut s = sim();
        let (a, knots) = (s.pot.analytic, s.pot.comp_pair.n() - 1);
        let r_min = mmds_eam::potential::R_MIN;
        s.pot.comp_density = CompactTable::build(|r| a.density(r), r_min, a.r_cut, knots);
        offload_forces(&mut s, &OffloadConfig::optimized());
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
