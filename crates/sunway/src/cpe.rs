//! CPE execution contexts and the 64-core cluster executor.
//!
//! A [`CpeCtx`] is one CPE's view of a kernel launch: its local store
//! and the counters and virtual time every charge lands in. One launch
//! of [`CpeCluster::run`] gives each CPE one context and reports their
//! aggregate.

use rayon::prelude::*;

use crate::arch::SwModel;
use crate::counters::CpeCounters;
use crate::local_store::{LdmOverflow, LocalStore, LsReservation, LsView};
use crate::pipeline::{pipeline_time, BlockCost};

/// Execution context of one CPE (slave core) during a kernel.
///
/// Holds the local store, the deterministic work counters, and the
/// block/pipeline state used to model double buffering.
pub struct CpeCtx {
    /// CPE index within the cluster (0..64).
    pub id: usize,
    model: SwModel,
    ls: LocalStore,
    counters: CpeCounters,
    /// When `Some`, DMA/compute charges accumulate into the current
    /// block instead of straight time, and the pipeline model folds them
    /// at `finish_blocks`.
    block_acc: Option<BlockCost>,
    blocks: Vec<BlockCost>,
    double_buffer: bool,
}

impl CpeCtx {
    fn new(id: usize, model: SwModel) -> Self {
        Self {
            id,
            model,
            ls: LocalStore::new(model.ldm_bytes),
            counters: CpeCounters::default(),
            block_acc: None,
            blocks: Vec::new(),
            double_buffer: false,
        }
    }

    /// The cost model in effect.
    pub fn model(&self) -> &SwModel {
        &self.model
    }

    /// The local store of this CPE.
    pub fn local_store(&self) -> &LocalStore {
        &self.ls
    }

    /// Reserves room for `n` `f64`s the host kernel never reads (see
    /// [`LocalStore::reserve`]).
    pub fn reserve_f64(&self, n: usize) -> Result<LsReservation, LdmOverflow> {
        self.ls.reserve(n * std::mem::size_of::<f64>())
    }

    /// Snapshot of this CPE's counters.
    pub fn counters(&self) -> CpeCounters {
        self.counters
    }

    /// Total virtual time so far.
    pub fn time(&self) -> f64 {
        self.counters.dma_time + self.counters.compute_time
    }

    fn charge_dma_time(&mut self, t: f64) {
        match &mut self.block_acc {
            Some(b) => b.stream += t,
            None => self.counters.dma_time += t,
        }
    }

    fn charge_compute_time(&mut self, t: f64) {
        match &mut self.block_acc {
            Some(b) => b.compute += t,
            None => self.counters.compute_time += t,
        }
    }

    /// Charges one DMA get of `bytes` without copying (used when the
    /// kernel reads main memory directly but the real hardware would
    /// stream the bytes through the LDM — e.g. block staging).
    pub fn charge_dma_get(&mut self, bytes: usize) {
        self.counters.dma_gets += 1;
        self.counters.bytes_in += bytes as u64;
        let t = self.model.dma_time(bytes);
        self.charge_dma_time(t);
    }

    /// Charges one latency-bound *gather* DMA — a fetch issued from
    /// inside the compute loop (non-resident table row, halo atom).
    /// Inside a block pipeline these land on the critical path and are
    /// never hidden by double buffering.
    pub fn charge_dma_gather(&mut self, bytes: usize) {
        self.counters.dma_gets += 1;
        self.counters.bytes_in += bytes as u64;
        let t = self.model.dma_time(bytes);
        match &mut self.block_acc {
            Some(b) => b.gather += t,
            None => self.counters.dma_time += t,
        }
    }

    /// Charges one DMA put of `bytes` without copying.
    pub fn charge_dma_put(&mut self, bytes: usize) {
        self.counters.dma_puts += 1;
        self.counters.bytes_out += bytes as u64;
        let t = self.model.dma_time(bytes);
        self.charge_dma_time(t);
    }

    /// Charges `n` scalar flops of compute.
    pub fn charge_flops(&mut self, n: u64) {
        self.counters.flops += n;
        let t = self.model.flops_time(n);
        self.charge_compute_time(t);
    }

    /// Charges one interpolation-table access: one segment locate plus
    /// `segments` segment evaluations. A fused lookup evaluates several
    /// tables sharing a knot grid from ONE locate, so passing
    /// `segments > 1` amortises the locate cost — the accounting twin of
    /// the host's fused `pair_density` path.
    pub fn charge_table_access(&mut self, locate_flops: u64, seg_flops: u64, segments: u64) {
        self.charge_flops(locate_flops + segments * seg_flops);
    }

    /// Charges one lane-batched table access covering `lanes` partner
    /// evaluations: per lane, one segment locate plus `segments` segment
    /// evaluations — the accounting twin of the host's SoA batch
    /// kernels, which replay the scalar expression per lane. The flop
    /// total therefore equals `lanes` scalar
    /// [`CpeCtx::charge_table_access`] calls (batching changes memory
    /// access granularity, not arithmetic, so virtual times are
    /// unchanged); the group is additionally recorded in
    /// [`CpeCounters::table_batches`] so the flop ledger can reconcile
    /// batched against scalar access counts.
    pub fn charge_table_batch(
        &mut self,
        locate_flops: u64,
        seg_flops: u64,
        segments: u64,
        lanes: u64,
    ) {
        self.counters.table_batches += 1;
        self.charge_flops(lanes * (locate_flops + segments * seg_flops));
    }

    /// Prices `n` scalar flops once, for [`BlockCharges::flops`].
    pub fn price_flops(&self, n: u64) -> Priced {
        Priced {
            units: n,
            time: self.model.flops_time(n),
        }
    }

    /// Prices one table access as [`CpeCtx::charge_table_access`]
    /// charges it, for [`BlockCharges::flops`].
    pub fn price_table_access(&self, locate_flops: u64, seg_flops: u64, segments: u64) -> Priced {
        self.price_flops(locate_flops + segments * seg_flops)
    }

    /// Prices one lane-batched table access as
    /// [`CpeCtx::charge_table_batch`] charges it, for
    /// [`BlockCharges::table_batch`].
    pub fn price_table_batch(
        &self,
        locate_flops: u64,
        seg_flops: u64,
        segments: u64,
        lanes: u64,
    ) -> Priced {
        self.price_flops(lanes * (locate_flops + segments * seg_flops))
    }

    /// Prices one gather DMA of `bytes`, for [`BlockCharges::gather`].
    pub fn price_gather(&self, bytes: usize) -> Priced {
        Priced {
            units: bytes as u64,
            time: self.model.dma_time(bytes),
        }
    }

    /// The open block's charges, for a loop that charges per partner:
    /// the block is looked up once here instead of once per charge.
    pub fn block_charges(&mut self) -> BlockCharges<'_> {
        let block = self.block_acc.expect("block_charges outside begin_blocks");
        BlockCharges {
            counters: self.counters,
            block,
            ctx: self,
        }
    }

    /// Makes `table` resident: reserves its bytes and charges one bulk
    /// DMA get, and returns a view that reads `table` in place — the
    /// bytes a copy would hold, without the copy. Fails if the table
    /// does not fit — which is exactly what happens to the traditional
    /// 273 KB interpolation table.
    pub fn load_resident_table<'a>(
        &mut self,
        table: &'a [f64],
    ) -> Result<LsView<'a, f64>, LdmOverflow> {
        let view = self.ls.map(table)?;
        self.charge_dma_get(std::mem::size_of_val(table));
        Ok(view)
    }

    // ------------------------------------------------------------------
    // Block pipeline (double buffering, Fig. 6)
    // ------------------------------------------------------------------

    /// Enters block-pipelined mode. Until [`CpeCtx::finish_blocks`],
    /// charges accumulate per block delimited by [`CpeCtx::next_block`].
    pub fn begin_blocks(&mut self, double_buffer: bool) {
        assert!(self.block_acc.is_none(), "begin_blocks while in blocks");
        self.double_buffer = double_buffer;
        self.blocks.clear();
        self.block_acc = Some(BlockCost::default());
    }

    /// Closes the current block and opens the next one.
    pub fn next_block(&mut self) {
        let b = self
            .block_acc
            .replace(BlockCost::default())
            .expect("next_block outside begin_blocks");
        self.blocks.push(b);
    }

    /// Closes the final block and charges the whole pipeline's time via
    /// the overlap model.
    pub fn finish_blocks(&mut self) {
        let b = self
            .block_acc
            .take()
            .expect("finish_blocks outside begin_blocks");
        self.blocks.push(b);
        let dma_total: f64 = self.blocks.iter().map(|b| b.stream + b.gather).sum();
        let total = pipeline_time(&self.blocks, self.double_buffer);
        // Attribute: DMA keeps its (possibly hidden) share for reporting;
        // the remainder of the pipeline time is compute.
        let dma_part = dma_total.min(total);
        self.counters.dma_time += dma_part;
        self.counters.compute_time += total - dma_part;
        self.blocks.clear();
    }
}

/// A charge priced once by [`CpeCtx`]'s `price_*` methods: its units
/// (flops, or the bytes of a gather) and its virtual time, computed by
/// the same model call the per-call charge makes.
#[derive(Debug, Clone, Copy)]
pub struct Priced {
    units: u64,
    time: f64,
}

/// The charges of one open block ([`CpeCtx::block_charges`]). Each
/// method updates the counters and the block's accumulators exactly as
/// its per-call twin on [`CpeCtx`] does inside a block, so a sequence of
/// priced charges adds the same `f64` values in the same order. It works
/// on copies of the counters and the block, which a tight loop keeps in
/// registers, and writes them back to the context when dropped.
pub struct BlockCharges<'a> {
    ctx: &'a mut CpeCtx,
    counters: CpeCounters,
    block: BlockCost,
}

impl BlockCharges<'_> {
    /// [`CpeCtx::charge_flops`] (and `charge_table_access`) of a priced
    /// flop count.
    #[inline]
    pub fn flops(&mut self, p: Priced) {
        self.counters.flops += p.units;
        self.block.compute += p.time;
    }

    /// [`CpeCtx::charge_table_batch`] of a priced batch.
    #[inline]
    pub fn table_batch(&mut self, p: Priced) {
        self.counters.table_batches += 1;
        self.flops(p);
    }

    /// [`CpeCtx::charge_dma_gather`] of a priced gather.
    #[inline]
    pub fn gather(&mut self, p: Priced) {
        self.counters.dma_gets += 1;
        self.counters.bytes_in += p.units;
        self.block.gather += p.time;
    }
}

impl Drop for BlockCharges<'_> {
    fn drop(&mut self) {
        self.ctx.counters = self.counters;
        self.ctx.block_acc = Some(self.block);
    }
}

/// Aggregate outcome of one cluster kernel launch.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClusterReport {
    /// Kernel wall time as the MPE sees it: max over CPE virtual times.
    pub time: f64,
    /// Sum of all CPE counters.
    pub counters: CpeCounters,
    /// Number of CPEs that did any work.
    pub active_cpes: usize,
    /// Maximum bytes any CPE kept simultaneously live in its local
    /// store — compared against the kernel's declared
    /// [`crate::LdmPlan`] by the `mmds-audit` budget prover.
    pub ldm_high_water: usize,
}

/// The 8×8 CPE mesh of one core group.
///
/// [`CpeCluster::run`] distributes work items round-robin over the 64
/// CPEs and executes the per-CPE batches in parallel with rayon. Item
/// assignment is deterministic, so counters and virtual times are
/// reproducible regardless of host scheduling.
pub struct CpeCluster {
    model: SwModel,
}

impl CpeCluster {
    /// Creates a cluster with the given cost model.
    pub fn new(model: SwModel) -> Self {
        Self { model }
    }

    /// Number of CPEs.
    pub fn n_cpes(&self) -> usize {
        self.model.n_cpes
    }

    /// Runs `kernel` over `items`: item `i` executes on CPE `i % 64`,
    /// items assigned to the same CPE run in order (so a CPE can keep
    /// resident buffers across its items — the mechanism behind
    /// ghost-data reuse). Each CPE hands its one context to every item.
    pub fn run<I, F>(&self, items: Vec<I>, kernel: F) -> ClusterReport
    where
        I: Send,
        F: Fn(&mut CpeCtx, I) + Sync,
    {
        let n = self.model.n_cpes;
        let mut buckets: Vec<Vec<I>> = (0..n).map(|_| Vec::new()).collect();
        for (i, item) in items.into_iter().enumerate() {
            buckets[i % n].push(item);
        }
        // Per CPE, a single-CPE report.
        let per_cpe: Vec<ClusterReport> = buckets
            .into_par_iter()
            .enumerate()
            .map(|(id, batch)| {
                let mut ctx = CpeCtx::new(id, self.model);
                let active_cpes = usize::from(!batch.is_empty());
                for item in batch {
                    kernel(&mut ctx, item);
                }
                ClusterReport {
                    time: ctx.time(),
                    counters: ctx.counters(),
                    active_cpes,
                    ldm_high_water: ctx.ls.high_water(),
                }
            })
            .collect();
        let mut report = ClusterReport::default();
        for c in per_cpe {
            report.time = report.time.max(c.time);
            report.counters = report.counters.merge(&c.counters);
            report.active_cpes += c.active_cpes;
            report.ldm_high_water = report.ldm_high_water.max(c.ldm_high_water);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_runs_all_items() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let cluster = CpeCluster::new(SwModel::free());
        let sum = AtomicU64::new(0);
        let report = cluster.run((0..1000u64).collect(), |_, item| {
            sum.fetch_add(item, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 499_500);
        assert_eq!(report.active_cpes, 64);
    }

    #[test]
    fn fewer_items_than_cpes() {
        let cluster = CpeCluster::new(SwModel::free());
        let report = cluster.run(vec![1, 2, 3], |ctx, _| ctx.charge_flops(10));
        assert_eq!(report.active_cpes, 3);
        assert_eq!(report.counters.flops, 30);
    }

    #[test]
    fn time_is_max_over_cpes() {
        let cluster = CpeCluster::new(SwModel::sw26010());
        // CPE 0 gets items 0 and 64 → twice the work of the rest.
        let report = cluster.run((0..65).collect::<Vec<u32>>(), |ctx, _| {
            ctx.charge_flops(1_000_000);
        });
        let per_item = SwModel::sw26010().flops_time(1_000_000);
        assert!((report.time - 2.0 * per_item).abs() < 1e-12);
        assert_eq!(report.counters.flops, 65_000_000);
    }

    #[test]
    fn priced_block_charges_equal_the_per_call_charges() {
        // One block charged per call and one through priced charges, in
        // the same order: every counter and every virtual-time bit agree.
        let model = SwModel::sw26010();
        let run = |priced: bool| {
            let mut ctx = CpeCtx::new(0, model);
            ctx.begin_blocks(true);
            for block in 0..3 {
                ctx.charge_dma_get(96 * (block + 1));
                let (r, halo) = (ctx.price_flops(18), ctx.price_gather(24));
                let access = ctx.price_table_access(4, 36, 1);
                let batch = ctx.price_table_batch(4, 36, 1, 8);
                for k in 0..37 {
                    if priced {
                        let mut b = ctx.block_charges();
                        b.flops(r);
                        if k % 3 == 0 {
                            b.gather(halo);
                        }
                        if k % 5 == 0 {
                            b.table_batch(batch);
                        } else {
                            b.flops(access);
                        }
                    } else {
                        ctx.charge_flops(18);
                        if k % 3 == 0 {
                            ctx.charge_dma_gather(24);
                        }
                        if k % 5 == 0 {
                            ctx.charge_table_batch(4, 36, 1, 8);
                        } else {
                            ctx.charge_table_access(4, 36, 1);
                        }
                    }
                }
                ctx.charge_dma_put(32);
                if block < 2 {
                    ctx.next_block();
                }
            }
            ctx.finish_blocks();
            let c = ctx.counters();
            (c, c.dma_time.to_bits(), c.compute_time.to_bits())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    #[should_panic(expected = "block_charges outside begin_blocks")]
    fn block_charges_need_an_open_block() {
        CpeCtx::new(0, SwModel::sw26010()).block_charges();
    }

    #[test]
    fn resident_table_capacity_enforced() {
        let mut ctx = CpeCtx::new(0, SwModel::sw26010());
        let traditional = vec![0.0; 5000 * 7];
        assert!(ctx.load_resident_table(&traditional).is_err());
        assert_eq!(ctx.counters().dma_gets, 0, "a rejected table moves nothing");
        let compacted: Vec<f64> = (0..5000).map(f64::from).collect();
        let resident = ctx.load_resident_table(&compacted).unwrap();
        // The view reads the table in place, holds its bytes in the
        // store and paid one bulk DMA for them — as a copy would have.
        assert_eq!(&resident[..], &compacted[..]);
        assert_eq!(ctx.local_store().used(), 40_000);
        let c = ctx.counters();
        assert_eq!((c.dma_gets, c.bytes_in), (1, 40_000));
        drop(resident);
        assert_eq!(ctx.local_store().used(), 0);
        assert_eq!(ctx.local_store().high_water(), 40_000);
    }

    #[test]
    fn block_pipeline_double_buffer_cheaper() {
        let model = SwModel::sw26010();
        let run = |db: bool| {
            let mut ctx = CpeCtx::new(0, model);
            ctx.begin_blocks(db);
            for i in 0..10 {
                ctx.charge_dma_get(4096);
                ctx.charge_flops(100_000);
                ctx.charge_dma_put(4096);
                if i < 9 {
                    ctx.next_block();
                }
            }
            ctx.finish_blocks();
            ctx.time()
        };
        let seq = run(false);
        let db = run(true);
        assert!(db < seq, "db {db} !< seq {seq}");
    }

    #[test]
    fn gather_is_not_hidden_by_double_buffering() {
        let model = SwModel::sw26010();
        let run = |db: bool| {
            let mut ctx = CpeCtx::new(0, model);
            ctx.begin_blocks(db);
            for i in 0..8 {
                // Gather-dominated block: almost nothing to overlap.
                ctx.charge_dma_gather(56);
                ctx.charge_dma_gather(56);
                ctx.charge_flops(10);
                if i < 7 {
                    ctx.next_block();
                }
            }
            ctx.finish_blocks();
            ctx.time()
        };
        let seq = run(false);
        let db = run(true);
        // No stream DMA at all: double buffering must buy nothing.
        assert!((seq - db).abs() < 1e-15, "seq {seq} vs db {db}");
    }

    #[test]
    fn cluster_report_counts_all_cpes_counters() {
        let cluster = CpeCluster::new(SwModel::sw26010());
        let report = cluster.run((0..128u32).collect(), |ctx, _| {
            ctx.charge_dma_get(100);
            ctx.charge_dma_put(50);
        });
        assert_eq!(report.counters.dma_gets, 128);
        assert_eq!(report.counters.dma_puts, 128);
        assert_eq!(report.counters.bytes_in, 12_800);
        assert_eq!(report.counters.bytes_out, 6_400);
    }

    #[test]
    fn batched_table_charge_equals_scalar_total() {
        // The batch token is pure accounting granularity: flops and
        // virtual time must equal `lanes` scalar accesses exactly.
        let model = SwModel::sw26010();
        let mut scalar = CpeCtx::new(0, model);
        for _ in 0..8 {
            scalar.charge_table_access(4, 36, 1);
        }
        let mut batched = CpeCtx::new(1, model);
        batched.charge_table_batch(4, 36, 1, 8);
        assert_eq!(batched.counters().flops, scalar.counters().flops);
        // Same flop total; the time sum may differ only by float
        // accumulation order (8 small adds vs one).
        let (tb, ts) = (batched.time(), scalar.time());
        assert!((tb - ts).abs() <= 1e-12 * ts, "{tb} vs {ts}");
        assert_eq!(batched.counters().table_batches, 1);
        assert_eq!(scalar.counters().table_batches, 0);
    }

    #[test]
    fn charges_outside_blocks_accumulate_directly() {
        let mut ctx = CpeCtx::new(0, SwModel::sw26010());
        ctx.charge_flops(1450); // 1 µs
        assert!((ctx.time() - 1.0e-6).abs() < 1e-12);
    }
}
