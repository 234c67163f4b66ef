//! The per-rank communicator handle.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use crate::collectives::{Acc, CollectiveHub};
use crate::mailbox::{Envelope, Mailbox, MsgInfo, Source};
use crate::matrix::{CommMatrix, MatrixRecorder};
use crate::model::MachineModel;
use crate::onesided::{PutRecord, WindowHub};
use crate::stats::CommStats;
use crate::trace::{self, CommEvent, CommOp, OpTimer};
use crate::wait::{Abort, WaitStats, Waiter};
use crate::{Rank, Tag};

/// State shared by every rank of one [`crate::World`].
pub(crate) struct Shared {
    pub mailboxes: Vec<Arc<Mailbox>>,
    pub hub: CollectiveHub,
    pub windows: WindowHub,
    pub model: MachineModel,
    pub abort: Arc<Abort>,
}

impl Shared {
    /// Records that `rank` panicked and wakes every rank asleep at a
    /// blocking point so it can see the flag and unwind.
    pub fn abort_world(&self, rank: Rank) {
        self.abort.raise(rank);
        self.hub.wake_all();
        for mailbox in &self.mailboxes {
            mailbox.wake_all();
        }
    }
}

/// A rank's communicator: the analogue of `MPI_COMM_WORLD` plus the
/// rank's virtual clock and accounting.
///
/// `Comm` is deliberately `!Sync` (interior `Cell`s): each rank thread
/// owns exactly one.
pub struct Comm {
    rank: Rank,
    size: usize,
    shared: Arc<Shared>,
    clock: Cell<f64>,
    stats: RefCell<CommStats>,
    matrix: RefCell<MatrixRecorder>,
    /// Lamport clock: bumped on every communication event, stamped
    /// into envelopes/puts, reconciled to the participant maximum by
    /// receives and collectives. Pure metadata — never read by the
    /// physics or the cost model.
    lamport: Cell<u64>,
    /// Per-rank outgoing message ordinal; `(rank, send_seq)` is the
    /// globally unique match id of each send/put.
    send_seq: Cell<u64>,
    /// How this rank waits at the hub and at its mailbox (host side
    /// only; see [`crate::wait`]).
    waiter: Waiter,
}

impl Comm {
    pub(crate) fn new(rank: Rank, size: usize, shared: Arc<Shared>, spin: bool) -> Self {
        Self {
            rank,
            size,
            waiter: Waiter::new(rank, Arc::clone(&shared.abort), spin),
            shared,
            clock: Cell::new(0.0),
            stats: RefCell::new(CommStats::default()),
            matrix: RefCell::new(MatrixRecorder::default()),
            lamport: Cell::new(0),
            send_seq: Cell::new(0),
        }
    }

    /// This rank's id, `0..size`.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The machine model charging virtual time.
    pub fn model(&self) -> &MachineModel {
        &self.shared.model
    }

    /// Current virtual time of this rank (seconds).
    pub fn clock(&self) -> f64 {
        self.clock.get()
    }

    /// Current Lamport clock of this rank.
    pub fn lamport(&self) -> u64 {
        self.lamport.get()
    }

    /// Snapshot of this rank's accounting counters.
    pub fn stats(&self) -> CommStats {
        *self.stats.borrow()
    }

    /// Snapshot of this rank's pairwise communication matrix.
    pub fn comm_matrix(&self) -> CommMatrix {
        self.matrix.borrow().snapshot(self.rank)
    }

    /// How this rank's blocking calls have waited on the host so far
    /// (spun, parked, cool-downs). Scheduling facts that differ from
    /// run to run — which is why they are not in [`Comm::stats`].
    pub fn wait_stats(&self) -> WaitStats {
        self.waiter.stats()
    }

    /// True once this rank has begun unwinding because a peer failed.
    pub(crate) fn stopped_by_peer(&self) -> bool {
        self.waiter.stopped_by_peer()
    }

    /// Resets counters, the comm matrix, and clock (e.g. after a
    /// warm-up phase, so a measured window excludes initialisation — as
    /// benchmark papers do).
    pub fn reset_accounting(&self) {
        self.clock.set(0.0);
        *self.stats.borrow_mut() = CommStats::default();
        self.matrix.borrow_mut().reset();
    }

    /// Folds on-demand exchange savings accounting into this rank's
    /// counters. Byte movement is still charged by the send/put calls
    /// themselves — this only records the census and the analytic
    /// full-ghost baseline the protocol avoided.
    pub fn note_exchange_savings(&self, s: crate::stats::ExchangeSavings) {
        let mut stats = self.stats.borrow_mut();
        stats.savings = stats.savings.merge(&s);
    }

    /// Charges `seconds` of computation to the virtual clock.
    pub fn tick_compute(&self, seconds: f64) {
        debug_assert!(seconds >= 0.0, "negative compute charge");
        self.clock.set(self.clock.get() + seconds);
        self.stats.borrow_mut().compute_time += seconds;
    }

    fn advance_comm(&self, to: f64) {
        let now = self.clock.get();
        if to > now {
            self.stats.borrow_mut().comm_time += to - now;
            self.clock.set(to);
        }
    }

    // ------------------------------------------------------------------
    // Two-sided
    // ------------------------------------------------------------------

    /// Sends `payload` to `dst` with `tag` (like `MPI_Send` with eager
    /// buffering: never blocks).
    pub fn send(&self, dst: Rank, tag: Tag, payload: Vec<u8>) {
        assert!(dst < self.size, "send to rank {dst} of {}", self.size);
        let timer = OpTimer::start(self.clock.get());
        let overhead = self.shared.model.send_overhead;
        let depart = self.clock.get() + overhead;
        let bytes = payload.len() as u64;
        {
            let mut s = self.stats.borrow_mut();
            s.msgs_sent += 1;
            s.bytes_sent += bytes;
            s.comm_time += overhead;
        }
        self.matrix.borrow_mut().record_send(dst, bytes);
        self.clock.set(depart);
        let seq = self.send_seq.get() + 1;
        self.send_seq.set(seq);
        let lamport = self.lamport.get() + 1;
        self.lamport.set(lamport);
        self.shared.mailboxes[dst].deliver(Envelope {
            src: self.rank,
            tag,
            depart_time: depart,
            seq,
            lamport,
            payload,
        });
        if trace::tracing() {
            trace::emit(&CommEvent {
                op: CommOp::Send,
                rank: self.rank,
                peer: Some(dst),
                tag,
                bytes,
                match_src: Some(self.rank),
                match_seq: seq,
                lamport,
                vt_enter: timer.vt_enter,
                vt_exit: depart,
                wall_ns: timer.elapsed_ns(),
            });
        }
    }

    /// Blocks until a message matching `(src, tag)` arrives and returns
    /// its payload.
    pub fn recv(&self, src: Source, tag: Tag) -> Vec<u8> {
        let timer = OpTimer::start(self.clock.get());
        let env = self.shared.mailboxes[self.rank].recv(&self.waiter, src, tag);
        self.finish_recv(env, timer)
    }

    /// Receives from a specific rank (shorthand for `recv(Source::Of(..))`).
    pub fn recv_from(&self, src: Rank, tag: Tag) -> Vec<u8> {
        self.recv(Source::Of(src), tag)
    }

    fn finish_recv(&self, env: Envelope, timer: OpTimer) -> Vec<u8> {
        let arrival = env.depart_time + self.shared.model.p2p_time(env.payload.len(), self.size);
        self.advance_comm(arrival);
        let bytes = env.payload.len() as u64;
        let mut s = self.stats.borrow_mut();
        s.msgs_recv += 1;
        s.bytes_recv += bytes;
        drop(s);
        self.matrix.borrow_mut().record_recv(env.src, bytes);
        let lamport = self.lamport.get().max(env.lamport) + 1;
        self.lamport.set(lamport);
        if trace::tracing() {
            trace::emit(&CommEvent {
                op: CommOp::Recv,
                rank: self.rank,
                peer: Some(env.src),
                tag: env.tag,
                bytes,
                match_src: Some(env.src),
                match_seq: env.seq,
                lamport,
                vt_enter: timer.vt_enter,
                vt_exit: self.clock.get(),
                wall_ns: timer.elapsed_ns(),
            });
        }
        env.payload
    }

    /// Blocks until a matching message is queued; returns metadata
    /// without consuming the message (`MPI_Probe`).
    pub fn probe(&self, src: Source, tag: Tag) -> MsgInfo {
        self.shared.mailboxes[self.rank].probe(&self.waiter, src, tag)
    }

    /// Paired exchange: sends to `dst` and receives from `src` on the
    /// same tag (`MPI_Sendrecv`) — the halo-exchange workhorse.
    pub fn sendrecv(&self, dst: Rank, src: Rank, tag: Tag, payload: Vec<u8>) -> Vec<u8> {
        self.send(dst, tag, payload);
        self.recv_from(src, tag)
    }

    // ------------------------------------------------------------------
    // Collectives
    // ------------------------------------------------------------------

    fn collective(&self, mine: Acc, cost: f64, op: CommOp, bytes: u64) -> Acc {
        let timer = OpTimer::start(self.clock.get());
        let (acc, clock_max, lamport_max, generation) = self.shared.hub.collect(
            &self.waiter,
            self.rank,
            mine,
            self.clock.get(),
            self.lamport.get(),
        );
        self.advance_comm(clock_max + cost);
        self.stats.borrow_mut().collectives += 1;
        let lamport = lamport_max + 1;
        self.lamport.set(lamport);
        if trace::tracing() {
            trace::emit(&CommEvent {
                op,
                rank: self.rank,
                peer: None,
                tag: 0,
                bytes,
                match_src: None,
                match_seq: generation,
                lamport,
                vt_enter: timer.vt_enter,
                vt_exit: self.clock.get(),
                wall_ns: timer.elapsed_ns(),
            });
        }
        acc
    }

    /// Global synchronisation point; also reconciles virtual clocks.
    pub fn barrier(&self) {
        let cost = self.shared.model.barrier_time(self.size);
        self.collective(Acc::Barrier, cost, CommOp::Barrier, 0);
    }

    /// Allreduce-sum over one `f64`.
    pub fn allreduce_sum_f64(&self, v: f64) -> f64 {
        let cost = self.shared.model.allreduce_time(8, self.size);
        match self.collective(Acc::SumF64(v), cost, CommOp::Allreduce, 8) {
            Acc::SumF64(s) => s,
            _ => unreachable!(),
        }
    }

    /// Allreduce-min over one `f64` (used for the global KMC time step).
    pub fn allreduce_min_f64(&self, v: f64) -> f64 {
        let cost = self.shared.model.allreduce_time(8, self.size);
        match self.collective(Acc::MinF64(v), cost, CommOp::Allreduce, 8) {
            Acc::MinF64(s) => s,
            _ => unreachable!(),
        }
    }

    /// Allreduce-max over one `f64`.
    pub fn allreduce_max_f64(&self, v: f64) -> f64 {
        let cost = self.shared.model.allreduce_time(8, self.size);
        match self.collective(Acc::MaxF64(v), cost, CommOp::Allreduce, 8) {
            Acc::MaxF64(s) => s,
            _ => unreachable!(),
        }
    }

    /// Allreduce-sum over one `u64`.
    pub fn allreduce_sum_u64(&self, v: u64) -> u64 {
        let cost = self.shared.model.allreduce_time(8, self.size);
        match self.collective(Acc::SumU64(v), cost, CommOp::Allreduce, 8) {
            Acc::SumU64(s) => s,
            _ => unreachable!(),
        }
    }

    /// Allreduce-max over one `u64`.
    pub fn allreduce_max_u64(&self, v: u64) -> u64 {
        let cost = self.shared.model.allreduce_time(8, self.size);
        match self.collective(Acc::MaxU64(v), cost, CommOp::Allreduce, 8) {
            Acc::MaxU64(s) => s,
            _ => unreachable!(),
        }
    }

    /// Allgather of opaque byte buffers; returns one buffer per rank.
    /// The caller's own slot is `mine` itself, capacity and all, so a
    /// recycled buffer survives the call; the hub gathers a copy.
    pub fn allgather_bytes(&self, mine: Vec<u8>) -> Vec<Vec<u8>> {
        let len = mine.len();
        let mut slots = vec![None; self.size];
        slots[self.rank] = Some(mine.clone());
        let cost = self.shared.model.allgather_time(len, self.size);
        match self.collective(Acc::Gather(slots), cost, CommOp::Allgather, len as u64) {
            Acc::Gather(slots) => {
                let mut all: Vec<Vec<u8>> = slots
                    .into_iter()
                    .map(|s| s.expect("every rank contributed"))
                    .collect();
                debug_assert_eq!(all[self.rank], mine, "the hub returns what this rank gave");
                all[self.rank] = mine;
                all
            }
            _ => unreachable!(),
        }
    }

    // ------------------------------------------------------------------
    // One-sided
    // ------------------------------------------------------------------

    /// Deposits `payload` into `dst`'s window under `region`
    /// (`MPI_Put`-style; completion is deferred to the next fence).
    pub fn win_put(&self, dst: Rank, region: u32, payload: Vec<u8>) {
        assert!(dst < self.size, "put to rank {dst} of {}", self.size);
        let timer = OpTimer::start(self.clock.get());
        let overhead = self.shared.model.send_overhead;
        let depart = self.clock.get() + overhead;
        let bytes = payload.len() as u64;
        {
            let mut s = self.stats.borrow_mut();
            s.puts += 1;
            s.bytes_put += bytes;
            s.comm_time += overhead;
        }
        self.matrix.borrow_mut().record_put(dst, bytes);
        self.clock.set(depart);
        let seq = self.send_seq.get() + 1;
        self.send_seq.set(seq);
        let lamport = self.lamport.get() + 1;
        self.lamport.set(lamport);
        self.shared.windows.put(
            dst,
            PutRecord {
                src: self.rank,
                region,
                depart_time: depart,
                seq,
                lamport,
                payload,
            },
        );
        if trace::tracing() {
            trace::emit(&CommEvent {
                op: CommOp::Put,
                rank: self.rank,
                peer: Some(dst),
                tag: region,
                bytes,
                match_src: Some(self.rank),
                match_seq: seq,
                lamport,
                vt_enter: timer.vt_enter,
                vt_exit: depart,
                wall_ns: timer.elapsed_ns(),
            });
        }
    }

    /// Completes the put epoch: global synchronisation, then returns
    /// every record other ranks deposited into this rank's window.
    ///
    /// Two barriers delimit the epoch: the first guarantees every rank's
    /// puts are deposited before any rank drains; the second guarantees
    /// every rank has drained before anyone issues next-epoch puts
    /// (otherwise a fast rank's new puts could leak into a slow rank's
    /// current drain).
    pub fn win_fence(&self) -> Vec<PutRecord> {
        let cost = self.shared.model.barrier_time(self.size);
        self.collective(Acc::Barrier, cost, CommOp::Fence, 0);
        let recs = self.shared.windows.drain(self.rank);
        // Charge arrival bandwidth for what landed in our window.
        let mut latest = self.clock.get();
        {
            let mut m = self.matrix.borrow_mut();
            for r in &recs {
                m.record_put_in(r.src, r.payload.len() as u64);
            }
        }
        for r in &recs {
            let t = r.depart_time + self.shared.model.p2p_time(r.payload.len(), self.size);
            latest = latest.max(t);
        }
        self.advance_comm(latest);
        // One Lamport tick (and, when tracing, one match event) per
        // drained put, completing the (src, seq) pair its originator
        // opened in `win_put`.
        for r in &recs {
            let lamport = self.lamport.get().max(r.lamport) + 1;
            self.lamport.set(lamport);
            if trace::tracing() {
                trace::emit(&CommEvent {
                    op: CommOp::PutIn,
                    rank: self.rank,
                    peer: Some(r.src),
                    tag: r.region,
                    bytes: r.payload.len() as u64,
                    match_src: Some(r.src),
                    match_seq: r.seq,
                    lamport,
                    vt_enter: r.depart_time,
                    vt_exit: r.depart_time + self.shared.model.p2p_time(r.payload.len(), self.size),
                    wall_ns: 0,
                });
            }
        }
        self.collective(Acc::Barrier, 0.0, CommOp::Fence, 0);
        recs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{World, WorldConfig};

    fn free_world() -> World {
        World::new(WorldConfig {
            model: MachineModel::free(),
            stack_bytes: 1 << 20,
        })
    }

    #[test]
    fn ring_pass() {
        let out = free_world().run(4, |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(next, 0, vec![comm.rank() as u8]);
            let got = comm.recv_from(prev, 0);
            got[0] as usize
        });
        let results: Vec<_> = out.into_iter().map(|r| r.result).collect();
        assert_eq!(results, vec![3, 0, 1, 2]);
    }

    #[test]
    fn sendrecv_halo_style() {
        let out = free_world().run(2, |comm| {
            let other = 1 - comm.rank();

            comm.sendrecv(other, other, 7, vec![comm.rank() as u8; 5])
        });
        assert_eq!(out[0].result, vec![1u8; 5]);
        assert_eq!(out[1].result, vec![0u8; 5]);
    }

    #[test]
    fn allreduce_variants() {
        let out = free_world().run(5, |comm| {
            let s = comm.allreduce_sum_f64(comm.rank() as f64);
            let mn = comm.allreduce_min_f64(comm.rank() as f64 + 1.0);
            let mx = comm.allreduce_max_u64(comm.rank() as u64);
            (s, mn, mx)
        });
        for r in out {
            assert_eq!(r.result, (10.0, 1.0, 4));
        }
    }

    #[test]
    fn allgather_bytes_all_ranks() {
        let out = free_world().run(3, |comm| {
            comm.allgather_bytes(vec![comm.rank() as u8; comm.rank() + 1])
        });
        for r in out {
            assert_eq!(r.result[2], vec![2u8; 3]);
        }
    }

    #[test]
    fn allgather_bytes_hands_back_the_callers_own_buffer() {
        let out = free_world().run(3, |comm| {
            let mut mine = Vec::with_capacity(4096);
            mine.extend([comm.rank() as u8; 2]);
            let (ptr, cap) = (mine.as_ptr(), mine.capacity());
            let all = comm.allgather_bytes(mine);
            let own = &all[comm.rank()];
            assert_eq!((own.as_ptr(), own.capacity()), (ptr, cap));
            all.iter().map(|b| b[0]).collect::<Vec<_>>()
        });
        for r in out {
            assert_eq!(r.result, [0, 1, 2]);
        }
    }

    #[test]
    fn stats_count_bytes_exactly() {
        let out = free_world().run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, vec![0; 100]);
                comm.send(1, 0, vec![0; 24]);
            } else {
                comm.recv_from(0, 0);
                comm.recv_from(0, 0);
            }
            comm.barrier();
            comm.stats()
        });
        assert_eq!(out[0].result.bytes_sent, 124);
        assert_eq!(out[0].result.msgs_sent, 2);
        assert_eq!(out[1].result.bytes_recv, 124);
        assert_eq!(out[1].result.msgs_recv, 2);
    }

    #[test]
    fn virtual_clock_advances_with_model() {
        let world = World::new(WorldConfig {
            model: MachineModel::taihulight(),
            stack_bytes: 1 << 20,
        });
        let out = world.run(2, |comm| {
            if comm.rank() == 0 {
                comm.tick_compute(1.0e-3);
                comm.send(1, 0, vec![0; 1 << 20]);
            } else {
                comm.recv_from(0, 0);
            }
            comm.barrier();
            comm.clock()
        });
        // Receiver waited for sender's compute + transfer: clock must
        // exceed 1 ms plus ~175 µs of bandwidth time.
        assert!(out[1].result > 1.1e-3, "clock = {}", out[1].result);
        // Barrier reconciles: clocks equal afterwards (up to identical
        // barrier charge).
        assert!((out[0].result - out[1].result).abs() < 1e-12);
    }

    #[test]
    fn one_sided_put_fence() {
        let out = free_world().run(3, |comm| {
            let dst = (comm.rank() + 1) % 3;
            comm.win_put(dst, 9, vec![comm.rank() as u8]);
            let recs = comm.win_fence();
            (recs.len(), recs[0].src, recs[0].payload.clone())
        });
        assert_eq!(out[0].result, (1, 2, vec![2u8]));
        assert_eq!(out[1].result, (1, 0, vec![0u8]));
    }

    #[test]
    fn probe_then_recv_dynamic_size() {
        let out = free_world().run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 3, vec![7; 17]);
                0
            } else {
                let info = comm.probe(Source::Any, 3);
                assert_eq!(info.len, 17);
                comm.recv_from(info.src, info.tag).len()
            }
        });
        assert_eq!(out[1].result, 17);
    }

    #[test]
    #[should_panic(expected = "put to rank")]
    fn win_put_to_invalid_rank_panics() {
        free_world().run(1, |comm| {
            comm.win_put(5, 0, vec![1]);
        });
    }

    #[test]
    fn empty_fence_returns_nothing_everywhere() {
        let out = free_world().run(3, |comm| comm.win_fence().len());
        assert!(out.iter().all(|r| r.result == 0));
    }

    #[test]
    fn consecutive_fences_do_not_leak_epochs() {
        let out = free_world().run(2, |comm| {
            let other = 1 - comm.rank();
            comm.win_put(other, 0, vec![comm.rank() as u8]);
            let first = comm.win_fence().len();
            // Nothing put this epoch: the fence must come back empty.
            let second = comm.win_fence().len();
            (first, second)
        });
        assert!(out.iter().all(|r| r.result == (1, 0)));
    }

    #[test]
    fn reset_accounting_clears() {
        let out = free_world().run(2, |comm| {
            comm.tick_compute(5.0);
            comm.barrier();
            comm.reset_accounting();
            (comm.clock(), comm.stats().compute_time)
        });
        assert_eq!(out[0].result, (0.0, 0.0));
    }
}
