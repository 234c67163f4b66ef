//! Communication backends for the KMC exchange strategies.
//!
//! Three primitives are needed (paper §2.2.1):
//! * staged slab `shift`s for the traditional full-ghost get/put;
//! * tagged two-sided `neighbor_exchange` (probe + receive, including
//!   the zero-size messages the paper calls out) for on-demand mode;
//! * one-sided `put_fence` (window put + global fence) for the
//!   zero-message-free on-demand variant.

use mmds_swmpi::mailbox::Source;
use mmds_swmpi::topology::CartGrid;
use mmds_swmpi::{Comm, Rank};

/// Communication backend used by the KMC engine.
pub trait KmcTransport {
    /// This rank's id.
    fn rank(&self) -> Rank;
    /// Sends a slab toward `axis`/`toward_high`, returning the slab from
    /// the opposite neighbour.
    fn shift(&mut self, axis: usize, toward_high: bool, payload: Vec<u8>) -> Vec<u8>;
    /// For each direction `dirs[i]`, sends `msgs[i]` to the neighbour at
    /// `+dirs[i]` — *always*, even when empty (two-sided matching) — and
    /// returns the message arriving from the neighbour at `−dirs[i]` for
    /// each slot.
    fn neighbor_exchange(&mut self, dirs: &[[i64; 3]], msgs: Vec<Vec<u8>>) -> Vec<Vec<u8>>;
    /// One-sided variant: puts only the non-empty messages, fences, and
    /// returns everything deposited into this rank's window.
    fn put_fence(&mut self, dirs: &[[i64; 3]], msgs: Vec<Vec<u8>>) -> Vec<Vec<u8>>;
    /// Max-reduction over ranks (for the global time step).
    fn allreduce_max(&mut self, v: f64) -> f64;
    /// Sum-reduction over ranks.
    fn allreduce_sum_u64(&mut self, v: u64) -> u64;
    /// Charges modelled compute seconds to this rank's clock.
    fn tick_compute(&mut self, seconds: f64);
    /// Folds on-demand exchange savings into this rank's comm
    /// accounting. Default: discarded (backends with no stats).
    fn record_savings(&mut self, _savings: mmds_swmpi::ExchangeSavings) {}
}

/// Single-rank backend: every neighbour is this rank (periodic).
#[derive(Default)]
pub struct LoopbackK;

impl KmcTransport for LoopbackK {
    fn rank(&self) -> Rank {
        0
    }
    fn shift(&mut self, _axis: usize, _toward_high: bool, payload: Vec<u8>) -> Vec<u8> {
        payload
    }
    fn neighbor_exchange(&mut self, _dirs: &[[i64; 3]], msgs: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        msgs
    }
    fn put_fence(&mut self, _dirs: &[[i64; 3]], msgs: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        msgs
    }
    fn allreduce_max(&mut self, v: f64) -> f64 {
        v
    }
    fn allreduce_sum_u64(&mut self, v: u64) -> u64 {
        v
    }
    fn tick_compute(&mut self, _seconds: f64) {}
}

/// Backend over a `mmds-swmpi` world with a Cartesian rank grid.
pub struct CommK<'a> {
    comm: &'a Comm,
    grid: CartGrid,
    tag_seq: u32,
    charge_compute: bool,
}

impl<'a> CommK<'a> {
    /// Creates a backend; `grid.len()` must equal the world size.
    pub fn new(comm: &'a Comm, grid: CartGrid) -> Self {
        assert_eq!(grid.len(), comm.size());
        Self {
            comm,
            grid,
            tag_seq: 0x4B4D_0000, // 'KM'
            charge_compute: true,
        }
    }

    /// A backend that ignores compute charges, so per-rank clocks stay
    /// aligned and the measured communication time isolates the
    /// exchange itself (used by the Fig. 13 harness, which compares
    /// communication strategies rather than whole runs).
    pub fn without_compute_charge(comm: &'a Comm, grid: CartGrid) -> Self {
        Self {
            charge_compute: false,
            ..Self::new(comm, grid)
        }
    }

    fn next_tag(&mut self) -> u32 {
        let t = self.tag_seq;
        self.tag_seq = self.tag_seq.wrapping_add(1);
        t
    }
}

impl KmcTransport for CommK<'_> {
    fn rank(&self) -> Rank {
        self.comm.rank()
    }

    fn shift(&mut self, axis: usize, toward_high: bool, payload: Vec<u8>) -> Vec<u8> {
        let (dst, src) = self.grid.shift_peers(self.comm.rank(), axis, toward_high);
        let tag = self.next_tag();
        self.comm.sendrecv(dst, src, tag, payload)
    }

    fn neighbor_exchange(&mut self, dirs: &[[i64; 3]], msgs: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        assert_eq!(dirs.len(), msgs.len());
        let me = self.comm.rank();
        let tag = self.next_tag();
        for (d, m) in dirs.iter().zip(msgs) {
            // Two-sided semantics: a message goes out for every
            // direction, zero-size included (the paper's observation).
            self.comm.send(self.grid.neighbor(me, *d), tag, m);
        }
        dirs.iter()
            .map(|d| {
                let src = self.grid.neighbor(me, [-d[0], -d[1], -d[2]]);
                // Faithful to the paper: probe for the (runtime-sized)
                // message first, then receive it.
                let info = self.comm.probe(Source::Of(src), tag);
                debug_assert_eq!(info.src, src);
                self.comm.recv_from(src, tag)
            })
            .collect()
    }

    fn put_fence(&mut self, dirs: &[[i64; 3]], msgs: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        assert_eq!(dirs.len(), msgs.len());
        let me = self.comm.rank();
        for (i, (d, m)) in dirs.iter().zip(msgs).enumerate() {
            if !m.is_empty() {
                self.comm.win_put(self.grid.neighbor(me, *d), i as u32, m);
            }
        }
        self.comm
            .win_fence()
            .into_iter()
            .map(|rec| rec.payload)
            .collect()
    }

    fn allreduce_max(&mut self, v: f64) -> f64 {
        self.comm.allreduce_max_f64(v)
    }

    fn allreduce_sum_u64(&mut self, v: u64) -> u64 {
        self.comm.allreduce_sum_u64(v)
    }

    fn tick_compute(&mut self, seconds: f64) {
        if self.charge_compute {
            self.comm.tick_compute(seconds);
        }
    }

    fn record_savings(&mut self, savings: mmds_swmpi::ExchangeSavings) {
        self.comm.note_exchange_savings(savings);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmds_swmpi::{MachineModel, World, WorldConfig};

    fn world() -> World {
        World::new(WorldConfig {
            model: MachineModel::free(),
            ..Default::default()
        })
    }

    #[test]
    fn loopback_echoes() {
        let mut t = LoopbackK;
        assert_eq!(t.shift(0, true, vec![1, 2]), vec![1, 2]);
        let out = t.neighbor_exchange(&[[1, 0, 0]], vec![vec![9]]);
        assert_eq!(out, vec![vec![9]]);
        assert_eq!(t.allreduce_max(3.0), 3.0);
    }

    #[test]
    fn comm_neighbor_exchange_routes_by_direction() {
        let out = world().run(4, |comm| {
            let grid = CartGrid::new([4, 1, 1]);
            let mut t = CommK::new(comm, grid);
            let dirs = [[1i64, 0, 0], [-1, 0, 0]];
            let msgs = vec![vec![comm.rank() as u8, 1], vec![comm.rank() as u8, 2]];
            t.neighbor_exchange(&dirs, msgs)
        });
        // Rank 1's slot 0 (dir +x) receives from rank 0's +x message.
        assert_eq!(out[1].result[0], vec![0u8, 1]);
        // Rank 1's slot 1 (dir −x) receives from rank 2's −x message.
        assert_eq!(out[1].result[1], vec![2u8, 2]);
    }

    #[test]
    fn comm_put_fence_drops_empty_messages() {
        let out = world().run(2, |comm| {
            let grid = CartGrid::new([2, 1, 1]);
            let mut t = CommK::new(comm, grid);
            let dirs = [[1i64, 0, 0]];
            let msg = if comm.rank() == 0 {
                vec![vec![7u8]]
            } else {
                vec![vec![]] // nothing to say: no message at all
            };
            let got = t.put_fence(&dirs, msg);
            (got.len(), comm.stats().puts)
        });
        assert_eq!(out[1].result.0, 1, "rank 1 received rank 0's put");
        assert_eq!(out[0].result.0, 0, "rank 0 received nothing");
        assert_eq!(out[1].result.1, 0, "rank 1 sent zero puts");
    }

    #[test]
    fn zero_size_messages_still_flow_two_sided() {
        let out = world().run(2, |comm| {
            let grid = CartGrid::new([2, 1, 1]);
            let mut t = CommK::new(comm, grid);
            let got = t.neighbor_exchange(&[[1i64, 0, 0]], vec![vec![]]);
            (got[0].len(), comm.stats().msgs_sent)
        });
        // Both ranks sent a zero-size message — the overhead the
        // one-sided variant eliminates.
        assert_eq!(out[0].result, (0, 1));
        assert_eq!(out[1].result, (0, 1));
    }
}
