//! World creation: spawn one thread per rank and collect results.
//!
//! [`World::run`] also decides, once, whether this world's ranks may
//! spin before parking (only when every rank can own a core of the
//! host, see the `wait` module) and owns the abort path: each rank
//! closure runs under `catch_unwind`; a rank that panics raises the
//! world's abort flag and wakes every blocking point, its peers unwind
//! out of whatever they were blocked in, and `run` re-raises the
//! *original* panic — never a hang, never a peer's secondary panic.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crate::collectives::CollectiveHub;
use crate::comm::{Comm, Shared};
use crate::mailbox::Mailbox;
use crate::matrix::CommMatrix;
use crate::model::MachineModel;
use crate::onesided::WindowHub;
use crate::stats::CommStats;
use crate::wait::{may_spin, Abort};

/// Configuration for a [`World`].
#[derive(Debug, Clone, Copy)]
pub struct WorldConfig {
    /// Communication cost model charged to virtual clocks.
    pub model: MachineModel,
    /// Stack size per rank thread. Ranks are plentiful (hundreds), so we
    /// default well below the 8 MB Linux default.
    pub stack_bytes: usize,
}

impl Default for WorldConfig {
    fn default() -> Self {
        Self {
            model: MachineModel::taihulight(),
            stack_bytes: 4 << 20,
        }
    }
}

/// What one rank produced: the closure's return value plus accounting.
#[derive(Debug, Clone)]
pub struct RankOutput<R> {
    /// The rank's return value.
    pub result: R,
    /// Final accounting counters.
    pub stats: CommStats,
    /// Final pairwise communication matrix.
    pub matrix: CommMatrix,
    /// Final virtual clock (seconds).
    pub clock: f64,
}

/// A launcher for SPMD programs over simulated ranks.
///
/// ```
/// use mmds_swmpi::{World, WorldConfig};
/// let out = World::new(WorldConfig::default()).run(4, |comm| {
///     comm.allreduce_sum_u64(comm.rank() as u64 + 1)
/// });
/// assert!(out.iter().all(|r| r.result == 10));
/// ```
pub struct World {
    config: WorldConfig,
    /// Overrides the observed spin decision (tests only: spin ≡ park).
    #[cfg(test)]
    force_spin: Option<bool>,
}

impl World {
    /// Creates a world launcher with the given configuration.
    pub fn new(config: WorldConfig) -> Self {
        Self {
            config,
            #[cfg(test)]
            force_spin: None,
        }
    }

    /// A world whose ranks always (`true`) or never (`false`) spin
    /// before parking, whatever the host looks like.
    #[cfg(test)]
    pub(crate) fn forcing_spin(config: WorldConfig, spin: bool) -> Self {
        Self {
            config,
            force_spin: Some(spin),
        }
    }

    /// A world with default (TaihuLight-like) cost model.
    pub fn default_world() -> Self {
        Self::new(WorldConfig::default())
    }

    /// Runs `f` on `n` ranks, each on its own OS thread, and returns the
    /// per-rank outputs in rank order.
    ///
    /// A panic in any rank ends the whole world: peers blocked in a
    /// receive, probe, collective or fence unwind, and the panic of the
    /// lowest rank that failed *on its own* is re-raised here.
    pub fn run<R, F>(&self, n: usize, f: F) -> Vec<RankOutput<R>>
    where
        R: Send,
        F: Fn(&Comm) -> R + Sync,
    {
        assert!(n > 0, "world needs at least one rank");
        let shared = Arc::new(Shared {
            mailboxes: (0..n).map(|_| Arc::new(Mailbox::new())).collect(),
            hub: CollectiveHub::new(n),
            windows: WindowHub::new(n),
            model: self.config.model,
            abort: Arc::new(Abort::default()),
        });
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        let spin = may_spin(n, cores);
        #[cfg(test)]
        let spin = self.force_spin.unwrap_or(spin);
        let stack = self.config.stack_bytes;
        // Per rank: its output, or its panic payload and whether the
        // panic was only the reaction to a peer's.
        type Failure = (bool, Box<dyn Any + Send>);
        let outcomes: Vec<Result<RankOutput<R>, Failure>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|rank| {
                    let shared = Arc::clone(&shared);
                    let f = &f;
                    std::thread::Builder::new()
                        .name(format!("rank{rank}"))
                        .stack_size(stack)
                        .spawn_scoped(scope, move || {
                            let comm = Comm::new(rank, n, Arc::clone(&shared), spin);
                            match catch_unwind(AssertUnwindSafe(|| f(&comm))) {
                                Ok(result) => Ok(RankOutput {
                                    result,
                                    stats: comm.stats(),
                                    matrix: comm.comm_matrix(),
                                    clock: comm.clock(),
                                }),
                                Err(payload) => {
                                    shared.abort_world(rank);
                                    Err((comm.stopped_by_peer(), payload))
                                }
                            }
                        })
                        .expect("failed to spawn rank thread")
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|payload| Err((false, payload))))
                .collect()
        });
        let mut outputs = Vec::with_capacity(n);
        let mut secondary = None;
        for outcome in outcomes {
            match outcome {
                Ok(out) => outputs.push(out),
                Err((false, payload)) => resume_unwind(payload),
                Err((true, payload)) => secondary = secondary.or(Some(payload)),
            }
        }
        if let Some(payload) = secondary {
            // Unreachable unless the original payload was lost: a peer
            // only stops after some rank raised the flag on its own.
            resume_unwind(payload);
        }
        outputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mailbox::Source;

    #[test]
    fn outputs_in_rank_order() {
        let out = World::default_world().run(8, |comm| comm.rank() * 10);
        let got: Vec<_> = out.iter().map(|r| r.result).collect();
        assert_eq!(got, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn single_rank_world() {
        let out = World::default_world().run(1, |comm| {
            comm.barrier();
            comm.allreduce_sum_f64(3.5)
        });
        assert_eq!(out[0].result, 3.5);
    }

    #[test]
    fn many_ranks_spawn() {
        let world = World::new(WorldConfig {
            stack_bytes: 512 << 10,
            ..Default::default()
        });
        let out = world.run(128, |comm| comm.allreduce_sum_u64(1));
        assert!(out.iter().all(|r| r.result == 128));
    }

    #[test]
    fn stats_reported_per_rank() {
        let out = World::default_world().run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, vec![0u8; 64]);
            } else {
                comm.recv_from(0, 0);
            }
        });
        assert_eq!(out[0].stats.bytes_sent, 64);
        assert_eq!(out[1].stats.bytes_recv, 64);
    }

    #[test]
    fn comm_matrix_collected_and_symmetric() {
        let out = World::default_world().run(4, |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.sendrecv(next, prev, 0, vec![0u8; 32 * (comm.rank() + 1)]);
            comm.win_put(prev, 0, vec![0u8; 8]);
            comm.win_fence();
        });
        let matrices: Vec<_> = out.iter().map(|r| r.matrix.clone()).collect();
        assert_eq!(matrices[0].sent[0].peer, 1);
        assert_eq!(matrices[0].sent[0].bytes, 32);
        let w = crate::matrix::WorldMatrix::from_ranks(&matrices);
        w.validate_symmetry().expect("ring exchange is symmetric");
        assert_eq!(w.bytes(1, 2), 64); // rank 1 sent 2×32 B to rank 2
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn rank_panic_propagates() {
        World::default_world().run(2, |comm| {
            if comm.rank() == 1 {
                panic!("boom");
            }
            // Rank 0 is, or soon will be, blocked here; rank 1's failure
            // must unwind it (the blocked-peer variants below run the
            // same thing under a watchdog).
            comm.barrier();
        });
    }

    /// Runs `body` on a thread of its own and fails, instead of
    /// hanging the suite, if it has not finished after `secs` seconds.
    /// Returns the panic payload `body` ended with, if any.
    fn under_watchdog(
        secs: u64,
        body: impl FnOnce() + Send + 'static,
    ) -> Result<(), Box<dyn Any + Send>> {
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = done.send(catch_unwind(AssertUnwindSafe(body)));
        });
        finished
            .recv_timeout(std::time::Duration::from_secs(secs))
            .expect("watchdog: the world hung")
    }

    fn panic_text(payload: Box<dyn Any + Send>) -> String {
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p
                .downcast_ref::<&str>()
                .map_or_else(String::new, |s| s.to_string()),
        }
    }

    /// Ranks 0–2 block in `blocked`; rank 3 panics once they are (very
    /// probably) asleep. The world must end with rank 3's own panic.
    fn rank_three_fails_while_peers_wait(blocked: fn(&Comm)) {
        for spin in [false, true] {
            let ended = under_watchdog(10, move || {
                World::forcing_spin(WorldConfig::default(), spin).run(4, |comm| {
                    if comm.rank() == 3 {
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        panic!("boom from rank {}", comm.rank());
                    }
                    blocked(comm);
                });
            });
            let text = panic_text(ended.expect_err("the world must not succeed"));
            assert!(text.contains("boom from rank 3"), "propagated: {text:?}");
        }
    }

    #[test]
    fn panic_unwinds_peers_blocked_in_a_barrier() {
        rank_three_fails_while_peers_wait(|comm| comm.barrier());
    }

    #[test]
    fn panic_unwinds_peers_blocked_in_a_recv() {
        rank_three_fails_while_peers_wait(|comm| {
            comm.recv_from(3, 0);
        });
    }

    #[test]
    fn panic_unwinds_peers_blocked_in_a_probe() {
        rank_three_fails_while_peers_wait(|comm| {
            comm.probe(Source::Any, 0);
        });
    }

    #[test]
    fn panic_unwinds_peers_blocked_in_a_fence() {
        rank_three_fails_while_peers_wait(|comm| {
            comm.win_put(3, 0, vec![1, 2, 3]);
            comm.win_fence();
        });
    }

    #[test]
    fn lowest_original_panic_wins_over_secondary_ones() {
        // Ranks 1 and 2 fail on their own; rank 0 only because they
        // did. Rank order among the originals decides, not rank 0.
        let ended = under_watchdog(10, || {
            World::default_world().run(3, |comm| {
                if comm.rank() > 0 {
                    panic!("original {}", comm.rank());
                }
                comm.barrier();
            });
        });
        assert_eq!(panic_text(ended.unwrap_err()), "original 1");
    }

    #[test]
    fn mismatched_collectives_abort_with_the_protocol_error() {
        let ended = under_watchdog(10, || {
            World::default_world().run(2, |comm| {
                if comm.rank() == 0 {
                    comm.barrier();
                } else {
                    comm.allreduce_sum_u64(1);
                }
            });
        });
        let text = panic_text(ended.unwrap_err());
        assert!(text.contains("mismatched collective variants"), "{text:?}");
    }

    /// 2 500 rounds × 8 blocking-capable calls: every primitive that
    /// can wait, with payload sizes, put patterns and compute charges
    /// that differ by round and rank. Returns a digest of everything
    /// the calls handed back, and the final Lamport clock.
    fn mixed_program(comm: &Comm) -> (u64, u64) {
        let me = comm.rank();
        let other = 1 - me;
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| digest = (digest ^ v).wrapping_mul(0x0100_0000_01b3);
        for round in 0..2_500u64 {
            comm.tick_compute(1.0e-6 * ((round + me as u64) % 7) as f64);
            mix(comm
                .allreduce_sum_f64(0.1 * round as f64 + me as f64)
                .to_bits());
            mix(comm
                .allreduce_min_f64(1.0 / (1.0 + ((round + 3 * me as u64) % 9) as f64))
                .to_bits());
            mix(comm.allreduce_max_u64(round ^ (me as u64 * 5)));
            comm.barrier();
            if round % 3 != 2 {
                comm.win_put(
                    other,
                    (round % 5) as u32,
                    vec![me as u8; (round % 11) as usize],
                );
            }
            for rec in comm.win_fence() {
                mix(rec.src as u64);
                mix(u64::from(rec.region));
                mix(rec.payload.len() as u64);
            }
            let got = comm.sendrecv(other, other, 7, vec![round as u8; (round % 13) as usize]);
            mix(got.len() as u64);
            if (round as usize + me).is_multiple_of(2) {
                comm.send(other, 9, vec![1; (round % 17) as usize]);
            } else {
                let info = comm.probe(Source::Any, 9);
                mix(info.len as u64);
                mix(comm.recv_from(info.src, info.tag).len() as u64);
            }
        }
        (digest, comm.lamport())
    }

    /// FNV-1a over the `Debug` rendering: one number per rank that
    /// moves if any counter, matrix cell or clock bit moves.
    fn fingerprint(out: &RankOutput<(u64, u64)>) -> u64 {
        let text = format!(
            "{:?} {:?} {:?} {:016x}",
            out.result,
            out.stats,
            out.matrix,
            out.clock.to_bits()
        );
        text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn spinning_and_parking_agree_with_the_pinned_run() {
        // Values of this program at the commit before the wait
        // primitive existed (one mutex + condvar, HashMap of results).
        const PINNED: [(u64, u64); 2] = [
            (0x65b4_e6e3_bd0b_1e2b, 0x3fad_20b1_602f_04e2),
            (0x3760_1fd2_c4b0_0ae5, 0x3fad_207e_0995_7026),
        ];
        for spin in [false, true] {
            let out = World::forcing_spin(WorldConfig::default(), spin).run(2, |comm| {
                let result = mixed_program(comm);
                let waits = comm.wait_stats();
                assert_eq!(waits.spun > 0, spin, "forced mode: {waits:?}");
                result
            });
            for (rank, o) in out.iter().enumerate() {
                assert_eq!(o.stats.collectives, 15_000);
                assert_eq!(
                    (fingerprint(o), o.clock.to_bits()),
                    PINNED[rank],
                    "rank {rank}, spin {spin}: {:?} {:?}",
                    o.result,
                    o.stats
                );
            }
        }
    }

    #[test]
    fn oversubscribed_worlds_never_spin() {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        let world = World::new(WorldConfig {
            stack_bytes: 512 << 10,
            ..Default::default()
        });
        for n in [8, 128] {
            let out = world.run(n, |comm| {
                for _ in 0..2_000 {
                    comm.barrier();
                }
                comm.wait_stats()
            });
            assert!(out.iter().all(|r| r.stats.collectives == 2_000));
            let parked: u64 = out.iter().map(|r| r.result.parked).sum();
            if n > cores {
                assert!(
                    out.iter()
                        .all(|r| r.result.spun == 0 && r.result.cool_downs == 0),
                    "{n} ranks on {cores} cores spun"
                );
                // Every wait that found its barrier incomplete slept.
                assert!(parked > 0 && parked <= 2_000 * (n as u64 - 1));
            }
        }
    }

    #[test]
    fn a_parked_waiter_is_always_woken() {
        // `publish` skips `notify_all` when nobody sleeps. If the
        // sleeper count could miss a waiter that is just going to
        // sleep, some round below would never end.
        for spin in [false, true] {
            let ended = under_watchdog(120, move || {
                World::forcing_spin(WorldConfig::default(), spin).run(2, |comm| {
                    let other = 1 - comm.rank();
                    for round in 0..10_000u64 {
                        if (round as usize + comm.rank()).is_multiple_of(2) {
                            std::thread::yield_now();
                        }
                        assert_eq!(comm.allreduce_sum_u64(round), 2 * round);
                        if round % 2 == 0 {
                            let got = comm.sendrecv(other, other, 1, vec![round as u8]);
                            assert_eq!(got, vec![round as u8]);
                        }
                    }
                });
            });
            assert!(ended.is_ok(), "{}", panic_text(ended.unwrap_err()));
        }
    }
}
