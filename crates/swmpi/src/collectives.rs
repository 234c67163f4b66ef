//! Synchronising collectives: barrier, allreduce, allgather.
//!
//! Besides their functional role, collectives are where per-rank virtual
//! clocks reconcile: every participant leaves a collective with its clock
//! set to the maximum clock over all participants plus the modelled cost
//! of the operation. This reproduces the paper's observation that
//! "collective operations used for time synchronization" dominate KMC
//! weak-scaling communication time (Fig. 15).
//!
//! On the host a collective is a rendezvous at the [`CollectiveHub`]:
//! a non-blocking [`arrive`](CollectiveHub::arrive), a wait through the
//! rank's `wait` primitive (spin on the generation counter,
//! then park), and a non-blocking [`try_take`](CollectiveHub::try_take).
//! The two halves are public so the rendezvous can be model-checked
//! under every interleaving (`mmds-audit`, `tests/model_checks.rs`).
//!
//! A generation keeps each rank's contribution in that rank's slot and
//! folds them in rank order once the last one arrives, so a reduction's
//! bits never depend on the order in which the host scheduled the ranks
//! (a floating-point sum over three or more ranks would).

use crate::wait::{Gate, Waiter};

/// A rank's contribution to (and the result of) one collective call.
///
/// All ranks of a world must pass the *same variant* to the same
/// collective call site; mixing variants is a protocol error and panics.
#[derive(Debug, Clone)]
pub enum Acc {
    /// Pure synchronisation, no data.
    Barrier,
    /// Sum of `f64` contributions.
    SumF64(f64),
    /// Minimum of `f64` contributions.
    MinF64(f64),
    /// Maximum of `f64` contributions.
    MaxF64(f64),
    /// Sum of `u64` contributions.
    SumU64(u64),
    /// Maximum of `u64` contributions.
    MaxU64(u64),
    /// Byte-buffer allgather; slot `r` holds rank `r`'s contribution.
    Gather(Vec<Option<Vec<u8>>>),
}

/// Folds two contributions; `Err` carries the protocol violation, which
/// the caller raises once it no longer holds the hub's lock.
fn combine(a: Acc, b: Acc) -> Result<Acc, String> {
    use Acc::*;
    Ok(match (a, b) {
        (Barrier, Barrier) => Barrier,
        (SumF64(x), SumF64(y)) => SumF64(x + y),
        (MinF64(x), MinF64(y)) => MinF64(x.min(y)),
        (MaxF64(x), MaxF64(y)) => MaxF64(x.max(y)),
        (SumU64(x), SumU64(y)) => SumU64(x + y),
        (MaxU64(x), MaxU64(y)) => MaxU64(x.max(y)),
        (Gather(mut xs), Gather(ys)) => {
            for (i, y) in ys.into_iter().enumerate() {
                if let Some(v) = y {
                    if xs[i].is_some() {
                        return Err(format!("two ranks contributed to allgather slot {i}"));
                    }
                    xs[i] = Some(v);
                }
            }
            Gather(xs)
        }
        (a, b) => return Err(format!("mismatched collective variants: {a:?} vs {b:?}")),
    })
}

/// What every participant of one collective leaves with: `(combined
/// result, max virtual clock, max Lamport clock, generation)`. The
/// generation is the world-wide collective ordinal — the match id
/// causal traces use to join all ranks' halves of one collective call.
pub type Collected = (Acc, f64, u64, u64);

struct Inner {
    arrived: usize,
    /// Per rank, its contribution to the generation in progress.
    contributions: Vec<Option<Acc>>,
    clock_max: f64,
    lamport_max: u64,
    /// The most recently completed collective.
    slot: Option<Slot>,
}

struct Slot {
    generation: u64,
    acc: Acc,
    clock_max: f64,
    lamport_max: u64,
}

/// Shared rendezvous point for all collectives of one world.
///
/// The generation in progress is the gate's epoch: the last arrival of
/// generation *g* writes the result slot and publishes, which moves the
/// epoch to *g + 1* — the one atomic a waiting rank polls.
///
/// **One result slot is enough.** A rank arrives at generation *g + 1*
/// only after it has taken its result of *g* (a rank's collectives are
/// sequential), and *g + 1* completes — overwriting the slot — only
/// once *every* rank has arrived at it. So when the slot is overwritten
/// no reader of the previous result is outstanding, and a rank asking
/// for *g* finds in the slot either an older generation (not complete
/// yet) or exactly *g*.
pub struct CollectiveHub {
    n: usize,
    gate: Gate<Inner>,
}

impl CollectiveHub {
    /// Creates a hub for a world of `n` ranks.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "world must have at least one rank");
        Self {
            n,
            gate: Gate::new(Inner {
                arrived: 0,
                contributions: vec![None; n],
                clock_max: f64::NEG_INFINITY,
                lamport_max: 0,
                slot: None,
            }),
        }
    }

    /// World size this hub synchronises.
    pub fn size(&self) -> usize {
        self.n
    }

    /// First half of a collective, non-blocking: contributes `mine`,
    /// this `rank`'s virtual `clock` and its Lamport clock to the
    /// generation in progress and returns that generation — the ticket
    /// for [`try_take`](Self::try_take). The last of the `n` arrivals
    /// completes the generation: it folds the contributions in rank
    /// order and publishes the result.
    pub fn arrive(&self, rank: usize, mine: Acc, clock: f64, lamport: u64) -> u64 {
        let mut g = self.gate.lock();
        let generation = g.epoch();
        if g.contributions[rank].is_some() {
            drop(g);
            panic!("rank {rank} arrived twice at collective generation {generation}");
        }
        g.contributions[rank] = Some(mine);
        g.clock_max = g.clock_max.max(clock);
        g.lamport_max = g.lamport_max.max(lamport);
        g.arrived += 1;
        if g.arrived == self.n {
            let mut in_rank_order = g
                .contributions
                .iter_mut()
                .map(|c| c.take().expect("every rank arrived"));
            let first = in_rank_order.next().expect("a world has a rank");
            let acc = match in_rank_order.try_fold(first, combine) {
                Ok(acc) => acc,
                Err(violation) => {
                    drop(g);
                    panic!("{violation}");
                }
            };
            g.slot = Some(Slot {
                generation,
                acc,
                clock_max: g.clock_max,
                lamport_max: g.lamport_max,
            });
            g.arrived = 0;
            g.clock_max = f64::NEG_INFINITY;
            g.lamport_max = 0;
            g.publish();
        }
        generation
    }

    /// Second half, non-blocking: the result of `generation` if that
    /// generation is complete, `None` while arrivals are outstanding.
    /// Every participant takes its own copy.
    pub fn try_take(&self, generation: u64) -> Option<Collected> {
        Self::take(&mut self.gate.lock(), generation)
    }

    fn take(inner: &mut Inner, generation: u64) -> Option<Collected> {
        let slot = inner.slot.as_ref()?;
        debug_assert!(
            slot.generation <= generation,
            "result of generation {generation} overwritten by {}",
            slot.generation
        );
        (slot.generation == generation).then(|| {
            (
                slot.acc.clone(),
                slot.clock_max,
                slot.lamport_max,
                generation,
            )
        })
    }

    /// Performs one collective: [`arrive`](Self::arrive), wait for the
    /// other `n − 1` ranks, take the result.
    pub(crate) fn collect(
        &self,
        waiter: &Waiter,
        rank: usize,
        mine: Acc,
        clock: f64,
        lamport: u64,
    ) -> Collected {
        let generation = self.arrive(rank, mine, clock, lamport);
        waiter.wait(&self.gate, |inner| Self::take(inner, generation))
    }

    /// Wakes every rank asleep in a collective (world abort).
    pub(crate) fn wake_all(&self) {
        self.gate.wake_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wait::Abort;
    use std::sync::Arc;

    /// One rank's view of the hub under test: `collect` as `Comm`
    /// drives it, through a parking waiter.
    struct RankHub<'a> {
        hub: &'a CollectiveHub,
        rank: usize,
        waiter: Waiter,
    }

    impl RankHub<'_> {
        fn collect(&self, mine: Acc, clock: f64, lamport: u64) -> Collected {
            self.hub
                .collect(&self.waiter, self.rank, mine, clock, lamport)
        }
    }

    fn run_ranks<F, R>(n: usize, f: F) -> Vec<R>
    where
        F: Fn(usize, &RankHub<'_>) -> R + Sync,
        R: Send,
    {
        let hub = CollectiveHub::new(n);
        let abort = Arc::new(Abort::default());
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|r| {
                    let (hub, f, abort) = (&hub, &f, Arc::clone(&abort));
                    s.spawn(move || {
                        let waiter = Waiter::new(r, abort, false);
                        f(
                            r,
                            &RankHub {
                                hub,
                                rank: r,
                                waiter,
                            },
                        )
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn sum_reduction() {
        let out = run_ranks(8, |r, hub| hub.collect(Acc::SumF64(r as f64), 0.0, 0));
        for (acc, ..) in out {
            match acc {
                Acc::SumF64(s) => assert_eq!(s, 28.0),
                _ => panic!("wrong variant"),
            }
        }
    }

    #[test]
    fn clock_sync_takes_max() {
        let out = run_ranks(4, |r, hub| {
            hub.collect(Acc::Barrier, r as f64 * 10.0, r as u64)
        });
        for (_, ck, lam, gen) in out {
            assert_eq!(ck, 30.0);
            assert_eq!(lam, 3);
            assert_eq!(gen, 0);
        }
    }

    #[test]
    fn gather_collects_all_slots() {
        let out = run_ranks(3, |r, hub| {
            let mut slots = vec![None; 3];
            slots[r] = Some(vec![r as u8; r + 1]);
            hub.collect(Acc::Gather(slots), 0.0, 0)
        });
        for (acc, ..) in out {
            match acc {
                Acc::Gather(slots) => {
                    for (i, s) in slots.iter().enumerate() {
                        assert_eq!(s.as_ref().unwrap().len(), i + 1);
                    }
                }
                _ => panic!("wrong variant"),
            }
        }
    }

    #[test]
    fn repeated_generations() {
        let out = run_ranks(4, |r, hub| {
            let mut total = 0u64;
            for round in 0..50u64 {
                let (acc, ..) = hub.collect(Acc::SumU64(round + r as u64), 0.0, 0);
                match acc {
                    Acc::SumU64(s) => total += s,
                    _ => panic!("wrong variant"),
                }
            }
            total
        });
        // Every round sums to 4*round + (0+1+2+3); totals agree on all ranks.
        assert!(out.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn sums_fold_in_rank_order_whatever_the_arrival_order() {
        // (1 + 1e16) − 1e16 = 0 in f64, but 1 + (1e16 − 1e16) = 1: the
        // sum depends on association, so only a fixed fold order gives
        // the same bits for every arrival order.
        let values = [1.0, 1.0e16, -1.0e16];
        let sum_in = |order: [usize; 3]| {
            let hub = CollectiveHub::new(3);
            let tickets: Vec<u64> = order
                .iter()
                .map(|&r| {
                    assert!(
                        hub.try_take(0).is_none(),
                        "complete before rank {r} arrived"
                    );
                    hub.arrive(r, Acc::SumF64(values[r]), 0.0, 0)
                })
                .collect();
            assert!(tickets.iter().all(|&t| t == 0));
            match hub.try_take(0) {
                Some((Acc::SumF64(s), ..)) => s.to_bits(),
                other => panic!("generation 0 not complete: {other:?}"),
            }
        };
        let in_rank_order = ((values[0] + values[1]) + values[2]).to_bits();
        assert_ne!(
            in_rank_order,
            (values[0] + (values[1] + values[2])).to_bits()
        );
        for order in [[0, 1, 2], [2, 1, 0], [1, 2, 0], [2, 0, 1]] {
            assert_eq!(sum_in(order), in_rank_order, "arrival order {order:?}");
        }
    }

    #[test]
    fn min_max_reductions() {
        let out = run_ranks(5, |r, hub| {
            let (mn, ..) = hub.collect(Acc::MinF64(r as f64), 0.0, 0);
            let (mx, ..) = hub.collect(Acc::MaxU64(r as u64), 0.0, 0);
            (mn, mx)
        });
        for (mn, mx) in out {
            assert!(matches!(mn, Acc::MinF64(v) if v == 0.0));
            assert!(matches!(mx, Acc::MaxU64(4)));
        }
    }
}
