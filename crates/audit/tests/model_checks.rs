//! Exhaustive-interleaving model checks (loom-style, behind the
//! `model-checks` feature: `cargo test -p mmds-audit --features
//! model-checks`).
//!
//! Each check enumerates **every** schedule of the participating
//! ranks' operations with [`mmds_audit::interleave`] and asserts the
//! protocol invariants under all of them. Steps are method calls — the
//! objects under test guard their state with one internal lock, so
//! methods are the atomic units a real scheduler can interleave.
//! (Spans are modelled as complete open/close pairs per step: the
//! span stack and rank tag are thread-locals, so intra-span
//! interleavings on one OS thread do not correspond to any real
//! execution.)
#![cfg(feature = "model-checks")]

use mmds_audit::interleave::{explore, schedule_count};
use mmds_swmpi::collectives::{Acc, CollectiveHub};
use mmds_swmpi::onesided::{PutRecord, WindowHub};
use mmds_telemetry::{rank_scope, Event, MemorySink, Mode, Telemetry};

fn rec(src: usize, region: u32, tag: u8) -> PutRecord {
    PutRecord {
        src,
        region,
        depart_time: 0.0,
        seq: 0,
        lamport: 0,
        payload: vec![tag],
    }
}

/// Window fence/put protocol: two source ranks each deposit two
/// records into rank 0's window in program order. Under every
/// interleaving of the four puts: no record is lost or duplicated
/// (`pending` counts every put exactly once), and the post-fence
/// `drain` returns the same `(src, region)`-sorted sequence —
/// delivery order is schedule-independent, which is what makes the
/// on-demand exchange deterministic.
#[test]
fn window_put_fence_drain_is_schedule_independent() {
    // Descending regions per thread so raw arrival order is *never*
    // the sorted order — the sort has to do the work.
    let scripts: [[(u32, u8); 2]; 2] = [
        [(3, 10), (1, 11)], // rank 1 puts regions 3 then 1
        [(2, 20), (0, 21)], // rank 2 puts regions 2 then 0
    ];
    let mut canonical: Option<Vec<(usize, u32, u8)>> = None;
    let n = explore(
        &[2, 2],
        || (WindowHub::new(3), 0usize),
        |(hub, puts), tid, k| {
            let (region, tag) = scripts[tid][k];
            hub.put(0, rec(tid + 1, region, tag));
            *puts += 1;
            assert_eq!(hub.pending(0), *puts, "every put lands exactly once");
        },
        |(hub, puts), schedule| {
            assert_eq!(*puts, 4);
            let drained: Vec<_> = hub
                .drain(0)
                .into_iter()
                .map(|r| (r.src, r.region, r.payload[0]))
                .collect();
            assert_eq!(hub.pending(0), 0, "drain empties the board");
            match &canonical {
                None => canonical = Some(drained),
                Some(c) => assert_eq!(
                    &drained, c,
                    "drain order diverged under schedule {schedule:?}"
                ),
            }
        },
    );
    assert_eq!(n as u128, schedule_count(&[2, 2]));
    assert_eq!(
        canonical.unwrap(),
        vec![(1, 1, 11), (1, 3, 10), (2, 0, 21), (2, 2, 20)],
        "sorted by (src, region), not by arrival"
    );
}

/// Same protocol at (4,4) — 70 schedules — with both ranks writing the
/// same regions, checking that ties preserve multiset equality.
#[test]
fn window_protocol_all_seventy_schedules() {
    let mut canonical: Option<Vec<(usize, u32)>> = None;
    let n = explore(
        &[4, 4],
        || WindowHub::new(2),
        |hub, tid, k| hub.put(1, rec(tid, (3 - k) as u32, 0)),
        |hub, schedule| {
            let drained: Vec<_> = hub
                .drain(1)
                .into_iter()
                .map(|r| (r.src, r.region))
                .collect();
            match &canonical {
                None => canonical = Some(drained),
                Some(c) => assert_eq!(&drained, c, "schedule {schedule:?}"),
            }
        },
    );
    assert_eq!(n, 70);
    assert_eq!(n as u128, schedule_count(&[4, 4]));
}

/// The collective rendezvous as a model: `ranks` modelled ranks each run
/// `generations` collectives through the hub's two non-blocking halves,
/// exactly as `Comm` does with its wait primitive between them —
/// `arrive`, then `try_take` until it yields. One step of a rank is its
/// next such call; a `try_take` that finds the generation incomplete
/// is a step spent polling. A rank that sees the abort flag raised
/// stops for good, as a waiting rank unwinds.
struct HubModel {
    hub: CollectiveHub,
    generations: u64,
    /// Per rank: the ticket it is polling with, if it has arrived.
    ticket: Vec<Option<u64>>,
    /// Per rank: collectives completed (= the generation it is in).
    taken: Vec<u64>,
    /// Per generation: arrivals so far.
    arrivals: Vec<usize>,
    aborted: bool,
}

impl HubModel {
    fn new(ranks: usize, generations: u64) -> Self {
        Self {
            hub: CollectiveHub::new(ranks),
            generations,
            ticket: vec![None; ranks],
            taken: vec![0; ranks],
            arrivals: vec![0; generations as usize],
            aborted: false,
        }
    }

    fn ranks(&self) -> usize {
        self.taken.len()
    }

    fn finished(&self, rank: usize) -> bool {
        self.taken[rank] == self.generations
    }

    /// Rank `r`'s contribution to generation `g`: distinct powers of
    /// ten per generation, so no partial sum of one generation and no
    /// mixture of two equals a complete result.
    fn contribution(rank: usize, generation: u64) -> u64 {
        (rank as u64 + 1) * 10u64.pow(generation as u32)
    }

    fn step(&mut self, rank: usize) {
        if self.aborted || self.finished(rank) {
            return;
        }
        let n = self.ranks();
        let g = self.taken[rank];
        match self.ticket[rank] {
            None => {
                let ticket = self.hub.arrive(
                    rank,
                    Acc::SumU64(Self::contribution(rank, g)),
                    (10 * g + rank as u64) as f64,
                    100 * g + rank as u64,
                );
                assert_eq!(ticket, g, "rank {rank} arrived at its own generation");
                self.arrivals[g as usize] += 1;
                if self.arrivals[g as usize] == n {
                    // This arrival overwrote the single result slot.
                    assert!(
                        self.taken.iter().all(|&t| t >= g),
                        "slot overwritten with generation {g} while a reader of \
                         {} was outstanding: taken {:?}",
                        g.wrapping_sub(1),
                        self.taken
                    );
                }
                self.ticket[rank] = Some(ticket);
            }
            Some(ticket) => {
                let Some((acc, clock, lamport, generation)) = self.hub.try_take(ticket) else {
                    assert!(
                        self.arrivals[g as usize] < n,
                        "rank {rank} was refused the complete generation {g}"
                    );
                    return;
                };
                assert_eq!(
                    self.arrivals[g as usize], n,
                    "generation {g} taken before its last arrival"
                );
                let all: u64 = (0..n).map(|r| Self::contribution(r, g)).sum();
                assert!(
                    matches!(acc, Acc::SumU64(s) if s == all),
                    "rank {rank} took {acc:?} for generation {g}, not {all}"
                );
                assert_eq!(generation, g);
                assert_eq!(clock, (10 * g + n as u64 - 1) as f64);
                assert_eq!(lamport, 100 * g + n as u64 - 1);
                self.ticket[rank] = None;
                self.taken[rank] += 1;
            }
        }
    }

    /// Lets every rank run on, round-robin, until nothing moves.
    fn drain(&mut self) {
        loop {
            let before = (self.taken.clone(), self.ticket.clone());
            for rank in 0..self.ranks() {
                self.step(rank);
            }
            if before == (self.taken.clone(), self.ticket.clone()) {
                return;
            }
        }
    }
}

/// Hub rendezvous, 2 ranks × 2 generations, 6 steps each (2 more than
/// the program needs, so schedules differ in where the polls fall):
/// under every interleaving each rank takes exactly the result of its
/// own generation, never before that generation's last arrival, and
/// the single result slot is never overwritten while a rank still has
/// the previous result to read.
#[test]
fn hub_two_ranks_two_generations_under_all_schedules() {
    let counts = [6, 6];
    let n = explore(
        &counts,
        || HubModel::new(2, 2),
        |m, tid, _k| m.step(tid),
        |m, schedule| {
            m.drain();
            assert!(
                (0..2).all(|r| m.finished(r)),
                "ranks stuck at {:?} under {schedule:?}",
                m.taken
            );
        },
    );
    assert_eq!(n as u128, schedule_count(&counts));
}

/// The same at 3 ranks × 1 generation, 3 steps each (1 680 schedules).
#[test]
fn hub_three_ranks_one_generation_under_all_schedules() {
    let counts = [3, 3, 3];
    let n = explore(
        &counts,
        || HubModel::new(3, 1),
        |m, tid, _k| m.step(tid),
        |m, schedule| {
            m.drain();
            assert!(
                (0..3).all(|r| m.finished(r)),
                "ranks stuck at {:?} under {schedule:?}",
                m.taken
            );
        },
    );
    assert_eq!(n as u128, schedule_count(&counts));
    assert_eq!(n, 1680);
}

/// World abort at an arbitrary point: a fourth "thread" raises the flag
/// as its single step, after which every rank stops where it is (the
/// wait primitive unwinds a rank between the two halves, or before its
/// next `arrive`). Whatever was taken before that was a complete result
/// (checked per step); afterwards a generation short of an arrival
/// stays invisible — `try_take` never hands out a partial accumulation
/// or the previous generation's slot under a newer ticket.
#[test]
fn hub_abort_never_exposes_a_half_published_result() {
    let counts = [4, 4, 1];
    let n = explore(
        &counts,
        || HubModel::new(2, 2),
        |m, tid, _k| {
            if tid == 2 {
                m.aborted = true;
            } else {
                m.step(tid);
            }
        },
        |m, schedule| {
            assert!(m.aborted);
            for rank in 0..2 {
                let g = m.taken[rank];
                match m.ticket[rank] {
                    Some(ticket) if m.arrivals[g as usize] < 2 => assert!(
                        m.hub.try_take(ticket).is_none(),
                        "rank {rank} saw incomplete generation {g} under {schedule:?}"
                    ),
                    // Complete but not yet taken: still intact.
                    Some(ticket) => assert!(
                        matches!(m.hub.try_take(ticket), Some((Acc::SumU64(_), _, _, t)) if t == g)
                    ),
                    None => {}
                }
            }
        },
    );
    assert_eq!(n as u128, schedule_count(&counts));
}

/// Span-fold keying: two modelled ranks interleave spans with the
/// *same* path. Under every schedule the fold must keep the ranks'
/// statistics separate — keyed `(rank, path)` — with exact per-rank
/// counts, and the aggregate view must still total both.
#[test]
fn span_registry_keys_by_rank_and_path_under_all_schedules() {
    let n = explore(
        &[3, 3],
        || Telemetry::with_mode(Mode::Summary),
        |tele, tid, _k| {
            let _rank = rank_scope(tid as u32);
            let _span = tele.span("model_step");
        },
        |tele, schedule| {
            let report = tele.run_report();
            assert_eq!(report.ranks.len(), 2, "one entry per rank: {schedule:?}");
            for (rank, r) in report.ranks.iter().enumerate() {
                assert_eq!(r.rank, rank as u32);
                assert_eq!(r.spans.len(), 1);
                assert_eq!(r.spans[0].path, "model_step");
                assert_eq!(r.spans[0].count, 3, "rank {rank} under {schedule:?}");
            }
            assert_eq!(report.spans.len(), 1);
            assert_eq!(report.spans[0].count, 6, "aggregate totals both ranks");
        },
    );
    assert_eq!(n as u128, schedule_count(&[3, 3]));
}

/// JSONL sink sequence counter: three ranks emit interleaved events.
/// Under every schedule the sink receives a gapless, strictly
/// increasing `seq` (0..n in arrival order) — the property the run
/// inspector relies on to detect truncated logs — and every rank's
/// own events appear in its program order.
#[test]
fn sink_sequence_is_gapless_under_all_schedules() {
    let n = explore(
        &[2, 2, 2],
        || {
            let tele = Telemetry::with_mode(Mode::Summary);
            let sink = MemorySink::new();
            tele.install_sink(Box::new(sink.clone()));
            (tele, sink)
        },
        |(tele, _), tid, k| {
            let _rank = rank_scope(tid as u32);
            tele.emit(Event::Counter {
                name: format!("r{tid}.e{k}"),
                value: 1.0,
            });
        },
        |(_, sink), schedule| {
            let records = sink.records();
            assert_eq!(records.len(), 6);
            for (i, r) in records.iter().enumerate() {
                assert_eq!(
                    r.seq, i as u64,
                    "gapless seq in arrival order under {schedule:?}"
                );
            }
            for rank in 0..3u32 {
                let names: Vec<_> = records
                    .iter()
                    .filter(|r| r.rank == Some(rank))
                    .map(|r| match &r.event {
                        Event::Counter { name, .. } => name.clone(),
                        other => panic!("unexpected event {other:?}"),
                    })
                    .collect();
                assert_eq!(
                    names,
                    vec![format!("r{rank}.e0"), format!("r{rank}.e1")],
                    "rank {rank} program order under {schedule:?}"
                );
            }
        },
    );
    assert_eq!(n as u128, schedule_count(&[2, 2, 2]));
}
