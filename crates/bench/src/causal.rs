//! Causal comm-trace analysis: cross-rank critical path and
//! wait-state metrics over a traced run.
//!
//! Input is the telemetry JSONL stream of a run executed with comm
//! tracing on (`MMDS_TELEMETRY=jsonl:…` turns it on, as does
//! [`mmds_telemetry::enable_comm_tracing`]): every swmpi primitive
//! emits one [`mmds_telemetry::CommRecord`] carrying its wall-clock
//! blocking interval, virtual enter/exit clocks, Lamport clock, and a
//! match id. This module joins the per-rank halves into one cross-rank
//! event graph and answers the two questions per-rank aggregates
//! cannot:
//!
//! * **Where did the waiting come from?** Scalasca-style wait states:
//!   *late sender* (a recv blocked before its message departed), *late
//!   receiver* (a message dwelt in the mailbox before the recv was
//!   posted), and *collective skew* (time early arrivers spent parked
//!   until the last participant showed up), each attributed to the
//!   phase span open at the time.
//! * **What did the end of the run actually wait on?** The true
//!   cross-rank critical path: walking backward from the last event,
//!   through matched message edges and last-arriver collective jumps,
//!   yields a chain of compute and wait segments whose lengths
//!   telescope exactly to the walked wall-time window — shrinking any
//!   segment on the chain would shrink the run.
//!
//! All wall times come from one process-wide clock (ranks are threads
//! of one process), so cross-rank comparisons are exact, and blocking
//! waits are real thread blocking, not modelled. Virtual clocks ride
//! along so the measured structure can be cross-checked against the
//! [`mmds_swmpi::MachineModel`] analytic costs ([`model_check`]).
//!
//! One caveat: match ids are unique within one `World::run`. A trace
//! holding several worlds back-to-back (e.g. a sweep binary) will
//! collide; trace one run per file for causal analysis.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;

use mmds_swmpi::{CommOp, MachineModel};
use mmds_telemetry::{Event, Record, RunFold};
use serde::{Deserialize, Serialize};

/// One comm operation lifted out of the record stream: its wall
/// interval, logical clocks, match id, and the innermost phase span
/// open on its thread when it was emitted.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Operation kind.
    pub op: CommOp,
    /// Executing rank.
    pub rank: u32,
    /// Peer rank (p2p / one-sided), `None` for collectives.
    pub peer: Option<u32>,
    /// Payload bytes.
    pub bytes: u64,
    /// Match id, producer half.
    pub match_src: Option<u32>,
    /// Match id, sequence half (producer ordinal or hub generation).
    pub match_seq: u64,
    /// Lamport clock at exit.
    pub lamport: u64,
    /// Virtual clock at entry (modelled seconds).
    pub vt_enter: f64,
    /// Virtual clock at exit.
    pub vt_exit: f64,
    /// Wall time the op was entered (ns, stream clock).
    pub t_enter_ns: u64,
    /// Wall time the op completed.
    pub t_exit_ns: u64,
    /// Innermost span path open on the emitting thread, or `""`.
    pub phase: String,
}

impl TraceEvent {
    fn block_ns(&self) -> u64 {
        self.t_exit_ns - self.t_enter_ns
    }
}

/// The cross-rank event graph joined from a traced record stream.
#[derive(Debug, Default)]
pub struct CausalGraph {
    /// Every comm event, in stream order.
    pub events: Vec<TraceEvent>,
    /// Consumer (recv/put-in) index → its matched producer (send/put).
    pub matched: HashMap<usize, usize>,
    /// Hub generation → participant event indices (collectives).
    pub collectives: BTreeMap<u64, Vec<usize>>,
    /// Producers no consumer claimed (a send nobody received).
    pub unmatched_producers: Vec<usize>,
    /// Consumers with no producer in the trace.
    pub unmatched_consumers: Vec<usize>,
    /// Widest root span `[open, close]` on the stream clock, if any.
    pub root_span_ns: Option<(u64, u64)>,
}

impl CausalGraph {
    /// Number of ranks observed (max rank/peer id + 1).
    pub fn ranks(&self) -> usize {
        self.events
            .iter()
            .flat_map(|e| [Some(e.rank), e.peer])
            .flatten()
            .map(|r| r as usize + 1)
            .max()
            .unwrap_or(0)
    }
}

/// Builds the event graph: lifts `Event::Comm` records (attributing
/// each to the innermost span open on its thread, as the
/// [`RunFold`] sees it), joins producers with consumers by
/// `(src, seq)`, and groups collective halves by hub generation.
pub fn build_graph(records: &[Record]) -> CausalGraph {
    let mut g = CausalGraph::default();
    let mut fold = RunFold::default();
    for r in records {
        fold.fold(r);
        let Event::Comm(c) = &r.event else {
            continue;
        };
        let Some(op) = CommOp::parse(&c.op) else {
            continue;
        };
        g.events.push(TraceEvent {
            op,
            rank: c.rank,
            peer: c.peer,
            bytes: c.bytes,
            match_src: c.match_src,
            match_seq: c.match_seq,
            lamport: c.lamport,
            vt_enter: c.vt_enter,
            vt_exit: c.vt_exit,
            t_enter_ns: r.t_ns.saturating_sub(c.dur_ns),
            t_exit_ns: r.t_ns,
            phase: fold
                .innermost_open(r.tid.unwrap_or(0))
                .unwrap_or_default()
                .to_string(),
        });
    }
    g.root_span_ns = fold.root_window();

    let mut producers: HashMap<(u32, u64), usize> = HashMap::new();
    for (i, e) in g.events.iter().enumerate() {
        match e.op {
            CommOp::Send | CommOp::Put => {
                producers.insert((e.rank, e.match_seq), i);
            }
            _ if e.op.is_collective() => {
                g.collectives.entry(e.match_seq).or_default().push(i);
            }
            _ => {}
        }
    }
    let mut claimed: HashSet<usize> = HashSet::new();
    for (i, e) in g.events.iter().enumerate() {
        if !matches!(e.op, CommOp::Recv | CommOp::PutIn) {
            continue;
        }
        let Some(src) = e.match_src else {
            g.unmatched_consumers.push(i);
            continue;
        };
        match producers.get(&(src, e.match_seq)) {
            Some(&p) => {
                g.matched.insert(i, p);
                claimed.insert(p);
            }
            None => g.unmatched_consumers.push(i),
        }
    }
    g.unmatched_producers = producers
        .values()
        .filter(|p| !claimed.contains(p))
        .copied()
        .collect();
    g.unmatched_producers.sort_unstable();
    g
}

/// Wait-state totals for one rank.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct RankWait {
    /// Rank id.
    pub rank: u32,
    /// Comm events this rank executed.
    pub events: u64,
    /// Total wall ns blocked inside comm ops.
    pub block_ns: u64,
    /// Late-sender wait: ns a recv blocked before its message departed.
    pub late_sender_ns: u64,
    /// Late-receiver dwell: ns messages sat delivered-but-unclaimed in
    /// this rank's mailbox before the recv was posted.
    pub late_receiver_ns: u64,
    /// Collective wait: ns parked until the last participant arrived.
    pub collective_wait_ns: u64,
}

/// Wait blame accumulated against one phase span path.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PhaseBlame {
    /// Span path the waiting events ran under.
    pub phase: String,
    /// Late-sender + collective wait ns attributed to the phase.
    pub wait_ns: u64,
}

/// Arrival skew of one collective call.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CollectiveSkew {
    /// Hub generation (world-wide collective ordinal).
    pub generation: u64,
    /// Operation name.
    pub op: String,
    /// Last − first arrival, wall ns.
    pub skew_ns: u64,
    /// The rank everyone waited for.
    pub last_rank: u32,
    /// Participants observed (should equal the world size).
    pub participants: usize,
}

/// The wait-state analysis of a traced run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WaitReport {
    /// Producer events (send/put) in the trace.
    pub producers: u64,
    /// Consumer events (recv/put-in).
    pub consumers: u64,
    /// Matched producer↔consumer pairs.
    pub matched: u64,
    /// Sends/puts nobody consumed.
    pub unmatched_producers: u64,
    /// Recvs/put-ins with no producer in the trace.
    pub unmatched_consumers: u64,
    /// Collective calls (generations) observed.
    pub collective_calls: u64,
    /// Per-rank wait totals, by rank.
    pub per_rank: Vec<RankWait>,
    /// Wait blame per phase, worst first.
    pub per_phase: Vec<PhaseBlame>,
    /// Worst collective skews, worst first (top 8).
    pub worst_collectives: Vec<CollectiveSkew>,
    /// Total wall ns blocked in comm ops, all ranks.
    pub total_block_ns: u64,
    /// Total attributed wait (late-sender + collective), all ranks.
    pub total_wait_ns: u64,
}

/// Computes Scalasca-style wait states over the graph: late-sender and
/// late-receiver per matched pair, arrival skew per collective, and
/// per-phase blame attribution.
pub fn wait_states(g: &CausalGraph) -> WaitReport {
    let mut rep = WaitReport::default();
    let mut per_rank: BTreeMap<u32, RankWait> = BTreeMap::new();
    let mut per_phase: BTreeMap<String, u64> = BTreeMap::new();
    for e in &g.events {
        let w = per_rank.entry(e.rank).or_default();
        w.rank = e.rank;
        w.events += 1;
        w.block_ns += e.block_ns();
        rep.total_block_ns += e.block_ns();
        match e.op {
            CommOp::Send | CommOp::Put => rep.producers += 1,
            CommOp::Recv | CommOp::PutIn => rep.consumers += 1,
            _ => {}
        }
    }

    for (&c, &p) in &g.matched {
        let (cons, prod) = (&g.events[c], &g.events[p]);
        // Late sender: the consumer blocked from its own entry until
        // the message departed (clamped into the blocking interval).
        let late_s = prod
            .t_exit_ns
            .min(cons.t_exit_ns)
            .saturating_sub(cons.t_enter_ns);
        // Late receiver: the message was delivered before the consumer
        // even posted — mailbox dwell time.
        let late_r = cons.t_enter_ns.saturating_sub(prod.t_exit_ns);
        let w = per_rank.entry(cons.rank).or_default();
        w.late_sender_ns += late_s;
        w.late_receiver_ns += late_r;
        rep.total_wait_ns += late_s;
        if !cons.phase.is_empty() {
            *per_phase.entry(cons.phase.clone()).or_default() += late_s;
        }
    }

    for (&generation, idxs) in &g.collectives {
        rep.collective_calls += 1;
        let last_enter = idxs.iter().map(|&i| g.events[i].t_enter_ns).max().unwrap();
        let first_enter = idxs.iter().map(|&i| g.events[i].t_enter_ns).min().unwrap();
        let last = idxs
            .iter()
            .max_by_key(|&&i| g.events[i].t_enter_ns)
            .copied()
            .unwrap();
        rep.worst_collectives.push(CollectiveSkew {
            generation,
            op: g.events[last].op.name().to_string(),
            skew_ns: last_enter - first_enter,
            last_rank: g.events[last].rank,
            participants: idxs.len(),
        });
        for &i in idxs {
            let e = &g.events[i];
            let wait = last_enter.min(e.t_exit_ns).saturating_sub(e.t_enter_ns);
            per_rank.entry(e.rank).or_default().collective_wait_ns += wait;
            rep.total_wait_ns += wait;
            if !e.phase.is_empty() {
                *per_phase.entry(e.phase.clone()).or_default() += wait;
            }
        }
    }

    rep.matched = g.matched.len() as u64;
    rep.unmatched_producers = g.unmatched_producers.len() as u64;
    rep.unmatched_consumers = g.unmatched_consumers.len() as u64;
    rep.per_rank = per_rank.into_values().collect();
    rep.per_phase = per_phase
        .into_iter()
        .map(|(phase, wait_ns)| PhaseBlame { phase, wait_ns })
        .collect();
    rep.per_phase.sort_by_key(|p| std::cmp::Reverse(p.wait_ns));
    rep.worst_collectives
        .sort_by_key(|c| std::cmp::Reverse(c.skew_ns));
    rep.worst_collectives.truncate(8);
    rep
}

/// What one critical-path segment was doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SegKind {
    /// Local work between comm events.
    Compute,
    /// Inside a comm op or riding a message edge.
    Wait,
}

/// One contiguous wall-time segment of the critical path.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PathSegment {
    /// Rank the segment ran on.
    pub rank: u32,
    /// Compute or wait.
    pub kind: SegKind,
    /// Human label (`compute`, `recv ←2`, `collective allreduce g41`).
    pub label: String,
    /// Segment start, stream ns.
    pub start_ns: u64,
    /// Segment end.
    pub end_ns: u64,
}

/// The cross-rank critical path: contiguous segments telescoping from
/// `start_ns` to `end_ns` (so `compute_ns + wait_ns == total_ns`
/// exactly, by construction).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CriticalPath {
    /// Segments, latest first (the order the backward walk found them).
    pub segments: Vec<PathSegment>,
    /// Window start (root-span open when available).
    pub start_ns: u64,
    /// Window end (root-span close when it postdates the last event).
    pub end_ns: u64,
    /// `end_ns - start_ns`.
    pub total_ns: u64,
    /// Sum of compute segments.
    pub compute_ns: u64,
    /// Sum of wait segments.
    pub wait_ns: u64,
}

/// Extracts the cross-rank critical path by walking backward from the
/// last event: a recv whose message departed after the recv was posted
/// jumps to the sender; a collective jumps to its last arriver;
/// otherwise the walk steps to the previous event on the same rank.
/// Every hop appends segments that exactly tile the wall-time window,
/// so the decomposition sums to the window by construction.
pub fn critical_path(g: &CausalGraph) -> CriticalPath {
    let mut path = CriticalPath::default();
    let Some(last) = (0..g.events.len()).max_by_key(|&i| g.events[i].t_exit_ns) else {
        return path;
    };
    // Per-rank event indices sorted by exit time, for local-pred steps.
    let mut by_rank: HashMap<u32, Vec<usize>> = HashMap::new();
    for (i, e) in g.events.iter().enumerate() {
        by_rank.entry(e.rank).or_default().push(i);
    }
    for v in by_rank.values_mut() {
        v.sort_by_key(|&i| g.events[i].t_exit_ns);
    }
    // Last arriver per collective generation.
    let last_arriver: HashMap<u64, usize> = g
        .collectives
        .iter()
        .map(|(&gen, idxs)| {
            let la = idxs
                .iter()
                .max_by_key(|&&i| g.events[i].t_enter_ns)
                .copied()
                .unwrap();
            (gen, la)
        })
        .collect();

    let end_anchor = g
        .root_span_ns
        .map(|(_, c)| c.max(g.events[last].t_exit_ns))
        .unwrap_or(g.events[last].t_exit_ns);
    path.end_ns = end_anchor;
    let mut frontier = end_anchor;
    let mut cur = last;
    let mut visited: HashSet<usize> = HashSet::new();
    let push = |segments: &mut Vec<PathSegment>, rank, kind, label: String, lo: u64, hi: u64| {
        if hi > lo {
            segments.push(PathSegment {
                rank,
                kind,
                label,
                start_ns: lo,
                end_ns: hi,
            });
        }
    };

    for _ in 0..(2 * g.events.len() + 4) {
        visited.insert(cur);
        let e = g.events[cur].clone();
        // Compute gap above the current event's exit.
        push(
            &mut path.segments,
            e.rank,
            SegKind::Compute,
            "compute".to_string(),
            e.t_exit_ns.min(frontier),
            frontier,
        );
        frontier = frontier.min(e.t_exit_ns);

        // Message edge: the recv was posted before the message left.
        if let Some(&p) = g.matched.get(&cur) {
            let prod = &g.events[p];
            if prod.t_exit_ns > e.t_enter_ns && !visited.contains(&p) {
                let lo = prod.t_exit_ns.min(frontier);
                push(
                    &mut path.segments,
                    e.rank,
                    SegKind::Wait,
                    format!("{} ←{}", e.op.name(), prod.rank),
                    lo,
                    frontier,
                );
                frontier = lo;
                cur = p;
                continue;
            }
        }
        // Collective: everyone left together; the last arriver is why.
        if e.op.is_collective() {
            if let Some(&la) = last_arriver.get(&e.match_seq) {
                let arr = &g.events[la];
                if la != cur && !visited.contains(&la) && arr.t_enter_ns > e.t_enter_ns {
                    let lo = arr.t_enter_ns.min(frontier);
                    push(
                        &mut path.segments,
                        e.rank,
                        SegKind::Wait,
                        format!("collective {} g{} ←{}", e.op.name(), e.match_seq, arr.rank),
                        lo,
                        frontier,
                    );
                    frontier = lo;
                    cur = la;
                    continue;
                }
            }
        }
        // The op's own blocking interval lies on the path.
        let lo = e.t_enter_ns.min(frontier);
        push(
            &mut path.segments,
            e.rank,
            SegKind::Wait,
            e.op.name().to_string(),
            lo,
            frontier,
        );
        frontier = lo;
        // Step to the previous event on this rank.
        let pred = by_rank
            .get(&e.rank)
            .into_iter()
            .flatten()
            .rev()
            .find(|&&i| i != cur && !visited.contains(&i) && g.events[i].t_exit_ns <= frontier)
            .copied();
        match pred {
            Some(p) => {
                let lo = g.events[p].t_exit_ns.min(frontier);
                push(
                    &mut path.segments,
                    e.rank,
                    SegKind::Compute,
                    "compute".to_string(),
                    lo,
                    frontier,
                );
                frontier = lo;
                cur = p;
            }
            None => {
                // Head of the chain: local setup from the window start.
                let start = g
                    .root_span_ns
                    .map(|(o, _)| o.min(frontier))
                    .unwrap_or(frontier);
                push(
                    &mut path.segments,
                    e.rank,
                    SegKind::Compute,
                    "compute".to_string(),
                    start,
                    frontier,
                );
                frontier = start;
                break;
            }
        }
    }

    path.start_ns = frontier;
    path.total_ns = path.end_ns - path.start_ns;
    for s in &path.segments {
        match s.kind {
            SegKind::Compute => path.compute_ns += s.end_ns - s.start_ns,
            SegKind::Wait => path.wait_ns += s.end_ns - s.start_ns,
        }
    }
    path
}

/// Worst deviations between traced virtual clocks and the analytic
/// machine-model costs — the cross-check that the measured wait
/// structure and the `swmpi::model` exchange times agree.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ModelCheck {
    /// Matched p2p pairs checked.
    pub pairs: u64,
    /// Worst `|recv.vt_exit − max(recv.vt_enter, send.vt_exit + p2p)|`.
    pub max_p2p_err: f64,
    /// Collective participant events checked.
    pub collective_events: u64,
    /// Worst `|vt_exit − (max enter + analytic cost)|` over collectives.
    pub max_collective_err: f64,
}

/// Verifies the traced virtual clocks against the analytic model:
/// every matched recv must exit at
/// `max(vt_enter, producer.vt_exit + p2p_time(bytes, n))`, and every
/// collective participant at `max(group vt_enter) + cost(op)`.
pub fn model_check(g: &CausalGraph, model: &MachineModel, ranks: usize) -> ModelCheck {
    let mut check = ModelCheck::default();
    for (&c, &p) in &g.matched {
        let (cons, prod) = (&g.events[c], &g.events[p]);
        let expect = match cons.op {
            // A put-in materializes at the fence: its exit is the pure
            // arrival time, with no wait term.
            CommOp::PutIn => prod.vt_exit + model.p2p_time(cons.bytes as usize, ranks),
            _ => (prod.vt_exit + model.p2p_time(cons.bytes as usize, ranks)).max(cons.vt_enter),
        };
        check.pairs += 1;
        check.max_p2p_err = check.max_p2p_err.max((cons.vt_exit - expect).abs());
    }
    for idxs in g.collectives.values() {
        let max_enter = idxs
            .iter()
            .map(|&i| g.events[i].vt_enter)
            .fold(f64::NEG_INFINITY, f64::max);
        for &i in idxs {
            let e = &g.events[i];
            let cost = match e.op {
                CommOp::Barrier | CommOp::Fence => model.barrier_time(ranks),
                CommOp::Allreduce => model.allreduce_time(8, ranks),
                CommOp::Allgather => model.allgather_time(e.bytes as usize, ranks),
                _ => continue,
            };
            check.collective_events += 1;
            check.max_collective_err = check
                .max_collective_err
                .max((e.vt_exit - (max_enter + cost)).abs());
        }
    }
    check
}

/// Everything `mmds-inspect causal` computes, in one artefact.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CausalReport {
    /// Wait-state metrics.
    pub wait: WaitReport,
    /// Cross-rank critical path.
    pub path: CriticalPath,
    /// Model cross-check, when a model was specified.
    pub model: Option<ModelCheck>,
}

/// Runs the whole analysis over a record stream.
pub fn analyze(records: &[Record], model: Option<&MachineModel>) -> CausalReport {
    let g = build_graph(records);
    let ranks = g.ranks();
    CausalReport {
        wait: wait_states(&g),
        path: critical_path(&g),
        model: model.map(|m| model_check(&g, m, ranks)),
    }
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 * 1e-6)
}

/// Renders the `mmds-inspect causal` view.
pub fn causal_view(rep: &CausalReport) -> String {
    let mut out = String::new();
    let w = &rep.wait;
    let _ = writeln!(
        out,
        "comm events: {} producers, {} consumers, {} matched pairs, \
         {} collective calls",
        w.producers, w.consumers, w.matched, w.collective_calls,
    );
    let _ = writeln!(
        out,
        "match closure: {} unmatched producer(s), {} unmatched consumer(s)",
        w.unmatched_producers, w.unmatched_consumers,
    );

    out.push_str("\n-- wait states per rank (ms) --\n");
    if w.per_rank.is_empty() {
        out.push_str("no comm events in the trace (was it written with MMDS_TELEMETRY=jsonl:…?)\n");
    } else {
        let rows: Vec<Vec<String>> = w
            .per_rank
            .iter()
            .map(|r| {
                vec![
                    r.rank.to_string(),
                    r.events.to_string(),
                    fmt_ms(r.block_ns),
                    fmt_ms(r.late_sender_ns),
                    fmt_ms(r.late_receiver_ns),
                    fmt_ms(r.collective_wait_ns),
                ]
            })
            .collect();
        out.push_str(&mmds_analysis::io::render_table(
            &[
                "rank",
                "events",
                "blocked",
                "late-send",
                "late-recv",
                "coll-wait",
            ],
            &rows,
        ));
    }

    out.push_str("\n-- wait blame per phase --\n");
    if w.per_phase.is_empty() {
        out.push_str("  no span-attributed waits\n");
    } else {
        for p in w.per_phase.iter().take(8) {
            let _ = writeln!(out, "  {:<40} {:>12} ms", p.phase, fmt_ms(p.wait_ns));
        }
    }

    out.push_str("\n-- worst collective skew --\n");
    if w.worst_collectives.is_empty() {
        out.push_str("  no collectives traced\n");
    } else {
        for c in &w.worst_collectives {
            let _ = writeln!(
                out,
                "  g{:<6} {:<10} skew {:>10} ms  waiting on rank {} ({} participants)",
                c.generation,
                c.op,
                fmt_ms(c.skew_ns),
                c.last_rank,
                c.participants,
            );
        }
    }

    let p = &rep.path;
    out.push_str("\n-- cross-rank critical path (latest first) --\n");
    let _ = writeln!(
        out,
        "window {:.3} ms = compute {:.3} ms + wait {:.3} ms ({} segments)",
        p.total_ns as f64 * 1e-6,
        p.compute_ns as f64 * 1e-6,
        p.wait_ns as f64 * 1e-6,
        p.segments.len(),
    );
    for s in p.segments.iter().take(24) {
        let kind = match s.kind {
            SegKind::Compute => "compute",
            SegKind::Wait => "wait",
        };
        let _ = writeln!(
            out,
            "  rank {:>3}  {:<7} {:>12} ms  {}",
            s.rank,
            kind,
            fmt_ms(s.end_ns - s.start_ns),
            s.label,
        );
    }
    if p.segments.len() > 24 {
        let _ = writeln!(out, "  … {} more segments", p.segments.len() - 24);
    }

    if let Some(m) = &rep.model {
        out.push_str("\n-- machine-model cross-check (virtual clocks) --\n");
        let _ = writeln!(
            out,
            "  {} p2p pairs, worst |err| {:.3e} s; {} collective events, worst |err| {:.3e} s",
            m.pairs, m.max_p2p_err, m.collective_events, m.max_collective_err,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmds_telemetry::CommRecord;

    fn rec(seq: u64, t_ns: u64, tid: u32, event: Event) -> Record {
        Record {
            seq,
            t_ns,
            rank: None,
            tid: Some(tid),
            event,
        }
    }

    fn comm(
        op: &str,
        rank: u32,
        peer: Option<u32>,
        match_src: Option<u32>,
        match_seq: u64,
        vt: (f64, f64),
    ) -> CommRecord {
        CommRecord {
            op: op.into(),
            rank,
            peer,
            tag: 0,
            bytes: 8,
            match_src,
            match_seq,
            lamport: 1,
            vt_enter: vt.0,
            vt_exit: vt.1,
            dur_ns: 0,
        }
    }

    /// rank 0 computes until t=100, sends; rank 1 posts its recv at
    /// t=10 and blocks until t=110 — a textbook late sender.
    fn late_sender_records() -> Vec<Record> {
        let send = CommRecord {
            dur_ns: 0,
            ..comm("send", 0, Some(1), Some(0), 1, (1.0e-4, 1.1e-4))
        };
        let recv = CommRecord {
            dur_ns: 100,
            ..comm("recv", 1, Some(0), Some(0), 1, (1.0e-5, 1.3e-4))
        };
        vec![
            rec(0, 0, 0, Event::SpanOpen { path: "run".into() }),
            rec(1, 100, 1, Event::Comm(send)),
            rec(2, 110, 2, Event::Comm(recv)),
            rec(
                3,
                140,
                0,
                Event::SpanClose {
                    path: "run".into(),
                    dur_ns: 140,
                },
            ),
        ]
    }

    #[test]
    fn graph_matches_send_with_recv() {
        let g = build_graph(&late_sender_records());
        assert_eq!(g.events.len(), 2);
        assert_eq!(g.matched.len(), 1);
        assert!(g.unmatched_producers.is_empty());
        assert!(g.unmatched_consumers.is_empty());
        assert_eq!(g.root_span_ns, Some((0, 140)));
        assert_eq!(g.ranks(), 2);
    }

    #[test]
    fn unmatched_halves_are_reported() {
        let records = vec![
            rec(
                0,
                10,
                0,
                Event::Comm(comm("send", 0, Some(1), Some(0), 1, (0.0, 0.0))),
            ),
            rec(
                1,
                20,
                1,
                Event::Comm(comm("recv", 1, Some(0), Some(0), 99, (0.0, 0.0))),
            ),
        ];
        let g = build_graph(&records);
        assert_eq!(g.matched.len(), 0);
        assert_eq!(g.unmatched_producers.len(), 1);
        assert_eq!(g.unmatched_consumers.len(), 1);
        let w = wait_states(&g);
        assert_eq!(w.unmatched_producers, 1);
        assert_eq!(w.unmatched_consumers, 1);
    }

    #[test]
    fn late_sender_wait_is_attributed() {
        let g = build_graph(&late_sender_records());
        let w = wait_states(&g);
        // Recv posted at 10, message departed at 100: 90 ns of
        // late-sender wait on rank 1.
        let r1 = w.per_rank.iter().find(|r| r.rank == 1).unwrap();
        assert_eq!(r1.late_sender_ns, 90);
        assert_eq!(r1.late_receiver_ns, 0);
        assert_eq!(w.total_wait_ns, 90);
    }

    #[test]
    fn late_receiver_dwell_is_attributed() {
        // Send departs at t=10; recv only posted at t=50 (dur 0).
        let records = vec![
            rec(
                0,
                10,
                0,
                Event::Comm(comm("send", 0, Some(1), Some(0), 1, (0.0, 0.0))),
            ),
            rec(
                1,
                50,
                1,
                Event::Comm(comm("recv", 1, Some(0), Some(0), 1, (0.0, 0.0))),
            ),
        ];
        let g = build_graph(&records);
        let w = wait_states(&g);
        let r1 = w.per_rank.iter().find(|r| r.rank == 1).unwrap();
        assert_eq!(r1.late_sender_ns, 0);
        assert_eq!(r1.late_receiver_ns, 40);
    }

    #[test]
    fn collective_skew_blames_last_arriver() {
        let mk = |rank: u32, enter: u64, exit: u64| {
            rec(
                rank as u64,
                exit,
                rank + 1,
                Event::Comm(CommRecord {
                    dur_ns: exit - enter,
                    ..comm("barrier", rank, None, None, 0, (0.0, 0.0))
                }),
            )
        };
        // Ranks 0/1 arrive at 10/20; rank 2 at 90; all exit at 100.
        let g = build_graph(&[mk(0, 10, 100), mk(1, 20, 100), mk(2, 90, 100)]);
        let w = wait_states(&g);
        assert_eq!(w.collective_calls, 1);
        assert_eq!(w.worst_collectives[0].skew_ns, 80);
        assert_eq!(w.worst_collectives[0].last_rank, 2);
        let wait0 = w.per_rank.iter().find(|r| r.rank == 0).unwrap();
        assert_eq!(wait0.collective_wait_ns, 80);
        let wait2 = w.per_rank.iter().find(|r| r.rank == 2).unwrap();
        assert_eq!(wait2.collective_wait_ns, 0);
    }

    #[test]
    fn critical_path_jumps_to_late_sender_and_telescopes() {
        let g = build_graph(&late_sender_records());
        let p = critical_path(&g);
        // Window is the root span: [0, 140].
        assert_eq!((p.start_ns, p.end_ns), (0, 140));
        assert_eq!(p.total_ns, 140);
        assert_eq!(p.compute_ns + p.wait_ns, p.total_ns);
        // The path must route through rank 0 (the late sender): the
        // head compute segment belongs to rank 0, not the waiting rank.
        let head = p.segments.last().unwrap();
        assert_eq!(head.rank, 0);
        assert_eq!(head.kind, SegKind::Compute);
        // And the message edge appears as a wait on rank 1.
        assert!(p
            .segments
            .iter()
            .any(|s| s.rank == 1 && s.kind == SegKind::Wait && s.label.contains("recv")));
    }

    #[test]
    fn empty_trace_degrades_gracefully() {
        let g = build_graph(&[]);
        assert_eq!(g.ranks(), 0);
        let rep = analyze(&[], None);
        assert_eq!(rep.path.total_ns, 0);
        let text = causal_view(&rep);
        assert!(text.contains("no comm events"));
    }

    #[test]
    fn model_check_flags_inconsistent_virtual_clocks() {
        let model = MachineModel::taihulight();
        let p2p = model.p2p_time(8, 2);
        // Consistent pair: recv exits exactly at send.vt_exit + p2p.
        let ok = vec![
            rec(
                0,
                10,
                0,
                Event::Comm(comm("send", 0, Some(1), Some(0), 1, (0.0, 1.0e-6))),
            ),
            rec(
                1,
                20,
                1,
                Event::Comm(comm("recv", 1, Some(0), Some(0), 1, (0.0, 1.0e-6 + p2p))),
            ),
        ];
        let g = build_graph(&ok);
        let m = model_check(&g, &model, 2);
        assert_eq!(m.pairs, 1);
        assert!(m.max_p2p_err < 1e-12, "err = {}", m.max_p2p_err);
        // Broken pair: recv exit off by 1 ms.
        let bad = vec![
            rec(
                0,
                10,
                0,
                Event::Comm(comm("send", 0, Some(1), Some(0), 1, (0.0, 1.0e-6))),
            ),
            rec(
                1,
                20,
                1,
                Event::Comm(comm(
                    "recv",
                    1,
                    Some(0),
                    Some(0),
                    1,
                    (0.0, 1.0e-6 + p2p + 1e-3),
                )),
            ),
        ];
        let m = model_check(&build_graph(&bad), &model, 2);
        assert!(m.max_p2p_err > 0.9e-3);
    }
}
