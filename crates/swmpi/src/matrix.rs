//! Pairwise communication matrices — who talks to whom, and how much.
//!
//! [`crate::stats::CommStats`] answers "how much did this rank move";
//! this module answers "to and from *whom*". The paper's communication
//! analysis (Fig. 12's on-demand volume, Fig. 16's coupled halo
//! pattern) is fundamentally pairwise: a rank exchanges ghosts with its
//! 6 (or 26) Cartesian neighbours, and skew in those flows is what load
//! balancing has to fix. Each [`crate::Comm`] carries a
//! [`MatrixRecorder`]; [`crate::world::RankOutput`] exposes the final
//! per-rank [`CommMatrix`]; [`WorldMatrix`] assembles the world view
//! and validates pairwise send/recv symmetry.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::Rank;

/// Accumulated flow between this rank and one peer, one direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PairFlow {
    /// The other rank.
    pub peer: Rank,
    /// Messages (or puts) counted.
    pub msgs: u64,
    /// Payload bytes counted.
    pub bytes: u64,
}

/// One rank's pairwise communication record.
///
/// Two-sided traffic appears twice — in the sender's `sent` and the
/// receiver's `recvd` — which is what makes the world-level symmetry
/// check ([`WorldMatrix::validate_symmetry`]) possible. One-sided puts
/// likewise appear in the originator's `puts_out` and, once fenced, in
/// the window owner's `puts_in`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CommMatrix {
    /// The rank this matrix belongs to.
    pub rank: Rank,
    /// Two-sided sends, by destination.
    pub sent: Vec<PairFlow>,
    /// Two-sided receives, by source.
    pub recvd: Vec<PairFlow>,
    /// One-sided puts issued, by destination window.
    pub puts_out: Vec<PairFlow>,
    /// One-sided puts drained from this rank's window, by originator.
    pub puts_in: Vec<PairFlow>,
}

/// Adds `from`'s flows into `into`, summing per peer.
fn merge_flows(into: &mut Vec<PairFlow>, from: &[PairFlow]) {
    for f in from {
        match into.iter_mut().find(|g| g.peer == f.peer) {
            Some(g) => {
                g.msgs += f.msgs;
                g.bytes += f.bytes;
            }
            None => into.push(*f),
        }
    }
    into.sort_unstable_by_key(|f| f.peer);
}

impl CommMatrix {
    /// Folds another record for the *same* rank into this one, summing
    /// per-peer flows. Used when one process runs several worlds (e.g.
    /// a weak-scaling sweep) and a rank id deposits more than once:
    /// each world's flows are pairwise symmetric, so the sum is too.
    pub fn merge(&mut self, other: &CommMatrix) {
        merge_flows(&mut self.sent, &other.sent);
        merge_flows(&mut self.recvd, &other.recvd);
        merge_flows(&mut self.puts_out, &other.puts_out);
        merge_flows(&mut self.puts_in, &other.puts_in);
    }

    /// Total bytes this rank pushed outward (sends + puts).
    pub fn bytes_out(&self) -> u64 {
        self.sent.iter().map(|f| f.bytes).sum::<u64>()
            + self.puts_out.iter().map(|f| f.bytes).sum::<u64>()
    }
}

/// Mutable accumulator behind a [`crate::Comm`]; keyed maps keep the
/// per-message cost at one `BTreeMap` lookup over a handful of
/// neighbours.
#[derive(Debug, Default)]
pub struct MatrixRecorder {
    sent: BTreeMap<Rank, (u64, u64)>,
    recvd: BTreeMap<Rank, (u64, u64)>,
    puts_out: BTreeMap<Rank, (u64, u64)>,
    puts_in: BTreeMap<Rank, (u64, u64)>,
}

fn bump(m: &mut BTreeMap<Rank, (u64, u64)>, peer: Rank, bytes: u64) {
    let e = m.entry(peer).or_insert((0, 0));
    e.0 += 1;
    e.1 += bytes;
}

fn flows(m: &BTreeMap<Rank, (u64, u64)>) -> Vec<PairFlow> {
    m.iter()
        .map(|(&peer, &(msgs, bytes))| PairFlow { peer, msgs, bytes })
        .collect()
}

impl MatrixRecorder {
    /// Counts one two-sided send of `bytes` to `dst`.
    pub fn record_send(&mut self, dst: Rank, bytes: u64) {
        bump(&mut self.sent, dst, bytes);
    }

    /// Counts one two-sided receive of `bytes` from `src`.
    pub fn record_recv(&mut self, src: Rank, bytes: u64) {
        bump(&mut self.recvd, src, bytes);
    }

    /// Counts one one-sided put of `bytes` into `dst`'s window.
    pub fn record_put(&mut self, dst: Rank, bytes: u64) {
        bump(&mut self.puts_out, dst, bytes);
    }

    /// Counts one fenced put of `bytes` drained from `src`.
    pub fn record_put_in(&mut self, src: Rank, bytes: u64) {
        bump(&mut self.puts_in, src, bytes);
    }

    /// Copies the current state out as a serializable [`CommMatrix`].
    pub fn snapshot(&self, rank: Rank) -> CommMatrix {
        CommMatrix {
            rank,
            sent: flows(&self.sent),
            recvd: flows(&self.recvd),
            puts_out: flows(&self.puts_out),
            puts_in: flows(&self.puts_in),
        }
    }

    /// Clears everything (paired with `Comm::reset_accounting`).
    pub fn reset(&mut self) {
        *self = MatrixRecorder::default();
    }
}

/// Dense world-level view assembled from every rank's [`CommMatrix`].
///
/// Indexing is `[src * n + dst]` throughout.
#[derive(Debug, Clone)]
pub struct WorldMatrix {
    n: usize,
    /// Two-sided bytes as counted by the *sender*.
    pub sent_bytes: Vec<u64>,
    /// Two-sided messages as counted by the sender.
    pub sent_msgs: Vec<u64>,
    /// Two-sided bytes as counted by the *receiver*.
    pub recvd_bytes: Vec<u64>,
    /// Two-sided messages as counted by the receiver.
    pub recvd_msgs: Vec<u64>,
    /// One-sided bytes as counted by the originator.
    pub put_bytes: Vec<u64>,
    /// One-sided bytes as counted by the window owner.
    pub put_in_bytes: Vec<u64>,
}

impl WorldMatrix {
    /// Assembles the dense world matrix from per-rank records. The
    /// slice index is trusted over `m.rank` only for bounds; matrices
    /// must be passed in rank order (as `World::run` returns them).
    pub fn from_ranks(ranks: &[CommMatrix]) -> WorldMatrix {
        let n = ranks.len();
        let mut w = WorldMatrix {
            n,
            sent_bytes: vec![0; n * n],
            sent_msgs: vec![0; n * n],
            recvd_bytes: vec![0; n * n],
            recvd_msgs: vec![0; n * n],
            put_bytes: vec![0; n * n],
            put_in_bytes: vec![0; n * n],
        };
        for (r, m) in ranks.iter().enumerate() {
            for f in &m.sent {
                w.sent_bytes[r * n + f.peer] += f.bytes;
                w.sent_msgs[r * n + f.peer] += f.msgs;
            }
            for f in &m.recvd {
                w.recvd_bytes[f.peer * n + r] += f.bytes;
                w.recvd_msgs[f.peer * n + r] += f.msgs;
            }
            for f in &m.puts_out {
                w.put_bytes[r * n + f.peer] += f.bytes;
            }
            for f in &m.puts_in {
                w.put_in_bytes[f.peer * n + r] += f.bytes;
            }
        }
        w
    }

    /// Number of ranks.
    pub fn n_ranks(&self) -> usize {
        self.n
    }

    /// Bytes moved from `src` to `dst` over both mechanisms, sender's
    /// count.
    pub fn bytes(&self, src: Rank, dst: Rank) -> u64 {
        self.sent_bytes[src * self.n + dst] + self.put_bytes[src * self.n + dst]
    }

    /// Total bytes moved in the world (two-sided + one-sided).
    pub fn total_bytes(&self) -> u64 {
        self.sent_bytes.iter().sum::<u64>() + self.put_bytes.iter().sum::<u64>()
    }

    /// Checks pairwise symmetry: for every `(src, dst)` the sender's
    /// count of two-sided messages/bytes must equal the receiver's, and
    /// the put originator's bytes must equal the window owner's drained
    /// bytes. Returns the list of violations (empty = symmetric).
    ///
    /// Asymmetry means either a message was still in flight when the
    /// world ended (a protocol bug) or the accounting itself is wrong.
    pub fn validate_symmetry(&self) -> Result<(), Vec<String>> {
        let mut errs = Vec::new();
        for src in 0..self.n {
            for dst in 0..self.n {
                let i = src * self.n + dst;
                if self.sent_bytes[i] != self.recvd_bytes[i]
                    || self.sent_msgs[i] != self.recvd_msgs[i]
                {
                    errs.push(format!(
                        "two-sided {src}->{dst}: sent {} msgs/{} B, received {} msgs/{} B",
                        self.sent_msgs[i],
                        self.sent_bytes[i],
                        self.recvd_msgs[i],
                        self.recvd_bytes[i]
                    ));
                }
                if self.put_bytes[i] != self.put_in_bytes[i] {
                    errs.push(format!(
                        "one-sided {src}->{dst}: put {} B, drained {} B",
                        self.put_bytes[i], self.put_in_bytes[i]
                    ));
                }
            }
        }
        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs)
        }
    }

    /// Renders the byte matrix as one shaded line per source rank
    /// (`▁▂▃▄▅▆▇█` scaled to the largest pair; `·` = zero), preceded by
    /// a header. Readable up to a few dozen ranks in a terminal.
    pub fn heatline(&self) -> String {
        const SHADES: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let max = (0..self.n * self.n)
            .map(|i| self.sent_bytes[i] + self.put_bytes[i])
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        out.push_str(&format!(
            "comm matrix ({} ranks, src rows -> dst cols, max pair {} B)\n",
            self.n, max
        ));
        for src in 0..self.n {
            out.push_str(&format!("  r{src:<3} "));
            for dst in 0..self.n {
                let b = self.bytes(src, dst);
                if b == 0 {
                    out.push('·');
                } else if max == 0 {
                    out.push(SHADES[0]);
                } else {
                    let level = ((b as u128 * (SHADES.len() as u128 - 1)) / max as u128) as usize;
                    out.push(SHADES[level]);
                }
            }
            let row: u64 = (0..self.n).map(|d| self.bytes(src, d)).sum();
            out.push_str(&format!("  {row} B out\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrices() -> Vec<CommMatrix> {
        // Rank 0 sends 100 B to 1; rank 1 receives it and puts 40 B to 0.
        let mut r0 = MatrixRecorder::default();
        r0.record_send(1, 100);
        r0.record_put_in(1, 40);
        let mut r1 = MatrixRecorder::default();
        r1.record_recv(0, 100);
        r1.record_put(0, 40);
        vec![r0.snapshot(0), r1.snapshot(1)]
    }

    #[test]
    fn recorder_accumulates_per_peer() {
        let mut rec = MatrixRecorder::default();
        rec.record_send(2, 10);
        rec.record_send(2, 5);
        rec.record_send(1, 7);
        let m = rec.snapshot(0);
        assert_eq!(
            m.sent,
            vec![
                PairFlow {
                    peer: 1,
                    msgs: 1,
                    bytes: 7
                },
                PairFlow {
                    peer: 2,
                    msgs: 2,
                    bytes: 15
                },
            ]
        );
        assert_eq!(m.bytes_out(), 22);
        rec.reset();
        assert_eq!(
            rec.snapshot(0),
            CommMatrix {
                rank: 0,
                ..Default::default()
            }
        );
    }

    #[test]
    fn world_matrix_is_symmetric_for_matched_flows() {
        let w = WorldMatrix::from_ranks(&matrices());
        assert_eq!(w.bytes(0, 1), 100);
        assert_eq!(w.bytes(1, 0), 40);
        assert_eq!(w.total_bytes(), 140);
        w.validate_symmetry().expect("matched flows are symmetric");
    }

    #[test]
    fn world_matrix_reports_asymmetry() {
        let mut ms = matrices();
        ms[1].recvd[0].bytes = 99; // receiver under-counts
        let errs = WorldMatrix::from_ranks(&ms)
            .validate_symmetry()
            .unwrap_err();
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("0->1"), "{errs:?}");
    }

    #[test]
    fn asymmetric_msg_count_is_a_violation_even_with_equal_bytes() {
        // One 100 B send observed, but the receiver counted it as two
        // 50 B messages — bytes balance, msgs don't.
        let mut ms = matrices();
        ms[1].recvd[0].msgs = 2;
        let errs = WorldMatrix::from_ranks(&ms)
            .validate_symmetry()
            .unwrap_err();
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("two-sided 0->1"), "{errs:?}");
        assert!(errs[0].contains("sent 1 msgs"), "{errs:?}");
        assert!(errs[0].contains("received 2 msgs"), "{errs:?}");
    }

    #[test]
    fn unfenced_put_is_a_one_sided_violation() {
        // Rank 1 issued the put but rank 0 never drained it (no fence
        // before the world ended).
        let mut ms = matrices();
        ms[0].puts_in.clear();
        let errs = WorldMatrix::from_ranks(&ms)
            .validate_symmetry()
            .unwrap_err();
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("one-sided 1->0"), "{errs:?}");
        assert!(errs[0].contains("put 40 B, drained 0 B"), "{errs:?}");
    }

    #[test]
    fn every_broken_pair_is_reported_not_just_the_first() {
        let mut ms = matrices();
        ms[1].recvd[0].bytes = 99; // two-sided mismatch 0->1
        ms[0].puts_in.clear(); // one-sided mismatch 1->0
        let errs = WorldMatrix::from_ranks(&ms)
            .validate_symmetry()
            .unwrap_err();
        assert_eq!(errs.len(), 2, "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("two-sided 0->1")));
        assert!(errs.iter().any(|e| e.contains("one-sided 1->0")));
    }

    #[test]
    fn heatline_marks_zero_and_max() {
        let w = WorldMatrix::from_ranks(&matrices());
        let h = w.heatline();
        assert!(h.contains('█'), "max pair gets full shade: {h}");
        assert!(h.contains('·'), "zero pairs dotted: {h}");
        assert!(h.contains("100 B out"));
    }

    #[test]
    fn heatline_renders_asymmetric_matrices_from_sender_counts() {
        // An asymmetric (lost-message) matrix must still render — the
        // heatline is a debugging aid precisely when symmetry fails —
        // and it shades from the *sender's* counts, unperturbed by the
        // receiver's missing record.
        let mut ms = matrices();
        ms[1].recvd.clear();
        let w = WorldMatrix::from_ranks(&ms);
        assert!(w.validate_symmetry().is_err());
        let h = w.heatline();
        assert!(h.contains("max pair 100 B"), "{h}");
        assert!(h.contains("100 B out"), "{h}");
        assert!(h.contains("40 B out"), "{h}");
        assert_eq!(h.lines().count(), 3, "{h}");
    }

    #[test]
    fn merge_sums_per_peer_and_keeps_symmetry() {
        // Same rank 0 observed in two "worlds": self-exchange alone,
        // then traffic to rank 1.
        let mut a = MatrixRecorder::default();
        a.record_send(0, 50);
        a.record_recv(0, 50);
        let mut b = MatrixRecorder::default();
        b.record_send(0, 10);
        b.record_send(1, 100);
        let mut m = a.snapshot(0);
        m.merge(&b.snapshot(0));
        assert_eq!(
            m.sent,
            vec![
                PairFlow {
                    peer: 0,
                    msgs: 2,
                    bytes: 60
                },
                PairFlow {
                    peer: 1,
                    msgs: 1,
                    bytes: 100
                },
            ]
        );
        assert_eq!(m.recvd.len(), 1);
        assert_eq!(m.bytes_out(), 160);
    }

    #[test]
    fn comm_matrix_serializes_round_trip() {
        let m = matrices().remove(0);
        let json = serde_json::to_string(&m).unwrap();
        let back: CommMatrix = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }
}
