//! Per-rank communication and computation accounting.
//!
//! Byte and message counts are *exact* — they are what Fig. 12
//! (communication volume) reports. Times are virtual-clock charges from
//! [`crate::model::MachineModel`].

use serde::{Deserialize, Serialize};

/// On-demand ghost-exchange savings accounting (paper Fig. 12): how
/// many bytes the dirty-site protocol actually moved versus what a
/// traditional full-ghost exchange of the same sectors would have
/// moved, plus the dirty-site census behind the ratio. All counts are
/// exact; the baseline is computed analytically from the slab geometry,
/// not measured by sending.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ExchangeSavings {
    /// Payload bytes the on-demand exchange actually sent/put.
    pub bytes_on_demand: u64,
    /// Payload bytes the full-ghost baseline would have sent for the
    /// same sector sequence.
    pub bytes_full_ghost: u64,
    /// Unique dirty sites shipped to at least one neighbour.
    pub dirty_sites: u64,
    /// Sites the full-ghost put would have shipped (the dirty-fraction
    /// denominator).
    pub candidate_sites: u64,
}

impl ExchangeSavings {
    /// Element-wise sum.
    pub fn merge(&self, other: &ExchangeSavings) -> ExchangeSavings {
        ExchangeSavings {
            bytes_on_demand: self.bytes_on_demand + other.bytes_on_demand,
            bytes_full_ghost: self.bytes_full_ghost + other.bytes_full_ghost,
            dirty_sites: self.dirty_sites + other.dirty_sites,
            candidate_sites: self.candidate_sites + other.candidate_sites,
        }
    }

    /// `bytes_on_demand / bytes_full_ghost` — the paper's Fig. 12
    /// communication-volume ratio. `None` until a baseline is recorded.
    pub fn volume_ratio(&self) -> Option<f64> {
        (self.bytes_full_ghost > 0)
            .then(|| self.bytes_on_demand as f64 / self.bytes_full_ghost as f64)
    }

    /// Fraction of full-ghost candidate sites that were actually dirty.
    /// `None` until a baseline is recorded.
    pub fn dirty_fraction(&self) -> Option<f64> {
        (self.candidate_sites > 0).then(|| self.dirty_sites as f64 / self.candidate_sites as f64)
    }
}

/// Counters accumulated by one rank over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CommStats {
    /// Point-to-point messages sent.
    pub msgs_sent: u64,
    /// Point-to-point payload bytes sent.
    pub bytes_sent: u64,
    /// Point-to-point messages received.
    pub msgs_recv: u64,
    /// Point-to-point payload bytes received.
    pub bytes_recv: u64,
    /// One-sided put operations issued.
    pub puts: u64,
    /// One-sided payload bytes put.
    pub bytes_put: u64,
    /// Collective operations participated in (barrier/allreduce/allgather).
    pub collectives: u64,
    /// Virtual seconds spent in communication (waiting + transfer).
    pub comm_time: f64,
    /// Virtual seconds charged as computation.
    pub compute_time: f64,
    /// On-demand ghost-exchange savings accounting, when the rank ran
    /// an on-demand exchange (zero otherwise).
    pub savings: ExchangeSavings,
}

impl CommStats {
    /// Total bytes moved by this rank (two-sided sends + one-sided puts).
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_sent + self.bytes_put
    }

    /// Element-wise sum, for aggregating a world's ranks.
    pub fn merge(&self, other: &CommStats) -> CommStats {
        CommStats {
            msgs_sent: self.msgs_sent + other.msgs_sent,
            bytes_sent: self.bytes_sent + other.bytes_sent,
            msgs_recv: self.msgs_recv + other.msgs_recv,
            bytes_recv: self.bytes_recv + other.bytes_recv,
            puts: self.puts + other.puts,
            bytes_put: self.bytes_put + other.bytes_put,
            collectives: self.collectives + other.collectives,
            comm_time: self.comm_time + other.comm_time,
            compute_time: self.compute_time + other.compute_time,
            savings: self.savings.merge(&other.savings),
        }
    }

    /// Aggregates a slice of per-rank stats into world totals.
    pub fn sum(all: &[CommStats]) -> CommStats {
        all.iter().fold(CommStats::default(), |a, s| a.merge(s))
    }

    /// Maximum communication time across ranks. For the true
    /// cross-rank critical path — which compute segment or message
    /// edge the run's end actually waited on — use the causal trace
    /// (`crate::trace` + `mmds-inspect causal`) instead of this
    /// per-rank maximum.
    pub fn max_comm_time(all: &[CommStats]) -> f64 {
        all.iter().map(|s| s.comm_time).fold(0.0, f64::max)
    }

    /// Maximum compute time across ranks.
    pub fn max_compute_time(all: &[CommStats]) -> f64 {
        all.iter().map(|s| s.compute_time).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let a = CommStats {
            msgs_sent: 1,
            bytes_sent: 10,
            comm_time: 0.5,
            ..Default::default()
        };
        let b = CommStats {
            msgs_sent: 2,
            bytes_sent: 20,
            compute_time: 1.0,
            ..Default::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.msgs_sent, 3);
        assert_eq!(m.bytes_sent, 30);
        assert_eq!((m.comm_time, m.compute_time), (0.5, 1.0));
    }

    #[test]
    fn sum_and_maxes() {
        let all = vec![
            CommStats {
                comm_time: 1.0,
                compute_time: 3.0,
                bytes_sent: 5,
                ..Default::default()
            },
            CommStats {
                comm_time: 2.0,
                compute_time: 1.0,
                bytes_put: 7,
                ..Default::default()
            },
        ];
        let s = CommStats::sum(&all);
        assert_eq!(s.bytes_moved(), 12);
        assert_eq!(CommStats::max_comm_time(&all), 2.0);
        assert_eq!(CommStats::max_compute_time(&all), 3.0);
    }

    #[test]
    fn merge_identity_and_sum_consistency() {
        let a = CommStats {
            msgs_sent: 4,
            bytes_sent: 44,
            msgs_recv: 3,
            bytes_recv: 33,
            puts: 2,
            bytes_put: 22,
            collectives: 1,
            comm_time: 0.75,
            compute_time: 2.5,
            savings: ExchangeSavings {
                bytes_on_demand: 14,
                bytes_full_ghost: 160,
                dirty_sites: 1,
                candidate_sites: 10,
            },
        };
        // Default is the identity of merge.
        assert_eq!(a.merge(&CommStats::default()), a);
        assert_eq!(CommStats::default().merge(&a), a);
        // sum of an empty slice is the identity; singleton is itself.
        assert_eq!(CommStats::sum(&[]), CommStats::default());
        assert_eq!(CommStats::sum(&[a]), a);
        // sum agrees with folded merge.
        let b = CommStats {
            collectives: 7,
            comm_time: 0.25,
            ..Default::default()
        };
        assert_eq!(CommStats::sum(&[a, b, a]), a.merge(&b).merge(&a));
    }

    #[test]
    fn savings_ratios() {
        let s = ExchangeSavings {
            bytes_on_demand: 26,
            bytes_full_ghost: 1000,
            dirty_sites: 3,
            candidate_sites: 100,
        };
        assert_eq!(s.volume_ratio(), Some(0.026));
        assert_eq!(s.dirty_fraction(), Some(0.03));
        assert_eq!(ExchangeSavings::default().volume_ratio(), None);
        assert_eq!(ExchangeSavings::default().dirty_fraction(), None);
        let m = s.merge(&s);
        assert_eq!(m.bytes_on_demand, 52);
        assert_eq!(m.volume_ratio(), Some(0.026));
    }
}
