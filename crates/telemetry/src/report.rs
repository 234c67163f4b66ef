//! The final serializable report.
//!
//! A [`RunReport`] is the [`crate::RunFold`]'s view of the event stream:
//! spans, named counters, samples, series, and the per-rank comm
//! deposits ([`RankComm`] records) with their pairwise flow matrices.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::event::{KmcCycleSample, MdStepSample, RankComm};

/// One retained point of a science series.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SeriesPoint {
    /// Domain time index (MD step, KMC cycle, phase ordinal).
    pub t: u64,
    /// Sampled value.
    pub value: f64,
}

/// One `(rank, name)` science time-series track, points in push order
/// (which the run fold guarantees is non-decreasing in `t`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SeriesTrack {
    /// Series name (dotted, e.g. `census.frenkel_pairs`).
    pub name: String,
    /// Emitting rank; `None` for driver/untagged threads.
    pub rank: Option<u32>,
    /// The samples, monotonic in `t`.
    pub points: Vec<SeriesPoint>,
}

impl SeriesTrack {
    /// Last sampled value, if any point was pushed.
    pub fn last_value(&self) -> Option<f64> {
        self.points.last().map(|p| p.value)
    }
}

/// Statistics of one span path (times in seconds).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanReport {
    /// Full `a/b/c` call path.
    pub path: String,
    /// Times the span closed.
    pub count: u64,
    /// Total wall time across all closes.
    pub total_s: f64,
    /// Total minus time attributed to child spans.
    pub self_s: f64,
}

/// Retained MD/KMC samples, in deposit order.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SampleLog {
    /// Per-step MD samples.
    pub md: Vec<MdStepSample>,
    /// Per-cycle KMC samples.
    pub kmc: Vec<KmcCycleSample>,
}

/// One simulated rank's view of the run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RankReport {
    /// Rank id.
    pub rank: u32,
    /// Span statistics of work tagged to this rank, sorted by path.
    pub spans: Vec<SpanReport>,
    /// The rank's communication counters, when deposited.
    pub comm: Option<mmds_swmpi::CommStats>,
    /// The rank's pairwise flows, when deposited.
    pub matrix: Option<mmds_swmpi::CommMatrix>,
}

/// Load balance of one span path across tagged ranks. A rank that
/// never entered the phase contributes 0 to `avg_s`/`min_s`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseImbalance {
    /// Full `a/b/c` span path.
    pub path: String,
    /// Tagged ranks considered (the whole observed world).
    pub ranks: u64,
    /// Slowest rank's total wall time in this phase (s).
    pub max_s: f64,
    /// Mean over all tagged ranks (s).
    pub avg_s: f64,
    /// Fastest rank's total (s); 0 when some rank skipped the phase.
    pub min_s: f64,
    /// `max_s / avg_s`; 1.0 is perfectly balanced.
    pub ratio: f64,
}

/// Everything a run produced: span timings, named counters, samples,
/// and the per-rank breakdown.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Span statistics aggregated over ranks, sorted by path.
    pub spans: Vec<SpanReport>,
    /// Named counters (`name -> accumulated value`).
    pub counters: BTreeMap<String, f64>,
    /// Retained samples.
    pub samples: SampleLog,
    /// Per-rank breakdowns, sorted by rank id. Empty when nothing was
    /// rank-tagged (serial runs).
    pub ranks: Vec<RankReport>,
    /// Per-phase load-balance table over the tagged ranks, sorted by
    /// descending `max_s`.
    pub imbalance: Vec<PhaseImbalance>,
    /// Science time-series tracks, sorted by `(name, rank)`.
    pub series: Vec<SeriesTrack>,
}

impl RunReport {
    /// Sum of wall time over top-level (root) spans — the quantity that
    /// should track total run wall time when instrumentation covers the
    /// whole run.
    pub fn root_total_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| !s.path.contains('/'))
            .map(|s| s.total_s)
            .sum()
    }

    /// Assembles the per-rank [`mmds_swmpi::WorldMatrix`] from the rank
    /// reports, or `None` when no rank deposited a matrix. Ranks are
    /// placed by their id, so gaps become empty rows.
    pub fn world_matrix(&self) -> Option<mmds_swmpi::WorldMatrix> {
        let n = self
            .ranks
            .iter()
            .filter(|r| r.matrix.is_some())
            .map(|r| r.rank + 1)
            .max()? as usize;
        let mut mats = vec![mmds_swmpi::CommMatrix::default(); n];
        for r in &self.ranks {
            if let Some(m) = &r.matrix {
                mats[r.rank as usize] = m.clone();
            }
        }
        Some(mmds_swmpi::WorldMatrix::from_ranks(&mats))
    }
}

impl RunReport {
    /// Completes a fold's report with its per-rank view: fills `ranks`
    /// from the per-rank span table and the folded comm deposits, and
    /// the per-phase `imbalance` over those ranks.
    pub(crate) fn with_ranks(
        mut self,
        rank_spans: &[(Option<u32>, SpanReport)],
        comm: &BTreeMap<u32, RankComm>,
    ) -> RunReport {
        // Gather the set of tagged ranks seen by either input.
        let mut rank_ids: Vec<u32> = rank_spans
            .iter()
            .filter_map(|(r, _)| *r)
            .chain(comm.keys().copied())
            .collect();
        rank_ids.sort_unstable();
        rank_ids.dedup();

        self.ranks = rank_ids
            .iter()
            .map(|&rank| {
                let spans: Vec<SpanReport> = rank_spans
                    .iter()
                    .filter(|(r, _)| *r == Some(rank))
                    .map(|(_, s)| s.clone())
                    .collect();
                let deposit = comm.get(&rank);
                RankReport {
                    rank,
                    spans,
                    comm: deposit.map(|d| d.stats),
                    matrix: deposit.and_then(|d| d.matrix.clone()),
                }
            })
            .collect();

        // Per-phase imbalance over the tagged ranks.
        let n = rank_ids.len() as u64;
        if n > 0 {
            let mut paths: Vec<&str> = rank_spans
                .iter()
                .filter(|(r, _)| r.is_some())
                .map(|(_, s)| s.path.as_str())
                .collect();
            paths.sort_unstable();
            paths.dedup();
            for path in paths {
                let mut per_rank = vec![0.0f64; rank_ids.len()];
                for (r, s) in rank_spans {
                    if let (true, Some(r)) = (s.path == path, r) {
                        if let Ok(i) = rank_ids.binary_search(r) {
                            per_rank[i] += s.total_s;
                        }
                    }
                }
                let max_s = per_rank.iter().copied().fold(0.0, f64::max);
                let min_s = per_rank.iter().copied().fold(f64::INFINITY, f64::min);
                let avg_s = per_rank.iter().sum::<f64>() / n as f64;
                self.imbalance.push(PhaseImbalance {
                    path: path.to_string(),
                    ranks: n,
                    max_s,
                    avg_s,
                    min_s,
                    ratio: if avg_s > 0.0 { max_s / avg_s } else { 1.0 },
                });
            }
            self.imbalance.sort_by(|a, b| b.max_s.total_cmp(&a.max_s));
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, Record, SeriesSample};
    use crate::RunFold;

    fn fold(events: Vec<(Option<u32>, Event)>) -> RunFold {
        let mut fold = RunFold::default();
        for (seq, (rank, event)) in events.into_iter().enumerate() {
            fold.fold(&Record {
                seq: seq as u64,
                t_ns: 10 * seq as u64,
                rank,
                tid: Some(0),
                event,
            });
        }
        fold
    }

    fn series(name: &str, t: u64, value: f64) -> Event {
        Event::Series(SeriesSample {
            name: name.into(),
            t,
            value,
        })
    }

    fn comm(rank: u32, bytes_sent: u64, matrix: Option<mmds_swmpi::CommMatrix>) -> Event {
        Event::RankComm(RankComm {
            rank,
            stats: mmds_swmpi::CommStats {
                bytes_sent,
                ..Default::default()
            },
            matrix,
        })
    }

    #[test]
    fn run_report_serializes_and_round_trips() {
        let report = RunReport {
            spans: vec![SpanReport {
                path: "coupled.run".into(),
                count: 1,
                total_s: 1.5,
                self_s: 0.25,
            }],
            counters: BTreeMap::from([("kmc.ghost_bytes".to_string(), 192.0)]),
            samples: SampleLog {
                md: vec![MdStepSample {
                    step: 1,
                    kinetic: 2.0,
                    ..Default::default()
                }],
                kmc: vec![],
            },
            ranks: vec![RankReport {
                rank: 2,
                spans: vec![],
                comm: Some(mmds_swmpi::CommStats {
                    bytes_sent: 99,
                    ..Default::default()
                }),
                matrix: None,
            }],
            imbalance: vec![PhaseImbalance {
                path: "coupled.run".into(),
                ranks: 4,
                max_s: 1.0,
                avg_s: 0.5,
                min_s: 0.25,
                ratio: 2.0,
            }],
            series: vec![SeriesTrack {
                name: "census.frenkel_pairs".into(),
                rank: Some(1),
                points: vec![
                    SeriesPoint { t: 0, value: 0.0 },
                    SeriesPoint { t: 10, value: 4.0 },
                ],
            }],
        };
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert_eq!(report.root_total_s(), 1.5);
    }

    #[test]
    fn per_rank_comm_entries_are_retained_not_folded() {
        let report = fold(vec![
            (None, comm(0, 100, None)),
            (Some(1), comm(1, 300, None)),
        ])
        .report();
        let sent: Vec<(u32, u64)> = report
            .ranks
            .iter()
            .map(|r| (r.rank, r.comm.unwrap().bytes_sent))
            .collect();
        assert_eq!(sent, vec![(0, 100), (1, 300)]);
        assert!(report.ranks.iter().all(|r| r.matrix.is_none()));
    }

    #[test]
    fn repeated_rank_deposits_merge_in_rank_report() {
        // One process, two worlds: rank 0 deposits twice (as a
        // weak-scaling sweep does). The report must merge the two
        // records in record order, not pick the first.
        let mut rec_a = mmds_swmpi::matrix::MatrixRecorder::default();
        rec_a.record_send(0, 50);
        rec_a.record_recv(0, 50);
        let mut rec_b = mmds_swmpi::matrix::MatrixRecorder::default();
        rec_b.record_send(1, 100);
        let mut rec_c = mmds_swmpi::matrix::MatrixRecorder::default();
        rec_c.record_recv(0, 100);
        let report = fold(vec![
            (Some(0), comm(0, 50, Some(rec_a.snapshot(0)))),
            (Some(0), comm(0, 100, Some(rec_b.snapshot(0)))),
            (Some(1), comm(1, 0, Some(rec_c.snapshot(1)))),
        ])
        .report();
        assert_eq!(report.ranks.len(), 2);
        assert_eq!(report.ranks[0].comm.unwrap().bytes_sent, 150);
        let mut merged = rec_a.snapshot(0);
        merged.merge(&rec_b.snapshot(0));
        assert_eq!(report.ranks[0].matrix, Some(merged));
        assert_eq!(report.ranks[0].matrix.as_ref().unwrap().bytes_out(), 150);
        // The merged world view stays pairwise symmetric.
        let w = report.world_matrix().unwrap();
        w.validate_symmetry().expect("merged deposits symmetric");
        assert_eq!(w.bytes(0, 1), 100);
    }

    #[test]
    fn series_tracks_are_deterministic_and_monotonic() {
        // Interleaved points across ranks and names; equal t on one
        // track is allowed (same-step resample).
        let fold = fold(vec![
            (Some(1), series("census.vacancies", 0, 5.0)),
            (Some(0), series("census.vacancies", 0, 3.0)),
            (None, series("kmc.ondemand.dirty_fraction", 1, 0.25)),
            (Some(0), series("census.vacancies", 10, 4.0)),
            (Some(1), series("census.vacancies", 10, 6.0)),
            (Some(0), series("census.vacancies", 10, 4.0)),
        ]);
        let tracks = fold.report().series;
        // Sorted by (name, rank); rank None sorts before Some.
        let keys: Vec<(&str, Option<u32>)> =
            tracks.iter().map(|t| (t.name.as_str(), t.rank)).collect();
        assert_eq!(
            keys,
            vec![
                ("census.vacancies", Some(0)),
                ("census.vacancies", Some(1)),
                ("kmc.ondemand.dirty_fraction", None),
            ]
        );
        assert_eq!(tracks[0].points.len(), 3);
        assert_eq!(tracks[0].last_value(), Some(4.0));
    }

    #[test]
    #[should_panic(expected = "not monotonic")]
    fn series_rejects_decreasing_t() {
        let tel = crate::Telemetry::with_mode(crate::Mode::Summary);
        tel.emit(series("census.vacancies", 5, 1.0));
        tel.emit(series("census.vacancies", 4, 1.0));
    }

    #[test]
    fn build_run_report_computes_imbalance() {
        let close = |path: &str, s: u64| Event::SpanClose {
            path: path.into(),
            dur_ns: s * 250_000_000,
        };
        let fold = fold(vec![
            (Some(0), close("md.phase", 12)),
            (Some(1), close("md.phase", 4)),
            (Some(0), close("kmc.phase", 2)),
            (None, close("driver.io", 36)), // untagged: excluded
            (None, comm(0, 0, None)),
            (None, comm(1, 0, None)),
        ]);
        let report = fold.report();
        assert_eq!(report.ranks.len(), 2);
        assert_eq!(report.ranks[0].rank, 0);
        assert_eq!(report.ranks[0].spans.len(), 2);
        let md = report
            .imbalance
            .iter()
            .find(|p| p.path == "md.phase")
            .unwrap();
        assert_eq!(md.ranks, 2);
        assert_eq!(md.max_s, 3.0);
        assert_eq!(md.avg_s, 2.0);
        assert_eq!(md.min_s, 1.0);
        assert!((md.ratio - 1.5).abs() < 1e-12);
        // Rank 1 never entered kmc.phase: min is 0, avg counts it.
        let kmc = report
            .imbalance
            .iter()
            .find(|p| p.path == "kmc.phase")
            .unwrap();
        assert_eq!(kmc.min_s, 0.0);
        assert_eq!(kmc.avg_s, 0.25);
        assert!(!report.imbalance.iter().any(|p| p.path == "driver.io"));
        // Sorted by descending max_s.
        assert_eq!(report.imbalance[0].path, "md.phase");
    }
}
