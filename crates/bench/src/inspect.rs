//! Run-inspector logic behind the `mmds-inspect` binary.
//!
//! Loads a [`RunReport`] (`<stem>.telemetry.json`) or a raw JSONL
//! trace, and renders the rank-resolved views the paper's evaluation
//! leans on: per-phase load-imbalance, the pairwise communication
//! matrix, and the local hot-path breakdown.

use std::fmt::Write as _;

use mmds_telemetry::{PhaseImbalance, Record, RunFold, RunReport, SpanReport};

/// Loads a [`RunReport`] from pretty or compact JSON.
pub fn load_report(text: &str) -> Result<RunReport, String> {
    serde_json::from_str(text).map_err(|e| format!("not a RunReport: {e}"))
}

/// Reconstructs a [`RunReport`] from a record stream by folding it
/// through [`RunFold`] — the fold the producing process itself
/// reports from, and the one `watch` and `causal` use, so they all
/// agree by construction.
pub fn report_from_records(records: &[Record]) -> RunReport {
    let mut fold = RunFold::default();
    for r in records {
        fold.fold(r);
    }
    fold.report()
}

/// Renders the per-phase load-imbalance table (worst ratio first).
pub fn imbalance_table(imbalance: &[PhaseImbalance]) -> String {
    if imbalance.is_empty() {
        return "no rank-tagged spans (serial run?)\n".to_string();
    }
    let mut rows = Vec::new();
    for p in imbalance {
        rows.push(vec![
            p.path.clone(),
            p.ranks.to_string(),
            format!("{:.4}", p.max_s),
            format!("{:.4}", p.avg_s),
            format!("{:.4}", p.min_s),
            format!("{:.2}", p.ratio),
        ]);
    }
    mmds_analysis::io::render_table(
        &["phase", "ranks", "max_s", "avg_s", "min_s", "max/avg"],
        &rows,
    )
}

/// Renders the pairwise communication matrix as a heatline block, with
/// the pairwise send/recv symmetry verdict.
pub fn comm_matrix_view(report: &RunReport) -> String {
    let Some(w) = report.world_matrix() else {
        return "no comm matrices recorded\n".to_string();
    };
    let mut out = String::new();
    let _ = writeln!(out, "src→dst bytes ({} ranks):", w.n_ranks());
    out.push_str(&w.heatline());
    match w.validate_symmetry() {
        Ok(()) => {
            let _ = writeln!(out, "pairwise symmetry: OK ({} B total)", w.total_bytes());
        }
        Err(errs) => {
            let _ = writeln!(out, "pairwise symmetry: {} VIOLATION(S)", errs.len());
            for e in errs.iter().take(8) {
                let _ = writeln!(out, "  {e}");
            }
        }
    }
    out
}

/// The chain of spans from a root to a leaf, following the child with
/// the largest total at each level — the run's *local hot path* by
/// aggregate wall time. This is a single-rank view: it says where
/// time went, not what the run waited on. For the cross-rank critical
/// path over matched message edges, see [`crate::causal`] /
/// `mmds-inspect causal`.
pub fn local_hot_path(spans: &[SpanReport]) -> Vec<SpanReport> {
    let mut path = Vec::new();
    let Some(mut cur) = spans
        .iter()
        .filter(|s| !s.path.contains('/'))
        .max_by(|a, b| a.total_s.total_cmp(&b.total_s))
    else {
        return path;
    };
    path.push(cur.clone());
    loop {
        let prefix = format!("{}/", cur.path);
        let next = spans
            .iter()
            .filter(|s| s.path.starts_with(&prefix) && !s.path[prefix.len()..].contains('/'))
            .max_by(|a, b| a.total_s.total_cmp(&b.total_s));
        match next {
            Some(n) => {
                path.push(n.clone());
                cur = n;
            }
            None => break,
        }
    }
    path
}

/// Renders the local hot path with each hop's share of the root total.
pub fn local_hot_path_view(spans: &[SpanReport]) -> String {
    let path = local_hot_path(spans);
    let Some(root) = path.first() else {
        return "no spans recorded\n".to_string();
    };
    let root_s = root.total_s.max(1e-12);
    let mut out = String::new();
    for (depth, s) in path.iter().enumerate() {
        let leaf = s.path.rsplit('/').next().unwrap_or(&s.path);
        let _ = writeln!(
            out,
            "{:indent$}{leaf:<24} {:>10.4} s  {:>5.1}%  ×{}",
            "",
            s.total_s,
            100.0 * s.total_s / root_s,
            s.count,
            indent = depth * 2,
        );
    }
    out
}

/// Health counters (`*.health.*`) with non-zero values, one per line.
pub fn health_view(report: &RunReport) -> String {
    let mut out = String::new();
    for (name, v) in &report.counters {
        if name.contains(".health.") && *v > 0.0 {
            let _ = writeln!(out, "  {name} = {v}");
        }
    }
    if out.is_empty() {
        out.push_str("  all clear\n");
    }
    out
}

/// KMC solver cost per executed event, from the per-cycle
/// `kmc.rate.*` counters and the KMC cycle samples; empty when the run
/// recorded no KMC events.
pub fn kmc_solver_cost_view(report: &RunReport) -> String {
    let named = &report.counters;
    let evals = |name: &str| named.get(name).copied().unwrap_or(0.0);
    let events: u64 = report.samples.kmc.iter().map(|s| s.events).sum();
    if events == 0 {
        return String::new();
    }
    let per_event = |name: &str| evals(name) / events as f64;
    format!(
        "  kmc solver: {:.1} site evals/event modelled, {:.1} computed by the host \
         ({:.1} from shell tables), {:.2} rate evals/event over {events} events\n",
        per_event("kmc.rate.site_evals"),
        per_event("kmc.rate.host_site_evals"),
        per_event("kmc.rate.shell_hits"),
        per_event("kmc.rate.rate_evals"),
    )
}

/// The full `mmds-inspect summary` rendering.
pub fn summary(report: &RunReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "run: {} span paths, {} tagged ranks, {} MD samples, {} KMC samples",
        report.spans.len(),
        report.ranks.len(),
        report.samples.md.len(),
        report.samples.kmc.len(),
    );
    let _ = writeln!(out, "root wall time: {:.4} s", report.root_total_s());
    out.push_str("\n-- per-phase imbalance (max/avg over ranks) --\n");
    out.push_str(&imbalance_table(&report.imbalance));
    out.push_str("\n-- comm matrix --\n");
    out.push_str(&comm_matrix_view(report));
    out.push_str("\n-- local hot path (cross-rank: `mmds-inspect causal`) --\n");
    out.push_str(&local_hot_path_view(&report.spans));
    out.push_str("\n-- physics health --\n");
    out.push_str(&health_view(report));
    out.push_str(&kmc_solver_cost_view(report));
    out
}

/// Unicode block ramp used by [`sparkline`].
const SPARK_RAMP: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders `values` as a one-line terminal sparkline, min–max
/// normalised, downsampled to at most `width` glyphs (bucket maxima,
/// so transient peaks survive the downsampling).
pub fn sparkline(values: &[f64], width: usize) -> String {
    if values.is_empty() || width == 0 {
        return String::new();
    }
    let buckets: Vec<f64> = if values.len() <= width {
        values.to_vec()
    } else {
        (0..width)
            .map(|i| {
                let lo = i * values.len() / width;
                let hi = ((i + 1) * values.len() / width).max(lo + 1);
                values[lo..hi]
                    .iter()
                    .cloned()
                    .fold(f64::NEG_INFINITY, f64::max)
            })
            .collect()
    };
    let min = buckets.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = buckets.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = max - min;
    buckets
        .iter()
        .map(|v| {
            let idx = if span > 0.0 {
                (((v - min) / span) * 7.0).round() as usize
            } else {
                3
            };
            SPARK_RAMP[idx.min(7)]
        })
        .collect()
}

/// The `mmds-inspect timeline` rendering: per-track sparklines of the
/// science series, the defect-budget table, and the on-demand
/// comm-savings summary against the analytic full-ghost baseline.
pub fn timeline(report: &RunReport) -> String {
    let mut out = String::new();
    out.push_str("-- defect evolution (series) --\n");
    if report.series.is_empty() {
        out.push_str("  no series recorded (enable telemetry and a census cadence)\n");
    } else {
        for track in &report.series {
            let values: Vec<f64> = track.points.iter().map(|p| p.value).collect();
            let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let label = match track.rank {
                Some(r) => format!("{}@{r}", track.name),
                None => track.name.clone(),
            };
            let _ = writeln!(
                out,
                "  {label:<34} {:<48}  n={:<4} min={min:<12.4} max={max:<12.4} last={:.4}",
                sparkline(&values, 48),
                values.len(),
                track.last_value().unwrap_or(0.0),
            );
        }
    }

    out.push_str("\n-- defect budget --\n");
    let last = |name: &str| -> Option<f64> {
        report
            .series
            .iter()
            .find(|t| t.name == name)
            .and_then(|t| t.last_value())
    };
    let named = &report.counters;
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut push = |what: &str, v: Option<f64>| {
        if let Some(v) = v {
            rows.push(vec![what.to_string(), format!("{v}")]);
        }
    };
    push("census vacancies (last)", last("census.vacancies"));
    push("census interstitials (last)", last("census.interstitials"));
    push("census Frenkel pairs (last)", last("census.frenkel_pairs"));
    push(
        "census largest cluster (last)",
        last("census.largest_cluster"),
    );
    push(
        "census vacancy concentration (last)",
        last("census.vacancy_concentration"),
    );
    push(
        "handoff MD vacancies out",
        named.get("coupled.handoff.md_vacancies").copied(),
    );
    push(
        "handoff placed into KMC",
        named.get("coupled.handoff.placed").copied(),
    );
    push(
        "handoff debris seeded",
        named.get("coupled.handoff.seeded").copied(),
    );
    push(
        "handoff interstitials dropped",
        named.get("coupled.handoff.interstitials_dropped").copied(),
    );
    push("handoff defect delta", last("coupled.handoff.delta"));
    if rows.is_empty() {
        out.push_str("  no defect accounting recorded\n");
    } else {
        out.push_str(&mmds_analysis::io::render_table(
            &["quantity", "value"],
            &rows,
        ));
    }

    out.push_str("\n-- comm savings (on-demand vs full-ghost baseline) --\n");
    let bytes = named.get("kmc.ghost_bytes").copied().unwrap_or(0.0);
    let baseline = named
        .get("kmc.exchange.baseline_bytes")
        .copied()
        .unwrap_or(0.0);
    let dirty = named
        .get("kmc.exchange.dirty_sites")
        .copied()
        .unwrap_or(0.0);
    let cand = named
        .get("kmc.exchange.candidate_sites")
        .copied()
        .unwrap_or(0.0);
    if baseline > 0.0 {
        let _ = writeln!(out, "  bytes sent         : {bytes:.0}");
        let _ = writeln!(out, "  full-ghost baseline: {baseline:.0}");
        let _ = writeln!(
            out,
            "  volume ratio       : {:.4} (paper Fig. 12 reference: {})",
            bytes / baseline,
            crate::paper::FIG12_VOLUME_RATIO,
        );
        if cand > 0.0 {
            let _ = writeln!(
                out,
                "  dirty-site fraction: {:.4} ({dirty:.0} of {cand:.0} candidate sites)",
                dirty / cand,
            );
        }
    } else {
        out.push_str("  no exchange accounting recorded\n");
    }
    let mut any = false;
    for r in &report.ranks {
        let Some(c) = &r.comm else { continue };
        let s = c.savings;
        if let Some(ratio) = s.volume_ratio() {
            if !any {
                out.push_str("  per-rank measured savings:\n");
                any = true;
            }
            let _ = writeln!(
                out,
                "    rank {:>3}: {} / {} B  ratio {ratio:.4}  dirty {:.4}",
                r.rank,
                s.bytes_on_demand,
                s.bytes_full_ghost,
                s.dirty_fraction().unwrap_or(0.0),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmds_telemetry::{Event, RankComm};

    #[test]
    fn local_hot_path_follows_heaviest_child() {
        let mk = |p: &str, t: f64| SpanReport {
            path: p.into(),
            count: 1,
            total_s: t,
            self_s: t,
        };
        let spans = vec![
            mk("run", 10.0),
            mk("run/md", 7.0),
            mk("run/kmc", 3.0),
            mk("run/md/force", 6.0),
            mk("run/md/ghost", 1.0),
        ];
        let path = local_hot_path(&spans);
        let names: Vec<_> = path.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(names, vec!["run", "run/md", "run/md/force"]);
        let view = local_hot_path_view(&spans);
        assert!(view.contains("force"));
    }

    #[test]
    fn sparkline_normalises_and_downsamples() {
        assert_eq!(sparkline(&[], 10), "");
        assert_eq!(sparkline(&[1.0, 1.0, 1.0], 10), "▄▄▄");
        let s = sparkline(&[0.0, 7.0], 10);
        assert_eq!(s.chars().count(), 2);
        assert!(s.starts_with('▁') && s.ends_with('█'));
        // 100 points into 10 glyphs, peaks preserved by bucket-max.
        let mut v = vec![0.0; 100];
        v[55] = 9.0;
        let s = sparkline(&v, 10);
        assert_eq!(s.chars().count(), 10);
        assert_eq!(s.chars().filter(|&c| c == '█').count(), 1);
    }

    fn report_of(events: Vec<Event>) -> RunReport {
        let records: Vec<Record> = events
            .into_iter()
            .enumerate()
            .map(|(seq, event)| Record {
                seq: seq as u64,
                t_ns: seq as u64,
                rank: None,
                tid: Some(0),
                event,
            })
            .collect();
        report_from_records(&records)
    }

    fn counter(name: &str, value: f64) -> Event {
        Event::Counter {
            name: name.into(),
            value,
        }
    }

    #[test]
    fn timeline_renders_series_budget_and_savings() {
        let mut events: Vec<Event> = [(10u64, 2.0), (20, 5.0), (30, 4.0)]
            .into_iter()
            .map(|(t, value)| {
                Event::Series(mmds_telemetry::SeriesSample {
                    name: "census.frenkel_pairs".into(),
                    t,
                    value,
                })
            })
            .collect();
        events.extend([
            counter("kmc.ghost_bytes", 26.0),
            counter("kmc.exchange.baseline_bytes", 1000.0),
            counter("kmc.exchange.dirty_sites", 3.0),
            counter("kmc.exchange.candidate_sites", 100.0),
            counter("coupled.handoff.placed", 7.0),
        ]);
        let text = timeline(&report_of(events));
        assert!(text.contains("census.frenkel_pairs"));
        assert!(text.contains("last=4.0000"), "{text}");
        assert!(text.contains("handoff placed into KMC"));
        assert!(text.contains("volume ratio       : 0.0260"), "{text}");
        assert!(text.contains("dirty-site fraction: 0.0300"), "{text}");
    }

    #[test]
    fn summary_reports_kmc_evals_per_event() {
        assert_eq!(
            kmc_solver_cost_view(&RunReport::default()),
            "",
            "no KMC events, no line"
        );
        let mut events: Vec<Event> = [(1, 3), (2, 1)]
            .into_iter()
            .map(|(cycle, events)| {
                Event::Kmc(mmds_telemetry::KmcCycleSample {
                    cycle,
                    events,
                    ..Default::default()
                })
            })
            .collect();
        events.extend([
            counter("kmc.rate.site_evals", 9000.0),
            counter("kmc.rate.host_site_evals", 5000.0),
            counter("kmc.rate.shell_hits", 4300.0),
            counter("kmc.rate.rate_evals", 26.0),
        ]);
        let text = summary(&report_of(events));
        assert!(
            text.contains(
                "2250.0 site evals/event modelled, 1250.0 computed by the host \
                 (1075.0 from shell tables), 6.50 rate evals/event over 4 events"
            ),
            "{text}"
        );
    }

    #[test]
    fn timeline_degrades_gracefully_without_data() {
        let report = RunReport::default();
        let text = timeline(&report);
        assert!(text.contains("no series recorded"));
        assert!(text.contains("no defect accounting recorded"));
        assert!(text.contains("no exchange accounting recorded"));
    }

    #[test]
    fn report_from_records_rebuilds_rank_spans() {
        let rec = |seq, rank, event| Record {
            seq,
            t_ns: seq * 10,
            rank,
            tid: Some(0),
            event,
        };
        let mut records = vec![
            rec(
                0,
                Some(0),
                Event::SpanClose {
                    path: "md.phase".into(),
                    dur_ns: 2_000_000_000,
                },
            ),
            rec(
                1,
                Some(1),
                Event::SpanClose {
                    path: "md.phase".into(),
                    dur_ns: 1_000_000_000,
                },
            ),
            rec(
                2,
                None,
                Event::Counter {
                    name: "kmc.health.conservation_warn".into(),
                    value: 1.0,
                },
            ),
        ];
        // One comm deposit per rank: rank 0 sends 64 B to rank 1.
        let mut flows = [
            mmds_swmpi::matrix::MatrixRecorder::default(),
            mmds_swmpi::matrix::MatrixRecorder::default(),
        ];
        flows[0].record_send(1, 64);
        flows[1].record_recv(0, 64);
        let deposits: Vec<RankComm> = (0..2u32)
            .map(|rank| RankComm {
                rank,
                stats: mmds_swmpi::CommStats {
                    bytes_sent: 64 * u64::from(rank == 0),
                    bytes_recv: 64 * u64::from(rank == 1),
                    ..Default::default()
                },
                matrix: Some(flows[rank as usize].snapshot(rank as usize)),
            })
            .collect();
        for (seq, d) in (3..).zip(&deposits) {
            records.push(rec(seq, None, Event::RankComm(d.clone())));
        }
        let report = report_from_records(&records);
        assert_eq!(report.ranks.len(), 2);
        for (r, d) in report.ranks.iter().zip(&deposits) {
            assert_eq!(r.comm, Some(d.stats));
            assert_eq!(r.matrix, d.matrix);
        }
        assert!(summary(&report).contains("pairwise symmetry: OK (64 B total)"));
        let md = report
            .imbalance
            .iter()
            .find(|p| p.path == "md.phase")
            .unwrap();
        assert_eq!(md.max_s, 2.0);
        assert_eq!(md.avg_s, 1.5);
        assert!(summary(&report).contains("kmc.health.conservation_warn"));
    }
}
