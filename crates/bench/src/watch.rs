//! The `mmds-inspect watch` live dashboard.
//!
//! Tails a growing JSONL trace with a
//! [`mmds_telemetry::TailReader`], folds it into a
//! [`mmds_telemetry::LiveAggregator`], evaluates the watchdog each
//! poll, and renders a refreshing terminal dashboard: phase progress,
//! per-rank heartbeat ages, the alert feed, and sparkline tails of the
//! science series. `--once` reads to end-of-file (including a
//! complete-but-unterminated final line), prints a single frame, and
//! exits — the scripted/CI mode.

use std::fmt::Write as _;
use std::time::Duration;

use mmds_telemetry::{AlertSeverity, LiveAggregator, TailReader, WatchdogConfig};

/// Options of one `watch` invocation.
#[derive(Debug, Clone, Default)]
pub struct WatchOptions {
    /// Read to EOF, print one frame, exit (no ANSI clearing).
    pub once: bool,
    /// Poll/refresh interval, seconds (live mode).
    pub interval: f64,
    /// Write the alert log as JSONL to this path on every frame.
    pub alerts_out: Option<String>,
}

/// Maximum series tracks shown on the dashboard.
const MAX_SERIES_ROWS: usize = 12;
/// Maximum alert-feed rows shown (newest last).
const MAX_ALERT_ROWS: usize = 10;
/// Maximum span-total rows shown (heaviest first).
const MAX_SPAN_ROWS: usize = 10;

fn fmt_rank(rank: Option<u32>) -> String {
    match rank {
        Some(r) => format!("{r}"),
        None => "driver".to_string(),
    }
}

/// Renders one dashboard frame from the aggregator at stream time
/// `now_ns`.
pub fn render_dashboard(agg: &LiveAggregator, now_ns: u64, path: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "mmds-inspect watch — {path}\n\
         records {}  heartbeats {}  parse errors {}  alerts {}  stream clock {:.3} s  [{}]",
        agg.records(),
        agg.heartbeat_count(),
        agg.parse_errors(),
        agg.alerts().len(),
        now_ns as f64 * 1e-9,
        if agg.healthy() {
            "healthy"
        } else {
            "UNHEALTHY"
        },
    );

    out.push_str("\n-- rank heartbeats --\n");
    if agg.heartbeats().is_empty() {
        out.push_str("  none yet (set MMDS_HEARTBEAT=<n> on the producer)\n");
    } else {
        for ((rank, source), st) in agg.heartbeats() {
            let age_s = now_ns.saturating_sub(st.last_t_ns) as f64 * 1e-9;
            let progress = if st.total > 0 {
                format!("{}/{}", st.progress, st.total)
            } else {
                format!("{}", st.progress)
            };
            let _ = writeln!(
                out,
                "  rank {:<7} {:<20} {:>12}  age {:>8.3} s  {}",
                fmt_rank(*rank),
                source,
                progress,
                age_s,
                if agg.is_stale(*rank) { "STALE" } else { "OK" },
            );
        }
    }

    let open = agg.open_spans();
    out.push_str("\n-- open spans --\n");
    if open.is_empty() {
        out.push_str("  none\n");
    } else {
        for o in &open {
            let _ = writeln!(
                out,
                "  {:<40} rank {:<7} open {:>8.3} s",
                o.path,
                fmt_rank(o.rank),
                now_ns.saturating_sub(o.opened_t_ns) as f64 * 1e-9,
            );
        }
    }

    out.push_str("\n-- span totals (heaviest first) --\n");
    let mut totals = agg.span_totals();
    totals.sort_by(|a, b| b.total_s.total_cmp(&a.total_s));
    if totals.is_empty() {
        out.push_str("  none\n");
    } else {
        for s in totals.iter().take(MAX_SPAN_ROWS) {
            let _ = writeln!(out, "  {:<40} {:>10.4} s  ×{}", s.path, s.total_s, s.count);
        }
        if totals.len() > MAX_SPAN_ROWS {
            let _ = writeln!(out, "  … {} more paths", totals.len() - MAX_SPAN_ROWS);
        }
    }

    out.push_str("\n-- series tails --\n");
    if agg.series_tails().is_empty() {
        out.push_str("  none\n");
    } else {
        for ((name, rank), tail) in agg.series_tails().iter().take(MAX_SERIES_ROWS) {
            let values: Vec<f64> = tail.points.iter().map(|p| p.value).collect();
            let label = match rank {
                Some(r) => format!("{name}@{r}"),
                None => name.clone(),
            };
            let _ = writeln!(
                out,
                "  {label:<34} {:<48}  n={:<5} last={:.4}",
                crate::inspect::sparkline(&values, 48),
                tail.n,
                values.last().copied().unwrap_or(0.0),
            );
        }
        if agg.series_tails().len() > MAX_SERIES_ROWS {
            let _ = writeln!(
                out,
                "  … {} more tracks",
                agg.series_tails().len() - MAX_SERIES_ROWS
            );
        }
    }

    out.push_str("\n-- alert feed --\n");
    if agg.alerts().is_empty() {
        out.push_str("  none\n");
    } else {
        let alerts = agg.alerts();
        let skip = alerts.len().saturating_sub(MAX_ALERT_ROWS);
        if skip > 0 {
            let _ = writeln!(out, "  … {skip} earlier alerts");
        }
        for a in &alerts[skip..] {
            let active = agg
                .active_alerts()
                .contains(&(a.rule.clone(), a.subject.clone()));
            let _ = writeln!(
                out,
                "  [{:>4}] {:>9.3} s  {} {}: {}{}",
                a.severity.as_str(),
                a.t_ns as f64 * 1e-9,
                a.rule,
                a.subject,
                a.message,
                if active { "  (active)" } else { "" },
            );
        }
    }
    out
}

fn write_alerts_jsonl(path: &str, agg: &LiveAggregator) {
    let mut text = String::new();
    for a in agg.alerts() {
        match serde_json::to_string(a) {
            Ok(line) => {
                text.push_str(&line);
                text.push('\n');
            }
            Err(_) => continue,
        }
    }
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("mmds-inspect: cannot write {path}: {e}");
    }
}

/// Runs the watch loop over `path`. Returns the process exit code:
/// 0 when the stream ended (or `--once` finished) healthy, 1 when any
/// `Crit` alert was raised at any point.
pub fn run_watch(path: &str, opts: &WatchOptions) -> i32 {
    let mut agg = if opts.once {
        LiveAggregator::retaining(WatchdogConfig::default())
    } else {
        LiveAggregator::live(WatchdogConfig::default())
    };
    let mut tail = TailReader::new(path);
    let mut had_crit = false;
    loop {
        let records = match tail.poll() {
            Ok(r) => r,
            Err(e) => {
                eprintln!("mmds-inspect: cannot read {path}: {e}");
                return 2;
            }
        };
        for r in &records {
            agg.fold(r);
            agg.evaluate(r.t_ns);
        }
        if opts.once {
            // End-of-stream: a final record without a trailing newline
            // still counts.
            if let Some(r) = tail.finish() {
                agg.fold(&r);
                agg.evaluate(r.t_ns);
            }
        } else {
            // Between records, age heartbeats on the stream-clock
            // estimate of now so a stall is noticed without new input.
            let now = agg.now_ns();
            agg.evaluate(now);
        }
        agg.note_parse_errors(tail.parse_errors());
        had_crit |= agg
            .alerts()
            .iter()
            .any(|a| a.severity == AlertSeverity::Crit);

        let frame = render_dashboard(&agg, agg.now_ns(), path);
        if let Some(out) = &opts.alerts_out {
            write_alerts_jsonl(out, &agg);
        }
        if opts.once {
            print!("{frame}");
            break;
        }
        // ANSI clear + home, then the frame.
        print!("\x1b[2J\x1b[H{frame}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        std::thread::sleep(Duration::from_secs_f64(opts.interval.max(0.05)));
    }
    i32::from(had_crit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmds_telemetry::{Event, HeartbeatSample, Record};

    #[test]
    fn dashboard_renders_all_sections() {
        let mut agg = LiveAggregator::retaining(WatchdogConfig::default());
        agg.fold(&Record {
            seq: 0,
            t_ns: 1_000,
            rank: Some(0),
            tid: Some(0),
            event: Event::Heartbeat(HeartbeatSample {
                source: "kmc.heartbeat".into(),
                progress: 4,
                total: 0,
            }),
        });
        agg.fold(&Record {
            seq: 1,
            t_ns: 2_000,
            rank: Some(0),
            tid: Some(0),
            event: Event::SpanOpen {
                path: "kmc.phase".into(),
            },
        });
        let text = render_dashboard(&agg, 10_000, "trace.jsonl");
        for needle in [
            "rank heartbeats",
            "kmc.heartbeat",
            "open spans",
            "kmc.phase",
            "span totals",
            "series tails",
            "alert feed",
            "healthy",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn watch_once_exits_zero_on_quiet_stream() {
        let dir = std::env::temp_dir().join("mmds_watch_once_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let r = Record {
            seq: 0,
            t_ns: 10,
            rank: None,
            tid: Some(0),
            event: Event::SpanClose {
                path: "run".into(),
                dur_ns: 5,
            },
        };
        // No trailing newline: --once must still pick the record up.
        std::fs::write(&path, r.to_jsonl()).unwrap();
        let alerts = dir.join("alerts.jsonl");
        let code = run_watch(
            path.to_str().unwrap(),
            &WatchOptions {
                once: true,
                alerts_out: Some(alerts.to_str().unwrap().to_string()),
                ..Default::default()
            },
        );
        assert_eq!(code, 0);
        // The alert log exists (and is empty — nothing fired).
        assert_eq!(std::fs::read_to_string(&alerts).unwrap(), "");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
