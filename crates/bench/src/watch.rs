//! The `mmds-inspect watch` live dashboard.
//!
//! Tails a growing JSONL trace with a
//! [`mmds_telemetry::TailReader`], folds it into a
//! [`mmds_telemetry::RunFold`] (the fold the producing process reports
//! from), evaluates the [`mmds_telemetry::Watchdog`] after each record,
//! and renders a refreshing terminal dashboard: phase progress,
//! per-rank heartbeat ages, the alert feed, and sparklines of the
//! science series. `--once` reads to end-of-file (including a
//! complete-but-unterminated final line), prints a single frame, and
//! exits — the scripted/CI mode.

use std::fmt::Write as _;
use std::time::Duration;

use mmds_telemetry::{AlertSeverity, RunFold, TailReader, Watchdog};

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

/// Renders one dashboard frame from the fold and its watchdog at
/// stream time `now_ns`.
pub fn render_dashboard(fold: &RunFold, dog: &Watchdog, now_ns: u64, path: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "mmds-inspect watch — {path}\n\
         records {}  heartbeats {}  parse errors {}  series points dropped {}  alerts {}  \
         stream clock {:.3} s  [{}]",
        fold.records(),
        fold.heartbeat_count(),
        fold.parse_errors(),
        fold.series_dropped(),
        dog.alerts().len(),
        now_ns as f64 * 1e-9,
        if dog.healthy() {
            "healthy"
        } else {
            "UNHEALTHY"
        },
    );

    out.push_str("\n-- rank heartbeats --\n");
    if fold.heartbeats().is_empty() {
        out.push_str("  none yet (run the producer with MMDS_TELEMETRY=jsonl:<path>)\n");
    } else {
        for ((rank, source), st) in fold.heartbeats() {
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
                if dog.is_stale(*rank) { "STALE" } else { "OK" },
            );
        }
    }

    let open = fold.open_spans();
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
    let mut totals = fold.span_totals();
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

    out.push_str("\n-- series --\n");
    let series = fold.series();
    if series.is_empty() {
        out.push_str("  none\n");
    } else {
        for ((name, rank), points) in series.iter().take(MAX_SERIES_ROWS) {
            let values: Vec<f64> = points.iter().map(|p| p.value).collect();
            let label = match rank {
                Some(r) => format!("{name}@{r}"),
                None => name.clone(),
            };
            let _ = writeln!(
                out,
                "  {label:<34} {:<48}  n={:<5} last={:.4}",
                crate::inspect::sparkline(&values, 48),
                values.len(),
                values.last().copied().unwrap_or(0.0),
            );
        }
        if series.len() > MAX_SERIES_ROWS {
            let _ = writeln!(out, "  … {} more tracks", series.len() - MAX_SERIES_ROWS);
        }
    }

    out.push_str("\n-- alert feed --\n");
    if dog.alerts().is_empty() {
        out.push_str("  none\n");
    } else {
        let alerts = dog.alerts();
        let skip = alerts.len().saturating_sub(MAX_ALERT_ROWS);
        if skip > 0 {
            let _ = writeln!(out, "  … {skip} earlier alerts");
        }
        for a in &alerts[skip..] {
            let active = dog
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

fn write_alerts_jsonl(path: &str, dog: &Watchdog) {
    let mut text = String::new();
    for a in dog.alerts() {
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
    let mut fold = RunFold::default();
    let mut dog = Watchdog::default();
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
        // End-of-stream: a final record without a trailing newline
        // still counts.
        let last = opts.once.then(|| tail.finish()).flatten();
        for r in records.iter().chain(&last) {
            fold.fold(r);
            dog.evaluate(&fold, r.t_ns);
        }
        if !opts.once {
            // Between records, age heartbeats on the stream-clock
            // estimate of now so a stall is noticed without new input.
            dog.evaluate(&fold, fold.now_ns());
        }
        fold.note_parse_errors(tail.parse_errors());
        had_crit |= dog
            .alerts()
            .iter()
            .any(|a| a.severity == AlertSeverity::Crit);

        let frame = render_dashboard(&fold, &dog, fold.now_ns(), path);
        if let Some(out) = &opts.alerts_out {
            write_alerts_jsonl(out, &dog);
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
        let mut fold = RunFold::default();
        fold.fold(&Record {
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
        fold.fold(&Record {
            seq: 1,
            t_ns: 2_000,
            rank: Some(0),
            tid: Some(0),
            event: Event::SpanOpen {
                path: "kmc.phase".into(),
            },
        });
        let text = render_dashboard(&fold, &Watchdog::default(), 10_000, "trace.jsonl");
        for needle in [
            "rank heartbeats",
            "kmc.heartbeat",
            "open spans",
            "kmc.phase",
            "span totals",
            "series",
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
