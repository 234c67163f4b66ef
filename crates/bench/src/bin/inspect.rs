//! `mmds-inspect` — rank-resolved run inspector.
//!
//! ```text
//! mmds-inspect summary  <report.telemetry.json | trace.jsonl>
//! mmds-inspect timeline <report.telemetry.json | trace.jsonl>
//! mmds-inspect watch    <trace.jsonl> [--once] [--interval <s>]
//!                       [--alerts-out <path>]
//! mmds-inspect causal   <trace.jsonl> [--json <out>] [--strict]
//!                       [--model <taihulight|free>]
//! mmds-inspect trace    <trace.jsonl> [-o out.perfetto.json]
//! mmds-inspect history  <workload> [--archive <dir>] [--window <n>]
//!                       [--json]
//! mmds-inspect regress  <workload> [--archive <dir>] [--window <n>]
//!                       [--floor <rel>]
//! mmds-inspect flamediff <a> <b>      (each a *.telemetry.json or a .jsonl)
//! mmds-inspect archive-add <workload> <result.json> [--archive <dir>]
//! ```
//!
//! * `summary` prints the per-phase imbalance table, comm-matrix
//!   heatline (with pairwise symmetry verdict), local hot-path
//!   breakdown, and physics-health counters.
//! * `causal` analyzes a comm-traced run (`MMDS_TELEMETRY=jsonl:…`):
//!   cross-rank wait states (late sender / late receiver / collective
//!   skew with per-phase blame) and the true cross-rank critical path
//!   joined over matched message ids. `--json` writes the full
//!   [`mmds_bench::causal::CausalReport`] artefact; `--model`
//!   cross-checks traced virtual clocks against the analytic machine
//!   model; `--strict` exits 1 when any send/put lacks a matched
//!   consumer (the CI match-closure gate).
//! * `timeline` prints the defect-evolution observatory: sparklines of
//!   every science series (`census.*`, `kmc.exchange.*`), the defect
//!   budget table, and the measured on-demand comm savings against the
//!   analytic full-ghost baseline.
//! * `watch` tails a (possibly still growing) JSONL trace and renders
//!   a refreshing live dashboard: per-rank heartbeat ages, open spans,
//!   span totals, series sparkline tails, and the watchdog alert feed.
//!   `--once` reads to end-of-file and prints a single frame (the
//!   scripted/CI mode); `--alerts-out` writes the alert log as JSONL.
//!   Exit code 1 when any `crit` alert was raised.
//! * `trace` converts a JSONL event stream to Chrome `trace_event`
//!   JSON for <https://ui.perfetto.dev>.
//! * `history` renders the cross-run trend of every per-layer metric
//!   (sparkline with min/max/last and the direction that is better)
//!   over the last N archived runs of one workload; `--json` emits the
//!   machine-readable `HistoryDoc`.
//! * `regress` is the noise-aware CI gate: the newest archived run is
//!   the candidate, every prior run of the same workload is the
//!   history, and each metric's tolerance is its archived dispersion
//!   floored at `--floor`, lower or higher being better as
//!   `BENCHMARK.json` declares. Exit 0/1/2 as pass-or-warn / regression
//!   / structural break, plus a change-point report naming the first
//!   run where a metric shifted. Metrics 0 in every run (layers the
//!   workload does not reach) are skipped.
//! * `flamediff` diffs the span trees of two runs path by path; each
//!   operand is a telemetry report or a JSONL trace, as for `summary`.
//! * `archive-add` imports the result lines of `bash benchmark/run.sh
//!   --workload <workload> --trace 1` (fresh replays, one line each, or
//!   a committed `BENCH_<workload>.json`) as one record, appended to
//!   the workload's file `<workload>.jsonl`, holding each metric's best
//!   and worst replay. A result that is not a passing per-layer
//!   measurement exits 2.
//!
//! The archive defaults to `results/archive`. `history` and `regress`
//! read the last `--window` lines of the workload's file; a workload
//! with no file exits 2.

use mmds_bench::archive::{self, Archive};
use mmds_bench::inspect::{load_report, report_from_records, summary, timeline};
use mmds_bench::watch::{run_watch, WatchOptions};

fn read(path: &str) -> String {
    match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mmds-inspect: cannot read {path}: {e}");
            std::process::exit(2);
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  mmds-inspect summary <report.telemetry.json | trace.jsonl>\n  \
         mmds-inspect timeline <report.telemetry.json | trace.jsonl>\n  \
         mmds-inspect watch <trace.jsonl> [--once] [--interval <s>] [--alerts-out <path>]\n  \
         mmds-inspect causal <trace.jsonl> [--json <out>] [--strict] \
         [--model <taihulight|free>]\n  \
         mmds-inspect trace <trace.jsonl> [-o out.json]\n  \
         mmds-inspect history <workload> [--archive <dir>] [--window <n>] [--json]\n  \
         mmds-inspect regress <workload> [--archive <dir>] [--window <n>] [--floor <rel>]\n  \
         mmds-inspect flamediff <a.telemetry.json | a.jsonl> <b.telemetry.json | b.jsonl>\n  \
         mmds-inspect archive-add <workload> <result.json> [--archive <dir>]"
    );
    std::process::exit(2);
}

/// Parses a JSONL trace and says how many lines it had to skip (a torn
/// tail of a live file, or corruption).
fn load_trace(path: &str) -> Vec<mmds_telemetry::Record> {
    let (records, skipped) = mmds_telemetry::parse_jsonl(&read(path));
    println!(
        "trace: {} records, {skipped} unparseable line(s) skipped",
        records.len()
    );
    records
}

fn load_any(path: &str) -> mmds_telemetry::RunReport {
    if path.ends_with(".jsonl") {
        report_from_records(&load_trace(path))
    } else {
        let text = read(path);
        match load_report(&text) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("mmds-inspect: {e}");
                std::process::exit(2);
            }
        }
    }
}

fn cmd_summary(path: &str) {
    print!("{}", summary(&load_any(path)));
}

fn cmd_timeline(path: &str) {
    print!("{}", timeline(&load_any(path)));
}

fn cmd_causal(path: &str, json_out: Option<&str>, strict: bool, model: Option<&str>) -> i32 {
    let model = match model {
        Some("taihulight") => Some(mmds_swmpi::MachineModel::taihulight()),
        Some("free") => Some(mmds_swmpi::MachineModel::free()),
        Some(other) => {
            eprintln!("mmds-inspect: unknown --model {other} (taihulight|free)");
            return 2;
        }
        None => None,
    };
    let records = load_trace(path);
    let rep = mmds_bench::causal::analyze(&records, model.as_ref());
    print!("{}", mmds_bench::causal::causal_view(&rep));
    if let Some(out) = json_out {
        let json = serde_json::to_string_pretty(&rep).expect("CausalReport serializes");
        if let Err(e) = std::fs::write(out, json) {
            eprintln!("mmds-inspect: cannot write {out}: {e}");
            return 2;
        }
        eprintln!("wrote {out}");
    }
    if strict && (rep.wait.unmatched_producers > 0 || rep.wait.unmatched_consumers > 0) {
        eprintln!(
            "mmds-inspect: match closure violated ({} unmatched producers, {} unmatched \
             consumers)",
            rep.wait.unmatched_producers, rep.wait.unmatched_consumers
        );
        return 1;
    }
    0
}

fn cmd_trace(path: &str, out: Option<&str>) {
    let text = read(path);
    let json = mmds_telemetry::perfetto::export_jsonl(&text);
    match out {
        Some(out) => {
            if let Err(e) = std::fs::write(out, &json) {
                eprintln!("mmds-inspect: cannot write {out}: {e}");
                std::process::exit(2);
            }
            eprintln!("wrote {out} — open it at https://ui.perfetto.dev");
        }
        None => println!("{json}"),
    }
}

fn open_archive(dir: Option<&str>) -> Archive {
    match Archive::open(dir.unwrap_or(archive::DEFAULT_DIR)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mmds-inspect: cannot open archive: {e}");
            std::process::exit(2);
        }
    }
}

/// The last `window` records of `workload`; exits 2 with one line when
/// the workload has no file in the archive.
fn archive_window(dir: Option<&str>, workload: &str, window: usize) -> Vec<archive::ArchiveRecord> {
    let archive = open_archive(dir);
    let (runs, skipped) = match archive.runs_for(workload, window) {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "mmds-inspect: no archived runs for `{workload}` (cannot read {}: {e})",
                archive.path(workload).display()
            );
            std::process::exit(2);
        }
    };
    if skipped > 0 {
        eprintln!("mmds-inspect: {skipped} unreadable record(s) skipped");
    }
    runs
}

fn cmd_history(workload: &str, dir: Option<&str>, window: usize, json: bool) -> i32 {
    let runs = archive_window(dir, workload, window);
    if runs.is_empty() {
        eprintln!("mmds-inspect: no readable archived run for `{workload}`");
        return 2;
    }
    let doc = archive::history_doc(&runs);
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&doc).expect("HistoryDoc serializes")
        );
    } else {
        print!("{}", archive::history_view(&doc));
    }
    0
}

fn cmd_regress(workload: &str, dir: Option<&str>, window: usize, floor: f64) -> i32 {
    let runs = archive_window(dir, workload, window);
    let (gate, text) = archive::regress(&runs, floor);
    print!("{text}");
    gate.exit_code()
}

fn cmd_flamediff(a_path: &str, b_path: &str) -> i32 {
    print!(
        "{}",
        archive::flamediff(&load_any(a_path), &load_any(b_path))
    );
    0
}

fn cmd_archive_add(workload: &str, result_path: &str, dir: Option<&str>) -> i32 {
    let archive = open_archive(dir);
    let record = match archive::record_from_result(workload, &read(result_path)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mmds-inspect: {result_path}: {e}");
            return 2;
        }
    };
    match archive.write(&record) {
        Ok(path) => {
            println!(
                "archived {workload} run at rev {} ({} replay(s)) -> {}",
                record.git_rev,
                record.replays,
                path.display()
            );
            0
        }
        Err(e) => {
            eprintln!("mmds-inspect: cannot archive {result_path}: {e}");
            2
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("summary") => {
            let Some(path) = args.get(1) else { usage() };
            cmd_summary(path);
            0
        }
        Some("timeline") => {
            let Some(path) = args.get(1) else { usage() };
            cmd_timeline(path);
            0
        }
        Some("watch") => {
            let Some(path) = args.get(1) else { usage() };
            let mut opts = WatchOptions {
                interval: 1.0,
                ..Default::default()
            };
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--once" => opts.once = true,
                    "--interval" => match args.get(i + 1).and_then(|s| s.parse().ok()) {
                        Some(v) => {
                            opts.interval = v;
                            i += 1;
                        }
                        None => usage(),
                    },
                    "--alerts-out" => match args.get(i + 1) {
                        Some(p) => {
                            opts.alerts_out = Some(p.clone());
                            i += 1;
                        }
                        None => usage(),
                    },
                    _ => usage(),
                }
                i += 1;
            }
            run_watch(path, &opts)
        }
        Some("causal") => {
            let Some(path) = args.get(1) else { usage() };
            let mut json_out = None;
            let mut strict = false;
            let mut model = None;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--strict" => strict = true,
                    "--json" => match args.get(i + 1) {
                        Some(p) => {
                            json_out = Some(p.as_str());
                            i += 1;
                        }
                        None => usage(),
                    },
                    "--model" => match args.get(i + 1) {
                        Some(m) => {
                            model = Some(m.as_str());
                            i += 1;
                        }
                        None => usage(),
                    },
                    _ => usage(),
                }
                i += 1;
            }
            cmd_causal(path, json_out, strict, model)
        }
        Some("trace") => {
            let Some(path) = args.get(1) else { usage() };
            let out = match args.get(2).map(String::as_str) {
                Some("-o") => match args.get(3) {
                    Some(o) => Some(o.as_str()),
                    None => usage(),
                },
                Some(_) => usage(),
                None => None,
            };
            cmd_trace(path, out);
            0
        }
        Some(cmd @ ("history" | "regress")) => {
            let Some(workload) = args.get(1) else { usage() };
            let mut dir = None;
            let mut window = archive::DEFAULT_WINDOW;
            let mut floor = archive::DEFAULT_FLOOR;
            let mut json = false;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--archive" => match args.get(i + 1) {
                        Some(d) => {
                            dir = Some(d.as_str());
                            i += 1;
                        }
                        None => usage(),
                    },
                    "--window" => match args.get(i + 1).and_then(|s| s.parse().ok()) {
                        Some(n) => {
                            window = n;
                            i += 1;
                        }
                        None => usage(),
                    },
                    "--floor" if cmd == "regress" => {
                        match args.get(i + 1).and_then(|s| s.parse().ok()) {
                            Some(f) => {
                                floor = f;
                                i += 1;
                            }
                            None => usage(),
                        }
                    }
                    "--json" if cmd == "history" => json = true,
                    _ => usage(),
                }
                i += 1;
            }
            if cmd == "history" {
                cmd_history(workload, dir, window, json)
            } else {
                cmd_regress(workload, dir, window, floor)
            }
        }
        Some("flamediff") => {
            let (Some(a), Some(b)) = (args.get(1), args.get(2)) else {
                usage()
            };
            cmd_flamediff(a, b)
        }
        Some("archive-add") => {
            let (Some(workload), Some(result)) = (args.get(1), args.get(2)) else {
                usage()
            };
            let dir = match args.get(3).map(String::as_str) {
                Some("--archive") => match args.get(4) {
                    Some(d) => Some(d.as_str()),
                    None => usage(),
                },
                Some(_) => usage(),
                None => None,
            };
            cmd_archive_add(workload, result, dir)
        }
        _ => usage(),
    };
    std::process::exit(code);
}
