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
//! mmds-inspect diff     <baseline.json> <fresh.json> [--tolerance <rel>]
//! mmds-inspect history  <config-hash | scenario> [--archive <dir>]
//!                       [--window <n>] [--json]
//! mmds-inspect regress  <config-hash | scenario> [--archive <dir>]
//!                       [--window <n>] [--floor <rel>]
//! mmds-inspect flamediff <a.json> <b.json>
//! mmds-inspect archive-seed <scenario> <bench.json> [--archive <dir>]
//! ```
//!
//! * `summary` prints the per-phase imbalance table, comm-matrix
//!   heatline (with pairwise symmetry verdict), local hot-path
//!   breakdown, and physics-health counters.
//! * `causal` analyzes a comm-traced run (`MMDS_COMM_TRACE=1`):
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
//! * `diff` compares two artefacts. For bench artefacts
//!   (`BENCH_mdstep.json`) it is the *fixed-tolerance* fallback gate
//!   and requires an explicit `--tolerance` (the old 15% default is
//!   retired — archive-derived gating lives in `regress`): exit 1 when
//!   any configuration's `atoms_steps_per_sec` drops by more than the
//!   tolerance, exit 2 when a baseline configuration is missing from
//!   the candidate. For telemetry reports it prints a span-by-span
//!   comparison.
//! * `history` renders the cross-run trend (per-phase sparklines with
//!   min/max/last, plus throughput trends) over the last N archived
//!   runs of one config hash; `--json` emits the machine-readable
//!   `HistoryDoc`. The selector is a 16-hex config hash or a scenario
//!   name (resolved to its most recently archived hash).
//! * `regress` is the noise-aware CI gate: the newest archived run is
//!   the candidate, every prior run of the same config hash is the
//!   history, and each phase's tolerance is its archived dispersion
//!   floored at `--floor`. Exit 0/1/2 as pass-or-warn / regression /
//!   structural break, plus a change-point report naming the first run
//!   where a phase shifted.
//! * `flamediff` diffs the span trees of two archived records (or bare
//!   telemetry reports) path by path.
//! * `archive-seed` converts a committed `BENCH_*.json` baseline into
//!   an archive record so history starts non-empty.

use mmds_bench::archive::{self, Archive};
use mmds_bench::inspect::{
    diff_bench, diff_reports, load_bench, load_report, report_from_records, summary, timeline,
};
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
         mmds-inspect diff <baseline.json> <fresh.json> [--tolerance <rel>]\n  \
         mmds-inspect history <config-hash | scenario> [--archive <dir>] [--window <n>] \
         [--json]\n  \
         mmds-inspect regress <config-hash | scenario> [--archive <dir>] [--window <n>] \
         [--floor <rel>]\n  \
         mmds-inspect flamediff <a.json> <b.json>\n  \
         mmds-inspect archive-seed <scenario> <bench.json> [--archive <dir>]"
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

fn cmd_diff(base_path: &str, fresh_path: &str, tolerance: Option<f64>) -> i32 {
    let base_text = read(base_path);
    let fresh_text = read(fresh_path);
    // Bench artefacts have a `configs` table; telemetry reports don't.
    match (load_bench(&base_text), load_bench(&fresh_text)) {
        (Ok(base), Ok(fresh)) => {
            // The fixed 15% default is retired: gating bench artefacts
            // needs either an explicit tolerance or (better) the
            // archive-derived `regress` gate.
            let Some(tolerance) = tolerance else {
                eprintln!(
                    "mmds-inspect: bench diff needs an explicit --tolerance <rel>; \
                     prefer `mmds-inspect regress` for archive-derived tolerances"
                );
                return 2;
            };
            let (gate, text) = diff_bench(&base, &fresh, tolerance);
            print!("{text}");
            gate.exit_code()
        }
        _ => match (load_report(&base_text), load_report(&fresh_text)) {
            (Ok(a), Ok(b)) => {
                print!("{}", diff_reports(&a, &b));
                0
            }
            _ => {
                eprintln!(
                    "mmds-inspect: {base_path} / {fresh_path} are neither bench artefacts \
                     nor telemetry reports"
                );
                2
            }
        },
    }
}

fn open_archive(dir: Option<&str>) -> Archive {
    let result = match dir {
        Some(d) => Archive::open(d),
        None => Archive::open_default(),
    };
    match result {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mmds-inspect: cannot open archive: {e}");
            std::process::exit(2);
        }
    }
}

fn archive_window(
    archive: &Archive,
    selector: &str,
    window: usize,
) -> Vec<(archive::IndexEntry, archive::ArchiveRecord)> {
    let hash = match archive.resolve_selector(selector) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("mmds-inspect: {e}");
            std::process::exit(2);
        }
    };
    archive.runs_for(&hash, window)
}

fn cmd_history(selector: &str, dir: Option<&str>, window: usize, json: bool) -> i32 {
    let archive = open_archive(dir);
    let runs = archive_window(&archive, selector, window);
    if runs.is_empty() {
        eprintln!(
            "mmds-inspect: no archived runs for `{selector}` in {}",
            archive.dir().display()
        );
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

fn cmd_regress(selector: &str, dir: Option<&str>, window: usize, floor: f64) -> i32 {
    let archive = open_archive(dir);
    let runs = archive_window(&archive, selector, window);
    let (gate, text) = archive::regress(&runs, floor);
    print!("{text}");
    gate.exit_code()
}

fn cmd_flamediff(a_path: &str, b_path: &str) -> i32 {
    let load = |path: &str| match archive::load_report_operand(&read(path), path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mmds-inspect: {e}");
            std::process::exit(2);
        }
    };
    let (a, b) = (load(a_path), load(b_path));
    print!("{}", archive::flamediff(&a, &b));
    0
}

fn cmd_archive_seed(scenario: &str, bench_path: &str, dir: Option<&str>) -> i32 {
    let archive = open_archive(dir);
    let record = match archive::record_from_bench_doc(scenario, &read(bench_path)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mmds-inspect: {bench_path}: {e}");
            return 2;
        }
    };
    match archive.write(&record) {
        Ok(path) => {
            println!(
                "seeded {} run {} -> {}",
                scenario,
                record.config_hash,
                path.display()
            );
            0
        }
        Err(e) => {
            eprintln!("mmds-inspect: cannot archive {bench_path}: {e}");
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
        Some("diff") => {
            let (Some(base), Some(fresh)) = (args.get(1), args.get(2)) else {
                usage()
            };
            let tolerance = match args.get(3).map(String::as_str) {
                Some("--tolerance") => match args.get(4).and_then(|s| s.parse().ok()) {
                    Some(t) => Some(t),
                    None => usage(),
                },
                Some(_) => usage(),
                None => None,
            };
            cmd_diff(base, fresh, tolerance)
        }
        Some(cmd @ ("history" | "regress")) => {
            let Some(selector) = args.get(1) else { usage() };
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
                cmd_history(selector, dir, window, json)
            } else {
                cmd_regress(selector, dir, window, floor)
            }
        }
        Some("flamediff") => {
            let (Some(a), Some(b)) = (args.get(1), args.get(2)) else {
                usage()
            };
            cmd_flamediff(a, b)
        }
        Some("archive-seed") => {
            let (Some(scenario), Some(bench)) = (args.get(1), args.get(2)) else {
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
            cmd_archive_seed(scenario, bench, dir)
        }
        _ => usage(),
    };
    std::process::exit(code);
}
