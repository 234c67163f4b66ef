//! Integration tests for the append-only run archive: one-line appends
//! under concurrent writers, full-record round-trips, the 3-run history
//! acceptance scenario, archive-derived regression gating end to end,
//! torn and other-schema lines, and `mmds-inspect archive-add`,
//! `history` and `regress` over committed and rejected benchmark
//! results.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};

use mmds_bench::archive::{self, record_from_result, Archive, ArchiveRecord, Gate, SCHEMA};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh per-test archive directory under the system temp dir,
/// removed on drop.
struct TempArchive(PathBuf);

impl TempArchive {
    fn new() -> TempArchive {
        let dir = std::env::temp_dir().join(format!(
            "mmds-archive-test-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        std::fs::create_dir_all(&dir).expect("create temp archive dir");
        TempArchive(dir)
    }
}

impl Drop for TempArchive {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn committed(workload: &str) -> String {
    let path = format!("{}/../../BENCH_{workload}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// An `md_bulk` record: a force time, a throughput (higher is better)
/// and a layer the workload does not reach.
fn record_with(force_s: f64, rate: f64, rev: &str) -> ArchiveRecord {
    let mut rec = ArchiveRecord::new("md_bulk");
    rec.git_rev = rev.to_string();
    rec.metrics.insert("md.force_s".to_string(), force_s);
    rec.metrics
        .insert("md.density_s".to_string(), 0.6 * force_s);
    rec.metrics.insert("md.atom_steps_per_s".to_string(), rate);
    rec.metrics.insert("kmc.sector_s".to_string(), 0.0);
    rec
}

/// The raw lines of `workload`'s archive file.
fn lines_of(archive: &Archive, workload: &str) -> Vec<String> {
    std::fs::read_to_string(archive.path(workload))
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

#[test]
fn concurrent_writers_produce_a_parseable_index_with_both_records() {
    let tmp = TempArchive::new();
    let a = Archive::open(&tmp.0).unwrap();
    let b = a.clone();
    // Two threads, each appending many records to the same workload
    // file — the O_APPEND single-write discipline must interleave whole
    // lines.
    let ta = std::thread::spawn(move || {
        for i in 0..20 {
            a.write(&record_with(1.0 + i as f64, 1000.0, "rev-a"))
                .unwrap();
        }
    });
    let tb = std::thread::spawn(move || {
        for i in 0..20 {
            b.write(&record_with(101.0 + i as f64, 2000.0, "rev-b"))
                .unwrap();
        }
    });
    ta.join().unwrap();
    tb.join().unwrap();

    let archive = Archive::open(&tmp.0).unwrap();
    // Every raw line is one whole record — no torn or interleaved lines.
    let raw = lines_of(&archive, "md_bulk");
    assert_eq!(raw.len(), 40, "every append must survive as one line");
    let records: Vec<ArchiveRecord> = raw
        .iter()
        .map(|l| serde_json::from_str(l).expect("a whole record per line"))
        .collect();
    assert!(records.iter().all(|r| r.workload == "md_bulk"));
    assert_eq!(records.iter().filter(|r| r.git_rev == "rev-a").count(), 20);
    assert_eq!(records.iter().filter(|r| r.git_rev == "rev-b").count(), 20);
    let (runs, skipped) = archive.runs_for("md_bulk", 100).unwrap();
    assert_eq!((runs, skipped), (records, 0));
    // The workload's file is the whole store.
    let files: Vec<_> = std::fs::read_dir(&tmp.0)
        .unwrap()
        .map(|d| d.unwrap().file_name())
        .collect();
    assert_eq!(files, ["md_bulk.jsonl"]);
}

#[test]
fn archived_record_round_trips_every_field() {
    // Populate every field with a non-default value so a field dropped
    // by (de)serialization cannot hide behind a default.
    let mut rec = ArchiveRecord::new("roundtrip");
    rec.git_rev = "abc123def456".to_string();
    rec.t_unix = 1_754_000_000;
    rec.replays = 3;
    rec.metrics.insert("md.force_s".to_string(), 2.5);
    rec.metrics
        .insert("kmc.ghost_bytes".to_string(), 3_017_932_800.0);
    rec.metrics
        .insert("md.nve_drift_offload".to_string(), 2.3e-7);
    rec.worst.insert("md.force_s".to_string(), 2.75);
    assert_eq!(rec.schema, SCHEMA);

    // In-memory JSON round-trip.
    let json = serde_json::to_string_pretty(&rec).unwrap();
    let back: ArchiveRecord = serde_json::from_str(&json).unwrap();
    assert_eq!(back, rec);

    // Disk round-trip through the workload's file.
    let tmp = TempArchive::new();
    let archive = Archive::open(&tmp.0).unwrap();
    let path = archive.write(&rec).unwrap();
    assert_eq!(path, tmp.0.join("roundtrip.jsonl"));
    let (runs, skipped) = archive.runs_for("roundtrip", 20).unwrap();
    assert_eq!((runs, skipped), (vec![rec], 0));
}

#[test]
fn three_run_history_has_correct_min_max_last() {
    // The acceptance scenario: a locally accumulated 3-run archive
    // renders a per-metric trend with correct min/max/last.
    let tmp = TempArchive::new();
    let archive = Archive::open(&tmp.0).unwrap();
    archive.write(&record_with(1.0, 1000.0, "r1")).unwrap();
    archive.write(&record_with(1.5, 700.0, "r2")).unwrap();
    archive.write(&record_with(1.2, 900.0, "r3")).unwrap();

    let (runs, skipped) = archive.runs_for("md_bulk", 20).unwrap();
    assert_eq!((runs.len(), skipped), (3, 0));
    let doc = archive::history_doc(&runs);
    assert_eq!(doc.runs, 3);
    assert_eq!(doc.workload, "md_bulk");
    assert_eq!(doc.revs, vec!["r1", "r2", "r3"]);
    let force = doc.metrics.iter().find(|t| t.name == "md.force_s").unwrap();
    assert_eq!(force.values, vec![1.0, 1.5, 1.2]);
    assert_eq!((force.min, force.max, force.last), (1.0, 1.5, 1.2));
    let density = doc
        .metrics
        .iter()
        .find(|t| t.name == "md.density_s")
        .unwrap();
    assert_eq!((density.min, density.last), (0.6, 0.72));
    let rate = doc
        .metrics
        .iter()
        .find(|t| t.name == "md.atom_steps_per_s")
        .unwrap();
    assert_eq!((rate.min, rate.max, rate.last), (700.0, 1000.0, 900.0));
    assert_eq!(rate.better, "higher");
    // A layer md_bulk never reaches has no trend.
    assert!(doc.metrics.iter().all(|t| t.name != "kmc.sector_s"));

    let view = archive::history_view(&doc);
    assert!(view.contains("md.force_s"), "{view}");
    assert!(view.contains("min=1.0000"), "{view}");
    assert!(view.contains("max=1.5000"), "{view}");
    assert!(view.contains("last=1.2000"), "{view}");
    // The window honours its cap and keeps the newest lines.
    let (last2, _) = archive.runs_for("md_bulk", 2).unwrap();
    let revs: Vec<_> = last2.iter().map(|r| r.git_rev.as_str()).collect();
    assert_eq!(revs, ["r2", "r3"]);
}

#[test]
fn regress_gates_from_an_on_disk_archive() {
    let tmp = TempArchive::new();
    let archive = Archive::open(&tmp.0).unwrap();
    archive.write(&record_with(1.00, 1000.0, "r1")).unwrap();
    archive.write(&record_with(1.08, 930.0, "r2")).unwrap();
    archive.write(&record_with(1.04, 960.0, "r3")).unwrap();
    // Candidate inside the archived dispersion: pass.
    archive.write(&record_with(1.06, 950.0, "r4")).unwrap();
    let (gate, _) = archive::regress(&archive.runs_for("md_bulk", 20).unwrap().0, 0.10);
    assert_eq!(gate, Gate::Pass);
    // A 2× slowdown lands far outside any derived tolerance: fail.
    archive.write(&record_with(2.0, 500.0, "r5")).unwrap();
    let (gate, text) = archive::regress(&archive.runs_for("md_bulk", 20).unwrap().0, 0.10);
    assert_eq!(gate, Gate::Fail);
    assert_eq!(gate.exit_code(), 1);
    assert!(text.contains("FAIL"), "{text}");
    assert!(text.contains("change points"), "{text}");
    assert!(text.contains("first shifted at run #4"), "{text}");
}

#[test]
fn unreadable_records_are_counted_not_dropped_silently() {
    // A line of another schema (here, a schema-2 record keyed by config
    // hash) is counted as skipped, not read as a run.
    let tmp = TempArchive::new();
    let archive = Archive::open(&tmp.0).unwrap();
    archive.write(&record_with(1.0, 1000.0, "r1")).unwrap();
    let mut old = ArchiveRecord {
        schema: 2,
        ..record_with(1.1, 990.0, "r2")
    };
    archive.write(&old).unwrap();
    old.schema = SCHEMA;
    old.git_rev = "r3".to_string();
    archive.write(&old).unwrap();
    let (runs, skipped) = archive.runs_for("md_bulk", 20).unwrap();
    assert_eq!((runs.len(), skipped), (2, 1));
    assert_eq!(runs[1].git_rev, "r3");
    // The skipped line still takes its place in the window.
    assert_eq!(archive.runs_for("md_bulk", 2).unwrap().0.len(), 1);
}

#[test]
fn seeded_baseline_and_identical_config_share_a_hash() {
    // The committed BENCH_<workload>.json (five replays) and a fresh
    // result of the same workload (here one replay, other numbers) key
    // identically: both land in the same `<workload>.jsonl`, in append
    // order. Every other workload keys to a file of its own.
    let tmp = TempArchive::new();
    let archive = Archive::open(&tmp.0).unwrap();
    let mut files = Vec::new();
    for w in ["md_bulk", "coupled_2r", "kmc_dense", "kmc_fullghost"] {
        let seeded = record_from_result(w, &committed(w)).unwrap();
        let baseline = committed(w);
        let fresh = record_from_result(w, baseline.lines().next().unwrap()).unwrap();
        assert_eq!((seeded.replays, fresh.replays), (5, 1), "{w}");
        let seeded_path = archive.write(&seeded).unwrap();
        assert_eq!(archive.write(&fresh).unwrap(), seeded_path);
        assert_eq!(seeded_path, tmp.0.join(format!("{w}.jsonl")));
        let (runs, skipped) = archive.runs_for(w, 20).unwrap();
        assert_eq!((runs, skipped), (vec![seeded, fresh], 0), "{w}");
        assert!(!files.contains(&seeded_path), "{w}");
        files.push(seeded_path);
    }
}

#[test]
fn torn_index_tail_is_tolerated() {
    // A writer caught mid-append leaves a torn final line: it is
    // skipped and counted, and the whole records before it still read.
    let tmp = TempArchive::new();
    let archive = Archive::open(&tmp.0).unwrap();
    archive.write(&record_with(1.0, 1000.0, "r1")).unwrap();
    let line = lines_of(&archive, "md_bulk").remove(0);
    let mut raw = std::fs::read_to_string(archive.path("md_bulk")).unwrap();
    raw.push_str(&line[..line.len() / 2]);
    std::fs::write(archive.path("md_bulk"), &raw).unwrap();
    let (runs, skipped) = archive.runs_for("md_bulk", 20).unwrap();
    assert_eq!(
        (runs.len(), skipped),
        (1, 1),
        "torn tail line must be skipped"
    );
    assert_eq!(runs[0].git_rev, "r1");
}

/// Runs `mmds-inspect` with `args`; returns exit code, stdout, stderr.
fn inspect(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mmds-inspect"))
        .args(args)
        .output()
        .expect("run mmds-inspect");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn archive_add_takes_committed_baselines_and_rejects_other_results() {
    let tmp = TempArchive::new();
    let dir = tmp.0.join("archive");
    let dir = dir.to_str().unwrap();
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    for w in ["md_bulk", "coupled_2r", "kmc_dense", "kmc_fullghost"] {
        let path = format!("{root}/BENCH_{w}.json");
        let (code, stdout, stderr) = inspect(&["archive-add", w, &path, "--archive", dir]);
        assert_eq!(code, 0, "{w}: {stderr}");
        assert!(stdout.contains(&format!("{w}.jsonl")), "{stdout}");
    }
    // The same baseline again makes a two-run history that passes.
    let md = format!("{root}/BENCH_md_bulk.json");
    assert_eq!(
        inspect(&["archive-add", "md_bulk", &md, "--archive", dir]).0,
        0
    );
    let (code, stdout, _) = inspect(&["regress", "md_bulk", "--archive", dir]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("gate: Pass"), "{stdout}");
    // A file of several result lines is one record of that many replays.
    let line = committed("md_bulk");
    let replays = record_from_result("md_bulk", &line).unwrap().replays;
    let twice = tmp.0.join("twice.result.json");
    std::fs::write(&twice, format!("{}\n{line}", line.trim_end())).unwrap();
    let twice = twice.to_str().unwrap();
    let (code, stdout, stderr) = inspect(&["archive-add", "md_bulk", twice, "--archive", dir]);
    assert_eq!(code, 0, "{stderr}");
    assert!(
        stdout.contains(&format!("({} replay(s))", 2 * replays)),
        "{stdout}"
    );

    let line = committed("kmc_dense");
    let first = line.lines().next().unwrap();
    for (name, text, reason) in [
        (
            "trace0",
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 0.3, \"unit\": \"s\"}}}"
                .to_string(),
            "archive the `--trace 1` result",
        ),
        (
            "one_bad_replay",
            format!(
                "{first}\n{}",
                first.replace("\"failed\": 0", "\"failed\": 2")
            ),
            "result 2 of 2: 2 of",
        ),
        (
            "incorrect",
            line.replace("\"correct\": true", "\"correct\": false"),
            "not a measurement",
        ),
        (
            "failed",
            line.replace("\"failed\": 0", "\"failed\": 1"),
            "checks failed",
        ),
        (
            "unknown",
            line.replace("\"kmc.sector_s\"", "\"kmc.warp_s\""),
            "`kmc.warp_s` is not a per-layer metric",
        ),
    ] {
        let path = tmp.0.join(format!("{name}.result.json"));
        std::fs::write(&path, &text).unwrap();
        let path = path.to_str().unwrap();
        let (code, _, stderr) = inspect(&["archive-add", "kmc_dense", path, "--archive", dir]);
        assert_eq!(code, 2, "{name}: {stderr}");
        assert_eq!(
            stderr.lines().count(),
            1,
            "{name}: one-line reason: {stderr}"
        );
        assert!(stderr.contains(reason), "{name}: {stderr}");
    }
    // Nothing rejected reached the archive.
    let archive = Archive::open(dir).unwrap();
    assert_eq!(lines_of(&archive, "md_bulk").len(), 3);
    assert_eq!(lines_of(&archive, "kmc_dense").len(), 1);
}

#[test]
fn history_and_regress_without_an_archived_file_exit_2() {
    let tmp = TempArchive::new();
    let dir = tmp.0.to_str().unwrap();
    let md = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_md_bulk.json");
    assert_eq!(
        inspect(&["archive-add", "md_bulk", md, "--archive", dir]).0,
        0
    );
    for cmd in ["history", "regress"] {
        let (code, stdout, stderr) = inspect(&[cmd, "kmc_dense", "--archive", dir]);
        assert_eq!(code, 2, "{cmd}: {stdout}{stderr}");
        assert_eq!(stdout, "", "{cmd}");
        assert_eq!(stderr.lines().count(), 1, "{cmd}: one line: {stderr}");
        assert!(
            stderr.contains("no archived runs for `kmc_dense`"),
            "{cmd}: {stderr}"
        );
    }
}
