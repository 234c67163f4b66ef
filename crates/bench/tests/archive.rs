//! Integration tests for the content-addressed run archive: write
//! atomicity under concurrent writers, full-record round-trips, the
//! 3-run history acceptance scenario, archive-derived regression
//! gating end to end, and the observation-only guarantee (bench
//! physics is bitwise identical with archiving on or off).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use mmds_bench::archive::{mdstep_config, record_from_bench_doc, Archive, ArchiveRecord, SCHEMA};
use mmds_bench::inspect::{BenchConfigRow, Gate};
use mmds_md::domain::Loopback;
use mmds_md::{MdConfig, MdSimulation};
use mmds_telemetry::report::CounterSnapshot;
use mmds_telemetry::{ConfigKey, RunReport, SeriesPoint, SeriesTrack, SpanReport};

fn track(name: &str, rank: Option<u32>, points: &[(u64, f64)]) -> SeriesTrack {
    SeriesTrack {
        name: name.to_string(),
        rank,
        points: points
            .iter()
            .map(|&(t, value)| SeriesPoint { t, value })
            .collect(),
    }
}

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

fn record_with(phase_wall: f64, throughput: f64, rev: &str) -> ArchiveRecord {
    let mut rec = ArchiveRecord::new(mdstep_config(8, 20, 1, "Compacted")).unwrap();
    rec.git_rev = rev.to_string();
    rec.phases.insert("serial/wall".to_string(), phase_wall);
    rec.phases
        .insert("serial/pair".to_string(), 0.6 * phase_wall);
    rec.configs.push(BenchConfigRow {
        name: "serial".to_string(),
        atoms_steps_per_sec: throughput,
        wall_s: phase_wall,
    });
    rec
}

#[test]
fn concurrent_writers_produce_a_parseable_index_with_both_records() {
    let tmp = TempArchive::new();
    let a = Archive::open(&tmp.0).unwrap();
    let b = a.clone();
    // Two threads, each appending many records to the same index — the
    // O_APPEND single-write discipline must interleave whole lines.
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
    let index = archive.read_index();
    assert_eq!(index.len(), 40, "every append must survive as one line");
    // Every raw line parses — no torn or interleaved entries.
    let raw = std::fs::read_to_string(archive.index_path()).unwrap();
    assert_eq!(raw.lines().count(), 40);
    for (e, line) in index.iter().zip(raw.lines()) {
        assert!(!line.trim().is_empty());
        let rec = archive.load(e).expect("record behind every index line");
        assert_eq!(rec.config_hash, e.config_hash);
    }
    assert!(index.iter().any(|e| e.git_rev == "rev-a"));
    assert!(index.iter().any(|e| e.git_rev == "rev-b"));
    // No temp files left behind by the atomic rename path.
    let leftovers: Vec<_> = std::fs::read_dir(tmp.0.join(&index[0].config_hash))
        .unwrap()
        .filter_map(|d| d.ok())
        .filter(|d| d.file_name().to_string_lossy().starts_with(".tmp."))
        .collect();
    assert!(leftovers.is_empty(), "{leftovers:?}");
}

#[test]
fn archived_record_round_trips_every_field() {
    // Populate every field with a non-default value so a field dropped
    // by (de)serialization cannot hide behind a default.
    let report = RunReport {
        spans: vec![SpanReport {
            path: "run/md".to_string(),
            count: 2,
            total_s: 1.5,
            self_s: 1.25,
        }],
        counters: CounterSnapshot {
            named: BTreeMap::from([("kmc.ghost_bytes".to_string(), 26.0)]),
            ..Default::default()
        },
        series: vec![track("census.vacancies", Some(3), &[(10, 42.0)])],
        ..Default::default()
    };
    let mut rec = ArchiveRecord::new(
        ConfigKey::new("roundtrip")
            .with_int("cells", 8)
            .with_bool("batched", true)
            .with_float("conc", 0.003)
            .with_str("table_form", "Compacted"),
    )
    .unwrap()
    .with_report(report);
    rec.git_rev = "abc123def456".to_string();
    rec.t_unix = 1_754_000_000;
    rec.phases.insert("run/wall".to_string(), 2.5);
    rec.configs.push(BenchConfigRow {
        name: "serial".to_string(),
        atoms_steps_per_sec: 12345.0,
        wall_s: 2.5,
    });
    rec.comm_bytes = 7777;
    rec.comm_msgs = 88;
    assert_eq!(rec.schema, SCHEMA);
    assert!(rec.report.is_some());
    assert_eq!(rec.series_last.get("census.vacancies@3"), Some(&42.0));

    // In-memory JSON round-trip.
    let json = serde_json::to_string_pretty(&rec).unwrap();
    let back: ArchiveRecord = serde_json::from_str(&json).unwrap();
    assert_eq!(back, rec);

    // Disk round-trip through the store, via the index.
    let tmp = TempArchive::new();
    let archive = Archive::open(&tmp.0).unwrap();
    archive.write(&rec).unwrap();
    let index = archive.read_index();
    assert_eq!(index.len(), 1);
    assert_eq!(index[0].scenario, "roundtrip");
    assert_eq!(index[0].git_rev, "abc123def456");
    assert_eq!(index[0].wall_s, 2.5);
    let loaded = archive.load(&index[0]).unwrap();
    assert_eq!(loaded, rec);
}

#[test]
fn three_run_history_has_correct_min_max_last() {
    // The acceptance scenario: a locally accumulated 3-run archive
    // renders a per-phase trend with correct min/max/last.
    let tmp = TempArchive::new();
    let archive = Archive::open(&tmp.0).unwrap();
    archive.write(&record_with(1.0, 1000.0, "r1")).unwrap();
    archive.write(&record_with(1.5, 700.0, "r2")).unwrap();
    archive.write(&record_with(1.2, 900.0, "r3")).unwrap();

    let hash = archive.resolve_selector("mdstep").unwrap();
    assert_eq!(hash, mdstep_config(8, 20, 1, "Compacted").hash().unwrap());
    let runs = archive.runs_for(&hash, 20);
    assert_eq!(runs.len(), 3);
    let doc = mmds_bench::archive::history_doc(&runs);
    assert_eq!(doc.runs, 3);
    assert_eq!(doc.scenario, "mdstep");
    assert_eq!(doc.revs, vec!["r1", "r2", "r3"]);
    let wall = doc.phases.iter().find(|t| t.name == "serial/wall").unwrap();
    assert_eq!(wall.values, vec![1.0, 1.5, 1.2]);
    assert_eq!((wall.min, wall.max, wall.last), (1.0, 1.5, 1.2));
    let pair = doc.phases.iter().find(|t| t.name == "serial/pair").unwrap();
    assert_eq!((pair.min, pair.last), (0.6, 0.72));
    let tp = doc.throughput.iter().find(|t| t.name == "serial").unwrap();
    assert_eq!((tp.min, tp.max, tp.last), (700.0, 1000.0, 900.0));

    let view = mmds_bench::archive::history_view(&doc);
    assert!(view.contains("serial/wall"), "{view}");
    assert!(view.contains("min=1.0000"), "{view}");
    assert!(view.contains("max=1.5000"), "{view}");
    assert!(view.contains("last=1.2000"), "{view}");
    // The window honours its cap.
    assert_eq!(archive.runs_for(&hash, 2).len(), 2);
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
    let hash = archive.resolve_selector("mdstep").unwrap();
    let (gate, _) = mmds_bench::archive::regress(&archive.runs_for(&hash, 20), 0.10);
    assert_eq!(gate, Gate::Pass);
    // A 2× slowdown lands far outside any derived tolerance: fail.
    archive.write(&record_with(2.0, 500.0, "r5")).unwrap();
    let (gate, text) = mmds_bench::archive::regress(&archive.runs_for(&hash, 20), 0.10);
    assert_eq!(gate, Gate::Fail);
    assert_eq!(gate.exit_code(), 1);
    assert!(text.contains("FAIL"), "{text}");
    assert!(text.contains("change points"), "{text}");
    assert!(text.contains("first shifted at run #4"), "{text}");
}

#[test]
fn seeded_baseline_and_identical_config_share_a_hash() {
    // Seeding the committed BENCH_mdstep.json and building the same
    // config by hand key identically; any facet change re-keys.
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_mdstep.json"
    ))
    .unwrap();
    let seeded = record_from_bench_doc("mdstep", &text).unwrap();
    let live = mdstep_config(8, 20, 1, "Compacted");
    assert_eq!(seeded.config_hash, live.hash().unwrap());
    for changed in [
        mdstep_config(8, 20, 4, "Compacted"),
        mdstep_config(8, 20, 1, "Traditional"),
        mdstep_config(10, 20, 1, "Compacted"),
        mdstep_config(8, 40, 1, "Compacted"),
    ] {
        assert_ne!(changed.hash().unwrap(), seeded.config_hash, "{changed:?}");
    }
}

/// Bitwise fingerprint of a short MD run: every per-step energy term.
fn md_fingerprint() -> Vec<u64> {
    let cfg = MdConfig {
        temperature: 600.0,
        ..Default::default()
    };
    let mut sim = MdSimulation::single_box(cfg, 3);
    sim.init_velocities();
    let mut bits = Vec::new();
    for _ in 0..3 {
        let s = sim.step(&mut Loopback);
        bits.extend([s.pair.to_bits(), s.embed.to_bits(), s.kinetic.to_bits()]);
    }
    bits
}

#[test]
fn archiving_is_observation_only_physics_is_bitwise_identical() {
    let before = md_fingerprint();
    // Interleave archive writes with a second run: the archive touches
    // nothing the simulation reads, so the trajectory cannot move.
    let tmp = TempArchive::new();
    let archive = Archive::open(&tmp.0).unwrap();
    archive.write(&record_with(1.0, 1000.0, "mid")).unwrap();
    let during = md_fingerprint();
    archive.write(&record_with(1.1, 990.0, "post")).unwrap();
    let after = md_fingerprint();
    assert_eq!(before, during);
    assert_eq!(before, after);
}

#[test]
fn torn_index_tail_is_tolerated() {
    let tmp = TempArchive::new();
    let archive = Archive::open(&tmp.0).unwrap();
    archive.write(&record_with(1.0, 1000.0, "r1")).unwrap();
    // Simulate a writer caught mid-append.
    let mut raw = std::fs::read_to_string(archive.index_path()).unwrap();
    raw.push_str("{\"config_hash\":\"deadbe");
    std::fs::write(archive.index_path(), &raw).unwrap();
    let index = archive.read_index();
    assert_eq!(index.len(), 1, "torn tail line must be skipped");
    assert_eq!(index[0].git_rev, "r1");
}

#[test]
fn series_last_summarizes_rank_tagged_tracks() {
    let report = RunReport {
        series: vec![
            track("census.frenkel_pairs", None, &[(1, 5.0), (2, 9.0)]),
            track("census.vacancies", Some(2), &[(1, 3.0)]),
        ],
        ..Default::default()
    };
    let rec = ArchiveRecord::new(ConfigKey::new("s"))
        .unwrap()
        .with_report(report);
    let mut expect = BTreeMap::new();
    expect.insert("census.frenkel_pairs".to_string(), 9.0);
    expect.insert("census.vacancies@2".to_string(), 3.0);
    assert_eq!(rec.series_last, expect);
}
