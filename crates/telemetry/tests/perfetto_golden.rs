//! Golden-file test for the Perfetto exporter: a fixed record stream
//! must produce byte-identical Chrome `trace_event` JSON. Regenerate
//! with `UPDATE_GOLDEN=1 cargo test -p mmds-telemetry --test
//! perfetto_golden` after an intentional format change.

use mmds_telemetry::{Event, KmcCycleSample, MdStepSample, RankComm, Record};

fn fixed_records() -> Vec<Record> {
    let rec = |seq: u64, t_ns: u64, rank: Option<u32>, tid: u32, event: Event| Record {
        seq,
        t_ns,
        rank,
        tid: Some(tid),
        event,
    };
    vec![
        rec(
            0,
            1_000,
            None,
            0,
            Event::SpanOpen {
                path: "coupled.run".into(),
            },
        ),
        rec(
            1,
            2_500,
            Some(0),
            1,
            Event::SpanOpen {
                path: "coupled.run/md.phase".into(),
            },
        ),
        rec(
            2,
            3_000,
            Some(1),
            2,
            Event::SpanOpen {
                path: "coupled.run/md.phase".into(),
            },
        ),
        rec(
            3,
            4_000,
            Some(0),
            1,
            Event::Md(MdStepSample {
                step: 0,
                kinetic: 12.5,
                potential: -800.0,
                runaways: 1,
                vacancies: 2,
                interstitials: 2,
                energy_drift: 0.0,
                momentum_norm: 0.25,
            }),
        ),
        rec(
            4,
            6_000,
            Some(1),
            2,
            Event::SpanClose {
                path: "coupled.run/md.phase".into(),
                dur_ns: 3_000,
            },
        ),
        rec(
            5,
            6_500,
            Some(0),
            1,
            Event::SpanClose {
                path: "coupled.run/md.phase".into(),
                dur_ns: 4_000,
            },
        ),
        rec(
            6,
            7_000,
            Some(1),
            2,
            Event::Kmc(KmcCycleSample {
                cycle: 1,
                events: 9,
                dirty_ghost_bytes: 512,
                sector: 7,
                vacancies: 4,
                vacancy_delta: 0,
            }),
        ),
        rec(
            7,
            8_000,
            None,
            0,
            Event::Counter {
                name: "kmc.ghost_bytes".into(),
                value: 512.0,
            },
        ),
        rec(
            8,
            9_000,
            None,
            0,
            Event::SpanClose {
                path: "coupled.run".into(),
                dur_ns: 8_000,
            },
        ),
    ]
}

#[test]
fn perfetto_export_matches_golden() {
    let got = mmds_telemetry::perfetto::export(&fixed_records());
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/perfetto_small.json");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("golden file exists");
    assert_eq!(
        got.trim(),
        want.trim(),
        "exporter output diverged from golden; run with UPDATE_GOLDEN=1 if intentional"
    );
}

/// A rank's comm deposit is an end-of-world total: it adds no event,
/// and not even a process or thread label for a rank seen nowhere else.
#[test]
fn rank_comm_records_export_nothing() {
    let deposit = |seq, rank: Option<u32>, tid| Record {
        seq,
        t_ns: 9_500,
        rank,
        tid: Some(tid),
        event: Event::RankComm(RankComm {
            rank: rank.unwrap_or(0),
            stats: mmds_swmpi::CommStats {
                bytes_sent: 640,
                ..Default::default()
            },
            matrix: Some(Default::default()),
        }),
    };
    let export = mmds_telemetry::perfetto::export;
    assert_eq!(export(&[deposit(0, Some(5), 9)]), export(&[]));
    let mut records = fixed_records();
    records.insert(3, deposit(3, Some(5), 9));
    records.push(deposit(10, None, 4));
    assert_eq!(export(&records), export(&fixed_records()));
}

#[test]
fn golden_is_valid_trace_json() {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/perfetto_small.json");
    let text = std::fs::read_to_string(&path).expect("golden file exists");
    let doc = serde_json::parse(&text).expect("golden parses");
    let events = doc.get("traceEvents").expect("traceEvents key");
    let serde::Value::Seq(events) = events else {
        panic!("traceEvents is not an array");
    };
    // 3 processes (driver + 2 ranks) + 3 threads + 9 events.
    assert_eq!(events.len(), 15);
    // Every event carries the required trace_event fields.
    for e in events {
        for key in ["name", "ph", "ts", "pid"] {
            assert!(e.get(key).is_some(), "missing {key}: {e:?}");
        }
    }
    // B and E counts balance per (pid, tid).
    let phase = |e: &serde::Value| match e.get("ph") {
        Some(serde::Value::Str(s)) => s.clone(),
        _ => String::new(),
    };
    let opens = events.iter().filter(|e| phase(e) == "B").count();
    let closes = events.iter().filter(|e| phase(e) == "E").count();
    assert_eq!(opens, closes, "unbalanced B/E events");
}
