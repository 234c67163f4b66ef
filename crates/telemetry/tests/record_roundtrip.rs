//! JSONL round-trip coverage across *every* [`Event`] kind, plus the
//! truncated-line rejection `TailReader` relies on: a partial trailing
//! line must fail to parse (so the tailer withholds it) rather than
//! silently decode to a wrong record.

use mmds_telemetry::{
    AlertRecord, AlertSeverity, CommRecord, Event, HeartbeatSample, KmcCycleSample, MdStepSample,
    Record, SeriesSample,
};

/// One representative record per `Event` variant. The match below is
/// exhaustive on purpose: adding a variant without extending this list
/// breaks the build here, not silently in a tailer somewhere.
fn one_of_each() -> Vec<Record> {
    let events = vec![
        Event::SpanOpen {
            path: "coupled.run/md.phase".into(),
        },
        Event::SpanClose {
            path: "coupled.run/md.phase".into(),
            dur_ns: 12_345,
        },
        Event::Md(MdStepSample {
            step: 3,
            kinetic: 12.5,
            potential: -812.25,
            runaways: 2,
            vacancies: 4,
            interstitials: 2,
            energy_drift: 1.25e-6,
            momentum_norm: 0.03125,
        }),
        Event::Kmc(KmcCycleSample {
            cycle: 7,
            events: 31,
            dirty_ghost_bytes: 1024,
            sector: 5,
            vacancies: 12,
            vacancy_delta: -2,
        }),
        Event::Counter {
            name: "kmc.ghost_bytes".into(),
            value: 4096.0,
        },
        Event::Series(SeriesSample {
            name: "census.frenkel_pairs".into(),
            t: 30,
            value: 17.0,
        }),
        Event::Heartbeat(HeartbeatSample {
            source: "md.heartbeat".into(),
            progress: 250,
            total: 1000,
        }),
        Event::Comm(CommRecord {
            op: "send".into(),
            rank: 2,
            peer: Some(3),
            tag: 11,
            bytes: 4096,
            match_src: Some(2),
            match_seq: 17,
            lamport: 41,
            vt_enter: 1.25e-3,
            vt_exit: 1.5e-3,
            dur_ns: 7_250,
        }),
    ];
    for e in &events {
        // Exhaustiveness guard: new variants must be added above.
        match e {
            Event::SpanOpen { .. }
            | Event::SpanClose { .. }
            | Event::Md(_)
            | Event::Kmc(_)
            | Event::Counter { .. }
            | Event::Series(_)
            | Event::Heartbeat(_)
            | Event::Comm(_) => {}
        }
    }
    events
        .into_iter()
        .enumerate()
        .map(|(i, event)| Record {
            seq: i as u64,
            t_ns: 100 + i as u64 * 10,
            rank: if i % 2 == 0 { Some(i as u32) } else { None },
            tid: Some(i as u32 % 3),
            event,
        })
        .collect()
}

#[test]
fn every_event_kind_round_trips_through_jsonl() {
    for r in one_of_each() {
        let line = r.to_jsonl();
        assert!(!line.contains('\n'), "JSONL must be single-line: {line}");
        let back = Record::from_jsonl(&line)
            .unwrap_or_else(|e| panic!("failed to parse back {line}: {e:?}"));
        assert_eq!(back, r);
    }
}

/// Both severities survive the one-line JSON form `mmds-inspect watch
/// --alerts-out` writes.
#[test]
fn severity_variants_round_trip() {
    for severity in [AlertSeverity::Warn, AlertSeverity::Crit] {
        let a = AlertRecord {
            rule: "alert.health_threshold".into(),
            severity,
            rank: Some(3),
            subject: "md.health.energy_drift_warn".into(),
            message: "x".into(),
            value: 1.0,
            threshold: 0.0,
            t_ns: 1,
        };
        let line = serde_json::to_string(&a).unwrap();
        assert!(!line.contains('\n'), "one alert per line: {line}");
        let back: AlertRecord = serde_json::from_str(&line).unwrap();
        assert_eq!(back, a);
    }
}

#[test]
fn truncated_lines_are_rejected_not_misparsed() {
    // Every proper prefix of a serialized record must fail to parse —
    // the exact guarantee TailReader leans on when it withholds a
    // partial trailing line instead of parsing it.
    for r in one_of_each() {
        let line = r.to_jsonl();
        for cut in 1..line.len() {
            if !line.is_char_boundary(cut) {
                continue;
            }
            let prefix = &line[..cut];
            assert!(
                Record::from_jsonl(prefix).is_err(),
                "prefix unexpectedly parsed: {prefix}"
            );
        }
    }
}

#[test]
fn whitespace_and_garbage_are_rejected() {
    assert!(Record::from_jsonl("").is_err());
    assert!(Record::from_jsonl("   ").is_err());
    assert!(Record::from_jsonl("not json at all").is_err());
    assert!(Record::from_jsonl("{}").is_err());
}
