//! JSONL round-trip coverage across *every* [`Event`] kind, plus the
//! truncated-line rejection `TailReader` relies on: a partial trailing
//! line must fail to parse (so the tailer withholds it) rather than
//! silently decode to a wrong record.

use mmds_swmpi::matrix::MatrixRecorder;
use mmds_swmpi::{CommStats, ExchangeSavings};
use mmds_telemetry::{
    AlertRecord, AlertSeverity, CommRecord, Event, HeartbeatSample, KmcCycleSample, MdStepSample,
    RankComm, Record, SeriesSample,
};

/// A rank deposit with awkward floats (no short decimal form, a
/// subnormal, a negative zero) and a matrix with every flow kind.
fn rank_comm() -> RankComm {
    let mut m = MatrixRecorder::default();
    m.record_send(1, 640);
    m.record_recv(3, 320);
    m.record_put(2, 96);
    m.record_put_in(2, 48);
    RankComm {
        rank: 2,
        stats: CommStats {
            msgs_sent: 3,
            bytes_sent: 1920,
            msgs_recv: 1,
            bytes_recv: 320,
            puts: 1,
            bytes_put: 96,
            collectives: 7,
            comm_time: 0.1 + 0.2,
            compute_time: f64::MIN_POSITIVE / 3.0,
            savings: ExchangeSavings {
                bytes_on_demand: 96,
                bytes_full_ghost: 4096,
                dirty_sites: 2,
                candidate_sites: 85,
            },
        },
        matrix: Some(m.snapshot(2)),
    }
}

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
        Event::RankComm(rank_comm()),
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
            | Event::Comm(_)
            | Event::RankComm(_) => {}
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

/// A rank's comm deposit comes back bit for bit, times included, and
/// so does a deposit without a matrix.
#[test]
fn rank_comm_round_trips_bit_for_bit() {
    let mut bare = rank_comm();
    bare.matrix = None;
    bare.stats.comm_time = -0.0;
    for c in [rank_comm(), bare] {
        let r = Record {
            seq: 0,
            t_ns: 1,
            rank: None,
            tid: Some(0),
            event: Event::RankComm(c.clone()),
        };
        let Event::RankComm(back) = Record::from_jsonl(&r.to_jsonl()).unwrap().event else {
            panic!("not a RankComm record");
        };
        assert_eq!(back, c);
        for (a, b) in [
            (back.stats.comm_time, c.stats.comm_time),
            (back.stats.compute_time, c.stats.compute_time),
        ] {
            assert_eq!(a.to_bits(), b.to_bits(), "{a:e} vs {b:e}");
        }
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
