//! Acceptance test for the live run monitor: heartbeats, the run fold
//! over a tailed trace, and the watchdog.
//!
//! One sequential test (the telemetry instance is process-global)
//! asserting the three monitor guarantees:
//!
//! (a) heartbeats and an event sink never perturb the dynamics —
//!     cascade trajectories are bitwise identical with them on or off,
//!     and a fold of the captured stream sees one beat per step;
//! (b) an incremental tail-fold of the JSONL stream (fed in chunks
//!     that deliberately split records mid-line) reconstructs the whole
//!     report the producing process built in memory — spans with self
//!     times, per-rank spans, imbalance, named counters, samples and
//!     series — the whole report, with no field stripped;
//! (c) a rank that stops beating while a peer stays fresh raises the
//!     staleness alert within two heartbeat intervals, and the alert
//!     clears on the next beat.

use std::io::Write as _;

use mmds::kmc::comm::LoopbackK;
use mmds::kmc::lattice::required_ghost;
use mmds::kmc::{ExchangeStrategy, KmcConfig, KmcSimulation, OnDemandMode};
use mmds::lattice::{BccGeometry, LocalGrid};
use mmds::md::cascade::{launch_pka, PKA_DIRECTION};
use mmds::md::{MdConfig, MdSimulation};
use mmds_telemetry::{
    AlertSeverity, Event, HeartbeatSample, MemorySink, Mode, Record, RunFold, TailReader, Watchdog,
};

const STEPS: usize = 20;

fn cascade_sim() -> MdSimulation {
    let cfg = MdConfig {
        table_knots: 800,
        temperature: 150.0,
        thermostat_tau: Some(0.02),
        ..Default::default()
    };
    let mut s = MdSimulation::single_box(cfg, 6);
    s.init_velocities();
    let pka = s.lnl.grid.site_id(5, 5, 5, 0);
    launch_pka(&mut s.lnl, pka, 180.0, PKA_DIRECTION, s.mass);
    s
}

fn kmc_sim(cells: usize, vacancies: usize) -> KmcSimulation {
    let cfg = KmcConfig {
        table_knots: 800,
        events_per_cycle: 2.0,
        ..Default::default()
    };
    let ghost = required_ghost(cfg.a0, cfg.rate_cutoff);
    let grid = LocalGrid::whole(BccGeometry::new(cfg.a0, cells, cells, cells), ghost);
    let mut sim = KmcSimulation::new(cfg, grid);
    sim.lat.seed_vacancies(vacancies, 11);
    sim.initialize(&mut LoopbackK);
    sim
}

/// (a) Heartbeats + event sink on vs off: bitwise-identical
/// trajectories.
fn assert_monitor_does_not_perturb_dynamics() {
    let tel = mmds_telemetry::global();
    tel.reset();
    mmds_telemetry::set_heartbeat_every(0);
    let mut off = cascade_sim();
    off.run_local(STEPS);

    tel.reset();
    mmds_telemetry::set_heartbeat_every(1);
    let sink = MemorySink::new();
    tel.install_sink(Box::new(sink.clone()));
    let mut on = cascade_sim();
    on.run_local(STEPS);
    tel.take_sink();
    mmds_telemetry::set_heartbeat_every(0);
    let mut fold = RunFold::default();
    for r in &sink.records() {
        fold.fold(r);
    }
    assert_eq!(fold.heartbeat_count(), STEPS as u64, "one beat per step");
    assert!(fold.records() > STEPS as u64, "spans/samples folded too");

    for &s in &off.interior {
        assert_eq!(off.lnl.pos[s], on.lnl.pos[s], "positions at site {s}");
        assert_eq!(off.lnl.vel[s], on.lnl.vel[s], "velocities at site {s}");
        assert_eq!(off.lnl.id[s], on.lnl.id[s], "occupancy at site {s}");
    }
    assert_eq!(off.lnl.n_runaways(), on.lnl.n_runaways());
    for (a, b) in off.lnl.live_runaways().iter().zip(on.lnl.live_runaways()) {
        assert_eq!(off.lnl.runaway(*a).pos, on.lnl.runaway(b).pos);
    }
}

/// (b) Tail-fold of the recorded stream equals the in-process report of
/// the same run.
fn assert_tail_fold_equals_in_process_report() {
    let tel = mmds_telemetry::global();
    tel.reset();
    mmds_telemetry::set_heartbeat_every(2);
    let sink = MemorySink::new();
    tel.install_sink(Box::new(sink.clone()));

    {
        let _rank = mmds_telemetry::rank_scope(0);
        let _run = mmds_telemetry::span!("accept.run");
        let mut sim = kmc_sim(8, 4);
        sim.run_cycles(
            ExchangeStrategy::OnDemand(OnDemandMode::TwoSided),
            &mut LoopbackK,
            5,
        );
    }
    tel.take_sink();
    let in_process = tel.run_report();
    mmds_telemetry::set_heartbeat_every(0);
    let records = sink.records();
    assert!(records
        .iter()
        .any(|r| matches!(r.event, Event::Heartbeat(_))));

    // Replay through a TailReader over a growing file, appending in
    // chunks that split records mid-line — the watcher's actual input.
    let dir = std::env::temp_dir().join("mmds_live_monitor_accept");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.jsonl");
    std::fs::write(&path, b"").unwrap();
    let text: String = records.iter().map(|r| r.to_jsonl() + "\n").collect();
    let bytes = text.as_bytes();

    let mut fold = RunFold::default();
    let mut tail = TailReader::new(path.to_str().unwrap());
    let mut at = 0;
    while at < bytes.len() {
        let end = (at + 97).min(bytes.len());
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(&bytes[at..end]).unwrap();
        drop(f);
        at = end;
        for r in tail.poll().unwrap() {
            assert!(fold.fold(&r), "series stay monotonic: {r:?}");
        }
    }
    if let Some(r) = tail.finish() {
        fold.fold(&r);
    }
    assert_eq!(tail.parse_errors(), 0, "every chunked line reassembled");
    assert_eq!(fold.records() as usize, records.len(), "no record dropped");

    let folded = fold.report();
    // The run exercised every part of the report.
    assert!(folded.spans.iter().any(|s| s.path.contains('/')));
    assert!(folded.spans.iter().any(|s| s.self_s < s.total_s));
    assert_eq!(folded.ranks.len(), 1);
    assert!(!folded.counters.is_empty());
    assert!(!folded.samples.kmc.is_empty());
    assert!(!folded.series.is_empty());
    assert_eq!(
        folded, in_process,
        "the trace re-fold must equal the in-process report"
    );

    tel.reset();
    let _ = std::fs::remove_dir_all(&dir);
}

/// (c) A deliberately stalled rank raises the staleness alert within
/// two heartbeat intervals, and the alert clears when it beats again.
fn assert_stall_detected_within_two_intervals() {
    const I: u64 = 1_000_000; // 1 ms heartbeat interval on the stream clock
    let mut fold = RunFold::default();
    let mut dog = Watchdog::default();
    let mut seq = 0u64;
    let mut beat = |dog: &mut Watchdog, t_ns: u64, rank: u32, progress: u64| {
        fold.fold(&Record {
            seq: {
                seq += 1;
                seq
            },
            t_ns,
            rank: Some(rank),
            tid: Some(rank),
            event: Event::Heartbeat(HeartbeatSample {
                source: "md.heartbeat".into(),
                progress,
                total: 0,
            }),
        });
        dog.evaluate(&fold, t_ns);
    };

    // Both ranks beat in lockstep through t = 3I …
    for k in 1..=3u64 {
        beat(&mut dog, k * I, 0, k);
        beat(&mut dog, k * I, 1, k);
    }
    // … then rank 1 stalls while rank 0 keeps going.
    beat(&mut dog, 4 * I, 0, 4);
    assert!(
        dog.alerts().is_empty(),
        "one missed beat is not yet a stall"
    );
    beat(&mut dog, 5 * I, 0, 5); // rank 1's age is now 2 intervals
    let stale: Vec<_> = dog
        .alerts()
        .iter()
        .filter(|a| a.rule == "alert.heartbeat_stale")
        .cloned()
        .collect();
    assert_eq!(stale.len(), 1, "stall flagged within two intervals");
    assert_eq!(stale[0].severity, AlertSeverity::Crit);
    assert_eq!(stale[0].rank, Some(1));
    assert!(!dog.healthy(), "an active crit alert means unhealthy");

    // No duplicate while the condition persists …
    beat(&mut dog, 6 * I, 0, 6);
    assert_eq!(dog.alerts().len(), stale.len());
    // … and the next beat from the stalled rank clears it.
    beat(&mut dog, 7 * I, 1, 4);
    assert!(dog.healthy(), "recovered rank clears the staleness alert");
}

#[test]
fn live_monitor_acceptance() {
    // One sequential test: the phases share the process-global
    // telemetry instance, so each resets it before running.
    mmds_telemetry::set_mode(Mode::Summary);
    assert_monitor_does_not_perturb_dynamics();
    assert_tail_fold_equals_in_process_report();
    assert_stall_detected_within_two_intervals();
}
