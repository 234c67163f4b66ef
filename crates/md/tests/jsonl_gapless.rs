//! The JSONL event stream must keep gapless, increasing sequence
//! numbers when the parallel pass configuration has rayon worker
//! threads and the swmpi rank threads all emitting concurrently, every
//! record must carry its emitting thread's rank tag, and the records
//! must re-fold to the whole in-process report.

use mmds_md::offload::OffloadConfig;
use mmds_md::parallel::{run_parallel_md, ParallelMdParams};
use mmds_md::MdConfig;
use mmds_swmpi::{MachineModel, World, WorldConfig};
use mmds_telemetry::{Event, MemorySink, Mode, RunFold};

#[test]
fn parallel_md_stream_is_gapless_and_rank_tagged() {
    // One process-wide telemetry instance: this test owns it (each
    // integration-test file is its own binary).
    let tel = mmds_telemetry::global();
    mmds_telemetry::set_mode(Mode::Summary);
    let sink = MemorySink::new();
    tel.install_sink(Box::new(sink.clone()));

    let world = World::new(WorldConfig {
        model: MachineModel::free(),
        ..Default::default()
    });
    let params = ParallelMdParams {
        md: MdConfig {
            table_knots: 1000,
            temperature: 300.0,
            thermostat_tau: None,
            ..Default::default()
        },
        offload: OffloadConfig::optimized(),
        global_cells: [8; 3],
        steps: 2,
        warmup_steps: 0,
        pka_energy: None,
    };
    let out = run_parallel_md(&world, 4, &params);
    assert_eq!(out.len(), 4);
    tel.take_sink();

    let records = sink.records();
    assert!(!records.is_empty(), "stream captured something");
    // Gapless, increasing seq in arrival order despite 4 rank threads.
    for (i, r) in records.iter().enumerate() {
        assert_eq!(r.seq, i as u64, "gap at {i}: {r:?}");
    }
    // Span events from the rank closures carry their rank tag, and all
    // four ranks appear.
    let mut ranks_seen: Vec<u32> = records
        .iter()
        .filter(|r| matches!(&r.event, Event::SpanOpen { .. } | Event::SpanClose { .. }))
        .filter_map(|r| r.rank)
        .collect();
    ranks_seen.sort_unstable();
    ranks_seen.dedup();
    assert_eq!(ranks_seen, vec![0, 1, 2, 3]);
    // Every record names its emitting thread.
    assert!(records.iter().all(|r| r.tid.is_some()));

    // The per-rank comm deposits made it into the report, un-folded.
    let report = tel.run_report();
    // The captured records alone rebuild that whole report, comm
    // deposits and CPE counters included.
    let mut fold = RunFold::default();
    for r in &records {
        assert!(fold.fold(r));
    }
    assert_eq!(fold.report(), report);
    assert!(report.counters.contains_key("cpe.flops"));
    assert_eq!(report.ranks.len(), 4);
    for (i, r) in report.ranks.iter().enumerate() {
        assert_eq!(r.rank, i as u32);
        let comm = r.comm.expect("per-rank stats deposited");
        assert!(comm.bytes_sent > 0, "rank {i} exchanged ghosts");
        assert!(r.matrix.is_some(), "rank {i} matrix deposited");
    }
    // md.step appears in the imbalance table over the 4 tagged ranks.
    let step = report
        .imbalance
        .iter()
        .find(|p| p.path.ends_with("md.step"))
        .expect("md.step imbalance row");
    assert_eq!(step.ranks, 4);
    assert!(step.ratio >= 1.0);
    tel.reset();
}
