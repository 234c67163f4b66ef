//! End-to-end acceptance check: `mmds-inspect` style summary over a
//! live 8-rank coupled run must surface the per-phase imbalance table
//! and the per-pair comm matrix with its symmetry verdict — and the
//! run's records alone must render the same summary and timeline.

use mmds_bench::inspect;
use mmds_coupled::parallel::{run_coupled_parallel, ParallelCoupledParams};
use mmds_kmc::{ExchangeStrategy, KmcConfig};
use mmds_md::offload::OffloadConfig;
use mmds_md::MdConfig;
use mmds_swmpi::{MachineModel, World, WorldConfig};
use mmds_telemetry::{MemorySink, Mode};

#[test]
fn inspect_summary_covers_eight_rank_coupled_run() {
    mmds_telemetry::set_mode(Mode::Summary);
    let sink = MemorySink::new();
    mmds_telemetry::global().install_sink(Box::new(sink.clone()));
    let world = World::new(WorldConfig {
        model: MachineModel::free(),
        ..Default::default()
    });
    let params = ParallelCoupledParams {
        md: MdConfig {
            temperature: 300.0,
            thermostat_tau: Some(0.05),
            table_knots: 1000,
            ..Default::default()
        },
        kmc: KmcConfig {
            table_knots: 800,
            events_per_cycle: 1.0,
            ..Default::default()
        },
        offload: OffloadConfig::optimized(),
        global_cells: [16; 3],
        md_steps: 2,
        kmc_cycles: 2,
        pka_energy: None,
        seed_concentration: 0.003,
        strategy: ExchangeStrategy::Traditional,
    };
    let out = run_coupled_parallel(&world, 8, &params);
    assert_eq!(out.len(), 8);

    let report = mmds_telemetry::global().run_report();
    mmds_telemetry::global().take_sink();
    let text = inspect::summary(&report);

    // The trace is the whole report: its re-fold renders byte for byte
    // what the producing process renders, comm matrix included.
    let refolded = inspect::report_from_records(&sink.records());
    assert_eq!(inspect::summary(&refolded), text);
    assert_eq!(inspect::timeline(&refolded), inspect::timeline(&report));
    assert!(text.contains("src→dst bytes"), "{text}");

    // Imbalance table: md.phase and kmc.phase rows over 8 ranks with a
    // max/avg ratio column.
    assert!(text.contains("md.phase"), "missing md.phase row:\n{text}");
    assert!(text.contains("kmc.phase"), "missing kmc.phase row:\n{text}");
    assert!(
        text.contains("max/avg"),
        "missing imbalance ratio column:\n{text}"
    );

    // Comm matrix: 8x8, rendered heatline, symmetric traffic.
    assert!(
        text.contains("8 ranks"),
        "missing 8-rank comm matrix:\n{text}"
    );
    assert!(
        text.contains("pairwise symmetry: OK"),
        "symmetry verdict missing:\n{text}"
    );
    mmds_telemetry::global().reset();
}
