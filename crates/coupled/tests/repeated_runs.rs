//! Two coupled runs in one process under `Mode::Summary`. Each run builds
//! a fresh `KmcSimulation`, whose cycle count starts again at 1, while the
//! per-rank `kmc.exchange.*` series tracks outlive it: the second run must
//! continue the tracks, not break their monotonicity (which panics), and
//! must compute what the first computed.

use mmds_coupled::parallel::{run_coupled_parallel, CoupledRankSummary, ParallelCoupledParams};
use mmds_kmc::{ExchangeStrategy, KmcConfig};
use mmds_md::offload::OffloadConfig;
use mmds_md::MdConfig;
use mmds_swmpi::world::RankOutput;
use mmds_swmpi::{MachineModel, World, WorldConfig};
use mmds_telemetry::Mode;

const RANKS: usize = 2;

fn params() -> ParallelCoupledParams {
    ParallelCoupledParams {
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
        global_cells: [12; 3],
        md_steps: 2,
        kmc_cycles: 3,
        pka_energy: None,
        seed_concentration: 0.003,
        strategy: ExchangeStrategy::OnDemand(mmds_kmc::OnDemandMode::TwoSided),
    }
}

#[test]
fn a_second_coupled_run_continues_the_series_tracks() {
    mmds_telemetry::set_mode(Mode::Summary);
    let world = World::new(WorldConfig {
        model: MachineModel::free(),
        ..Default::default()
    });
    let params = params();
    let results = |out: Vec<RankOutput<CoupledRankSummary>>| -> Vec<(u64, usize)> {
        out.iter()
            .map(|r| (r.result.kmc_events, r.result.final_vacancies))
            .collect()
    };
    let first = results(run_coupled_parallel(&world, RANKS, &params));
    let second = results(run_coupled_parallel(&world, RANKS, &params));
    assert_eq!(first, second, "a repeated run computes the same");

    let report = mmds_telemetry::global().run_report();
    let tracks: Vec<_> = report
        .series
        .iter()
        .filter(|t| t.name == "kmc.exchange.bytes")
        .collect();
    assert_eq!(tracks.len(), RANKS, "one track per rank");
    for track in tracks {
        let t: Vec<u64> = track.points.iter().map(|p| p.t).collect();
        let want: Vec<u64> = (1..=2 * params.kmc_cycles as u64).collect();
        assert_eq!(
            t, want,
            "rank {:?}: both runs' cycles, in order",
            track.rank
        );
    }
    mmds_telemetry::global().reset();
}
