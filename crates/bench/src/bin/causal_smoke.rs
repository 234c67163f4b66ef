//! One traced 8-rank coupled run — the causal-tracing smoke driver.
//!
//! Runs a single world (single `World::run`, so comm match ids are
//! unique across the whole trace) of the parallel coupled pipeline at
//! a small fixed size and exits. Telemetry comes from the environment,
//! which is the whole point: under `MMDS_TELEMETRY=jsonl:…` alone the
//! trace carries comm records, heartbeats and every rank's comm
//! deposit. CI feeds it to `mmds-inspect causal --strict` to gate match
//! closure, to `mmds-inspect watch --once` to run the heartbeat loop,
//! and to `mmds-inspect summary` for the comm matrix.

use mmds_bench::{header, reconcile};
use mmds_coupled::parallel::{run_coupled_parallel, ParallelCoupledParams};
use mmds_kmc::{ExchangeStrategy, KmcConfig};
use mmds_md::offload::OffloadConfig;
use mmds_md::MdConfig;
use mmds_swmpi::{CartGrid, MachineModel, World, WorldConfig};

fn main() {
    header("Causal-tracing smoke: one traced 8-rank coupled run");
    let ranks = 8;
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
    let world = World::new(WorldConfig {
        model: MachineModel::taihulight(),
        ..Default::default()
    });
    let out = run_coupled_parallel(&world, ranks, &params);
    for r in &out {
        println!(
            "rank: {} msgs sent, {} B sent, {} collectives, clock {:.6} s",
            r.stats.msgs_sent, r.stats.bytes_sent, r.stats.collectives, r.clock
        );
    }
    println!(
        "comm tracing: {}",
        if mmds_telemetry::comm_tracing_enabled() {
            "on"
        } else {
            "off"
        }
    );
    mmds_telemetry::global().flush_sink();

    // Reconcile the trace against the declared communication
    // skeletons: every traced op, payload and match id must be
    // accounted for by the `CommPlan`s the exchange code declares
    // (the dynamic half of the `mmds-audit --protocol` proof).
    let Some(trace_path) = mmds_telemetry::global().jsonl_path() else {
        return;
    };
    if !mmds_telemetry::comm_tracing_enabled() {
        return;
    }
    let text = std::fs::read_to_string(&trace_path).expect("read back the trace stream");
    let (mut records, _) = mmds_telemetry::parse_jsonl(&text);
    records.sort_by_key(|r| r.seq);
    let graph = mmds_bench::causal::build_graph(&records);
    let plans = reconcile::declared_plans(params.strategy);
    match reconcile::reconcile(&graph, &CartGrid::for_ranks(ranks), &plans) {
        Ok(rep) => {
            print!("{}", reconcile::render_report(&rep));
            println!(
                "skeleton reconciliation: ok ({} traced comm events, {} phases)",
                rep.events_claimed,
                rep.leaves.len()
            );
        }
        Err(errors) => {
            for e in &errors {
                eprintln!("skeleton reconciliation: {e}");
            }
            eprintln!(
                "skeleton reconciliation: FAILED ({} error(s))",
                errors.len()
            );
            std::process::exit(1);
        }
    }
}
