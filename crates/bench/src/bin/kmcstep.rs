//! `kmcstep` — the persistent KMC hot-path benchmark.
//!
//! Times full synchronisation cycles (8 sectors + exchanges) of the
//! synchronous-sublattice engine under the three exchange strategies:
//!
//! * `traditional`        — full-ghost slab get/put around every sector;
//! * `on-demand-2sided`   — dirty-site records over tagged two-sided
//!   messages (zero-size messages included);
//! * `on-demand-1sided`   — dirty-site records over put+fence windows.
//!
//! All three produce identical owned-site trajectories with the same
//! seed (see `mmds-kmc`'s `strategies_produce_identical_evolution`), so
//! the comparison is work-fair by construction. The gated throughput
//! metric is site·cycles per second, reported in the same
//! `atoms_steps_per_sec` field the regression gate reads. Writes
//! `BENCH_kmcstep.json` into the current directory — committed at the
//! repo root as the persistent baseline — plus the per-strategy
//! comm-savings accounting against the analytic full-ghost baseline.
//!
//! `--smoke` shrinks the box and the cycle count for CI.

use std::time::Instant;

use mmds_bench::header;
use mmds_kmc::comm::LoopbackK;
use mmds_kmc::lattice::required_ghost;
use mmds_kmc::{ExchangeStrategy, KmcConfig, KmcSimulation, OnDemandMode};
use mmds_lattice::{BccGeometry, LocalGrid};
use mmds_telemetry::Mode;
use serde::Serialize;

/// Vacancy concentration seeded into the benchmark box (localized
/// enough that on-demand exchange has real savings to show).
const CONCENTRATION: f64 = 2.0e-3;

#[derive(Debug, Serialize)]
struct ConfigResult {
    name: &'static str,
    wall_s: f64,
    /// Site·cycles per second — named so the shared bench gate
    /// (`mmds-inspect diff`) can read it like the MD benchmark.
    atoms_steps_per_sec: f64,
    events: u64,
    ghost_bytes: f64,
    baseline_bytes: f64,
    volume_ratio: f64,
    dirty_fraction: f64,
}

#[derive(Debug, Serialize)]
struct KmcstepReport {
    box_cells: usize,
    sites: usize,
    cycles: usize,
    warmup_cycles: usize,
    vacancies: usize,
    configs: Vec<ConfigResult>,
}

fn build_sim(cells: usize) -> KmcSimulation {
    let cfg = KmcConfig {
        table_knots: 1500,
        events_per_cycle: 2.0,
        ..Default::default()
    };
    let ghost = required_ghost(cfg.a0, cfg.rate_cutoff);
    let grid = LocalGrid::whole(BccGeometry::new(cfg.a0, cells, cells, cells), ghost);
    let mut sim = KmcSimulation::new(cfg, grid);
    let n_vac = (CONCENTRATION * sim.lat.n_owned() as f64).round().max(1.0) as usize;
    sim.lat.seed_vacancies(n_vac, 7);
    sim.initialize(&mut LoopbackK);
    sim
}

fn run_config(
    name: &'static str,
    strategy: ExchangeStrategy,
    cells: usize,
    warmup: usize,
    cycles: usize,
) -> ConfigResult {
    let mut sim = build_sim(cells);
    let sites = 2 * cells.pow(3);
    let mut t = LoopbackK;
    // Two resets: one so this config's warmup doesn't rewind the
    // previous config's (monotonic) series tracks, one so the timed
    // window's accounting starts clean.
    let tel = mmds_telemetry::global();
    tel.reset();
    sim.run_cycles(strategy, &mut t, warmup);
    tel.reset();
    let t0 = Instant::now();
    let events = sim.run_cycles(strategy, &mut t, cycles);
    let wall = t0.elapsed().as_secs_f64();
    let named = tel.run_report().counters.named;
    let get = |n: &str| named.get(n).copied().unwrap_or(0.0);
    let ghost_bytes = get("kmc.ghost_bytes");
    let baseline_bytes = get("kmc.exchange.baseline_bytes");
    let dirty = get("kmc.exchange.dirty_sites");
    let cand = get("kmc.exchange.candidate_sites");
    let res = ConfigResult {
        name,
        wall_s: wall,
        atoms_steps_per_sec: (sites * cycles) as f64 / wall,
        events,
        ghost_bytes,
        baseline_bytes,
        volume_ratio: if baseline_bytes > 0.0 {
            ghost_bytes / baseline_bytes
        } else {
            0.0
        },
        dirty_fraction: if cand > 0.0 { dirty / cand } else { 0.0 },
    };
    println!(
        "{name:>16}: {wall:.3} s  ({:.0} site-cycles/s)  [{} events, {:.0} B vs {:.0} B baseline, ratio {:.4}]",
        res.atoms_steps_per_sec, res.events, res.ghost_bytes, res.baseline_bytes, res.volume_ratio,
    );
    res
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (cells, cycles, warmup) = if smoke { (8, 4, 1) } else { (12, 12, 3) };
    header("kmcstep: KMC hot-path baseline (traditional vs on-demand exchange)");
    if mmds_telemetry::Mode::from_env() == Mode::Off {
        mmds_telemetry::set_mode(Mode::Summary);
    }

    let matrix: [(&'static str, ExchangeStrategy); 3] = [
        ("traditional", ExchangeStrategy::Traditional),
        (
            "on-demand-2sided",
            ExchangeStrategy::OnDemand(OnDemandMode::TwoSided),
        ),
        (
            "on-demand-1sided",
            ExchangeStrategy::OnDemand(OnDemandMode::OneSided),
        ),
    ];

    let mut configs = Vec::new();
    for (name, strategy) in matrix {
        configs.push(run_config(name, strategy, cells, warmup, cycles));
    }

    let trad = configs[0].ghost_bytes;
    if trad > 0.0 {
        println!();
        for c in &configs[1..] {
            println!(
                "{}: {:.1}% of traditional traffic (paper Fig. 12 reference: 2.6%)",
                c.name,
                100.0 * c.ghost_bytes / trad,
            );
        }
    }

    let sim = build_sim(cells);
    let report = KmcstepReport {
        box_cells: cells,
        sites: 2 * cells.pow(3),
        cycles,
        warmup_cycles: warmup,
        vacancies: sim.lat.n_vacancies(),
        configs,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write("BENCH_kmcstep.json", json.clone() + "\n").expect("write BENCH_kmcstep.json");
    println!("\n[artefact] BENCH_kmcstep.json");
    mmds_bench::archive::auto_archive_bench("kmcstep", &json);
    mmds_telemetry::flush();
}
