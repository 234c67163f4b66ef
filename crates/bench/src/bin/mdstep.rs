//! `mdstep` — the persistent MD hot-path benchmark.
//!
//! Times full velocity-Verlet steps (both EAM passes + ghost exchange)
//! on the two host implementations [`mmds_md::force::PassConfig`]
//! selects:
//!
//! * `reference`  — the scalar oracle (`PassConfig::seed_serial()`):
//!   one thread, one `sqrt` and separate pair and density lookups (two
//!   segment locates) per partner, two neighbour sweeps per step;
//! * `production` — the default: chunks over the thread pool, fused
//!   lane-batched lookups staged into the persistent gather plan, one
//!   neighbour sweep per step.
//!
//! Both produce bitwise-identical trajectories (see the determinism
//! tests in `mmds-md`), so the comparison is work-fair by construction.
//! Writes `BENCH_mdstep.json` into the current directory — committed
//! at the repo root as the persistent baseline — with per-phase times
//! from `mmds-telemetry` spans.
//!
//! `--smoke` shrinks the box for CI; `RAYON_NUM_THREADS` sets the
//! worker count. Each row is timed three times and the minimum wall
//! time wins — scheduling noise only ever adds time.

use std::time::Instant;

use mmds_bench::header;
use mmds_md::domain::Loopback;
use mmds_md::force::PassConfig;
use mmds_md::{MdConfig, MdSimulation};
use mmds_telemetry::Mode;
use serde::Serialize;

/// Total span seconds of the four hot phases, keyed by leaf span name.
#[derive(Debug, Clone, Copy, Default, Serialize)]
struct PhaseSeconds {
    /// ρ accumulation (`md.density`).
    density: f64,
    /// Embedding F(ρ) (`md.embed`).
    embed: f64,
    /// Force sweep (`md.pair`).
    pair: f64,
    /// Ghost exchanges (`md.ghost`).
    ghost: f64,
}

#[derive(Debug, Serialize)]
struct ConfigResult {
    name: &'static str,
    wall_s: f64,
    atoms_steps_per_sec: f64,
    phase_s: PhaseSeconds,
}

#[derive(Debug, Serialize)]
struct MdstepReport {
    box_cells: usize,
    atoms: usize,
    steps: usize,
    warmup_steps: usize,
    repeats: usize,
    host_threads: usize,
    host_cores: usize,
    table_form: String,
    configs: Vec<ConfigResult>,
    speedup_production_vs_reference: f64,
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

/// Sums `total_s` over every span path whose leaf segment is `leaf`
/// (spans nest, e.g. `md.step/md.force/md.density`).
fn phase_total(reports: &[mmds_telemetry::SpanReport], leaf: &str) -> f64 {
    reports
        .iter()
        .filter(|r| r.path == leaf || r.path.ends_with(&format!("/{leaf}")))
        .map(|r| r.total_s)
        .sum()
}

fn build_sim(cells: usize, pass_config: PassConfig) -> MdSimulation {
    let cfg = MdConfig {
        temperature: 600.0,
        ..Default::default()
    };
    let mut sim = MdSimulation::single_box(cfg, cells);
    sim.pass_config = pass_config;
    sim.init_velocities();
    sim
}

fn run_config(
    name: &'static str,
    pass_config: PassConfig,
    cells: usize,
    warmup: usize,
    steps: usize,
    repeats: usize,
) -> (f64, usize, PhaseSeconds) {
    // Scheduling noise on a shared host only ever *adds* time, so the
    // minimum over identical deterministic repeats is the robust
    // estimate of each configuration's true cost.
    let mut wall = f64::INFINITY;
    let mut atoms = 0;
    let mut phases = PhaseSeconds::default();
    for _ in 0..repeats {
        let mut sim = build_sim(cells, pass_config);
        atoms = sim.n_atoms();
        for _ in 0..warmup {
            sim.step(&mut Loopback);
        }
        let tel = mmds_telemetry::global();
        tel.reset();
        let t0 = Instant::now();
        for _ in 0..steps {
            sim.step(&mut Loopback);
        }
        let w = t0.elapsed().as_secs_f64();
        if w < wall {
            wall = w;
            let reports = tel.run_report().spans;
            phases = PhaseSeconds {
                density: phase_total(&reports, "md.density"),
                embed: phase_total(&reports, "md.embed"),
                pair: phase_total(&reports, "md.pair"),
                ghost: phase_total(&reports, "md.ghost"),
            };
        }
    }
    println!(
        "{name:>16}: {wall:.3} s  ({:.0} atom-steps/s)  [density {:.3} embed {:.3} pair {:.3} ghost {:.3}]",
        (atoms * steps) as f64 / wall,
        phases.density,
        phases.embed,
        phases.pair,
        phases.ghost,
    );
    (wall, atoms, phases)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (cells, warmup, steps, repeats) = if smoke { (4, 1, 3, 1) } else { (8, 3, 20, 3) };
    header("mdstep: MD hot-path baseline (scalar reference vs production plan path)");
    // Summary mode records spans without a JSONL sink; per-config
    // resets isolate each configuration's phase totals. An explicit
    // MMDS_TELEMETRY (e.g. jsonl: for the CI trace artefact) wins.
    if mmds_telemetry::Mode::from_env() == Mode::Off {
        mmds_telemetry::set_mode(Mode::Summary);
    }

    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let host_threads = env_usize("RAYON_NUM_THREADS", host_cores);

    let rows = [
        ("reference", PassConfig::seed_serial()),
        ("production", PassConfig::default()),
    ];
    let mut configs = Vec::new();
    let mut atoms = 0;
    for (name, pc) in rows {
        let (wall, n, phases) = run_config(name, pc, cells, warmup, steps, repeats);
        atoms = n;
        configs.push(ConfigResult {
            name,
            wall_s: wall,
            atoms_steps_per_sec: (n * steps) as f64 / wall,
            phase_s: phases,
        });
    }
    let speedup = configs[0].wall_s / configs[1].wall_s;
    println!();
    println!(
        "production vs reference: {speedup:.2}x  ({host_threads} threads, {host_cores} cores)"
    );

    let report = MdstepReport {
        box_cells: cells,
        atoms,
        steps,
        warmup_steps: warmup,
        repeats,
        host_threads,
        host_cores,
        table_form: "Compacted".to_string(),
        configs,
        speedup_production_vs_reference: speedup,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write("BENCH_mdstep.json", json.clone() + "\n").expect("write BENCH_mdstep.json");
    println!("\n[artefact] BENCH_mdstep.json");
    // Archive after the timed work: the run keys under the same config
    // hash a seeded BENCH_mdstep.json baseline produces.
    mmds_bench::archive::auto_archive_bench("mdstep", &json);
    mmds_telemetry::flush();
}
