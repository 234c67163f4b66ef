//! Shared harness utilities for the figure-reproduction binaries.
//!
//! Every binary:
//! * runs a *measured* laptop-scale experiment (real code over
//!   simulated ranks / CPE clusters, deterministic virtual time);
//! * where the paper's x-axis exceeds what a laptop can host, emits a
//!   *projected* series at the paper's scale via `mmds-perfmodel`;
//! * prints the same rows the paper's figure reports, next to the
//!   paper's reference values;
//! * writes a JSON artefact under `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod archive;
pub mod causal;
pub mod fig09;
pub mod fig14;
pub mod inspect;
pub mod reconcile;
pub mod watch;

use std::path::PathBuf;

use serde::Serialize;

/// Scale factor for experiment sizes: `MMDS_SCALE=2 cargo run ...`
/// doubles the default linear box sizes (8× the atoms).
pub fn scale() -> f64 {
    std::env::var("MMDS_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// Scales a linear dimension, keeping it even (sector/divisibility
/// requirements) and at least `min`.
pub fn scaled_cells(base: usize, min: usize) -> usize {
    cells_at(scale(), base, min)
}

/// [`scaled_cells`] at an explicit `scale`.
pub fn cells_at(scale: f64, base: usize, min: usize) -> usize {
    let v = (base as f64 * scale).round() as usize;
    (v.max(min) + 1) & !1
}

/// Output directory for JSON/CSV artefacts (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("MMDS_RESULTS").unwrap_or_else(|_| "results".to_string());
    let p = PathBuf::from(dir);
    std::fs::create_dir_all(&p).expect("create results dir");
    p
}

/// Writes `value` as pretty JSON under the results dir and announces it.
pub fn emit_json<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(name);
    mmds_analysis::io::write_json(&path, value).expect("write JSON artefact");
    println!("\n[artefact] {}", path.display());
}

/// The single exit point of every figure binary: writes the figure's
/// JSON artefact, and — when `MMDS_TELEMETRY` is on — a sibling
/// `<stem>.telemetry.json` holding the run-wide
/// [`mmds_telemetry::RunReport`] (spans, per-rank comm/CPE counters,
/// imbalance table, samples), a sibling `<stem>.series.json` with the
/// science time-series tracks when any were recorded (defect census,
/// comm-savings), plus the flamegraph-style self-time tree on stdout.
/// In `jsonl:` mode, also converts the event stream to a sibling
/// `<stem>.perfetto.json` Chrome trace.
pub fn emit_report<T: Serialize>(name: &str, value: &T) {
    emit_json(name, value);
    // The global FileSink is never dropped at process exit; flush so
    // the stream tail survives (satellite of the live-monitor work).
    mmds_telemetry::flush();
    let tel = mmds_telemetry::global();
    if tel.enabled() {
        let stem = name.strip_suffix(".json").unwrap_or(name);
        let report = tel.run_report();
        emit_json(&format!("{stem}.telemetry.json"), &report);
        if !report.series.is_empty() {
            emit_json(&format!("{stem}.series.json"), &report.series);
        }
        println!("{}", tel.render_tree());
        if let Some(trace_path) = tel.jsonl_path() {
            tel.flush_sink();
            if let Ok(text) = std::fs::read_to_string(&trace_path) {
                let perfetto = mmds_telemetry::perfetto::export_jsonl(&text);
                let out = results_dir().join(format!("{stem}.perfetto.json"));
                if std::fs::write(&out, perfetto).is_ok() {
                    println!(
                        "[artefact] {} (open at https://ui.perfetto.dev)",
                        out.display()
                    );
                }
            }
        }
    }
}

/// Prints a section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Formats seconds compactly.
pub fn fmt_s(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else if s >= 1e-3 {
        format!("{:.2}m", s * 1e3)
    } else {
        format!("{:.1}u", s * 1e6)
    }
}

/// Formats a percentage.
pub fn fmt_pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Shared KMC sweep used by the Fig. 12/13 binaries.
pub mod kmc_sweep {
    use mmds_kmc::parallel::{run_parallel_kmc, total_bytes_sent, ParallelKmcParams};
    use mmds_kmc::{ExchangeStrategy, KmcConfig};
    use mmds_swmpi::topology::CartGrid;
    use mmds_swmpi::{CommStats, World};
    use serde::Serialize;

    /// One strategy's outcome at one rank count.
    #[derive(Debug, Clone, Copy, Serialize)]
    pub struct SweepPoint {
        /// Ranks (the paper's "master cores").
        pub ranks: usize,
        /// Total sites.
        pub sites: usize,
        /// Total events.
        pub events: u64,
        /// Total bytes moved by all ranks (Fig. 12 metric).
        pub bytes: u64,
        /// Max per-rank communication time, virtual seconds (Fig. 13).
        pub comm_time: f64,
        /// Max per-rank compute time.
        pub compute_time: f64,
    }

    /// Strong-scaling variant: a fixed global box split over `ranks`.
    #[allow(clippy::too_many_arguments)]
    pub fn run_fixed_box(
        world: &World,
        ranks: usize,
        global_cells: [usize; 3],
        concentration: f64,
        cycles: usize,
        strategy: ExchangeStrategy,
        charge_compute: bool,
    ) -> SweepPoint {
        let params = ParallelKmcParams {
            kmc: KmcConfig {
                table_knots: 1500,
                events_per_cycle: 1.0,
                ..Default::default()
            },
            global_cells,
            vacancy_concentration: concentration,
            cycles,
            strategy,
            charge_compute,
        };
        let out = run_parallel_kmc(world, ranks, &params);
        let stats: Vec<CommStats> = out.iter().map(|o| o.stats).collect();
        SweepPoint {
            ranks,
            sites: 2 * global_cells[0] * global_cells[1] * global_cells[2],
            events: out.iter().map(|o| o.result.events).sum(),
            bytes: total_bytes_sent(&out),
            comm_time: CommStats::max_comm_time(&stats),
            compute_time: CommStats::max_compute_time(&stats),
        }
    }

    /// Weak-scaling variant: `per_rank_cells`³ per rank on the
    /// [`CartGrid`] of `ranks`.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        world: &World,
        ranks: usize,
        per_rank_cells: usize,
        concentration: f64,
        cycles: usize,
        strategy: ExchangeStrategy,
        charge_compute: bool,
    ) -> SweepPoint {
        let global_cells = CartGrid::for_ranks(ranks).dims.map(|d| d * per_rank_cells);
        run_fixed_box(
            world,
            ranks,
            global_cells,
            concentration,
            cycles,
            strategy,
            charge_compute,
        )
    }
}

/// Paper reference values, embedded so every run prints the comparison.
pub mod paper {
    /// Fig. 9: mean runtime reduction from table compaction.
    pub const FIG9_COMPACTION_IMPROVEMENT: f64 = 0.547;
    /// Fig. 9: additional improvement from ghost-data reuse.
    pub const FIG9_REUSE_IMPROVEMENT: f64 = 0.04;
    /// Fig. 10: strong-scaling speedup at 64× cores.
    pub const FIG10_SPEEDUP: f64 = 26.4;
    /// Fig. 10: strong-scaling efficiency at 6.24M cores.
    pub const FIG10_EFFICIENCY: f64 = 0.413;
    /// Fig. 11: weak-scaling efficiency at 6.656M cores.
    pub const FIG11_EFFICIENCY: f64 = 0.85;
    /// Fig. 11 / §3: atoms simulated with the lattice neighbor list.
    pub const FIG11_LNL_ATOMS: f64 = 4.0e12;
    /// Fig. 11 / §3: atoms possible with a traditional neighbour list.
    pub const FIG11_VERLET_ATOMS: f64 = 8.0e11;
    /// Fig. 12: on-demand communication volume vs traditional.
    pub const FIG12_VOLUME_RATIO: f64 = 0.026;
    /// Fig. 13: communication-time speedup of on-demand.
    pub const FIG13_TIME_SPEEDUP: f64 = 21.0;
    /// Fig. 14: KMC strong-scaling speedup at 32× cores.
    pub const FIG14_SPEEDUP: f64 = 18.5;
    /// Fig. 14: KMC strong-scaling efficiency at 48k cores.
    pub const FIG14_EFFICIENCY: f64 = 0.582;
    /// Fig. 15: KMC weak-scaling efficiency at 102.4k cores.
    pub const FIG15_EFFICIENCY: f64 = 0.74;
    /// Fig. 15: KMC weak-scaling efficiency at 1.6k cores (baseline bar).
    pub const FIG15_FIRST_EFFICIENCY: f64 = 0.972;
    /// Fig. 16: coupled weak-scaling efficiency at 6.24M cores.
    pub const FIG16_EFFICIENCY: f64 = 0.757;
    /// §3: physical time represented by the big run.
    pub const HEADLINE_DAYS: f64 = 19.2;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_cells_is_even_and_bounded() {
        assert_eq!(scaled_cells(8, 6) % 2, 0);
        assert!(scaled_cells(1, 6) >= 6);
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_pct(0.853), "85.3%");
        assert_eq!(fmt_s(250.0), "250");
        assert!(fmt_s(0.0021).ends_with('m'));
        assert!(fmt_s(3.2e-5).ends_with('u'));
    }
}
