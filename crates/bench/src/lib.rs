//! The paper's evaluation as data, and the harness its binaries share.
//!
//! Each figure and ablation is one module with one entry point,
//! `run(scale)` (the ablations' boxes are fixed, so theirs take no
//! scale), returning the figure's artefact:
//! * a *measured* laptop-scale experiment (real code over simulated
//!   ranks / CPE clusters, deterministic virtual time);
//! * where the paper's x-axis exceeds what a laptop can host, a
//!   *projected* series at the paper's scale via `mmds-perfmodel`;
//! * the paper's reference values from [`paper`].
//!
//! No figure reads a host clock or the environment, so each result is
//! a pure function of its scale: `tests/figures_golden.rs` pins every
//! one byte for byte and asserts the paper's claims on it. The binaries
//! under `src/bin/` read `MMDS_SCALE` through [`scale`], call `run`,
//! print the rows next to the paper's, and write the JSON artefact
//! under `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation_runaway;
pub mod ablation_tables;
pub mod archive;
pub mod causal;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod inspect;
pub mod reconcile;
pub mod watch;

use std::path::PathBuf;

use serde::{Serialize, Value};

/// Scale factor for experiment sizes: `MMDS_SCALE=2 cargo run ...`
/// doubles the default linear box sizes (8× the atoms). Only the
/// binaries' `main` calls it; the figures take the scale as an
/// argument. A value [`parse_scale`] refuses ends the process with
/// exit code 2 instead of running the default box.
pub fn scale() -> f64 {
    let raw = std::env::var_os("MMDS_SCALE").map(|v| v.to_string_lossy().into_owned());
    parse_scale(raw.as_deref()).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// The scale `MMDS_SCALE` asks for: 1 when unset, otherwise a positive,
/// finite decimal number (`0,5`, `0`, `-1`, `NaN` and `inf` are
/// refused, naming the value).
pub fn parse_scale(raw: Option<&str>) -> Result<f64, String> {
    let Some(raw) = raw else { return Ok(1.0) };
    match raw.parse::<f64>() {
        Ok(v) if v.is_finite() && v > 0.0 => Ok(v),
        _ => Err(format!(
            "MMDS_SCALE={raw:?} is not a positive finite number (write e.g. 0.5)"
        )),
    }
}

/// Scales a linear dimension `base` by `scale`, keeping it even
/// (sector/divisibility requirements) and at least `min`.
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

/// Prints a figure's rows as a table: one column per serialised field,
/// in declaration order, so the headers are the artefact's keys. Times
/// (`*_s`, and a projection's `compute`/`comm`/`total`) print compactly,
/// efficiencies and a `ratio` as percentages.
pub fn print_rows<T: Serialize>(rows: &[T]) {
    let values: Vec<Value> = rows.iter().map(Serialize::to_value).collect();
    let Some(Value::Map(first)) = values.first() else {
        return;
    };
    let headers: Vec<&str> = first.iter().map(|(k, _)| k.as_str()).collect();
    let cells: Vec<Vec<String>> = values
        .iter()
        .map(|v| headers.iter().map(|k| cell(k, v.get(k))).collect())
        .collect();
    print!("{}", mmds_analysis::io::render_table(&headers, &cells));
}

fn cell(key: &str, value: Option<&Value>) -> String {
    let time = key.ends_with("_s") || matches!(key, "compute" | "comm" | "total");
    match value {
        Some(Value::F64(x)) if time => fmt_s(*x),
        Some(Value::F64(x)) if key == "efficiency" || key == "ratio" => fmt_pct(*x),
        Some(Value::F64(x)) if x.abs() >= 1e5 => format!("{x:.2e}"),
        Some(Value::F64(x)) => format!("{x:.2}"),
        Some(Value::I64(n)) => n.to_string(),
        Some(Value::U64(n)) => n.to_string(),
        Some(Value::Str(s)) => s.clone(),
        _ => "-".to_string(),
    }
}

/// The paper's bars as one line, `-` where the paper has none.
pub fn fmt_bars(bars: &[Option<f64>]) -> String {
    let cells: Vec<String> = bars
        .iter()
        .map(|b| b.map_or("-".to_string(), fmt_pct))
        .collect();
    cells.join(", ")
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

/// Shared KMC sweep of Figs. 12–15.
pub mod kmc_sweep {
    use mmds_kmc::parallel::{run_parallel_kmc, total_bytes_sent, ParallelKmcParams};
    use mmds_kmc::{ExchangeStrategy, KmcConfig};
    use mmds_swmpi::topology::CartGrid;
    use mmds_swmpi::{CommStats, World};

    /// One strategy's outcome at one rank count.
    pub struct SweepPoint {
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

    /// What every point of one figure's sweep shares.
    pub struct Sweep {
        /// Vacancy concentration of every box.
        pub concentration: f64,
        /// Synchronisation cycles per point.
        pub cycles: usize,
        /// Whether ranks charge modelled compute to their clocks.
        pub charge_compute: bool,
    }

    impl Sweep {
        /// Strong scaling: a fixed global box split over `ranks`.
        pub fn fixed_box(
            &self,
            world: &World,
            ranks: usize,
            global_cells: [usize; 3],
            strategy: ExchangeStrategy,
        ) -> SweepPoint {
            let params = ParallelKmcParams {
                kmc: KmcConfig {
                    table_knots: 1500,
                    events_per_cycle: 1.0,
                    ..Default::default()
                },
                global_cells,
                vacancy_concentration: self.concentration,
                cycles: self.cycles,
                strategy,
                charge_compute: self.charge_compute,
            };
            let out = run_parallel_kmc(world, ranks, &params);
            let stats: Vec<CommStats> = out.iter().map(|o| o.stats).collect();
            SweepPoint {
                sites: 2 * global_cells[0] * global_cells[1] * global_cells[2],
                events: out.iter().map(|o| o.result.events).sum(),
                bytes: total_bytes_sent(&out),
                comm_time: CommStats::max_comm_time(&stats),
                compute_time: CommStats::max_compute_time(&stats),
            }
        }

        /// Weak scaling: `per_rank_cells`³ per rank on the [`CartGrid`]
        /// of `ranks`.
        pub fn per_rank(
            &self,
            world: &World,
            ranks: usize,
            per_rank_cells: usize,
            strategy: ExchangeStrategy,
        ) -> SweepPoint {
            let global_cells = CartGrid::for_ranks(ranks).dims.map(|d| d * per_rank_cells);
            self.fixed_box(world, ranks, global_cells, strategy)
        }
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
    /// Fig. 15: the efficiency bars at 1.6k, 3.2k, 6.4k, 12.8k, 25.6k,
    /// 51.2k and 102.4k master cores (the paper has no 6.4k bar).
    pub const FIG15_BARS: [Option<f64>; 7] = [
        Some(FIG15_FIRST_EFFICIENCY),
        Some(0.881),
        None,
        Some(0.861),
        Some(0.852),
        Some(0.799),
        Some(FIG15_EFFICIENCY),
    ];
    /// Fig. 16: coupled weak-scaling efficiency at 6.24M cores.
    pub const FIG16_EFFICIENCY: f64 = 0.757;
    /// Fig. 16: the efficiency bars at 1.5k, 6k, 24k and 96k core
    /// groups (the 1.5k-group run is the baseline and has no bar).
    pub const FIG16_BARS: [Option<f64>; 4] =
        [None, Some(0.989), Some(0.774), Some(FIG16_EFFICIENCY)];
    /// §3: physical time represented by the big run.
    pub const HEADLINE_DAYS: f64 = 19.2;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_one_unless_set_to_a_positive_number() {
        assert_eq!(parse_scale(None), Ok(1.0));
        assert_eq!(parse_scale(Some("0.5")), Ok(0.5));
        assert_eq!(parse_scale(Some("2")), Ok(2.0));
        for bad in ["0,5", "abc", "0", "-1", "NaN", "inf", ""] {
            let err = parse_scale(Some(bad)).expect_err(bad);
            assert!(err.contains(&format!("MMDS_SCALE={bad:?}")), "{err}");
        }
    }

    #[test]
    fn cells_at_is_even_and_bounded() {
        assert_eq!(cells_at(1.0, 16, 8), 16);
        assert_eq!(cells_at(0.75, 24, 12), 18);
        assert_eq!(cells_at(0.5, 14, 10), 10);
        assert_eq!(cells_at(1.0, 7, 6), 8);
        assert!((1..=40).all(|base| cells_at(0.3, base, 6).is_multiple_of(2)));
        assert_eq!(cells_at(0.1, 40, 6), 6);
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_pct(0.853), "85.3%");
        assert_eq!(fmt_s(250.0), "250");
        assert!(fmt_s(0.0021).ends_with('m'));
        assert!(fmt_s(3.2e-5).ends_with('u'));
    }
}
