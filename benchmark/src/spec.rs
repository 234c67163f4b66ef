//! What the benchmark measures: workloads, frozen work sizes and the
//! metric tables. `BENCHMARK.json` at the repository root repeats the
//! workload and metric tables for the driver; a unit test keeps the two
//! in step.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric. End-to-end metrics carry the share of the parent's
/// median by which they may worsen; per-layer metrics are not gated.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, with the crate or module as prefix for per-layer metrics.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// The end-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[Metric] = &[
    gated("wall_s", "s", 0.25),
    gated("setup_s", "s", 0.25),
    gated("peak_rss_mb", "MiB", 0.10),
];

/// The per-layer metrics, reported by the traced run. A workload that
/// does not reach a layer reports that layer's metrics as 0.
pub const PER_LAYER: &[Metric] = &[
    // eam (md_bulk)
    lower("eam.pair_density_batch_ns_per_partner", "ns"),
    lower("eam.partners_per_step", "count"),
    lower("eam.table_bytes", "B"),
    // lattice (md_bulk)
    lower("lattice.sweep_ns_per_partner", "ns"),
    lower("lattice.build_s", "s"),
    lower("lattice.lnl_bytes", "B"),
    // md host path (md_bulk)
    lower("md.density_s", "s"),
    lower("md.embed_s", "s"),
    lower("md.force_s", "s"),
    lower("md.ghost_s", "s"),
    lower("md.integrate_s", "s"),
    lower("md.transitions_s", "s"),
    lower("md.observe_s", "s"),
    lower("md.step_p50_ms", "ms"),
    lower("md.step_p90_ms", "ms"),
    higher("md.layer_sum_over_wall", "ratio"),
    lower("md.runaways_final", "count"),
    higher("md.atom_steps_per_s", "1/s"),
    lower("md.build_s", "s"),
    higher("md.threads2_speedup", "ratio"),
    lower("md.nve_drift_host", "ratio"),
    lower("md.plan_ref_mismatch_sites", "count"),
    // md::offload + sunway (coupled_2r)
    lower("offload.compute_forces_s", "s"),
    lower("sunway.kernel_virtual_s", "s"),
    lower("sunway.dma_bytes_per_step", "B"),
    lower("md.domain_ghost_s", "s"),
    lower("md.nve_drift_offload", "ratio"),
    // swmpi (coupled_2r)
    lower("swmpi.msgs", "count"),
    lower("swmpi.bytes", "B"),
    lower("swmpi.puts", "count"),
    lower("swmpi.collectives", "count"),
    lower("swmpi.virtual_comm_s", "s"),
    lower("swmpi.exchange_host_s", "s"),
    lower("swmpi.rank_imbalance", "ratio"),
    lower("swmpi.pingpong_us", "us"),
    lower("swmpi.allreduce_us", "us"),
    lower("swmpi.put_fence_us", "us"),
    // kmc (kmc_dense, kmc_fullghost)
    lower("kmc.sector_s", "s"),
    lower("kmc.pre_sector_s", "s"),
    lower("kmc.post_sector_s", "s"),
    lower("kmc.sync_dt_s", "s"),
    higher("kmc.events", "count"),
    lower("kmc.site_evals", "count"),
    lower("kmc.site_evals_per_event", "ratio"),
    higher("kmc.events_per_s", "1/s"),
    lower("kmc.cycle_p50_ms", "ms"),
    lower("kmc.ghost_bytes", "B"),
    lower("kmc.baseline_bytes", "B"),
    lower("kmc.volume_ratio", "ratio"),
    lower("kmc.dirty_fraction", "ratio"),
    higher("kmc.layer_sum_over_wall", "ratio"),
    lower("kmc.build_s", "s"),
    // coupled (coupled_2r)
    lower("coupled.md_phase_s", "s"),
    lower("coupled.handoff_s", "s"),
    lower("coupled.kmc_phase_s", "s"),
    lower("coupled.md_vacancies", "count"),
    higher("coupled.kmc_events", "count"),
    lower("coupled.virtual_md_s", "s"),
    lower("coupled.virtual_kmc_s", "s"),
    // the observers
    lower("telemetry.summary_overhead_frac", "ratio"),
    lower("trace.overhead_frac", "ratio"),
];

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Single-box MD on the host production path.
    MdBulk,
    /// Two-rank coupled MD (CPE offload) then on-demand KMC.
    Coupled2r,
    /// Dense-vacancy KMC, solver-bound.
    KmcDense,
    /// Sparse-vacancy KMC with the traditional full-ghost exchange.
    KmcFullghost,
}

impl Workload {
    /// All workloads in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::MdBulk,
        Workload::Coupled2r,
        Workload::KmcDense,
        Workload::KmcFullghost,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MdBulk => "md_bulk",
            Workload::Coupled2r => "coupled_2r",
            Workload::KmcDense => "kmc_dense",
            Workload::KmcFullghost => "kmc_fullghost",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Why the workload exists: what it stresses and what it bypasses.
    pub fn why(self) -> &'static str {
        match self {
            Workload::MdBulk => {
                "host MD production path (table kernel, neighbour sweep, plan build and replay, per-step allocation) does all the work; no swmpi, KMC or CPE simulator"
            }
            Workload::Coupled2r => {
                "the paper's pipeline on 2 ranks: MD through md::offload + sunway, ghosts through swmpi mailboxes, then latency-bound on-demand KMC; bypasses the host MD path"
            }
            Workload::KmcDense => {
                "328 vacancies in 65 536 sites: kmc::solver rate evaluation does nearly all the work, exchange is idle; an MD change predicts nothing here"
            }
            Workload::KmcFullghost => {
                "7 vacancies with the traditional exchange: the solver is nearly idle and kmc::exchange full-ghost slab pack/unpack dominates; the Fig. 12 denominator"
            }
        }
    }
}

/// `md_bulk` sizes. 12³ cells, not the paper-sized 16³: under glibc's
/// default allocator a 16³ box settles, seed by seed, into one of two
/// heap regimes 17 % apart in wall time (8 of 16 seeds each), which
/// the spread over seeds cannot absorb; at 12³ every seed tried (21)
/// pays the per-step `mmap`/page-fault churn.
#[derive(Debug, Clone, Copy)]
pub struct MdBulkSize {
    /// BCC cells per axis.
    pub cells: usize,
    /// Steps run during set-up, after the first force evaluation.
    pub warmup_steps: usize,
    /// Steps in the timed region.
    pub timed_steps: usize,
}

/// `coupled_2r` sizes. Set-up is one call of `run_coupled_parallel`
/// with both counts divided by [`CoupledSize::WARMUP_DIVISOR`]. The MD
/// phase stops at 40 steps, where the 1 keV cascade has left exactly two
/// vacancies on every seed tried (40 of 40): by 100 steps most seeds have
/// recombined to none, and the KMC phase would then have nothing to do.
#[derive(Debug, Clone, Copy)]
pub struct CoupledSize {
    /// Global BCC cells per axis, split over two ranks.
    pub cells: usize,
    /// MD steps in the timed call.
    pub md_steps: usize,
    /// KMC cycles in the timed call.
    pub kmc_cycles: usize,
}

impl CoupledSize {
    /// The warm-up call runs this fraction of the timed work.
    pub const WARMUP_DIVISOR: usize = 4;
    /// Ranks (and rank threads).
    pub const RANKS: usize = 2;
    /// Primary knock-on energy on rank 0 (eV).
    pub const PKA_EV: f64 = 1000.0;
}

/// `kmc_dense` sizes. KMC work is counted in events: a fixed cycle
/// count would let the seed move the work by ±8 %.
#[derive(Debug, Clone, Copy)]
pub struct KmcDenseSize {
    /// BCC cells per axis.
    pub cells: usize,
    /// Events executed during set-up, in whole cycles.
    pub warmup_events: u64,
    /// Events executed in the timed region, in whole cycles.
    pub timed_events: u64,
}

impl KmcDenseSize {
    /// Seeded vacancy fraction.
    pub const VACANCY_FRACTION: f64 = 5.0e-3;
    /// Short cycles (about 150 events each), so stopping at a cycle
    /// boundary overshoots the event count by a few per cent at most.
    pub const EVENTS_PER_CYCLE: f64 = 0.1;
}

/// `kmc_fullghost` sizes.
#[derive(Debug, Clone, Copy)]
pub struct KmcFullghostSize {
    /// BCC cells per axis.
    pub cells: usize,
    /// Cycles run during set-up.
    pub warmup_cycles: usize,
    /// Cycles in the timed region.
    pub timed_cycles: usize,
}

impl KmcFullghostSize {
    /// Seeded vacancy fraction.
    pub const VACANCY_FRACTION: f64 = 1.0e-4;
    /// A short quantum keeps the solver nearly idle, so the cycle cost
    /// is the slab exchange and does not follow the seed's event count.
    pub const EVENTS_PER_CYCLE: f64 = 0.25;
}

/// The frozen work of one repetition of every workload.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `md_bulk`.
    pub md_bulk: MdBulkSize,
    /// `coupled_2r`.
    pub coupled: CoupledSize,
    /// `kmc_dense`.
    pub kmc_dense: KmcDenseSize,
    /// `kmc_fullghost`.
    pub kmc_fullghost: KmcFullghostSize,
    /// Cells per axis of the NVE and reference side-runs.
    pub check_cells: usize,
    /// Steps of the NVE side-runs.
    pub nve_steps: usize,
}

impl Sizes {
    /// The calibrated sizes (2-vCPU 2.1 GHz Xeon sandbox: each
    /// repetition sets up for about 1 s and times about 3 s of work).
    pub const FULL: Sizes = Sizes {
        md_bulk: MdBulkSize {
            cells: 12,
            warmup_steps: 100,
            timed_steps: 240,
        },
        coupled: CoupledSize {
            cells: 16,
            md_steps: 40,
            kmc_cycles: 4000,
        },
        kmc_dense: KmcDenseSize {
            cells: 32,
            warmup_events: 1500,
            timed_events: 4000,
        },
        kmc_fullghost: KmcFullghostSize {
            cells: 32,
            warmup_cycles: 200,
            timed_cycles: 800,
        },
        check_cells: 16,
        nve_steps: 40,
    };

    /// Tiny sizes for `--smoke`: every code path, no meaningful timing.
    pub const SMOKE: Sizes = Sizes {
        md_bulk: MdBulkSize {
            cells: 8,
            warmup_steps: 4,
            timed_steps: 12,
        },
        coupled: CoupledSize {
            cells: 12,
            md_steps: 8,
            kmc_cycles: 80,
        },
        kmc_dense: KmcDenseSize {
            cells: 12,
            warmup_events: 20,
            timed_events: 100,
        },
        kmc_fullghost: KmcFullghostSize {
            cells: 12,
            warmup_cycles: 5,
            timed_cycles: 30,
        },
        check_cells: 8,
        nve_steps: 10,
    };
}

/// Relative total-energy drift an NVE side-run may show.
pub const NVE_DRIFT_LIMIT: f64 = 2.0e-4;

/// Share of the traced wall time the layer spans must account for.
pub const LAYER_COVERAGE_MIN: f64 = 0.95;

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 20180813;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// True when `name` may only contain what the driver accepts.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        let first_ok = chars.next().is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// True when `unit` may only contain what the driver accepts.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_units_and_bounds_are_valid() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}: {}", m.name, m.unit);
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}: {}", m.name, m.unit);
            assert!(m.bound.is_none(), "{} is not gated", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for w in Workload::ALL {
            assert!(valid_name(w.name()));
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
            assert!(seen.insert(w.name()), "{} used twice", w.name());
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert!(PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "set-up has the largest bound");
    }

    #[test]
    fn name_rules() {
        assert!(valid_name("md.step_p50_ms"));
        assert!(valid_name("2r-x"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("MiB") && valid_unit("%"));
        assert!(!valid_unit("") && !valid_unit("per second"));
    }

    /// `BENCHMARK.json` is what the driver reads; the tables above are
    /// what the binaries print. They must not drift apart.
    #[test]
    fn benchmark_json_matches_the_tables() {
        use serde_json::Value;

        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = serde_json::parse(&text).expect("BENCHMARK.json parses");
        let text_of = |v: &Value, k: &str| -> String {
            match v.get(k) {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("{k}: expected a string, found {other:?}"),
            }
        };
        let rows = |k: &str| -> Vec<Value> {
            match doc.get(k) {
                Some(Value::Seq(rows)) => rows.clone(),
                other => panic!("{k}: expected an array, found {other:?}"),
            }
        };

        let workloads = rows("workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (row, w) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(text_of(row, "name"), w.name());
            assert_eq!(text_of(row, "why"), w.why());
        }
        let check = |k: &str, table: &[Metric]| {
            let listed = rows(k);
            assert_eq!(listed.len(), table.len(), "{k}");
            for (row, m) in listed.iter().zip(table) {
                assert_eq!(text_of(row, "name"), m.name);
                assert_eq!(text_of(row, "unit"), m.unit, "{}", m.name);
                assert_eq!(text_of(row, "better"), m.better.as_str(), "{}", m.name);
                let bound = match row.get("bound") {
                    Some(Value::F64(b)) => Some(*b),
                    None => None,
                    other => panic!("{}: bound {other:?}", m.name),
                };
                assert_eq!(bound, m.bound, "{}", m.name);
            }
        };
        check("end_to_end", END_TO_END);
        check("per_layer", PER_LAYER);
        assert_eq!(rows("paths"), vec![Value::Str("benchmark".into())]);
    }
}
