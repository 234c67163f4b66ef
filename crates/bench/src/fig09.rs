//! Figure 9 — the MD optimisation ablation, as data.
//!
//! The four kernel configurations of [`OffloadConfig::fig9_variants`]
//! run on a simulated SW26010 CPE cluster for one core group's share of
//! a strong-scaled atom count, at 1–16 core groups. Every number is
//! virtual kernel time, so the result is a pure function of `scale`:
//! the `fig09_md_opts` binary prints it, and `tests/figures_golden.rs`
//! pins it against `tests/golden/fig09.json`.

use mmds_md::domain::{exchange_ghosts, GhostPhase, Loopback};
use mmds_md::offload::{offload_compute_forces, OffloadConfig};
use mmds_md::{MdConfig, MdSimulation};
use mmds_sunway::{CpeCluster, SwModel};
use serde::Serialize;

use crate::paper;

/// Core-group counts of the strong-scaled bars.
const CORE_GROUPS: [usize; 5] = [1, 2, 4, 8, 16];

/// Force evaluations per variant and core-group count.
const STEPS: usize = 3;

/// One bar: a variant's kernel time at one core-group count.
#[derive(Serialize)]
pub struct Fig9Row {
    /// Core groups the atoms are split over.
    pub core_groups: usize,
    /// Cores (65 per core group: one MPE + 64 CPEs).
    pub cores: usize,
    /// Atoms one core group owns.
    pub atoms_per_cg: usize,
    /// Variant name ([`OffloadConfig::fig9_variants`]).
    pub variant: &'static str,
    /// Virtual CPE kernel seconds over `steps` force evaluations.
    pub runtime_s: f64,
}

/// The figure's artefact (`fig09.json`).
#[derive(Serialize)]
pub struct Fig9Result {
    /// Atoms split over the core groups.
    pub total_atoms: usize,
    /// Force evaluations per bar.
    pub steps: usize,
    /// Bars, core-group count major, variant minor.
    pub rows: Vec<Fig9Row>,
    /// 1 − geomean(compacted) / geomean(traditional).
    pub compaction_improvement_geomean: f64,
    /// 1 − geomean(+reuse) / geomean(compacted).
    pub reuse_improvement_geomean: f64,
    /// 1 − geomean(+double buffer) / geomean(+reuse).
    pub double_buffer_improvement_geomean: f64,
    /// The paper's compaction improvement.
    pub paper_compaction_improvement: f64,
    /// The paper's ghost-data reuse improvement.
    pub paper_reuse_improvement: f64,
}

/// Virtual kernel seconds of `steps` offloaded force evaluations of one
/// core group's share (`atoms_per_cg`) under `ocfg`.
fn run_variant(atoms_per_cg: usize, steps: usize, ocfg: &OffloadConfig) -> f64 {
    let cells = (((atoms_per_cg / 2) as f64).cbrt().round() as usize).max(6);
    let cfg = MdConfig {
        table_knots: 5000,
        temperature: 600.0,
        ..Default::default()
    };
    let mut sim = MdSimulation::single_box(cfg, cells);
    sim.init_velocities();
    let cluster = CpeCluster::new(SwModel::sw26010());
    let mut total = 0.0;
    for _ in 0..steps {
        exchange_ghosts(&mut sim.lnl, &mut Loopback, GhostPhase::Positions);
        let interior = sim.interior.clone();
        let pot = sim.pot.clone();
        let out = offload_compute_forces(&mut sim.lnl, &pot, &cluster, ocfg, &interior, |l| {
            exchange_ghosts(l, &mut Loopback, GhostPhase::Fp)
        });
        total += out.kernel_time();
    }
    total
}

fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Runs every bar of the figure for `2·10⁵ · scale³` atoms.
pub fn run(scale: f64) -> Fig9Result {
    let total_atoms = (2.0e5 * scale.powi(3)) as usize;
    let variants = OffloadConfig::fig9_variants();
    let mut rows = Vec::new();
    let mut per_variant: [Vec<f64>; 4] = Default::default();
    for cgs in CORE_GROUPS {
        let atoms_per_cg = total_atoms / cgs;
        for ((name, ocfg), times) in variants.into_iter().zip(&mut per_variant) {
            let runtime_s = run_variant(atoms_per_cg, STEPS, &ocfg);
            times.push(runtime_s);
            rows.push(Fig9Row {
                core_groups: cgs,
                cores: cgs * 65,
                atoms_per_cg,
                variant: name,
                runtime_s,
            });
        }
    }
    let imp = |a: &[f64], b: &[f64]| 1.0 - geomean(b) / geomean(a);
    Fig9Result {
        total_atoms,
        steps: STEPS,
        rows,
        compaction_improvement_geomean: imp(&per_variant[0], &per_variant[1]),
        reuse_improvement_geomean: imp(&per_variant[1], &per_variant[2]),
        double_buffer_improvement_geomean: imp(&per_variant[2], &per_variant[3]),
        paper_compaction_improvement: paper::FIG9_COMPACTION_IMPROVEMENT,
        paper_reuse_improvement: paper::FIG9_REUSE_IMPROVEMENT,
    }
}
