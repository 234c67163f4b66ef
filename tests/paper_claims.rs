//! Guard tests: the paper's claims that need no figure run.
//!
//! Every figure's claims are asserted on its golden-pinned result in
//! `crates/bench/tests/figures_golden.rs`. What stays here is the §3
//! closed-form arithmetic, and Fig. 9's compaction share on an 8-CPE,
//! 64-site-block kernel — a shape no figure runs. Reference numbers
//! come from `mmds_bench::paper`.

use mmds::md::domain::{exchange_ghosts, GhostPhase, Loopback};
use mmds::md::offload::{offload_compute_forces, OffloadConfig};
use mmds::md::{MdConfig, MdSimulation};
use mmds::sunway::{CpeCluster, SwModel};
use mmds_bench::paper;

/// Fig. 9 / §2.1.2: table compaction removes most of the kernel time
/// (paper: 54.7% average), reuse and double-buffering never hurt.
#[test]
fn claim_compaction_dominates_fig9() {
    let kernel_time = |ocfg: &OffloadConfig| -> f64 {
        let mut sim = MdSimulation::single_box(
            MdConfig {
                table_knots: 5000,
                ..Default::default()
            },
            6,
        );
        sim.init_velocities();
        let cluster = CpeCluster::new(SwModel {
            n_cpes: 8,
            ..SwModel::sw26010()
        });
        exchange_ghosts(&mut sim.lnl, &mut Loopback, GhostPhase::Positions);
        let interior = sim.interior.clone();
        let pot = sim.pot.clone();
        let mut cfg = *ocfg;
        cfg.block_sites = 64;
        offload_compute_forces(&mut sim.lnl, &pot, &cluster, &cfg, &interior, |l| {
            exchange_ghosts(l, &mut Loopback, GhostPhase::Fp)
        })
        .kernel_time()
    };
    let v = OffloadConfig::fig9_variants();
    let t: Vec<f64> = v.iter().map(|(_, c)| kernel_time(c)).collect();
    assert!(
        1.0 - t[1] / t[0] > 0.40,
        "compaction must cut ≥40% (paper: {:.1}%), got {:.1}%",
        100.0 * paper::FIG9_COMPACTION_IMPROVEMENT,
        100.0 * (1.0 - t[1] / t[0])
    );
    assert!(t[2] <= t[1] * 1.001, "reuse must not hurt");
    assert!(t[3] <= t[2] * 1.001, "double buffering must not hurt");
    assert!(
        1.0 - t[3] / t[2] < 0.10,
        "double buffering gives no big win (paper: none)"
    );
}

/// §3: the 19.2-day rescaling arithmetic.
#[test]
fn claim_19_2_days() {
    let days = mmds::coupled::timescale::paper_configuration_days();
    let paper_days = paper::HEADLINE_DAYS;
    assert!((days - paper_days).abs() / paper_days < 0.02, "{days} days");
}

/// §3: the memory-capacity headline (4e12 vs 8e11 atoms).
#[test]
fn claim_capacity_headline() {
    use mmds::lattice::memory::MemoryModel;
    assert!(MemoryModel::lattice_neighbor_list().capacity(102_400) > paper::FIG11_LNL_ATOMS);
    let v = MemoryModel::verlet_list().capacity(102_400);
    let paper_v = paper::FIG11_VERLET_ATOMS;
    assert!((0.75 * paper_v..1.5 * paper_v).contains(&v));
}
