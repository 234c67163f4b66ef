//! Acceptance test for the in-situ defect-evolution observatory and the
//! on-demand comm-savings accounting (the streaming science layer).
//!
//! One sequential test (the telemetry registry is process-global and
//! series time axes restart per simulation) asserting the three
//! observatory guarantees:
//!
//! (a) the census never perturbs the dynamics — cascade trajectories
//!     are bitwise identical with the census on or off;
//! (b) the in-situ census agrees exactly with an offline
//!     `mmds-analysis` pass over the final state;
//! (c) on a localized-cascade KMC workload, the recorded on-demand
//!     exchange traffic stays at or below the computed full-ghost
//!     baseline, with a dirty-site fraction strictly below 1.

use mmds::analysis::clusters::cluster_sizes;
use mmds::kmc::comm::LoopbackK;
use mmds::kmc::lattice::required_ghost;
use mmds::kmc::{ExchangeStrategy, KmcConfig, KmcSimulation, OnDemandMode};
use mmds::lattice::{BccGeometry, LocalGrid};
use mmds::md::cascade::{launch_pka, PKA_DIRECTION};
use mmds::md::census::CensusConfig;
use mmds::md::{MdConfig, MdSimulation};
use mmds_telemetry::Mode;

const STEPS: usize = 20;
const CADENCE: usize = 5;

fn cascade_sim() -> MdSimulation {
    let cfg = MdConfig {
        table_knots: 800,
        temperature: 150.0,
        thermostat_tau: Some(0.02),
        ..Default::default()
    };
    let mut s = MdSimulation::single_box(cfg, 6);
    s.init_velocities();
    let pka = s.lnl.grid.site_id(5, 5, 5, 0);
    launch_pka(&mut s.lnl, pka, 180.0, PKA_DIRECTION, s.mass);
    s
}

/// (a) Census on vs off: bitwise-identical trajectories.
fn assert_census_does_not_perturb_dynamics() {
    let tel = mmds_telemetry::global();
    tel.reset();
    let mut off = cascade_sim();
    off.run_local(STEPS);
    assert_eq!(off.observatory.passes(), 0, "census is off by default");

    tel.reset();
    let mut on = cascade_sim();
    on.observatory.cfg = CensusConfig::every(CADENCE);
    on.run_local(STEPS);
    assert_eq!(on.observatory.passes(), (STEPS / CADENCE) as u64);

    for &s in &off.interior {
        assert_eq!(off.lnl.pos[s], on.lnl.pos[s], "positions at site {s}");
        assert_eq!(off.lnl.vel[s], on.lnl.vel[s], "velocities at site {s}");
        assert_eq!(off.lnl.id[s], on.lnl.id[s], "occupancy at site {s}");
    }
    assert_eq!(off.lnl.n_runaways(), on.lnl.n_runaways());
    for (a, b) in off.lnl.live_runaways().iter().zip(on.lnl.live_runaways()) {
        assert_eq!(off.lnl.runaway(*a).pos, on.lnl.runaway(b).pos);
    }
}

/// (b) The streamed census matches an offline analysis of the final
/// state — run with telemetry on, then recompute from scratch.
fn assert_in_situ_matches_offline() {
    let tel = mmds_telemetry::global();
    tel.reset();

    let mut sim = cascade_sim();
    sim.observatory.cfg = CensusConfig::every(CADENCE);
    // STEPS is a cadence multiple, so the last census pass observes
    // exactly the final state.
    sim.run_local(STEPS);

    let report = tel.run_report();
    let series = |name: &str| -> f64 {
        report
            .series
            .iter()
            .find(|t| t.name == name)
            .and_then(|t| t.last_value())
            .unwrap_or_else(|| panic!("series `{name}` missing from the run report"))
    };

    // Offline pass: gather defects straight off the lattice and
    // cluster them with the analysis crate, independently of the
    // observatory's buffers.
    let vac_points: Vec<[f64; 3]> = sim
        .interior
        .iter()
        .filter(|&&s| sim.lnl.is_vacancy(s))
        .map(|&s| {
            let (i, j, k, b) = sim.lnl.grid.decode(s);
            sim.lnl.grid.site_position(i, j, k, b)
        })
        .collect();
    let geom = &sim.lnl.grid.global;
    let offline = cluster_sizes(
        &vac_points,
        geom.box_lengths(),
        sim.observatory.cfg.link_radius(geom.nn2()),
    );
    let offline_frenkel = vac_points.len().min(sim.lnl.n_runaways());

    assert_eq!(series("census.vacancies") as usize, vac_points.len());
    assert_eq!(
        series("census.interstitials") as usize,
        sim.lnl.n_runaways()
    );
    assert_eq!(series("census.frenkel_pairs") as usize, offline_frenkel);
    assert_eq!(series("census.largest_cluster") as usize, offline.largest);
    let conc = vac_points.len() as f64 / sim.interior.len() as f64;
    assert_eq!(series("census.vacancy_concentration"), conc);
}

/// (c) On-demand exchange on a localized vacancy population: recorded
/// bytes never exceed the analytic full-ghost baseline, and only a
/// strict minority of candidate sites is ever dirty.
fn assert_comm_savings_accounting() {
    let tel = mmds_telemetry::global();
    tel.reset();

    let cfg = KmcConfig {
        table_knots: 800,
        events_per_cycle: 2.0,
        ..Default::default()
    };
    let ghost = required_ghost(cfg.a0, cfg.rate_cutoff);
    let grid = LocalGrid::whole(BccGeometry::new(cfg.a0, 10, 10, 10), ghost);
    let mut sim = KmcSimulation::new(cfg, grid);
    // A handful of vacancies in a 2000-site box: the localized damage
    // pattern the on-demand strategy exists for.
    sim.lat.seed_vacancies(4, 11);
    sim.initialize(&mut LoopbackK);
    sim.run_cycles(
        ExchangeStrategy::OnDemand(OnDemandMode::TwoSided),
        &mut LoopbackK,
        6,
    );

    let report = tel.run_report();
    let named = &report.counters;
    let get = |n: &str| {
        named
            .get(n)
            .copied()
            .unwrap_or_else(|| panic!("counter `{n}` missing"))
    };
    let bytes = get("kmc.ghost_bytes");
    let baseline = get("kmc.exchange.baseline_bytes");
    let dirty = get("kmc.exchange.dirty_sites");
    let candidates = get("kmc.exchange.candidate_sites");

    assert!(baseline > 0.0, "full-ghost baseline must be computed");
    assert!(
        bytes <= baseline,
        "on-demand traffic ({bytes} B) must not exceed the full-ghost baseline ({baseline} B)"
    );
    assert!(
        dirty < candidates,
        "localized damage must leave most candidate sites clean ({dirty} of {candidates} dirty)"
    );
    // The per-cycle series carries the same accounting the cumulative
    // counters do.
    let series_sum = |name: &str| -> f64 {
        report
            .series
            .iter()
            .find(|t| t.name == name)
            .map(|t| t.points.iter().map(|p| p.value).sum())
            .unwrap_or_else(|| panic!("series `{name}` missing"))
    };
    assert_eq!(series_sum("kmc.exchange.bytes"), bytes);
    assert_eq!(series_sum("kmc.exchange.baseline_bytes"), baseline);
}

#[test]
fn observatory_acceptance() {
    // One sequential test: the three phases share the process-global
    // telemetry registry (whose series time axes restart with every
    // fresh simulation), so each phase resets it before running. The
    // census itself only executes when telemetry listens, hence
    // Summary mode for the whole test.
    mmds_telemetry::set_mode(Mode::Summary);
    assert_census_does_not_perturb_dynamics();
    assert_in_situ_matches_offline();
    assert_comm_savings_accounting();
}
