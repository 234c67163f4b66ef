//! Checkpoint/restart and trajectory output through the public API.

use mmds::analysis::io::{write_points_csv, write_xyz};
use mmds::kmc::comm::LoopbackK;
use mmds::kmc::lattice::required_ghost;
use mmds::kmc::{ExchangeStrategy, KmcConfig, KmcSimulation, OnDemandMode};
use mmds::lattice::{BccGeometry, LocalGrid};
use mmds::md::cascade::{launch_pka, PKA_DIRECTION};
use mmds::md::{MdConfig, MdSimulation};

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("mmds_persistence");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn md_checkpoint_resume_matches_uninterrupted_cascade() {
    let cfg = MdConfig {
        table_knots: 800,
        temperature: 150.0,
        thermostat_tau: Some(0.02),
        ..Default::default()
    };
    let build = || {
        let mut s = MdSimulation::single_box(cfg, 6);
        s.init_velocities();
        let pka = s.lnl.grid.site_id(5, 5, 5, 0);
        launch_pka(&mut s.lnl, pka, 180.0, PKA_DIRECTION, s.mass);
        s
    };
    let mut straight = build();
    straight.run_local(24);

    let mut first = build();
    first.run_local(9);
    first.save_checkpoint(&tmp("cascade.ckpt.json")).unwrap();
    let mut resumed = MdSimulation::load_checkpoint(&tmp("cascade.ckpt.json")).unwrap();
    resumed.run_local(15);

    assert_eq!(straight.lnl.n_vacancies(), resumed.lnl.n_vacancies());
    assert_eq!(straight.lnl.n_runaways(), resumed.lnl.n_runaways());
    for &s in &straight.interior {
        assert_eq!(straight.lnl.pos[s], resumed.lnl.pos[s]);
    }
}

fn kmc_sim() -> KmcSimulation {
    let cfg = KmcConfig {
        table_knots: 600,
        ..Default::default()
    };
    let ghost = required_ghost(cfg.a0, cfg.rate_cutoff);
    let grid = LocalGrid::whole(BccGeometry::fe_cube(8), ghost);
    let mut sim = KmcSimulation::new(cfg, grid);
    sim.lat.seed_vacancies_global(5, 9);
    sim.lat.seed_solutes_global(20, 10);
    sim.initialize(&mut LoopbackK);
    sim
}

/// Everything a KMC run's future depends on, as bits: states, clock,
/// statistics and the position of the random stream (the next draw).
fn kmc_bits(sim: &KmcSimulation) -> (Vec<u8>, u64, [u64; 5], [u64; 4]) {
    let ck = sim.checkpoint();
    let st = ck.stats;
    (
        ck.states,
        ck.time.to_bits(),
        [
            st.events,
            st.cycles,
            st.rate.rate_evals,
            st.rate.site_evals,
            st.rate.host_site_evals,
        ],
        ck.rng,
    )
}

#[test]
fn kmc_checkpoint_preserves_counts_and_continues() {
    for (n, strategy) in [
        ExchangeStrategy::Traditional,
        ExchangeStrategy::OnDemand(OnDemandMode::TwoSided),
        ExchangeStrategy::OnDemand(OnDemandMode::OneSided),
    ]
    .into_iter()
    .enumerate()
    {
        let mut straight = kmc_sim();
        straight.run_cycles(strategy, &mut LoopbackK, 30);

        let path = tmp(&format!("kmc{n}.ckpt.json"));
        let mut first = kmc_sim();
        first.run_cycles(strategy, &mut LoopbackK, 15);
        first.save_checkpoint(&path).unwrap();
        let mut resumed = KmcSimulation::load_checkpoint(&path).unwrap();
        assert_eq!(kmc_bits(&resumed), kmc_bits(&first), "{strategy:?}: load");
        resumed.run_cycles(strategy, &mut LoopbackK, 15);
        let (mut got, mut want) = (kmc_bits(&resumed), kmc_bits(&straight));
        // Host work: the loaded run starts with a cold rate cache, so it
        // may compute more than the uninterrupted run, never more than
        // the modelled count. Everything else is bit for bit.
        let (host, straight_host) = (got.2[4], want.2[4]);
        assert!(
            straight_host <= host && host <= got.2[3],
            "{strategy:?}: host site evaluations {:?}",
            got.2
        );
        (got.2[4], want.2[4]) = (0, 0);
        assert_eq!(
            got, want,
            "{strategy:?}: 15 + save + load + 15 is not the 30-cycle run"
        );

        assert!(straight.stats.events > 0, "dynamics happen");
        assert_eq!(resumed.lat.n_vacancies(), 5, "vacancies conserved");
        let cu = resumed
            .lat
            .grid
            .interior_ids()
            .filter(|&s| resumed.lat.state[s] == mmds::kmc::SiteState::Cu)
            .count();
        assert_eq!(cu, 20, "solutes conserved over restart");
    }
}

#[test]
fn damaged_kmc_checkpoints_are_errors_not_panics() {
    let mut sim = kmc_sim();
    sim.run_cycles(ExchangeStrategy::Traditional, &mut LoopbackK, 3);
    let path = tmp("kmc_damaged.ckpt.json");
    sim.save_checkpoint(&path).unwrap();
    let good = std::fs::read(&path).unwrap();
    let load = |bytes: &[u8]| {
        std::fs::write(&path, bytes).unwrap();
        KmcSimulation::load_checkpoint(&path).map(|_| ())
    };
    assert!(load(&good).is_ok());

    // Truncated: anywhere from an empty file to one byte short.
    for cut in [0, 1, good.len() / 3, good.len() / 2, good.len() - 1] {
        assert!(load(&good[..cut]).is_err(), "cut at {cut}");
    }

    // One flipped bit. In the states array: a vacancy's '2' becomes '3',
    // which encodes no state.
    let text = String::from_utf8(good.clone()).unwrap();
    let states = text.find("\"states\"").expect("states field");
    let vacancy = states + text[states..].find('2').expect("a vacancy");
    let mut bad = good.clone();
    bad[vacancy] ^= 0x01;
    let err = load(&bad).expect_err("state byte 3");
    assert!(err.to_string().contains("invalid state byte 3"), "{err}");

    // In the grid: an owned length changes ('8' → '9'), so the state
    // vector no longer fits the grid.
    let len = text.find("\"len\"").expect("len field");
    let digit = len + text[len..].find('8').expect("a length of 8");
    let mut bad = good.clone();
    bad[digit] ^= 0x01;
    let err = load(&bad).expect_err("grid mismatch");
    assert!(err.to_string().contains("grid mismatch"), "{err}");

    // In the structure: the opening brace.
    let mut bad = good.clone();
    bad[0] ^= 0x20;
    assert!(load(&bad).is_err());
}

#[test]
fn trajectory_writers_produce_parseable_files() {
    let cfg = MdConfig {
        table_knots: 800,
        temperature: 300.0,
        ..Default::default()
    };
    let mut s = MdSimulation::single_box(cfg, 5);
    s.init_velocities();
    s.run_local(2);
    let atoms: Vec<(&str, [f64; 3])> = s
        .interior
        .iter()
        .filter(|&&i| s.lnl.id[i] >= 0)
        .map(|&i| ("Fe", s.lnl.pos[i]))
        .collect();
    let xyz = tmp("frame.xyz");
    write_xyz(&xyz, &format!("t = {} ps", s.time_ps), &atoms).unwrap();
    let content = std::fs::read_to_string(&xyz).unwrap();
    let mut lines = content.lines();
    let n: usize = lines.next().unwrap().parse().unwrap();
    assert_eq!(n, atoms.len());
    assert_eq!(content.lines().count(), n + 2);

    let csv = tmp("vacs.csv");
    write_points_csv(&csv, &[[1.0, 2.0, 3.0]]).unwrap();
    assert!(std::fs::read_to_string(&csv).unwrap().contains("1,2,3"));
}
