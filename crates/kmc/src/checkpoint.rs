//! Checkpoint/restart for KMC runs.
//!
//! A [`KmcCheckpoint`] captures the site states (ghosts included), the
//! clock, the statistics and the position of the random stream, so a
//! restored run *is* the uninterrupted one: `n + m` cycles and
//! `n` cycles + save + load + `m` cycles agree bit for bit — states,
//! time, statistics and every later random draw — under all three
//! exchange strategies. (Derived data — neighbour tables, energy
//! tables, the owned-vacancy index — is rebuilt from the config and the
//! states.)
//!
//! A checkpoint is input from outside the program: a file that is cut
//! short, altered or written for another grid yields an error from
//! [`KmcSimulation::load_checkpoint`], not a panic.

use std::fmt;

use mmds_lattice::LocalGrid;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::config::KmcConfig;
use crate::lattice::{required_ghost, SiteState};
use crate::sublattice::{KmcSimulation, RunStats};

/// Serializable snapshot of one rank's KMC state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KmcCheckpoint {
    /// Configuration (energy tables rebuilt on restore).
    pub cfg: KmcConfig,
    /// The local grid.
    pub grid: LocalGrid,
    /// Site states, wire-encoded.
    pub states: Vec<u8>,
    /// Simulated KMC time (s).
    pub time: f64,
    /// Statistics.
    pub stats: RunStats,
    /// State of the event-selection random stream.
    pub rng: [u64; 4],
}

/// Why a [`KmcCheckpoint`] cannot be restored.
#[derive(Debug, Clone, PartialEq)]
pub enum RestoreError {
    /// The state vector is not the size of the grid's storage.
    StateCount {
        /// Stored sites of the checkpoint's grid (`None`: overflows).
        grid_sites: Option<usize>,
        /// States in the checkpoint.
        states: usize,
    },
    /// The grid's sectors cannot cover its ghost shell.
    Grid {
        /// Owned cells per axis.
        len: [usize; 3],
        /// Ghost width in cells.
        ghost: usize,
    },
    /// The owned block does not lie inside the global lattice: an axis
    /// of the global lattice is empty, or `start + len` passes its end.
    Placement {
        /// Global cells per axis.
        global: [usize; 3],
        /// First owned global cell per axis.
        start: [usize; 3],
        /// Owned cells per axis.
        len: [usize; 3],
    },
    /// A state byte encodes no [`SiteState`].
    InvalidState {
        /// Stored site index.
        site: usize,
        /// The byte found.
        value: u8,
    },
    /// The random stream state is all zero, which no run produces.
    DeadRng,
    /// A configuration value no simulation can be built from.
    Config {
        /// The [`KmcConfig`] field (`grid.global.a0`: the grid's
        /// lattice constant, which the offset table is built from).
        field: &'static str,
        /// The value found.
        value: f64,
    },
}

/// Most `table_knots` a checkpoint may ask for — 200 × the paper's
/// 5 000, 8 MB per table; the model builds eight.
const MAX_TABLE_KNOTS: usize = 1_000_000;

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::StateCount { grid_sites, states } => write!(
                f,
                "checkpoint grid mismatch: {states} states for a grid of {} stored sites",
                grid_sites.map_or("more than usize::MAX".into(), |n| n.to_string())
            ),
            RestoreError::Grid { len, ghost } => write!(
                f,
                "checkpoint grid of {len:?} owned cells cannot hold a ghost shell of {ghost}: \
                 a sector (half the owned length) must cover it, and it must be at least 1"
            ),
            RestoreError::Placement { global, start, len } => write!(
                f,
                "checkpoint grid's owned block of {len:?} cells at {start:?} does not fit a \
                 global lattice of {global:?} cells"
            ),
            RestoreError::InvalidState { site, value } => {
                write!(f, "checkpoint site {site} holds invalid state byte {value}")
            }
            RestoreError::DeadRng => write!(f, "checkpoint random stream state is all zero"),
            RestoreError::Config { field, value } => {
                write!(f, "checkpoint config: {field} = {value} is out of range")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

/// Stored sites of `grid`, or `None` on overflow (a grid read from a
/// file may hold anything).
fn stored_sites(grid: &LocalGrid) -> Option<usize> {
    grid.len.iter().try_fold(2usize, |n, &l| {
        n.checked_mul(l.checked_add(grid.ghost.checked_mul(2)?)?)
    })
}

/// Range-checks the values [`KmcSimulation::new`] builds its tables
/// from: finite and positive where the physics divides by them or takes
/// their logarithm, finite elsewhere, `table_knots` within what the
/// 5-point stencil needs and [`MAX_TABLE_KNOTS`], and a `rate_cutoff`
/// whose offset table holds the first shell (the event directions) and
/// fits `grid`'s ghost shell three reaches deep.
fn check_config(cfg: &KmcConfig, grid: &LocalGrid) -> Result<(), RestoreError> {
    let a0 = grid.global.a0;
    // (field, value, must be positive)
    let floats = [
        ("a0", cfg.a0, true),
        ("grid.global.a0", a0, true),
        ("temperature", cfg.temperature, true),
        ("nu", cfg.nu, true),
        ("rate_cutoff", cfg.rate_cutoff, true),
        ("events_per_cycle", cfg.events_per_cycle, true),
        ("e_mig0", cfg.e_mig0, false),
        ("e_mig_floor", cfg.e_mig_floor, false),
        ("t_threshold", cfg.t_threshold, false),
    ];
    for (field, value, positive) in floats {
        if !value.is_finite() || (positive && value <= 0.0) {
            return Err(RestoreError::Config { field, value });
        }
    }
    if !(6..=MAX_TABLE_KNOTS).contains(&cfg.table_knots) {
        return Err(RestoreError::Config {
            field: "table_knots",
            value: cfg.table_knots as f64,
        });
    }
    // The first test bounds the cost of generating the offsets for the
    // second: a cutoff beyond `ghost · a0` reaches past the shell anyway.
    if cfg.rate_cutoff > grid.ghost as f64 * a0
        || !(1..=grid.ghost).contains(&required_ghost(a0, cfg.rate_cutoff))
    {
        return Err(RestoreError::Config {
            field: "rate_cutoff",
            value: cfg.rate_cutoff,
        });
    }
    Ok(())
}

impl KmcSimulation {
    /// Captures a restartable snapshot.
    pub fn checkpoint(&self) -> KmcCheckpoint {
        KmcCheckpoint {
            cfg: self.cfg,
            grid: self.lat.grid,
            states: self.lat.state.iter().map(|s| s.to_u8()).collect(),
            time: self.time,
            stats: self.stats,
            rng: self.rng.state(),
        }
    }

    /// Rebuilds a simulation from a snapshot; it continues exactly as
    /// the one the snapshot was taken from. Everything is checked
    /// before the lattice is allocated.
    pub fn restore(ck: KmcCheckpoint) -> Result<Self, RestoreError> {
        let grid_sites = stored_sites(&ck.grid);
        if grid_sites != Some(ck.states.len()) {
            return Err(RestoreError::StateCount {
                grid_sites,
                states: ck.states.len(),
            });
        }
        let LocalGrid {
            global,
            start,
            len,
            ghost,
        } = ck.grid;
        if ghost == 0 || len.iter().any(|&l| l / 2 < ghost) {
            return Err(RestoreError::Grid { len, ghost });
        }
        let global = [global.nx, global.ny, global.nz];
        if (0..3).any(|ax| {
            start[ax]
                .checked_add(len[ax])
                .is_none_or(|end| end > global[ax])
        }) {
            return Err(RestoreError::Placement { global, start, len });
        }
        check_config(&ck.cfg, &ck.grid)?;
        let states = ck
            .states
            .iter()
            .enumerate()
            .map(|(site, &value)| {
                SiteState::try_from_u8(value).ok_or(RestoreError::InvalidState { site, value })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let rng = StdRng::from_state(ck.rng).ok_or(RestoreError::DeadRng)?;
        let mut sim = KmcSimulation::new(ck.cfg, ck.grid);
        for (s, st) in states.into_iter().enumerate() {
            sim.lat.set_state(s, st);
        }
        sim.time = ck.time;
        sim.stats = ck.stats;
        sim.rng = rng;
        Ok(sim)
    }

    /// Writes a checkpoint as JSON.
    pub fn save_checkpoint(&self, path: &std::path::Path) -> std::io::Result<()> {
        let s = serde_json::to_string(&self.checkpoint()).expect("state is serializable");
        std::fs::write(path, s)
    }

    /// Reads a checkpoint written by [`Self::save_checkpoint`].
    pub fn load_checkpoint(path: &std::path::Path) -> std::io::Result<Self> {
        let s = std::fs::read_to_string(path)?;
        let ck: KmcCheckpoint =
            serde_json::from_str(&s).map_err(|e| std::io::Error::other(e.to_string()))?;
        Self::restore(ck).map_err(std::io::Error::other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::LoopbackK;
    use crate::exchange::{ExchangeStrategy, OnDemandMode};
    use mmds_lattice::BccGeometry;

    const STRATEGIES: [ExchangeStrategy; 3] = [
        ExchangeStrategy::Traditional,
        ExchangeStrategy::OnDemand(OnDemandMode::TwoSided),
        ExchangeStrategy::OnDemand(OnDemandMode::OneSided),
    ];

    fn sim() -> KmcSimulation {
        let cfg = KmcConfig {
            table_knots: 600,
            events_per_cycle: 1.0,
            ..Default::default()
        };
        let ghost = required_ghost(cfg.a0, cfg.rate_cutoff);
        let grid = LocalGrid::whole(BccGeometry::fe_cube(8), ghost);
        let mut s = KmcSimulation::new(cfg, grid);
        s.lat.seed_vacancies_global(6, 3);
        s.lat.seed_solutes_global(12, 4);
        s.initialize(&mut LoopbackK);
        s
    }

    /// Everything a run's future depends on, as bits.
    fn bits(s: &KmcSimulation) -> (Vec<u8>, u64, [u64; 5], [u64; 4]) {
        let ck = s.checkpoint();
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
    fn restore_preserves_state_and_clock() {
        let mut s = sim();
        s.run_cycles(ExchangeStrategy::Traditional, &mut LoopbackK, 5);
        let r = KmcSimulation::restore(s.checkpoint()).unwrap();
        assert_eq!(bits(&r), bits(&s));
        assert!(r.lat.vacancies().eq(s.lat.vacancies()));
    }

    #[test]
    fn restored_run_continues_validly() {
        // 30 cycles ≡ 15 + checkpoint + 15, bit for bit.
        for strategy in STRATEGIES {
            let mut straight = sim();
            straight.run_cycles(strategy, &mut LoopbackK, 30);
            assert!(straight.stats.events > 10, "{strategy:?}: dynamics happen");

            let mut first = sim();
            first.run_cycles(strategy, &mut LoopbackK, 15);
            let mut resumed = KmcSimulation::restore(first.checkpoint()).unwrap();
            resumed.run_cycles(strategy, &mut LoopbackK, 15);
            let (mut got, mut want) = (bits(&resumed), bits(&straight));
            // Host work: a resumed run starts with a cold rate cache, so it
            // may compute more than the uninterrupted run, never more than
            // the modelled count. Everything else is bit for bit.
            let (host, straight_host) = (got.2[4], want.2[4]);
            assert!(
                straight_host <= host && host <= got.2[3],
                "{strategy:?}: {:?}",
                got.2
            );
            (got.2[4], want.2[4]) = (0, 0);
            assert_eq!(got, want, "{strategy:?}");
            assert!(resumed.lat.vacancies().eq(straight.lat.vacancies()));
        }
    }

    #[test]
    fn json_round_trip() {
        let mut s = sim();
        s.run_cycles(ExchangeStrategy::Traditional, &mut LoopbackK, 7);
        let dir = std::env::temp_dir().join("mmds_kmc_ck");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kmc.ckpt.json");
        s.save_checkpoint(&path).unwrap();
        let r = KmcSimulation::load_checkpoint(&path).unwrap();
        assert_eq!(bits(&r), bits(&s));
    }

    #[test]
    fn mismatched_checkpoints_are_typed_errors() {
        let mut s = sim();
        s.run_cycles(ExchangeStrategy::Traditional, &mut LoopbackK, 2);
        let good = s.checkpoint();
        let sites = good.states.len();

        let mut ck = good.clone();
        ck.grid.len[1] += 1;
        assert!(matches!(
            KmcSimulation::restore(ck),
            Err(RestoreError::StateCount { states, .. }) if states == sites
        ));
        let mut ck = good.clone();
        ck.states.pop();
        assert!(matches!(
            KmcSimulation::restore(ck),
            Err(RestoreError::StateCount { grid_sites: Some(n), .. }) if n == sites
        ));
        let mut ck = good.clone();
        ck.grid.len = [usize::MAX; 3];
        assert_eq!(
            KmcSimulation::restore(ck).err(),
            Some(RestoreError::StateCount {
                grid_sites: None,
                states: sites
            })
        );
        // Same storage, but sectors narrower than the ghost shell.
        let mut ck = good.clone();
        ck.grid.len = ck.grid.len.map(|l| l - 4);
        ck.grid.ghost += 2;
        assert!(matches!(
            KmcSimulation::restore(ck),
            Err(RestoreError::Grid { .. })
        ));
        // An empty global axis (`global_cell` would take a remainder by
        // zero), an owned block past the global end (its global ids
        // would wrap onto other cells), and a start that overflows.
        let mut ck = good.clone();
        ck.grid.global.ny = 0;
        assert!(matches!(
            KmcSimulation::restore(ck),
            Err(RestoreError::Placement {
                global: [_, 0, _],
                ..
            })
        ));
        let mut ck = good.clone();
        ck.grid.start[2] = 1;
        assert_eq!(
            KmcSimulation::restore(ck).err(),
            Some(RestoreError::Placement {
                global: [8; 3],
                start: [0, 0, 1],
                len: [8; 3]
            })
        );
        let mut ck = good.clone();
        ck.grid.start[0] = usize::MAX;
        assert!(matches!(
            KmcSimulation::restore(ck),
            Err(RestoreError::Placement { .. })
        ));
        let mut ck = good.clone();
        ck.states[17] = 3;
        assert_eq!(
            KmcSimulation::restore(ck).err(),
            Some(RestoreError::InvalidState { site: 17, value: 3 })
        );
        let mut ck = good.clone();
        ck.rng = [0; 4];
        assert_eq!(
            KmcSimulation::restore(ck).err(),
            Some(RestoreError::DeadRng)
        );
        assert!(KmcSimulation::restore(good).is_ok());
    }

    #[test]
    fn hostile_config_values_are_typed_errors() {
        let mut s = sim();
        s.run_cycles(ExchangeStrategy::Traditional, &mut LoopbackK, 2);
        let good = s.checkpoint();
        type Edit = fn(&mut KmcCheckpoint, f64);
        let floats: [(&str, Edit, &[f64]); 10] = [
            ("a0", |c, v| c.cfg.a0 = v, &[0.0, -1.0]),
            (
                "grid.global.a0",
                |c, v| c.grid.global.a0 = v,
                &[0.0, -2.855],
            ),
            ("temperature", |c, v| c.cfg.temperature = v, &[0.0, -600.0]),
            ("nu", |c, v| c.cfg.nu = v, &[0.0]),
            // Below the first shell; three reaches past the ghost shell;
            // past `ghost · a0`.
            (
                "rate_cutoff",
                |c, v| c.cfg.rate_cutoff = v,
                &[0.0, 1.0, 5.0, 9.0, 1e12],
            ),
            (
                "events_per_cycle",
                |c, v| c.cfg.events_per_cycle = v,
                &[0.0, -1.0],
            ),
            ("e_mig0", |c, v| c.cfg.e_mig0 = v, &[]),
            ("e_mig_floor", |c, v| c.cfg.e_mig_floor = v, &[]),
            ("t_threshold", |c, v| c.cfg.t_threshold = v, &[]),
            // `as usize` saturates: NaN → 0, ∞ → usize::MAX.
            (
                "table_knots",
                |c, v| c.cfg.table_knots = v as usize,
                &[0.0, 3.0, 5.0, 1e12],
            ),
        ];
        for (field, edit, hostile) in floats {
            let non_finite = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
            for &v in hostile.iter().chain(&non_finite) {
                let mut ck = good.clone();
                edit(&mut ck, v);
                match KmcSimulation::restore(ck) {
                    Err(RestoreError::Config { field: f, .. }) => assert_eq!(f, field, "{v}"),
                    other => panic!("{field} = {v}: expected Config, got {:?}", other.err()),
                }
            }
        }
        // The same gate guards the file path.
        let dir = std::env::temp_dir().join("mmds_kmc_ck_hostile");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("knots3.ckpt.json");
        let mut ck = good.clone();
        ck.cfg.table_knots = 3;
        std::fs::write(&path, serde_json::to_string(&ck).unwrap()).unwrap();
        let err = KmcSimulation::load_checkpoint(&path)
            .err()
            .expect("rejected");
        assert!(err.to_string().contains("table_knots = 3"), "{err}");
        // And the unedited checkpoint still restores bit for bit.
        assert_eq!(bits(&KmcSimulation::restore(good).unwrap()), bits(&s));
    }
}
