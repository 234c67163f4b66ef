//! The MD driver: velocity-Verlet time stepping over any [`Transport`].

use mmds_eam::analytic::Species;
use mmds_eam::{EamPotential, TableForm};
use mmds_lattice::{BccGeometry, LatticeNeighborList, LocalGrid};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::census::Observatory;
use crate::config::MdConfig;
use crate::defects::{count, DefectCount};
use crate::domain::{exchange_ghosts, migrate_runaways, GhostPhase, Loopback, Transport};
use crate::force::{
    density_pass_plan, embedding_pass_with, force_pass_plan, EnergySample, GatherPlan, PassConfig,
};
use crate::integrate::{
    drift, kick, kinetic_energy, maxwell_boltzmann, momentum_norm, n_moving, temperature,
};
use crate::runaway::{apply_transitions, TransitionStats};
use crate::thermostat::berendsen;

/// One step's observables.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct StepSample {
    /// Pair energy (eV).
    pub pair: f64,
    /// Embedding energy (eV).
    pub embed: f64,
    /// Kinetic energy (eV).
    pub kinetic: f64,
    /// Instantaneous temperature (K).
    pub temperature: f64,
}

impl StepSample {
    /// Total energy (eV).
    pub fn total(&self) -> f64 {
        self.pair + self.embed + self.kinetic
    }
}

/// Summary of a run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MdReport {
    /// Per-step samples.
    pub samples: Vec<StepSample>,
    /// Accumulated transitions.
    pub transitions_promoted: usize,
    /// Final defect census.
    pub defects: DefectCount,
    /// Simulated time (ps).
    pub time_ps: f64,
}

/// A rank's MD state (or the whole box when single-rank).
pub struct MdSimulation {
    /// Configuration.
    pub cfg: MdConfig,
    /// The Fe EAM potential.
    pub pot: EamPotential,
    /// The lattice neighbor list holding all atom state.
    pub lnl: LatticeNeighborList,
    /// Atomic mass (amu).
    pub mass: f64,
    /// Cached owned-site ids.
    pub interior: Vec<usize>,
    /// Which table machinery evaluates the potential.
    pub table_form: TableForm,
    /// Which host implementation of the EAM passes runs: the production
    /// plan path by default; tests and benchmarks set
    /// [`PassConfig::seed_serial`] to run the scalar reference instead.
    pub pass_config: PassConfig,
    /// Simulated time (ps).
    pub time_ps: f64,
    /// Accumulated transition statistics.
    pub transitions: TransitionStats,
    /// The in-situ defect census (off by default; see
    /// [`crate::census::CensusConfig::cadence`]).
    pub observatory: Observatory,
    /// Steps integrated so far (the census series time axis — it must
    /// stay monotonic across repeated [`MdSimulation::run`] calls).
    pub steps_done: u64,
    forces_current: bool,
    /// Chunk-resident SoA gather plan, staged by the density pass and
    /// replayed in place by the force pass; the chunks and their
    /// capacities persist across steps.
    gather_plan: GatherPlan,
}

impl MdSimulation {
    /// Relative total-energy drift beyond which an NVE run increments
    /// `md.health.energy_drift_warn`.
    pub const ENERGY_DRIFT_WARN: f64 = 0.05;

    /// Builds a rank's simulation from its local grid.
    pub fn from_grid(cfg: MdConfig, grid: LocalGrid) -> Self {
        let pot = EamPotential::new(Species::Fe, cfg.table_knots);
        let lnl = LatticeNeighborList::perfect(grid, cfg.offsets_cutoff());
        let interior = lnl.grid.interior_ids().collect();
        Self {
            mass: Species::Fe.mass(),
            cfg,
            pot,
            lnl,
            interior,
            table_form: TableForm::Compacted,
            pass_config: PassConfig::default(),
            time_ps: 0.0,
            transitions: TransitionStats::default(),
            observatory: Observatory::default(),
            steps_done: 0,
            forces_current: false,
            gather_plan: GatherPlan::default(),
        }
    }

    /// Single-rank periodic box of `n` cells per axis.
    pub fn single_box(cfg: MdConfig, n: usize) -> Self {
        let geom = BccGeometry::new(cfg.a0, n, n, n);
        // Ghost width must cover the offsets' reach.
        let ghost = (cfg.offsets_cutoff() / cfg.a0).ceil() as usize;
        Self::from_grid(cfg, LocalGrid::whole(geom, ghost))
    }

    /// Number of owned atoms.
    pub fn n_atoms(&self) -> usize {
        self.interior
            .iter()
            .filter(|&&s| self.lnl.id[s] >= 0)
            .count()
            + self.lnl.n_runaways()
    }

    /// Draws Maxwell–Boltzmann velocities at the configured temperature.
    pub fn init_velocities(&mut self) {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        maxwell_boltzmann(
            &mut self.lnl,
            &self.interior,
            self.mass,
            self.cfg.temperature,
            &mut rng,
        );
        self.forces_current = false;
    }

    /// Computes forces (both passes + ghost refreshes) and returns the
    /// potential-energy sample.
    pub fn compute_forces(&mut self, t: &mut impl Transport) -> EnergySample {
        let _span = mmds_telemetry::span!("md.force");
        {
            let _g = mmds_telemetry::span!("md.ghost");
            exchange_ghosts(&mut self.lnl, t, GhostPhase::Positions);
        }
        density_pass_plan(
            &mut self.lnl,
            &self.pot,
            self.table_form,
            &self.interior,
            self.pass_config,
            &mut self.gather_plan,
        );
        let embed = embedding_pass_with(
            &mut self.lnl,
            &self.pot,
            self.table_form,
            &self.interior,
            self.pass_config,
        );
        {
            let _g = mmds_telemetry::span!("md.ghost");
            exchange_ghosts(&mut self.lnl, t, GhostPhase::Fp);
        }
        let pair = force_pass_plan(
            &mut self.lnl,
            &self.pot,
            self.table_form,
            &self.interior,
            self.pass_config,
            &mut self.gather_plan,
        );
        self.forces_current = true;
        EnergySample { pair, embed }
    }

    /// Advances one velocity-Verlet step; returns the step observables.
    pub fn step(&mut self, t: &mut impl Transport) -> StepSample {
        let _span = mmds_telemetry::span!("md.step");
        if !self.forces_current {
            self.compute_forces(t);
        }
        let dt = self.cfg.dt;
        kick(&mut self.lnl, &self.interior, 0.5 * dt, self.mass);
        drift(&mut self.lnl, &self.interior, dt);
        let st = apply_transitions(&mut self.lnl, &self.cfg, &self.interior);
        self.transitions = self.transitions.merge(&st);
        migrate_runaways(&mut self.lnl, t);
        let pe = self.compute_forces(t);
        kick(&mut self.lnl, &self.interior, 0.5 * dt, self.mass);
        if let Some(tau) = self.cfg.thermostat_tau {
            berendsen(
                &mut self.lnl,
                &self.interior,
                self.mass,
                self.cfg.temperature,
                dt,
                tau,
            );
        }
        self.time_ps += dt;
        self.steps_done += 1;
        StepSample {
            pair: pe.pair,
            embed: pe.embed,
            kinetic: kinetic_energy(&self.lnl, &self.interior, self.mass),
            temperature: temperature(&self.lnl, &self.interior, self.mass),
        }
    }

    /// Runs `n` steps and collects a report.
    pub fn run(&mut self, t: &mut impl Transport, n: usize) -> MdReport {
        let _span = mmds_telemetry::span!("md.run");
        let observe = mmds_telemetry::enabled();
        let mut samples = Vec::with_capacity(n);
        // Physics-health baselines, fixed at the first observed step.
        let mut e0: Option<f64> = None;
        let mut p0 = 0.0f64;
        let hb_total = self.steps_done + n as u64;
        for i in 0..n {
            let s = self.step(t);
            mmds_telemetry::emit_heartbeat("md.heartbeat", self.steps_done, hb_total);
            if observe {
                // The defect census is O(sites); only pay for it when
                // somebody is listening.
                let d = count(&self.lnl);
                let total = s.total();
                let e0 = *e0.get_or_insert(total);
                let energy_drift = if e0.abs() > 0.0 {
                    (total - e0) / e0.abs()
                } else {
                    0.0
                };
                let p = momentum_norm(&self.lnl, &self.interior, self.mass);
                if i == 0 {
                    p0 = p;
                }
                let sample = mmds_telemetry::MdStepSample {
                    step: i as u64,
                    kinetic: s.kinetic,
                    potential: s.pair + s.embed,
                    runaways: self.lnl.n_runaways() as u64,
                    vacancies: d.vacancies as u64,
                    interstitials: d.interstitials as u64,
                    energy_drift,
                    momentum_norm: p,
                };
                // Health gates. Energy drift is only a conservation
                // statement without a thermostat (NVE); momentum may
                // legitimately move when atoms migrate between ranks,
                // so the bound is loose and scale-aware.
                if self.cfg.thermostat_tau.is_none() && energy_drift.abs() > Self::ENERGY_DRIFT_WARN
                {
                    mmds_telemetry::add_counter("md.health.energy_drift_warn", 1.0);
                }
                let p_bound = (10.0 * p0).max(1e-6 * n_moving(&self.lnl, &self.interior) as f64);
                if p > p_bound {
                    mmds_telemetry::add_counter("md.health.momentum_warn", 1.0);
                }
                mmds_telemetry::emit(mmds_telemetry::Event::Md(sample));
                // In-situ defect census at the configured cadence: a
                // read-only double-buffered pass that streams the
                // `census.*` series (see [`crate::census`]).
                if self.observatory.due(self.steps_done as usize) {
                    self.observatory.observe(
                        &self.lnl,
                        &self.interior,
                        self.pass_config.parallel(),
                        self.steps_done,
                    );
                }
            }
            samples.push(s);
        }
        MdReport {
            samples,
            transitions_promoted: self.transitions.promoted,
            defects: count(&self.lnl),
            time_ps: self.time_ps,
        }
    }

    /// Convenience: single-rank run with the loopback transport.
    pub fn run_local(&mut self, n: usize) -> MdReport {
        self.run(&mut Loopback, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> MdConfig {
        MdConfig {
            table_knots: 1200,
            thermostat_tau: None,
            ..Default::default()
        }
    }

    #[test]
    fn cold_lattice_stays_put() {
        let mut sim = MdSimulation::single_box(small_cfg(), 4);
        let rep = sim.run_local(5);
        assert_eq!(rep.defects, DefectCount::default());
        assert!(rep.samples[4].kinetic < 1e-9);
        assert!((rep.time_ps - 0.005).abs() < 1e-12);
    }

    #[test]
    fn nve_energy_is_conserved() {
        let mut cfg = small_cfg();
        cfg.temperature = 300.0;
        let mut sim = MdSimulation::single_box(cfg, 4);
        sim.init_velocities();
        let first = sim.step(&mut Loopback);
        let e0 = first.total();
        let mut last = first;
        for _ in 0..60 {
            last = sim.step(&mut Loopback);
        }
        let drift = (last.total() - e0).abs() / e0.abs();
        assert!(
            drift < 2e-4,
            "energy drift {drift:.3e} (e0={e0}, e={})",
            last.total()
        );
    }

    #[test]
    fn thermostat_holds_temperature() {
        let mut cfg = small_cfg();
        cfg.thermostat_tau = Some(0.05);
        cfg.temperature = 600.0;
        let mut sim = MdSimulation::single_box(cfg, 4);
        sim.init_velocities();
        let mut t_last = 0.0;
        for _ in 0..80 {
            t_last = sim.step(&mut Loopback).temperature;
        }
        assert!((t_last - 600.0).abs() < 120.0, "T = {t_last}");
    }

    #[test]
    fn cascade_creates_frenkel_pairs() {
        let mut cfg = small_cfg();
        cfg.thermostat_tau = Some(0.02);
        cfg.temperature = 50.0;
        let mut sim = MdSimulation::single_box(cfg, 6);
        let pka = sim.lnl.grid.site_id(5, 5, 5, 0);
        crate::cascade::launch_pka(
            &mut sim.lnl,
            pka,
            150.0,
            crate::cascade::PKA_DIRECTION,
            sim.mass,
        );
        let rep = sim.run_local(40);
        assert!(
            rep.transitions_promoted > 0,
            "PKA must displace at least one atom"
        );
        // Bookkeeping stays balanced: every run-away left a vacancy.
        assert!(rep.defects.vacancies >= rep.defects.interstitials);
        assert!(sim.n_atoms() == sim.interior.len(), "no atoms lost");
    }

    #[test]
    fn atom_count_is_invariant() {
        let mut cfg = small_cfg();
        cfg.temperature = 900.0;
        cfg.thermostat_tau = Some(0.05);
        let mut sim = MdSimulation::single_box(cfg, 4);
        sim.init_velocities();
        let n0 = sim.n_atoms();
        sim.run_local(30);
        assert_eq!(sim.n_atoms(), n0);
    }
}
