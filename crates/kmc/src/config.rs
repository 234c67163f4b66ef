//! KMC configuration.

use serde::{Deserialize, Serialize};

/// Parameters of a KMC run. Defaults follow the paper's §3 setup:
/// Fe at 600 K, a₀ = 2.855 Å.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct KmcConfig {
    /// Lattice constant (Å).
    pub a0: f64,
    /// Temperature (K).
    pub temperature: f64,
    /// Attempt frequency ν (1/s).
    pub nu: f64,
    /// Base migration barrier E_m⁰ (eV) in the Kang–Weinberg form
    /// `E_m = max(E_min, E_m⁰ + ΔE/2)`.
    pub e_mig0: f64,
    /// Barrier floor (eV) keeping rates finite for downhill moves.
    pub e_mig_floor: f64,
    /// Interaction cutoff for on-lattice energy differences (Å).
    /// 3.0 Å covers the 1NN + 2NN shells that dominate vacancy binding.
    pub rate_cutoff: f64,
    /// Monte-Carlo time threshold (in units of the paper's t_threshold,
    /// i.e. dimensionless KMC seconds).
    pub t_threshold: f64,
    /// Expected hops per vacancy per synchronisation cycle (sets the
    /// quantum `dt = events_per_cycle / reference_rate`).
    pub events_per_cycle: f64,
    /// Interpolation-table knots.
    pub table_knots: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for KmcConfig {
    fn default() -> Self {
        use mmds_eam::units::{E_MIG_FE, LATTICE_FE, NU_ATTEMPT};
        Self {
            a0: LATTICE_FE,
            temperature: 600.0,
            nu: NU_ATTEMPT,
            e_mig0: E_MIG_FE,
            e_mig_floor: 0.05,
            rate_cutoff: 3.0,
            t_threshold: 2.0e-4,
            events_per_cycle: 1.0,
            table_knots: 5000,
            seed: 0x5EED_0002,
        }
    }
}

impl KmcConfig {
    /// Per-rank RNG seed.
    pub fn rank_seed(&self, rank: usize) -> u64 {
        self.seed ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// k_B·T (eV).
    pub fn kbt(&self) -> f64 {
        mmds_eam::units::KB * self.temperature
    }

    /// The reference hop rate ν·exp(−E_m⁰/k_B T) (1/s).
    pub fn reference_rate(&self) -> f64 {
        self.nu * (-self.e_mig0 / self.kbt()).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = KmcConfig::default();
        assert_eq!(c.temperature, 600.0);
        assert_eq!(c.a0, 2.855);
        assert_eq!(c.t_threshold, 2.0e-4);
    }

    #[test]
    fn reference_rate_is_physical() {
        let c = KmcConfig::default();
        // ν=1e13, E=0.65 eV, T=600K ⇒ k ≈ 1e13·exp(−12.57) ≈ 3.5e7/s.
        let k = c.reference_rate();
        assert!((1.0e7..1.0e8).contains(&k), "k = {k:e}");
    }

    #[test]
    fn rank_seeds_differ() {
        let c = KmcConfig::default();
        assert_ne!(c.rank_seed(1), c.rank_seed(2));
    }
}
