//! Property tests for the SoA lane-batch table kernels: for every
//! batch length — full lane groups, ragged tails, and the empty batch —
//! each output element must be **bitwise** equal to the scalar lookup,
//! because the lane kernels replay the scalar expression sequence per
//! lane and the tails reuse the scalar path outright. Covers both
//! table forms of the single-species potential and every Fe–Cu alloy
//! species pairing (including the canonicalised Cu–Fe order).

use std::sync::OnceLock;

use mmds_eam::alloy::AlloyEam;
use mmds_eam::analytic::Species;
use mmds_eam::{EamPotential, TableForm, BATCH_LANES};
use proptest::prelude::*;

/// Paper-sized Fe potential, built once (5000-knot tables are ~40 ms).
fn pot() -> &'static EamPotential {
    static POT: OnceLock<EamPotential> = OnceLock::new();
    POT.get_or_init(|| EamPotential::new(Species::Fe, 5000))
}

/// Fe–Cu alloy table set, built once.
fn alloy() -> &'static AlloyEam {
    static ALLOY: OnceLock<AlloyEam> = OnceLock::new();
    ALLOY.get_or_init(|| AlloyEam::fe_cu(0.05, 3000))
}

const SPECIES_PAIRS: [(Species, Species); 4] = [
    (Species::Fe, Species::Fe),
    (Species::Cu, Species::Cu),
    (Species::Fe, Species::Cu),
    (Species::Cu, Species::Fe),
];

/// Four output buffers sized for one batch.
fn bufs(n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
    (vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0.0; n])
}

fn assert_pair_density_bitwise(form: TableForm, rs: &[f64]) {
    let p = pot();
    let (mut phi, mut dphi, mut f, mut df) = bufs(rs.len());
    p.pair_density_batch(form, rs, &mut phi, &mut dphi, &mut f, &mut df);
    for (j, &r) in rs.iter().enumerate() {
        let (sphi, sdphi, sf, sdf) = p.pair_density(form, r);
        assert_eq!(phi[j].to_bits(), sphi.to_bits(), "{form:?} phi[{j}] r={r}");
        assert_eq!(
            dphi[j].to_bits(),
            sdphi.to_bits(),
            "{form:?} dphi[{j}] r={r}"
        );
        assert_eq!(f[j].to_bits(), sf.to_bits(), "{form:?} f[{j}] r={r}");
        assert_eq!(df[j].to_bits(), sdf.to_bits(), "{form:?} df[{j}] r={r}");
    }
}

fn assert_alloy_bitwise(s1: Species, s2: Species, rs: &[f64]) {
    let a = alloy();
    let (mut phi, mut dphi, mut f, mut df) = bufs(rs.len());
    a.pair_density_batch(s1, s2, rs, &mut phi, &mut dphi, &mut f, &mut df);
    for (j, &r) in rs.iter().enumerate() {
        let (sphi, sdphi, sf, sdf) = a.pair_density(s1, s2, r);
        assert_eq!(phi[j].to_bits(), sphi.to_bits(), "{s1:?}-{s2:?} phi[{j}]");
        assert_eq!(
            dphi[j].to_bits(),
            sdphi.to_bits(),
            "{s1:?}-{s2:?} dphi[{j}]"
        );
        assert_eq!(f[j].to_bits(), sf.to_bits(), "{s1:?}-{s2:?} f[{j}]");
        assert_eq!(df[j].to_bits(), sdf.to_bits(), "{s1:?}-{s2:?} df[{j}]");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random radii (including beyond-domain values that exercise the
    /// clamped boundary stencils) at random batch lengths spanning
    /// several lane groups.
    #[test]
    fn batch_matches_scalar_bitwise(
        rs in prop::collection::vec(0.8f64..6.0, 0..3 * BATCH_LANES + 2)
    ) {
        for form in [TableForm::Traditional, TableForm::Compacted] {
            assert_pair_density_bitwise(form, &rs);
        }
    }

    /// Every alloy species pairing dispatches to its canonical table
    /// pair once per batch and stays bitwise-exact per element.
    #[test]
    fn alloy_batch_matches_scalar_bitwise(
        rs in prop::collection::vec(0.8f64..6.0, 0..2 * BATCH_LANES + 2)
    ) {
        for (s1, s2) in SPECIES_PAIRS {
            assert_alloy_bitwise(s1, s2, &rs);
        }
    }
}

/// The ragged-tail boundary lengths, pinned deterministically: 0, 1,
/// N−1, N, and N+1 (N = `BATCH_LANES`), plus two and a bit lane
/// groups. Proptest reaches these too, but they are the exact seams
/// between the lane kernel and the scalar tail, so they must never
/// rotate out of coverage.
#[test]
fn ragged_boundary_lengths_are_bitwise_exact() {
    let n = BATCH_LANES;
    for len in [0, 1, n - 1, n, n + 1, 2 * n, 2 * n + 1] {
        // A radius ramp across the table domain, deliberately touching
        // the clamped edges.
        let rs: Vec<f64> = (0..len)
            .map(|i| 0.8 + 5.0 * (i as f64) / (2.0 * n as f64))
            .collect();
        for form in [TableForm::Traditional, TableForm::Compacted] {
            assert_pair_density_bitwise(form, &rs);
        }
        for (s1, s2) in SPECIES_PAIRS {
            assert_alloy_bitwise(s1, s2, &rs);
        }
    }
}
