//! Fig. 14 is a pure function of its scale: compute is the KMC solver's
//! modelled site evaluations × `SITE_EVAL_SECONDS`, comm is the machine
//! model's price of the exchanges, and the projection is closed form.
//! Regenerating it in-process must reproduce the committed artefact
//! byte for byte — so a host-only change to `kmc::solver` or
//! `kmc::model` proves, with zero noise, that virtual time did not move.
//!
//! `golden/fig14.json` is `MMDS_SCALE=0.75 fig14_kmc_strong`'s
//! `fig14.json` (an 18³-cell box on 1, 2, 4 and 8 ranks), taken at the
//! parent of the shaped-patch rate path.

const SCALE: f64 = 0.75;

#[test]
fn fig14_matches_golden() {
    let golden = include_str!("golden/fig14.json");
    let regenerated = serde_json::to_string_pretty(&mmds_bench::fig14::run(SCALE))
        .expect("the Fig. 14 result serialises");
    assert!(
        regenerated == golden,
        "Fig. 14 moved at MMDS_SCALE={SCALE}:\n{regenerated}"
    );
}
