//! Fig. 9 is a pure function of its scale: every bar is virtual CPE
//! kernel time. Regenerating it in-process must reproduce the committed
//! artefact byte for byte — so a host-only change to `md::offload` or
//! `sunway` proves, with zero noise, that the cost model did not move.
//!
//! `golden/fig09.json` is `MMDS_SCALE=0.25 fig09_md_opts`'s `fig09.json`
//! (3 125 atoms split over 1–16 core groups), taken at the parent of
//! the fused compacted force sweep.

const SCALE: f64 = 0.25;

#[test]
fn fig09_matches_golden() {
    let golden = include_str!("golden/fig09.json");
    let regenerated = serde_json::to_string_pretty(&mmds_bench::fig09::run(SCALE))
        .expect("the Fig. 9 result serialises");
    assert!(
        regenerated == golden,
        "Fig. 9 moved at MMDS_SCALE={SCALE}:\n{regenerated}"
    );
}
