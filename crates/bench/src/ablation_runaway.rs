//! Ablation: run-away atom storage — linked lists vs Crystal MD's
//! array, as data.
//!
//! §2.1.1: with an array "the overhead of finding neighbors between the
//! run-away atoms is O(N²) ... the linked lists can reduce this
//! overhead to O(N) since the run-away atoms are linked to the nearest
//! lattice point." Both searches find every run-away/run-away pair in
//! the same box, and each is charged its work: the partners the
//! anchored chains visit through [`for_each_partner`], and the
//! `n·(n−1)` distance tests of the flat array. The boxes are seeded and
//! fixed, so the result takes no scale.

use mmds_md::force::{for_each_partner, Central};
use mmds_md::{MdConfig, MdSimulation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// Run-away counts of the rows.
const RUNAWAYS: [usize; 5] = [250, 500, 1000, 2000, 4000];

/// Box edge in cells (27,648 sites).
const CELLS: usize = 24;

/// One run-away count's work under both structures.
#[derive(Serialize)]
pub struct Row {
    /// Run-away atoms in the box.
    pub n_runaways: usize,
    /// Partners the anchored chains visit, over every run-away.
    pub chains_visits: u64,
    /// Distance tests of the all-pairs array search, `n·(n−1)`.
    pub array_tests: u64,
    /// Run-away/run-away pairs the array search finds.
    pub pairs: usize,
    /// `array_tests / chains_visits`.
    pub work_ratio: f64,
}

/// The ablation's artefact (`ablation_runaway.json`).
#[derive(Serialize)]
pub struct RunawayResult {
    /// One row per run-away count, ascending.
    pub rows: Vec<Row>,
}

/// Searches every box both ways.
///
/// # Panics
/// If the chains find fewer than 90% of the array's pairs at any
/// count, or the array's work does not grow more than twice as fast as
/// the chains'.
pub fn run() -> RunawayResult {
    let cfg = MdConfig {
        table_knots: 800,
        ..Default::default()
    };
    let mut rows: Vec<Row> = Vec::new();
    for n_run in RUNAWAYS {
        let mut sim = MdSimulation::single_box(cfg, CELLS);
        let mut rng = StdRng::seed_from_u64(n_run as u64);
        // Promote n_run random atoms to run-aways displaced off-site.
        let interior = sim.interior.clone();
        let mut promoted = 0;
        while promoted < n_run {
            let s = interior[rng.random_range(0..interior.len())];
            if sim.lnl.id[s] < 0 {
                continue;
            }
            let id = sim.lnl.make_vacancy(s);
            let lp = sim.lnl.pos[s];
            let pos = [
                lp[0] + rng.random_range(-1.0..1.0),
                lp[1] + rng.random_range(-1.0..1.0),
                lp[2] + rng.random_range(-1.0..1.0),
            ];
            let home = sim.lnl.nearest_local_site(pos).unwrap_or(s);
            sim.lnl.add_runaway(home, id, pos, [0.0; 3]);
            promoted += 1;
        }

        // (a) The paper's structure: each run-away checks the chains
        // anchored at its home's neighbour sites — O(N) overall.
        let live = sim.lnl.live_runaways();
        let mut chains_visits = 0u64;
        let mut pairs_chains = 0usize;
        for &idx in &live {
            for_each_partner(&sim.lnl, Central::Runaway(idx), 5.0, |p| {
                chains_visits += 1;
                pairs_chains += usize::from(p.is_runaway);
            });
        }

        // (b) Crystal MD's array: positions only, anchoring lost — the
        // only way to find run-away/run-away pairs is all-pairs, O(N²).
        let positions: Vec<[f64; 3]> = live.iter().map(|&i| sim.lnl.runaway(i).pos).collect();
        let mut pairs_array = 0usize;
        let cut2 = 25.0;
        for (i, a) in positions.iter().enumerate() {
            for (j, b) in positions.iter().enumerate() {
                if i != j {
                    let d2 = (a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2);
                    if d2 <= cut2 && d2 > 1e-12 {
                        pairs_array += 1;
                    }
                }
            }
        }
        let n = positions.len() as u64;
        let array_tests = n * (n - 1);

        // Same physics found either way? A run-away scans the offsets of
        // its *anchor*, so pairs just inside the cutoff whose anchors sit
        // beyond the offset margin can be truncated — the approximation
        // the paper explicitly accepts ("it checks the same neighbor
        // atoms as the nearest lattice point it is linked to"). With the
        // 0.6 Å margin that loses only the outermost, switching-damped
        // shell.
        assert!(
            pairs_chains as f64 >= 0.9 * pairs_array as f64,
            "chains found {pairs_chains}, array found {pairs_array}"
        );
        rows.push(Row {
            n_runaways: n_run,
            chains_visits,
            array_tests,
            pairs: pairs_array,
            work_ratio: array_tests as f64 / chains_visits as f64,
        });
    }

    // Complexity check: chains scale ~linearly, the array quadratically.
    let (first, last) = (&rows[0], &rows[rows.len() - 1]);
    let chains_growth = last.chains_visits as f64 / first.chains_visits as f64;
    let array_growth = last.array_tests as f64 / first.array_tests as f64;
    assert!(
        array_growth > 2.0 * chains_growth,
        "the array must scale visibly worse"
    );
    RunawayResult { rows }
}
