//! Ablation: four ways to serve EAM table lookups from a CPE, as data.
//!
//! The paper evaluates one (compacted, local-store resident) and
//! *describes* the alternatives it rejected (§2.1.2, §5): per-access
//! DMA of traditional coefficient rows, the local store as a
//! software-emulated cache, and the tables distributed over the 64 CPE
//! local stores with register-communication fetches, two-sided and
//! one-sided. One thermalised box's per-neighbour access stream is
//! replayed through every cost model; every number is virtual time and
//! the box is fixed, so the result takes no scale.

use mmds_eam::spline::TraditionalTable;
use mmds_md::force::{for_each_partner, Central};
use mmds_md::{MdConfig, MdSimulation};
use mmds_sunway::{RegisterMesh, SoftCache, SwModel};
use serde::Serialize;

/// One scheme's cost over the whole access stream.
#[derive(Serialize)]
pub struct SchemeResult {
    /// The scheme.
    pub scheme: String,
    /// Virtual seconds for the whole stream.
    pub total_s: f64,
    /// `total_s` per access, in ns.
    pub ns_per_access: f64,
    /// What the cost is made of.
    pub note: String,
}

/// The ablation's artefact (`ablation_tables.json`).
#[derive(Serialize)]
pub struct AblationResult {
    /// Table lookups in the access stream.
    pub accesses: usize,
    /// Row DMA, soft cache, two-sided and one-sided register fetch,
    /// compacted-resident — in that order.
    pub schemes: Vec<SchemeResult>,
}

/// The pair-distance sequence of one force pass over a thermalised
/// 8³-cell box.
fn access_stream() -> Vec<f64> {
    let mut sim = MdSimulation::single_box(
        MdConfig {
            table_knots: 5000,
            temperature: 600.0,
            ..Default::default()
        },
        8,
    );
    sim.init_velocities();
    sim.run_local(3);
    let mut rs: Vec<f64> = Vec::new();
    for &s in &sim.interior {
        if sim.lnl.id[s] >= 0 {
            for_each_partner(&sim.lnl, Central::Site(s), 5.0, |p| rs.push(p.r));
        }
    }
    rs
}

/// Replays the access stream through the five schemes.
pub fn run() -> AblationResult {
    let rs = access_stream();
    let n = rs.len();
    let model = SwModel::sw26010();
    let mut schemes = Vec::new();
    let mut push = |name: &str, total: f64, note: &str| {
        schemes.push(SchemeResult {
            scheme: name.to_string(),
            total_s: total,
            ns_per_access: total / n as f64 * 1e9,
            note: note.to_string(),
        });
    };

    // 1. Traditional: one 56 B DMA gather per access.
    let t_dma = n as f64 * model.dma_time(TraditionalTable::ROW_BYTES);
    push(
        "traditional row DMA (Fig. 9 baseline)",
        t_dma,
        "56 B gather per access",
    );

    // 2. Software-emulated cache over the traditional table.
    let table = TraditionalTable::build(|x| x.sin(), 1.0, 5.0, 5000);
    let mut cache = SoftCache::new(40 * 1024, 256);
    for &r in &rs {
        cache.access_range(
            table.locate(r).0 * TraditionalTable::ROW_BYTES,
            TraditionalTable::ROW_BYTES,
        );
    }
    let rep = cache.report();
    push(
        "software-emulated LDM cache (rejected)",
        rep.time,
        &format!("hit rate {:.1}%", 100.0 * rep.hit_rate),
    );

    // 3a/3b. Table distributed over 64 CPE local stores, register fetch.
    let mesh = RegisterMesh::sw26010();
    let p_local = 1.0 / 64.0;
    // Random CPE pairing: ~22% of pairs share a row/col on an 8x8 mesh.
    let p_direct = 0.22;
    let per_fetch_2s = p_direct * mesh.two_sided_fetch(TraditionalTable::ROW_BYTES, false)
        + (1.0 - p_direct) * mesh.two_sided_fetch(TraditionalTable::ROW_BYTES, true);
    // Each remote fetch also steals service time from a partner CPE —
    // with all 64 CPEs fetching at once this lands on the critical path.
    let t_reg2 = n as f64 * (1.0 - p_local) * (per_fetch_2s + mesh.partner_overhead());
    push(
        "register comm, two-sided (rejected)",
        t_reg2,
        "partner CPEs poll & serve every fetch",
    );
    let per_fetch_1s = p_direct * mesh.one_sided_fetch(TraditionalTable::ROW_BYTES, false)
        + (1.0 - p_direct) * mesh.one_sided_fetch(TraditionalTable::ROW_BYTES, true);
    let t_reg1 = n as f64 * (1.0 - p_local) * per_fetch_1s;
    push(
        "register comm, one-sided (paper's s5 proposal)",
        t_reg1,
        "no partner involvement",
    );

    // 4. Compacted resident (the paper's choice): one bulk DMA, then
    //    pure reconstruction arithmetic.
    let recon_flops =
        mmds_eam::LOCATE_FLOPS + mmds_eam::SEG_EVAL_FLOPS + mmds_eam::compact::RECON_EXTRA_FLOPS;
    let t_comp = model.dma_time(40_000) + n as f64 * model.flops_time(recon_flops);
    push(
        "compacted table, LDM-resident (paper)",
        t_comp,
        "one 39 KiB stage-in + on-the-fly coefficients",
    );

    AblationResult {
        accesses: n,
        schemes,
    }
}
