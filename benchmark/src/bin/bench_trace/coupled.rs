//! The body of `run_coupled_parallel` replayed call by call on real
//! rank threads (each with its own span recorder), `offload_step` taken
//! apart the same way, and the `swmpi` primitives timed on two ranks.

use std::time::Instant;

use mmds_benchmark::run::{timed, Checks, Fingerprint};
use mmds_benchmark::spec::{CoupledSize, Sizes};
use mmds_benchmark::trace::{totals_by_name, Recorder, Span};
use mmds_benchmark::workloads::{coupled_params, fold_coupled, md_config, nve_check};
use mmds_coupled::handoff::{md_vacancy_cells, place_vacancies};
use mmds_coupled::parallel::{CoupledRankSummary, ParallelCoupledParams};
use mmds_kmc::comm::CommK;
use mmds_kmc::exchange::full_exchange;
use mmds_kmc::parallel::kmc_rank_grid;
use mmds_kmc::KmcSimulation;
use mmds_md::cascade::{launch_pka, PKA_DIRECTION};
use mmds_md::domain::{exchange_ghosts, migrate_runaways, CommTransport, GhostPhase};
use mmds_md::integrate::{drift, kick, kinetic_energy, temperature};
use mmds_md::offload::{offload_compute_forces, OffloadConfig};
use mmds_md::parallel::{rank_grid, MPE_PER_ATOM_SECONDS};
use mmds_md::runaway::apply_transitions;
use mmds_md::sim::StepSample;
use mmds_md::thermostat::berendsen;
use mmds_md::{MdConfig, MdSimulation};
use mmds_sunway::{CpeCluster, SwModel};
use mmds_swmpi::topology::CartGrid;
use mmds_swmpi::{Comm, CommStats, World};

use crate::kmc::Replay as KmcReplay;
use crate::Values;

/// Spans that are host time inside an exchange call, waiting included.
const EXCHANGE_SPANS: [&str; 6] = [
    "md.domain_ghost",
    "kmc.init",
    "kmc.sync_dt",
    "kmc.pre_sector",
    "kmc.post_sector",
    "coupled.barrier",
];

/// CPE simulator totals of one rank's MD phase.
#[derive(Debug, Default, Clone, Copy)]
struct Offload {
    kernel_virtual_s: f64,
    dma_bytes: u64,
}

/// `mmds_md::parallel::offload_step`.
fn offload_step(
    sim: &mut MdSimulation,
    comm: &Comm,
    transport: &mut CommTransport<'_>,
    cluster: &CpeCluster,
    ocfg: &OffloadConfig,
    rec: &mut Recorder,
    acc: &mut Offload,
) -> StepSample {
    rec.scope("md.step", |rec| {
        let dt = sim.cfg.dt;
        let n_atoms = sim.n_atoms();
        rec.scope("md.integrate", |_| {
            kick(&mut sim.lnl, &sim.interior, 0.5 * dt, sim.mass);
            drift(&mut sim.lnl, &sim.interior, dt);
        });
        rec.scope("md.transitions", |_| {
            let st = apply_transitions(&mut sim.lnl, &sim.cfg, &sim.interior);
            sim.transitions = sim.transitions.merge(&st);
        });
        rec.scope("md.domain_ghost", |_| {
            migrate_runaways(&mut sim.lnl, transport);
            exchange_ghosts(&mut sim.lnl, transport, GhostPhase::Positions);
        });
        let interior = std::mem::take(&mut sim.interior);
        let outcome = rec.scope("offload.compute_forces", |rec| {
            offload_compute_forces(&mut sim.lnl, &sim.pot, cluster, ocfg, &interior, |l| {
                rec.scope("md.domain_ghost", |_| {
                    exchange_ghosts(l, transport, GhostPhase::Fp)
                })
            })
        });
        sim.interior = interior;
        acc.kernel_virtual_s += outcome.kernel_time();
        acc.dma_bytes += outcome
            .density
            .counters
            .merge(&outcome.force.counters)
            .dma_bytes();
        comm.tick_compute(outcome.kernel_time() + n_atoms as f64 * MPE_PER_ATOM_SECONDS);
        rec.scope("md.integrate", |_| {
            kick(&mut sim.lnl, &sim.interior, 0.5 * dt, sim.mass);
            if let Some(tau) = sim.cfg.thermostat_tau {
                berendsen(
                    &mut sim.lnl,
                    &sim.interior,
                    sim.mass,
                    sim.cfg.temperature,
                    dt,
                    tau,
                );
            }
        });
        sim.time_ps += dt;
        rec.scope("md.observe", |_| StepSample {
            pair: outcome.pair_energy,
            embed: outcome.embed_energy,
            kinetic: kinetic_energy(&sim.lnl, &sim.interior, sim.mass),
            temperature: temperature(&sim.lnl, &sim.interior, sim.mass),
        })
    })
}

/// A rank's MD state as `run_coupled_parallel` and `run_parallel_md`
/// build it.
fn rank_md(
    md: &MdConfig,
    offload: &OffloadConfig,
    cells: [usize; 3],
    grid3: CartGrid,
    rank: usize,
) -> MdSimulation {
    let mut cfg = *md;
    cfg.seed = md.rank_seed(rank);
    let mut sim = MdSimulation::from_grid(cfg, rank_grid(&cfg, cells, grid3, rank));
    sim.table_form = offload.form;
    sim.init_velocities();
    sim
}

/// What one rank hands back besides its summary.
struct RankTrace {
    spans: Vec<Span>,
    offload: Offload,
}

/// The per-rank closure of `run_coupled_parallel`.
fn rank_body(
    comm: &Comm,
    grid3: CartGrid,
    params: &ParallelCoupledParams,
    epoch: Instant,
) -> (CoupledRankSummary, RankTrace) {
    let mut rec = Recorder::new(epoch, comm.rank() as u32);
    let mut offload = Offload::default();
    let summary = rec.scope("coupled.rank", |rec| {
        // ---- MD phase
        let (mut sim, cluster) = rec.scope("coupled.md_build", |_| {
            let mut sim = rank_md(
                &params.md,
                &params.offload,
                params.global_cells,
                grid3,
                comm.rank(),
            );
            if let (Some(e), 0) = (params.pka_energy, comm.rank()) {
                let g = sim.lnl.grid.ghost;
                let len = sim.lnl.grid.len;
                let pka = sim
                    .lnl
                    .grid
                    .site_id(g + len[0] / 2, g + len[1] / 2, g + len[2] / 2, 0);
                launch_pka(&mut sim.lnl, pka, e, PKA_DIRECTION, sim.mass);
            }
            (sim, CpeCluster::new(SwModel::sw26010()))
        });
        comm.reset_accounting();
        rec.scope("coupled.md_phase", |rec| {
            let mut transport = CommTransport::new(comm, grid3);
            for _ in 0..params.md_steps {
                offload_step(
                    &mut sim,
                    comm,
                    &mut transport,
                    &cluster,
                    &params.offload,
                    rec,
                    &mut offload,
                );
            }
        });
        rec.scope("coupled.barrier", |_| comm.barrier());
        let md_time = comm.clock();

        // ---- Handoff
        let (mut kmc, md_vacancies) = rec.scope("coupled.handoff", |_| {
            let vac_cells = md_vacancy_cells(&sim.lnl);
            let mut kmc_cfg = params.kmc;
            kmc_cfg.seed = params.kmc.rank_seed(comm.rank());
            let kgrid = kmc_rank_grid(&kmc_cfg, params.global_cells, grid3, comm.rank());
            let mut kmc = KmcSimulation::new(kmc_cfg, kgrid);
            place_vacancies(&mut kmc.lat, &vac_cells);
            if params.pka_energy.is_none() {
                let n = (params.seed_concentration * kmc.lat.n_owned() as f64).round() as usize;
                kmc.lat.seed_vacancies(n, kmc_cfg.seed ^ 0xACE1);
            }
            (KmcReplay::new(kmc), vac_cells.len())
        });

        // ---- KMC phase
        let kmc_events = rec.scope("coupled.kmc_phase", |rec| {
            let mut t = CommK::new(comm, grid3);
            // `KmcSimulation::initialize`.
            rec.scope("kmc.init", |_| full_exchange(&mut kmc.sim.lat, &mut t));
            kmc.run_cycles(params.strategy, &mut t, params.kmc_cycles, rec)
        });
        rec.scope("coupled.barrier", |_| comm.barrier());
        CoupledRankSummary {
            md_vacancies,
            kmc_events,
            final_vacancies: kmc.sim.lat.n_vacancies(),
            md_time,
            kmc_time: comm.clock() - md_time,
        }
    });
    let spans = rec.spans().to_vec();
    (summary, RankTrace { spans, offload })
}

/// Round trips of each two-rank primitive, in microseconds per call.
fn primitive_latencies(out: &mut Values) {
    const ROUNDS: usize = 2000;
    let world = World::default_world();
    let per_rank = world.run(2, |comm| {
        let peer = 1 - comm.rank();
        let (pingpong, ()) = timed(|| {
            for i in 0..ROUNDS as u32 {
                if comm.rank() == 0 {
                    comm.send(peer, i, vec![0u8; 8]);
                    comm.recv_from(peer, i);
                } else {
                    comm.recv_from(peer, i);
                    comm.send(peer, i, vec![0u8; 8]);
                }
            }
        });
        let (allreduce, ()) = timed(|| {
            for i in 0..ROUNDS {
                std::hint::black_box(comm.allreduce_sum_u64(i as u64));
            }
        });
        let (put_fence, ()) = timed(|| {
            for _ in 0..ROUNDS {
                comm.win_put(peer, 0, vec![0u8; 8]);
                std::hint::black_box(comm.win_fence());
            }
        });
        [pingpong, allreduce, put_fence].map(|s| s * 1e6 / ROUNDS as f64)
    });
    let slowest = |i: usize| per_rank.iter().map(|r| r.result[i]).fold(0.0, f64::max);
    out.set("swmpi.pingpong_us", slowest(0));
    out.set("swmpi.allreduce_us", slowest(1));
    out.set("swmpi.put_fence_us", slowest(2));
}

/// Relative total-energy drift of an NVE run on the offload path
/// (`check_cells`³ at 300 K on one rank).
fn nve_drift_offload(sizes: &Sizes, seed: u64) -> f64 {
    let cfg = MdConfig {
        temperature: 300.0,
        thermostat_tau: None,
        ..md_config(seed)
    };
    let ocfg = OffloadConfig::optimized();
    let grid3 = CartGrid::for_ranks(1);
    let out = World::default_world().run(1, |comm| {
        let mut sim = rank_md(&cfg, &ocfg, [sizes.check_cells; 3], grid3, comm.rank());
        let cluster = CpeCluster::new(SwModel::sw26010());
        let mut transport = CommTransport::new(comm, grid3);
        let mut rec = Recorder::new(Instant::now(), 0);
        let mut acc = Offload::default();
        let mut step = || {
            offload_step(
                &mut sim,
                comm,
                &mut transport,
                &cluster,
                &ocfg,
                &mut rec,
                &mut acc,
            )
            .total()
        };
        let e0 = step();
        let mut last = e0;
        for _ in 0..sizes.nve_steps {
            last = step();
        }
        (last - e0).abs() / e0.abs()
    });
    out[0].result
}

/// The traced `coupled_2r` call (full size; every call of
/// `run_coupled_parallel` starts from fresh state, so the warm-up call
/// does not enter the fingerprint) and the `swmpi` primitives.
pub fn run(
    size: CoupledSize,
    sizes: &Sizes,
    seed: u64,
    out: &mut Values,
    checks: &mut Checks,
) -> (Fingerprint, f64, Vec<Span>) {
    let params = coupled_params(size, seed, 1);
    let grid3 = CartGrid::for_ranks(CoupledSize::RANKS);
    let epoch = Instant::now();
    let world = World::default_world();
    let (wall_s, ranks) = timed(|| {
        world.run(CoupledSize::RANKS, |comm| {
            rank_body(comm, grid3, &params, epoch)
        })
    });

    // What `run_coupled_parallel` returns, for the fingerprint.
    let (summaries, traces): (Vec<_>, Vec<_>) = ranks
        .into_iter()
        .map(|r| {
            let (summary, trace) = r.result;
            let plain = mmds_swmpi::world::RankOutput {
                result: summary,
                stats: r.stats,
                matrix: r.matrix,
                clock: r.clock,
            };
            (plain, trace)
        })
        .unzip();
    let fingerprint = fold_coupled(&summaries);
    for c in mmds_benchmark::workloads::coupled_checks(&summaries) {
        checks.record_check(c);
    }

    let per_rank: Vec<_> = traces.iter().map(|t| totals_by_name(&t.spans, 0)).collect();
    let seconds = |name: &str, own: bool| -> Vec<f64> {
        per_rank
            .iter()
            .map(|t| {
                t.get(name)
                    .map_or(0.0, |n| if own { n.self_s() } else { n.total_s() })
            })
            .collect()
    };
    let max = |v: Vec<f64>| v.into_iter().fold(0.0, f64::max);
    out.set(
        "offload.compute_forces_s",
        max(seconds("offload.compute_forces", true)),
    );
    out.set("md.domain_ghost_s", max(seconds("md.domain_ghost", false)));
    out.set(
        "sunway.kernel_virtual_s",
        max(traces.iter().map(|t| t.offload.kernel_virtual_s).collect()),
    );
    out.set(
        "sunway.dma_bytes_per_step",
        traces
            .iter()
            .map(|t| t.offload.dma_bytes)
            .max()
            .unwrap_or(0) as f64
            / params.md_steps.max(1) as f64,
    );
    out.set(
        "coupled.md_phase_s",
        max(seconds("coupled.md_phase", false)),
    );
    out.set("coupled.handoff_s", max(seconds("coupled.handoff", false)));
    out.set(
        "coupled.kmc_phase_s",
        max(seconds("coupled.kmc_phase", false)),
    );
    out.set(
        "coupled.md_vacancies",
        summaries
            .iter()
            .map(|r| r.result.md_vacancies)
            .sum::<usize>() as f64,
    );
    out.set(
        "coupled.kmc_events",
        summaries.iter().map(|r| r.result.kmc_events).sum::<u64>() as f64,
    );
    out.set("coupled.virtual_md_s", summaries[0].result.md_time);
    out.set("coupled.virtual_kmc_s", summaries[0].result.kmc_time);

    let stats: Vec<CommStats> = summaries.iter().map(|r| r.stats).collect();
    let total = CommStats::sum(&stats);
    out.set("swmpi.msgs", total.msgs_sent as f64);
    out.set("swmpi.bytes", total.bytes_moved() as f64);
    out.set("swmpi.puts", total.puts as f64);
    out.set("swmpi.collectives", total.collectives as f64);
    out.set("swmpi.virtual_comm_s", CommStats::max_comm_time(&stats));
    let exchange: Vec<f64> = per_rank
        .iter()
        .map(|t| {
            EXCHANGE_SPANS
                .iter()
                .map(|n| t.get(n).map_or(0.0, |x| x.total_s()))
                .sum()
        })
        .collect();
    let compute: Vec<f64> = seconds("coupled.rank", false)
        .iter()
        .zip(&exchange)
        .map(|(rank, ex)| rank - ex)
        .collect();
    out.set("swmpi.exchange_host_s", max(exchange));
    let mean = compute.iter().sum::<f64>() / compute.len() as f64;
    out.set("swmpi.rank_imbalance", max(compute) / mean);

    primitive_latencies(out);
    let drift = nve_drift_offload(sizes, seed);
    out.set("md.nve_drift_offload", drift);
    checks.record_check(nve_check("md.nve_drift_offload", drift));

    // One list for the span file: parents are indices into a rank's own
    // spans, so shift them by where that rank's spans start.
    let mut spans: Vec<Span> = Vec::new();
    for t in traces {
        let base = spans.len() as u32;
        spans.extend(t.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    (fingerprint, wall_s, spans)
}
