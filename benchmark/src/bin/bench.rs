//! The untraced run: repeats one workload's repetition (set-up, then a
//! fixed amount of timed work), each in a fresh child process, for
//! `--seconds`, and reports the end-to-end metrics over them.
//! Telemetry is off; only the production entry points run (see
//! `mmds_benchmark::workloads`).

use std::process::ExitCode;
use std::time::Instant;

use mmds_benchmark::child::{self, ChildReport};
use mmds_benchmark::run::{self, Checks};
use mmds_benchmark::spec::{Workload, END_TO_END};
use mmds_benchmark::stats::quantile;
use mmds_benchmark::workloads;

/// A run makes at least this many repetitions, and gives up after this
/// many lost ones in a row.
const MIN_REPS: usize = 3;

fn main() -> ExitCode {
    let args = match run::args_or_usage(false) {
        Ok(a) => a,
        Err(code) => return code,
    };
    if let Err(code) = run::prepare_process() {
        return code;
    }
    if args.child {
        return child::run_child(&args);
    }
    let sizes = args.sizes();
    run::print_header(&args, &workloads::describe(args.workload, &sizes));

    // Whole repetitions for `--seconds`: another one starts only if it
    // is expected to end inside the budget. Children that die one after
    // the other end the run: they would die for the whole budget.
    let t0 = Instant::now();
    let mut reps: Vec<ChildReport> = Vec::new();
    let mut lost: Vec<String> = Vec::new();
    let mut lost_in_a_row = 0;
    loop {
        let (took, outcome) = run::timed(|| child::spawn_repetition(&args));
        match outcome {
            Ok(r) => {
                println!(
                    "rep {}: build {:.4} s, setup {:.4} s, wall {:.4} s, rss {:.1} MiB, cpu user {:.2} s system {:.2} s, work {}, fingerprint {}",
                    reps.len(),
                    r.rep.build_s,
                    r.rep.setup_s,
                    r.rep.wall_s,
                    r.peak_rss_mib,
                    r.user_s,
                    r.sys_s,
                    r.rep.work,
                    r.rep.fingerprint
                );
                reps.push(r);
                lost_in_a_row = 0;
            }
            Err(e) => {
                eprintln!("repetition lost: {e}");
                lost.push(e);
                lost_in_a_row += 1;
            }
        }
        let done = reps.len() + lost.len();
        let out_of_time = args.smoke || t0.elapsed().as_secs_f64() + took > args.seconds;
        if lost_in_a_row >= MIN_REPS || (done >= MIN_REPS && out_of_time) {
            break;
        }
    }
    println!(
        "{} repetitions in {:.2} s",
        reps.len(),
        t0.elapsed().as_secs_f64()
    );

    let mut checks = Checks::default();
    checks.record_integrity(
        "reps.completed",
        lost.is_empty(),
        format!(
            "{} completed, {} lost{}",
            reps.len(),
            lost.len(),
            lost.first()
                .map_or(String::new(), |e| format!(" (first: {e})"))
        ),
    );
    // A check on a repetition's outputs passes if it passes in each.
    if let Some(first) = reps.first() {
        for (i, check) in first.rep.checks.iter().enumerate() {
            let worst = reps
                .iter()
                .map(|r| &r.rep.checks[i])
                .find(|c| !c.passed)
                .unwrap_or(check);
            checks.record_check(worst.clone());
        }
    }
    let same = reps
        .windows(2)
        .all(|w| w[0].rep.fingerprint == w[1].rep.fingerprint);
    checks.record_integrity(
        "reps.same_fingerprint",
        same,
        format!("{} repetitions of seed {}", reps.len(), args.seed),
    );
    match args.workload {
        Workload::MdBulk => {
            let drift = workloads::nve_drift_host(&sizes, args.seed);
            checks.record_check(workloads::nve_check("md.nve_drift_host", drift));
        }
        Workload::KmcFullghost => {
            checks.record_check(workloads::ondemand_equals_traditional(&sizes, args.seed));
        }
        Workload::Coupled2r | Workload::KmcDense => {}
    }

    // Work is fixed, so whatever a repetition's time has above the
    // fastest one is the machine's doing: times report the minimum over
    // repetitions (the steadiest of median, lower quartile and minimum
    // in the A/A runs; see the README). Memory has no such floor and
    // reports the median. No repetition: no number.
    let column = |f: fn(&ChildReport) -> f64, q: f64| -> f64 {
        let v: Vec<f64> = reps.iter().map(f).collect();
        if v.is_empty() {
            f64::NAN
        } else {
            quantile(&v, q)
        }
    };
    let values: Vec<_> = END_TO_END
        .iter()
        .map(|m| {
            let v = match m.name {
                "wall_s" => column(|r| r.rep.wall_s, 0.0),
                "setup_s" => column(|r| r.rep.setup_s, 0.0),
                "peak_rss_mb" => column(|r| r.peak_rss_mib, 0.5),
                other => unreachable!("end-to-end metric {other} has no measurement"),
            };
            (*m, v)
        })
        .collect();
    run::finish(&values, &checks)
}
