//! The traced run: one repetition's work replayed call by call through
//! each layer's public functions with a span around every call, then
//! the same repetition through the production entry points in a fresh
//! child. The two must end with the same fingerprint. Every call below
//! the production entry points lives in this binary, so a change to a
//! layer's public functions can break it without touching the
//! end-to-end numbers.

mod coupled;
mod kmc;
mod md;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use mmds_benchmark::child;
use mmds_benchmark::run::{self, Checks, Fingerprint};
use mmds_benchmark::spec::{Workload, LAYER_COVERAGE_MIN, PER_LAYER};
use mmds_benchmark::trace::{write_jsonl, NameTotal, Recorder, Span};
use mmds_benchmark::workloads::{self, Rep};

/// The per-layer values measured so far; a layer the workload does not
/// reach keeps 0.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Sets a per-layer metric. Panics on a name `PER_LAYER` lacks, so
    /// no measurement is silently dropped from the report.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// Sets each layer metric to the summed self time of its span and
    /// returns the sum over the layers.
    pub fn set_layers(
        &mut self,
        totals: &BTreeMap<&'static str, NameTotal>,
        layers: &[(&str, &'static str)],
    ) -> f64 {
        layers
            .iter()
            .map(|(span, metric)| {
                let s = totals.get(span).map_or(0.0, NameTotal::self_s);
                self.set(metric, s);
                s
            })
            .sum()
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    write_jsonl(spans, std::io::BufWriter::new(std::fs::File::create(path)?))
}

fn main() -> ExitCode {
    let args = match run::args_or_usage(true) {
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

    // The replay comes first, while this process is as fresh as the
    // child the untraced repetition runs in.
    let mut values = Values::default();
    let mut checks = Checks::default();
    let mut rec = Recorder::new(Instant::now(), 0);
    let (fingerprint, traced_wall_s, rank_spans) = match args.workload {
        Workload::MdBulk => {
            let (fp, wall) = md::run(
                sizes.md_bulk,
                &sizes,
                args.seed,
                &mut rec,
                &mut values,
                &mut checks,
            );
            (fp, wall, Vec::new())
        }
        Workload::Coupled2r => {
            coupled::run(sizes.coupled, &sizes, args.seed, &mut values, &mut checks)
        }
        Workload::KmcDense => {
            let (fp, wall) = kmc::run_dense(sizes.kmc_dense, args.seed, &mut rec, &mut values);
            (fp, wall, Vec::new())
        }
        Workload::KmcFullghost => {
            let (fp, wall) =
                kmc::run_fullghost(sizes.kmc_fullghost, args.seed, &mut rec, &mut values);
            (fp, wall, Vec::new())
        }
    };
    println!("traced:   wall {traced_wall_s:.4} s, fingerprint {fingerprint}");

    // A lost repetition leaves its numbers undefined: the run is then
    // not a measurement, and says so in its result.
    let untraced = child::spawn_repetition(&args);
    checks.record_integrity(
        "reps.completed",
        untraced.is_ok(),
        untraced
            .as_ref()
            .map_or_else(|e| format!("lost: {e}"), |_| "1 completed".to_string()),
    );
    let untraced = untraced.map_or(
        Rep {
            build_s: f64::NAN,
            setup_s: f64::NAN,
            wall_s: f64::NAN,
            work: 0,
            fingerprint: Fingerprint(0),
            checks: Vec::new(),
        },
        |r| r.rep,
    );
    println!(
        "untraced: setup {:.4} s, wall {:.4} s, fingerprint {}",
        untraced.setup_s, untraced.wall_s, untraced.fingerprint
    );
    values.set("trace.overhead_frac", traced_wall_s / untraced.wall_s - 1.0);
    let rate = untraced.work as f64 / untraced.wall_s;
    match args.workload {
        Workload::MdBulk => {
            values.set("md.atom_steps_per_s", rate);
            values.set("md.build_s", untraced.build_s);
        }
        Workload::KmcDense | Workload::KmcFullghost => {
            values.set(
                "kmc.events_per_s",
                values.get("kmc.events") / untraced.wall_s,
            );
            values.set("kmc.build_s", untraced.build_s);
        }
        Workload::Coupled2r => {}
    }

    checks.record_integrity(
        "trace.fingerprint_equal",
        fingerprint == untraced.fingerprint,
        format!("untraced {}, traced {}", untraced.fingerprint, fingerprint),
    );
    let coverage = match args.workload {
        Workload::MdBulk => Some(values.get("md.layer_sum_over_wall")),
        Workload::KmcDense | Workload::KmcFullghost => Some(values.get("kmc.layer_sum_over_wall")),
        Workload::Coupled2r => None,
    };
    if let Some(c) = coverage.filter(|_| !args.smoke) {
        checks.record(
            "trace.layers_cover_wall",
            c >= LAYER_COVERAGE_MIN,
            format!("layer self times are {c:.4} of the traced wall, at least {LAYER_COVERAGE_MIN} wanted"),
        );
    }

    if let Some(path) = &args.spans_out {
        let spans = if rank_spans.is_empty() {
            rec.spans()
        } else {
            &rank_spans
        };
        match write_spans(path, spans) {
            Ok(()) => println!("{} spans written to {}", spans.len(), path.display()),
            Err(e) => {
                eprintln!("error: cannot write spans to {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    }

    let rows: Vec<_> = PER_LAYER.iter().map(|m| (*m, values.get(m.name))).collect();
    run::finish(&rows, &checks)
}
