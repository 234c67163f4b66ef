//! What both binaries share around the measurement itself: arguments,
//! run hygiene, counted checks and the result lines.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use mmds_telemetry::canon::fnv1a64;

use crate::spec::{Metric, Sizes, Workload, DEFAULT_SEED};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Seed for `MdConfig.seed`, `KmcConfig.seed` and vacancy seeding.
    pub seed: u64,
    /// Time budget for the repetitions of the untraced run (s).
    pub seconds: f64,
    /// `--trace 1`: the traced run.
    pub trace: bool,
    /// Tiny sizes.
    pub smoke: bool,
    /// Where the traced run writes its spans (JSON lines), if anywhere.
    pub spans_out: Option<PathBuf>,
    /// `--child`: run one repetition and report it (see [`crate::child`]).
    pub child: bool,
}

impl Args {
    /// Parses `--workload W [--seed N] [--seconds S] [--trace 0|1]
    /// [--smoke] [--spans-out PATH]`.
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 25.0;
        let mut trace = false;
        let mut smoke = false;
        let mut spans_out = None;
        let mut child = false;
        let mut it = argv.into_iter();
        while let Some(flag) = it.next() {
            let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
            match flag.as_str() {
                "--workload" => {
                    let name = value("a workload name")?;
                    workload =
                        Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
                }
                "--seed" => {
                    let v = value("a whole number")?;
                    seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
                }
                "--seconds" => {
                    let v = value("a number of seconds")?;
                    seconds = v
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or(format!("bad seconds `{v}`"))?;
                }
                "--trace" => {
                    trace = match value("0 or 1")?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("bad trace `{v}`")),
                    };
                }
                "--smoke" => smoke = true,
                "--child" => child = true,
                "--spans-out" => spans_out = Some(PathBuf::from(value("a path")?)),
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            smoke,
            spans_out,
            child,
        })
    }

    /// The work sizes this run uses.
    pub fn sizes(&self) -> Sizes {
        if self.smoke {
            Sizes::SMOKE
        } else {
            Sizes::FULL
        }
    }
}

/// Parses the process arguments for a binary that serves `--trace 0`
/// (`traced == false`) or `--trace 1`; prints usage and returns the exit
/// code on a bad command line.
pub fn args_or_usage(traced: bool) -> Result<Args, ExitCode> {
    let args = Args::parse(std::env::args().skip(1)).and_then(|a| {
        if a.child || a.trace == traced {
            Ok(a)
        } else if traced {
            Err("this binary is the traced run: pass --trace 1".to_string())
        } else {
            Err("this binary is the untraced run: bench-trace serves --trace 1".to_string())
        }
    });
    args.map_err(|e| {
        eprintln!("error: {e}");
        eprintln!(
            "usage: --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--spans-out PATH]",
            Workload::ALL.map(Workload::name).join("|")
        );
        ExitCode::from(2)
    })
}

/// Puts the process into the state every measurement assumes: an
/// optimised build, one rayon worker (the rayon stand-in spawns OS
/// threads per call, so a run never uses more threads than its workload
/// states) and no `MMDS_*` switch from the caller (telemetry, comm
/// tracing, heartbeats and archiving stay off). Children inherit it.
/// Nothing else is pinned: the allocator runs as it does for a user.
/// Call it first in `main`, before any thread exists.
pub fn prepare_process() -> Result<(), ExitCode> {
    if cfg!(debug_assertions) {
        eprintln!("error: debug build; the benchmark only measures --release builds");
        return Err(ExitCode::from(2));
    }
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let stray: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("MMDS_"))
        .collect();
    for k in stray {
        std::env::remove_var(k);
    }
    Ok(())
}

/// Cores the sandbox offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn proc_file(name: &str) -> String {
    std::fs::read_to_string(format!("/proc/self/{name}")).unwrap_or_default()
}

/// The process's peak resident set so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    proc_file("status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// User and system CPU seconds of the whole process so far. Linux
/// reports them in clock ticks of 1/100 s (`USER_HZ`).
pub fn cpu_seconds() -> (f64, f64) {
    let stat = proc_file("stat");
    // The command name may hold spaces; fields are counted after it.
    let rest = stat.rsplit_once(") ").map_or("", |(_, r)| r);
    let tick = |i: usize| -> f64 {
        rest.split(' ')
            .nth(i)
            .and_then(|v| v.parse::<f64>().ok())
            .map_or(f64::NAN, |t| t / 100.0)
    };
    (tick(11), tick(12))
}

fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string())
}

/// Prints what a reader needs to compare two runs: machine, compiler,
/// revision, seed and the frozen work of the workload.
pub fn print_header(args: &Args, work: &str) {
    println!(
        "# {} trace={} seed={} seconds={} smoke={}",
        args.workload.name(),
        u8::from(args.trace),
        args.seed,
        args.seconds,
        args.smoke
    );
    println!(
        "# nproc={} rustc=\"{}\" git={} profile=release threads={}",
        nproc(),
        env!("BENCH_RUSTC_VERSION"),
        git_revision(),
        match args.workload {
            Workload::Coupled2r => "2 rank threads",
            _ => "1 compute thread",
        }
    );
    println!("# work per repetition: {work}");
}

/// One correctness check, counted as an operation.
#[derive(Debug, Clone)]
pub struct Check {
    /// Name.
    pub name: String,
    /// Outcome.
    pub passed: bool,
    /// The compared values.
    pub detail: String,
}

impl Check {
    /// A check with its outcome and the values it compared.
    pub fn new(name: &str, passed: bool, detail: String) -> Self {
        Self {
            name: name.to_string(),
            passed,
            detail,
        }
    }
}

/// The checks of one run.
#[derive(Debug, Default)]
pub struct Checks {
    list: Vec<Check>,
    /// An integrity check failed: the numbers are not a measurement.
    broken: bool,
}

impl Checks {
    /// Records a check on what the tree computes.
    pub fn record(&mut self, name: &str, passed: bool, detail: String) {
        self.record_check(Check::new(name, passed, detail));
    }

    /// Records a check evaluated elsewhere.
    pub fn record_check(&mut self, check: Check) {
        self.list.push(check);
    }

    /// Records a check on the run itself (repetitions completed, the
    /// same seed gave the same fingerprint). If one fails, the run's
    /// numbers are not a measurement.
    pub fn record_integrity(&mut self, name: &str, passed: bool, detail: String) {
        self.broken |= !passed;
        self.record(name, passed, detail);
    }

    /// Checks evaluated.
    pub fn attempted(&self) -> usize {
        self.list.len()
    }

    /// Checks that failed.
    pub fn failed(&self) -> usize {
        self.list.iter().filter(|c| !c.passed).count()
    }

    fn print(&self) {
        for c in &self.list {
            let verdict = if c.passed { "ok" } else { "FAIL" };
            println!("check {:<32} {}  [{}]", c.name, verdict, c.detail);
        }
        println!(
            "checks: {} attempted, {} failed ({:.1} %)",
            self.attempted(),
            self.failed(),
            100.0 * self.failed() as f64 / self.attempted().max(1) as f64
        );
    }
}

/// The result object the driver reads. `correct` says whether the
/// numbers are a measurement at all: every metric is a finite number
/// and every integrity check passed. `failed` counts every failed
/// check, whatever it is about. A run that is not a measurement counts
/// all of its checks as failed and writes a metric that is not a finite
/// number as 0.
fn result_line(values: &[(Metric, f64)], checks: &Checks) -> String {
    let correct = !checks.broken && values.iter().all(|(_, v)| v.is_finite());
    let failed = if correct {
        checks.failed()
    } else {
        checks.attempted()
    };
    let metrics: Vec<String> = values
        .iter()
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                if v.is_finite() { *v } else { 0.0 },
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        checks.attempted(),
        metrics.join(", ")
    )
}

/// Prints every metric by name with unit (and bound, if gated), the
/// checks with the share that failed, and as the last line the JSON
/// object the driver reads. Failed checks are counted, not fatal: the
/// exit code is 0.
pub fn finish(values: &[(Metric, f64)], checks: &Checks) -> ExitCode {
    for (m, v) in values {
        let bound = m.bound.map_or(String::new(), |b| {
            format!("  (may worsen by {:.0} %)", b * 100.0)
        });
        println!(
            "metric {:<40} {:>16} {:<6} {} is better{}",
            m.name,
            format!("{v}"),
            m.unit,
            m.better.as_str(),
            bound
        );
    }
    checks.print();
    println!("{}", result_line(values, checks));
    ExitCode::SUCCESS
}

/// Seconds `f` takes, and its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// A fingerprint: FNV-1a over everything a run returned, compared
/// within a run and never against a frozen value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(pub u64);

/// The words a fingerprint is taken over.
#[derive(Debug, Default)]
pub struct Folded(Vec<u8>);

impl Folded {
    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        self.0.extend_from_slice(&w.to_le_bytes());
    }

    /// Folds the bits of a float in.
    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// The fingerprint of what was folded in.
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint(fnv1a64(&self.0))
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse("--workload kmc_dense --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::KmcDense);
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.smoke),
            (7, 20.0, true, false)
        );
        let d = parse("--workload md_bulk").unwrap();
        assert_eq!((d.seed, d.trace), (DEFAULT_SEED, false));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse("").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload md_bulk --seed x").is_err());
        assert!(parse("--workload md_bulk --seconds 0").is_err());
        assert!(parse("--workload md_bulk --seconds inf").is_err());
        assert!(parse("--workload md_bulk --trace 2").is_err());
        assert!(parse("--workload md_bulk --seed").is_err());
        assert!(parse("--workload md_bulk --frobnicate").is_err());
    }

    #[test]
    fn failed_checks_are_counted_and_only_integrity_decides_correct() {
        let wall = crate::spec::END_TO_END[0];
        let mut c = Checks::default();
        c.record("md.finite_energies", true, String::new());
        c.record("md.nve_drift_host", false, String::new());
        c.record_integrity("reps.same_fingerprint", true, String::new());
        assert_eq!((c.attempted(), c.failed()), (3, 1));
        let line = result_line(&[(wall, 1.5)], &c);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 1, "),
            "{line}"
        );
        assert!(
            line.contains("\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}"),
            "{line}"
        );

        // Not a measurement: every check counts as failed, and the
        // line stays valid JSON.
        let nan = result_line(&[(wall, f64::NAN)], &c);
        assert!(
            nan.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 3, "),
            "{nan}"
        );
        assert!(nan.contains("\"value\": 0,"), "{nan}");
        c.record_integrity("reps.completed", false, String::new());
        let lost = result_line(&[(wall, 1.5)], &c);
        assert!(
            lost.starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 4, "),
            "{lost}"
        );
    }

    #[test]
    fn fingerprint_separates_order_and_sign() {
        let fp = |xs: &[f64]| {
            let mut f = Folded::default();
            xs.iter().for_each(|&x| f.float(x));
            f.fingerprint()
        };
        assert_eq!(fp(&[1.0, 2.0]), fp(&[1.0, 2.0]));
        assert_ne!(fp(&[1.0, 2.0]), fp(&[2.0, 1.0]));
        assert_ne!(fp(&[0.0]), fp(&[-0.0]));
        assert_eq!(format!("{}", Fingerprint(0xab)).len(), 16);
    }

    #[test]
    fn proc_readers_return_plausible_numbers() {
        assert!(peak_rss_mib() > 0.5);
        let (user, sys) = cpu_seconds();
        assert!(user >= 0.0 && sys >= 0.0);
    }
}
