//! One repetition per process.
//!
//! A repetition run a second time in the same process is not the same
//! measurement: glibc's allocator has by then raised its mmap threshold
//! and carved the long-lived arrays out of the heap, and `md_bulk`'s
//! timed region runs about 15 % slower while its set-up runs faster.
//! So both binaries re-run themselves with `--child` for every
//! repetition, one child at a time, and read its report from its
//! standard output. Each child starts with a clean allocator and has
//! its own `VmHWM`; a child that dies is one failed repetition.

use std::process::{Command, ExitCode, Stdio};

use crate::run::{self, Args, Check, Fingerprint};
use crate::workloads::{self, Rep};

/// The flag that makes a binary run one repetition and report it.
pub const CHILD_FLAG: &str = "--child";

/// A repetition and what its process cost.
#[derive(Debug, Clone)]
pub struct ChildReport {
    /// The repetition.
    pub rep: Rep,
    /// The child's `VmHWM` after the repetition (MiB).
    pub peak_rss_mib: f64,
    /// The child's user CPU seconds.
    pub user_s: f64,
    /// The child's system CPU seconds.
    pub sys_s: f64,
}

/// Child side: runs one repetition and prints its report.
pub fn run_child(args: &Args) -> ExitCode {
    let rep = workloads::repetition(args.workload, &args.sizes(), args.seed);
    let (user_s, sys_s) = run::cpu_seconds();
    println!(
        "rep {} {} {} {} {} {} {} {}",
        rep.build_s,
        rep.setup_s,
        rep.wall_s,
        rep.work,
        rep.fingerprint,
        run::peak_rss_mib(),
        user_s,
        sys_s
    );
    for c in &rep.checks {
        println!("check {} {} {}", c.name, u8::from(c.passed), c.detail);
    }
    ExitCode::SUCCESS
}

fn parse_report(stdout: &str) -> Option<ChildReport> {
    let mut lines = stdout.lines();
    let head: Vec<&str> = lines.next()?.split(' ').collect();
    let ["rep", build_s, setup_s, wall_s, work, fingerprint, rss, user_s, sys_s] = head[..] else {
        return None;
    };
    let checks = lines
        .map(|l| {
            let mut parts = l.splitn(4, ' ');
            match (parts.next()?, parts.next()?, parts.next()?, parts.next()) {
                ("check", name, passed, detail) => Some(Check {
                    name: name.to_string(),
                    passed: passed == "1",
                    detail: detail.unwrap_or_default().to_string(),
                }),
                _ => None,
            }
        })
        .collect::<Option<Vec<_>>>()?;
    Some(ChildReport {
        rep: Rep {
            build_s: build_s.parse().ok()?,
            setup_s: setup_s.parse().ok()?,
            wall_s: wall_s.parse().ok()?,
            work: work.parse().ok()?,
            fingerprint: Fingerprint(u64::from_str_radix(fingerprint, 16).ok()?),
            checks,
        },
        peak_rss_mib: rss.parse().ok()?,
        user_s: user_s.parse().ok()?,
        sys_s: sys_s.parse().ok()?,
    })
}

/// Parent side: runs one repetition in a fresh child of this binary and
/// waits for it. The error says how the child failed.
pub fn spawn_repetition(args: &Args) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no path to this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .arg(CHILD_FLAG)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start a child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child ended with {}", out.status));
    }
    parse_report(&String::from_utf8_lossy(&out.stdout))
        .ok_or_else(|| "child printed no readable report".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_the_line_format() {
        let text = "rep 0.002 2.25 2.5 819200 00ab54a98ceb1f0a 78.5 4.1 0.6\n\
                    check md.finite_energies 1 last step E=1.4e6 eV\n\
                    check md.atoms_conserved 0 8192 before, 8191 after\n";
        let r = parse_report(text).expect("parses");
        assert_eq!(
            (r.rep.setup_s, r.rep.wall_s, r.rep.work),
            (2.25, 2.5, 819200)
        );
        assert_eq!(r.rep.fingerprint, Fingerprint(0x00ab_54a9_8ceb_1f0a));
        assert_eq!((r.peak_rss_mib, r.user_s, r.sys_s), (78.5, 4.1, 0.6));
        assert_eq!(r.rep.checks.len(), 2);
        assert!(r.rep.checks[0].passed && !r.rep.checks[1].passed);
        assert_eq!(r.rep.checks[1].detail, "8192 before, 8191 after");
    }

    #[test]
    fn torn_or_foreign_output_is_refused() {
        assert!(parse_report("").is_none());
        assert!(parse_report("rep 1 2 3\n").is_none());
        assert!(parse_report("rep a 2.25 2.5 1 00 78.5 4.1 0.6\n").is_none());
        assert!(parse_report("rep 0 2.25 2.5 1 00 78.5 4.1 0.6\nnoise\n").is_none());
    }
}
