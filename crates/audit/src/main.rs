//! `mmds-audit` — run the workspace static-analysis passes from the
//! command line (CI gates on the exit status).
//!
//! ```text
//! mmds-audit [--all | --ldm --determinism --flops --unsafe-audit --counters
//!             --protocol] [--root PATH] [--json PATH] [--quiet]
//! ```
//!
//! Exit status 0 = clean, 1 = findings, 2 = usage error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use mmds_audit::{
    counters, determinism, findings, findings::Finding, flops, ldm, protocol, unsafe_audit,
    workspace,
};

const USAGE: &str = "mmds-audit: workspace static-analysis passes

USAGE:
    mmds-audit [PASSES] [OPTIONS]

PASSES (default: --all):
    --all             run every pass
    --ldm             LDM budget prover + capacity-literal scan
    --determinism     determinism linter (md, kmc, coupled, eam, analysis)
    --flops           flop-ledger cross-checker
    --unsafe-audit    forbid(unsafe_code) + unsafe-token audit
    --counters        telemetry counter-manifest + env-knob cross-checker
    --protocol        comm-skeleton prover + rank-uniformity lint

OPTIONS:
    --root PATH       workspace root (default: nearest [workspace] above cwd)
    --json PATH       also write the findings as JSON (stable schema) to PATH
    --quiet           findings only, no budget/knob/skeleton tables
    --help            this text";

struct Options {
    ldm: bool,
    determinism: bool,
    flops: bool,
    unsafe_audit: bool,
    counters: bool,
    protocol: bool,
    root: Option<PathBuf>,
    json: Option<PathBuf>,
    quiet: bool,
}

impl Options {
    fn any_pass(&self) -> bool {
        self.ldm
            || self.determinism
            || self.flops
            || self.unsafe_audit
            || self.counters
            || self.protocol
    }

    fn all_passes(&mut self) {
        self.ldm = true;
        self.determinism = true;
        self.flops = true;
        self.unsafe_audit = true;
        self.counters = true;
        self.protocol = true;
    }
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        ldm: false,
        determinism: false,
        flops: false,
        unsafe_audit: false,
        counters: false,
        protocol: false,
        root: None,
        json: None,
        quiet: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--all" => opts.all_passes(),
            "--ldm" => opts.ldm = true,
            "--determinism" => opts.determinism = true,
            "--flops" => opts.flops = true,
            "--unsafe-audit" => opts.unsafe_audit = true,
            "--counters" => opts.counters = true,
            "--protocol" => opts.protocol = true,
            "--quiet" => opts.quiet = true,
            "--root" => {
                let path = it.next().ok_or("--root requires a PATH")?;
                opts.root = Some(PathBuf::from(path));
            }
            "--json" => {
                let path = it.next().ok_or("--json requires a PATH")?;
                opts.json = Some(PathBuf::from(path));
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !opts.any_pass() {
        opts.all_passes();
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let root = match opts.root.clone().or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| workspace::find_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!("error: no Cargo workspace found above the current directory (use --root)");
            return ExitCode::from(2);
        }
    };

    let mut findings: Vec<Finding> = Vec::new();
    if opts.ldm {
        let (table, f) = ldm::run(&root);
        if !opts.quiet {
            println!("{table}");
        }
        findings.extend(f);
    }
    if opts.determinism {
        findings.extend(determinism::run(&root));
    }
    if opts.flops {
        findings.extend(flops::run(&root));
    }
    if opts.unsafe_audit {
        findings.extend(unsafe_audit::run(&root));
    }
    if opts.counters {
        let (knobs, f) = counters::run(&root);
        if !opts.quiet {
            println!("{knobs}");
        }
        findings.extend(f);
    }
    if opts.protocol {
        let (table, f) = protocol::run(&root);
        if !opts.quiet {
            println!("{table}");
        }
        findings.extend(f);
    }

    if let Some(path) = &opts.json {
        if let Err(e) = std::fs::write(path, findings::json_report(&findings)) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        if !opts.quiet {
            println!("mmds-audit: findings JSON -> {}", path.display());
        }
    }

    if findings.is_empty() {
        if !opts.quiet {
            println!("mmds-audit: clean ({})", passes_run(&opts));
        }
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            eprintln!("{f}");
        }
        eprintln!("mmds-audit: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}

fn passes_run(opts: &Options) -> String {
    let mut names = Vec::new();
    if opts.ldm {
        names.push("ldm");
    }
    if opts.determinism {
        names.push("determinism");
    }
    if opts.flops {
        names.push("flops");
    }
    if opts.unsafe_audit {
        names.push("unsafe-audit");
    }
    if opts.counters {
        names.push("counter-manifest");
    }
    if opts.protocol {
        names.push("protocol");
    }
    names.join(", ")
}
