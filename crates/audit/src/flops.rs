//! Flop-ledger cross-checker.
//!
//! The performance model (and the paper's Table 2 throughput claims)
//! charge every table access as `LOCATE_FLOPS + SEG_EVAL_FLOPS` (plus
//! `RECON_EXTRA_FLOPS` for on-the-fly knot-derivative reconstruction
//! on compacted tables). Those constants are only honest if they match
//! what the eval kernels actually compute — so the kernels carry
//! machine-readable markers:
//!
//! ```text
//! // flops: SEG_EVAL_FLOPS = 8 (Horner value 3·fma + …)
//! ```
//!
//! This pass (1) requires the markers to exist on the locate/eval
//! kernels in `eam/src/spline.rs` and `eam/src/compact.rs`, (2) checks
//! each marker's value against the live constant the workspace
//! actually links ([`mmds_eam::LOCATE_FLOPS`] & co — a drive-by edit
//! to either side breaks the build of this audit), and (3) rejects
//! `charge_table_access` call sites that charge raw numeric literals
//! instead of the named constants (the segment-count argument may be a
//! literal; the flop arguments may not).

use std::path::Path;

use crate::findings::{Finding, Pass};
use crate::workspace::{self, SourceFile};

/// The ledger: marker name → the constant the workspace links.
const LEDGER: [(&str, u64); 3] = [
    ("LOCATE_FLOPS", mmds_eam::LOCATE_FLOPS),
    ("SEG_EVAL_FLOPS", mmds_eam::SEG_EVAL_FLOPS),
    ("RECON_EXTRA_FLOPS", mmds_eam::compact::RECON_EXTRA_FLOPS),
];

/// Which markers each eval-kernel file must declare.
const REQUIRED: [(&str, &[&str]); 2] = [
    (
        "crates/eam/src/spline.rs",
        &["LOCATE_FLOPS", "SEG_EVAL_FLOPS"],
    ),
    (
        "crates/eam/src/compact.rs",
        &["LOCATE_FLOPS", "SEG_EVAL_FLOPS", "RECON_EXTRA_FLOPS"],
    ),
];

/// A parsed `// flops: NAME = VALUE` marker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Marker {
    /// Constant name the marker vouches for.
    pub name: String,
    /// Claimed flop count.
    pub value: u64,
    /// 1-based line of the marker.
    pub line: usize,
}

/// Extracts every `// flops:` marker from raw source text.
pub fn parse_markers(raw: &str) -> Vec<Marker> {
    let mut out = Vec::new();
    for (idx, line) in raw.lines().enumerate() {
        let Some(rest) = line.trim_start().strip_prefix("// flops:") else {
            continue;
        };
        let Some((name, value)) = rest.split_once('=') else {
            continue;
        };
        let name = name.trim();
        let digits: String = value
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect();
        if let Ok(value) = digits.parse::<u64>() {
            out.push(Marker {
                name: name.to_string(),
                value,
                line: idx + 1,
            });
        }
    }
    out
}

/// Runs the cross-checker against the workspace at `root`.
pub fn run(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();

    for (rel, required) in REQUIRED {
        let path = root.join(rel);
        let Ok(raw) = std::fs::read_to_string(&path) else {
            findings.push(Finding::at(
                Pass::FlopLedger,
                rel,
                0,
                "eval-kernel file missing — cannot verify flop markers",
            ));
            continue;
        };
        let markers = parse_markers(&raw);
        for name in required {
            match markers.iter().find(|m| m.name == *name) {
                None => findings.push(Finding::at(
                    Pass::FlopLedger,
                    rel,
                    0,
                    format!("missing `// flops: {name} = …` marker on the eval kernel"),
                )),
                Some(m) => {
                    let ledger = LEDGER.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
                    if ledger != Some(m.value) {
                        findings.push(Finding::at(
                            Pass::FlopLedger,
                            rel,
                            m.line,
                            format!(
                                "flop marker {name} = {} disagrees with the linked \
                                 constant ({}) — kernel and ledger must change together",
                                m.value,
                                ledger.map_or("<unknown>".into(), |v| v.to_string()),
                            ),
                        ));
                    }
                }
            }
        }
        for m in &markers {
            if !LEDGER.iter().any(|(n, _)| *n == m.name) {
                findings.push(Finding::at(
                    Pass::FlopLedger,
                    rel,
                    m.line,
                    format!("unknown flop marker `{}` — not in the audit ledger", m.name),
                ));
            }
        }
    }

    for file in workspace::load_sources(root, &["crates", "src"]) {
        findings.extend(check_charge_sites(&file));
    }

    findings
}

/// Rejects `charge_table_access` / `charge_table_batch` call sites, and
/// those of their priced twins `price_table_access` /
/// `price_table_batch`, whose flop arguments are raw numeric literals
/// instead of the ledger constants. The batch form takes one extra trailing argument (the
/// lane count, which may be any expression — it is a width, not a flop
/// constant); its locate/seg_eval arguments obey the same rule.
pub fn check_charge_sites(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    let live = workspace::strip_test_blocks(&file.scrubbed);
    let sites = [
        ("charge_table_access(", 3, "(locate, seg_eval, segments)"),
        (
            "charge_table_batch(",
            4,
            "(locate, seg_eval, segments, lanes)",
        ),
        ("price_table_access(", 3, "(locate, seg_eval, segments)"),
        (
            "price_table_batch(",
            4,
            "(locate, seg_eval, segments, lanes)",
        ),
    ];
    for (needle, arity, shape) in sites {
        let name = needle.trim_end_matches('(');
        let mut from = 0;
        while let Some(pos) = live[from..].find(needle) {
            let at = from + pos;
            from = at + needle.len();
            // Skip the definition itself (`fn charge_table_…(…)`).
            if live[..at].trim_end().ends_with("fn") {
                continue;
            }
            let open = at + needle.len() - 1;
            let Some(args) = top_level_args(&live, open) else {
                continue;
            };
            let line = file.line_of(at);
            if args.len() != arity {
                findings.push(Finding::at(
                    Pass::FlopLedger,
                    file.rel.clone(),
                    line,
                    format!("{name} takes {shape} — found {} args", args.len()),
                ));
                continue;
            }
            let checks = [
                (&args[0], "LOCATE_FLOPS", "locate"),
                (&args[1], "SEG_EVAL_FLOPS", "seg_eval"),
            ];
            for (arg, constant, which) in checks {
                if !arg.contains(constant) || arg.bytes().any(|b| b.is_ascii_digit()) {
                    findings.push(Finding::at(
                        Pass::FlopLedger,
                        file.rel.clone(),
                        line,
                        format!(
                            "{name} {which} argument must be the named \
                             constant {constant} (± ledger constants), not `{}`",
                            arg.trim()
                        ),
                    ));
                }
            }
        }
    }
    findings
}

/// Splits the parenthesised argument list opening at `open` (byte
/// offset of `(`) into top-level comma-separated pieces.
fn top_level_args(text: &str, open: usize) -> Option<Vec<String>> {
    let bytes = text.as_bytes();
    debug_assert_eq!(bytes[open], b'(');
    let mut depth = 0usize;
    let mut start = open + 1;
    let mut args = Vec::new();
    for i in open..bytes.len() {
        match bytes[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => {
                depth -= 1;
                if depth == 0 {
                    args.push(text[start..i].to_string());
                    // A trailing comma yields one whitespace-only arg.
                    if args.last().is_some_and(|a| a.trim().is_empty()) && args.len() > 1 {
                        args.pop();
                    }
                    return Some(args);
                }
            }
            b',' if depth == 1 => {
                args.push(text[start..i].to_string());
                start = i + 1;
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markers_parse() {
        let raw = "// flops: LOCATE_FLOPS = 4 (sub, div, floor, clamp)\nfn locate() {}\n    // flops: SEG_EVAL_FLOPS = 8 (Horner)\n";
        let m = parse_markers(raw);
        assert_eq!(m.len(), 2);
        assert_eq!(
            m[0],
            Marker {
                name: "LOCATE_FLOPS".into(),
                value: 4,
                line: 1
            }
        );
        assert_eq!(m[1].value, 8);
    }

    #[test]
    fn workspace_markers_match_ledger() {
        let findings = run(&crate::built_workspace_root());
        assert!(
            findings.is_empty(),
            "{}",
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn literal_charges_are_rejected() {
        let src =
            "fn k(ctx: &mut CpeCtx) {\n    ctx.charge_table_access(4, SEG_EVAL_FLOPS, 2);\n}\n";
        let file = SourceFile {
            rel: "crates/fake/src/k.rs".into(),
            raw: src.into(),
            scrubbed: workspace::scrub(src),
        };
        let findings = check_charge_sites(&file);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("LOCATE_FLOPS"));
    }

    #[test]
    fn named_constant_charges_pass() {
        let src = "fn k(ctx: &mut CpeCtx) {\n    ctx.charge_table_access(LOCATE_FLOPS, SEG_EVAL_FLOPS + RECON_EXTRA_FLOPS, 2);\n}\n";
        let file = SourceFile {
            rel: "crates/fake/src/k.rs".into(),
            raw: src.into(),
            scrubbed: workspace::scrub(src),
        };
        assert!(check_charge_sites(&file).is_empty());
    }

    #[test]
    fn priced_charges_obey_the_same_constant_rule() {
        // A charge priced once for a per-partner loop is held to the
        // ledger like the per-call charge it stands for.
        let ok = "fn k(ctx: &CpeCtx) {\n    let a = ctx.price_table_access(LOCATE_FLOPS, SEG_EVAL_FLOPS, 2);\n    let b = ctx.price_table_batch(LOCATE_FLOPS, SEG_EVAL_FLOPS + RECON_EXTRA_FLOPS, 1, BATCH_LANES as u64);\n}\n";
        let file = SourceFile {
            rel: "crates/fake/src/k.rs".into(),
            raw: ok.into(),
            scrubbed: workspace::scrub(ok),
        };
        assert!(check_charge_sites(&file).is_empty());
        let bad = "fn k(ctx: &CpeCtx) {\n    let a = ctx.price_table_access(4, SEG_EVAL_FLOPS, 2);\n    let b = ctx.price_table_batch(LOCATE_FLOPS, 36, 1, 8);\n}\n";
        let file = SourceFile {
            rel: "crates/fake/src/k.rs".into(),
            raw: bad.into(),
            scrubbed: workspace::scrub(bad),
        };
        let findings = check_charge_sites(&file);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings[0].message.contains("price_table_access"));
        assert!(findings[1].message.contains("price_table_batch"));
    }

    #[test]
    fn batch_charges_obey_the_same_constant_rule() {
        // The lane-count argument may be any expression (it is a width,
        // not a flop constant); the flop arguments may not be literals.
        let ok = "fn k(ctx: &mut CpeCtx) {\n    ctx.charge_table_batch(LOCATE_FLOPS, SEG_EVAL_FLOPS + RECON_EXTRA_FLOPS, 1, BATCH_LANES as u64);\n}\n";
        let file = SourceFile {
            rel: "crates/fake/src/k.rs".into(),
            raw: ok.into(),
            scrubbed: workspace::scrub(ok),
        };
        assert!(check_charge_sites(&file).is_empty());

        let bad =
            "fn k(ctx: &mut CpeCtx) {\n    ctx.charge_table_batch(LOCATE_FLOPS, 36, 1, 8);\n}\n";
        let file = SourceFile {
            rel: "crates/fake/src/k.rs".into(),
            raw: bad.into(),
            scrubbed: workspace::scrub(bad),
        };
        let findings = check_charge_sites(&file);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("SEG_EVAL_FLOPS"));
        assert!(findings[0].message.contains("charge_table_batch"));

        let wrong_arity = "fn k(ctx: &mut CpeCtx) {\n    ctx.charge_table_batch(LOCATE_FLOPS, SEG_EVAL_FLOPS, 1);\n}\n";
        let file = SourceFile {
            rel: "crates/fake/src/k.rs".into(),
            raw: wrong_arity.into(),
            scrubbed: workspace::scrub(wrong_arity),
        };
        let findings = check_charge_sites(&file);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("lanes"));
    }
}
