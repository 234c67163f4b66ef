//! Telemetry counter-manifest cross-checker.
//!
//! The observability layer is only trustworthy if every counter and
//! series name the physics crates charge is *known*: dashboards, the
//! `mmds-inspect timeline` views and the bench artefacts all key on
//! these strings, so a typo'd or drive-by name silently drops data.
//! This pass keeps the names honest against the checked-in registry
//! manifest (`TELEMETRY_MANIFEST.md` at the workspace root):
//!
//! 1. every name charged from live (non-test) code in `crates/md`,
//!    `crates/kmc`, `crates/coupled`, `crates/telemetry`,
//!    `crates/bench` — via
//!    `mmds_telemetry::add_counter(…)`, `emit_series(…)`,
//!    `emit_heartbeat(…)` or `emit_phase_heartbeat(…)`,
//!    or spelled in a `const …_SERIES` / `const …_COUNTERS` name array
//!    — must appear in the manifest;
//! 2. every manifest entry must still be charged somewhere (no stale
//!    rows that make readers look for data that never arrives).
//!
//! The manifest's `## Environment knobs` table gets the same two-way
//! check, so the knob surface cannot grow back unnoticed:
//!
//! 3. every `"MMDS_…"` literal in live workspace code (`crates/`,
//!    `src/`, `examples/`; integration tests and `#[cfg(test)]` blocks
//!    excluded) must have a row;
//! 4. every row must name files that still read its knob.
//!
//! Like the other lexical passes, the scan runs over scrubbed text, so
//! names mentioned in comments or test modules don't count as charges;
//! the literal itself is recovered from the raw line (scrubbing blanks
//! string contents but preserves per-line character positions).

use std::collections::BTreeSet;
use std::path::Path;

use crate::findings::{Finding, Pass};
use crate::workspace::{self, SourceFile};

/// The checked-in registry manifest, relative to the workspace root.
pub const MANIFEST: &str = "TELEMETRY_MANIFEST.md";

/// Prefix of every environment knob the workspace reads.
const KNOB_PREFIX: &str = "MMDS_";

/// The trees scanned for knob reads.
const KNOB_DIRS: [&str; 3] = ["crates", "src", "examples"];

/// The crates whose charges the manifest must cover. `crates/bench`
/// charges nothing today; it stays listed so a charge added there is
/// held to the manifest as well.
const CHARGED_DIRS: [&str; 5] = [
    "crates/md",
    "crates/kmc",
    "crates/coupled",
    "crates/telemetry",
    "crates/bench",
];

/// Call tokens that charge a name as their first argument.
const CALL_TOKENS: [&str; 4] = [
    "add_counter(",
    "emit_series(",
    "emit_heartbeat(",
    "emit_phase_heartbeat(",
];

/// One name found in live code: a charged telemetry name or a read
/// environment knob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Charge {
    /// The dotted counter/series name, or the `MMDS_*` knob.
    pub name: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the name literal.
    pub line: usize,
}

/// Extracts the backticked dotted names from manifest text.
pub fn parse_manifest(text: &str) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for piece in text.split('`').skip(1).step_by(2) {
        if piece.contains('.')
            && !piece.is_empty()
            && !piece.ends_with(".rs") // file paths in prose, not names
            && piece
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_')
        {
            names.insert(piece.to_string());
        }
    }
    names
}

/// One `## Environment knobs` row: the knob and the files it names as
/// its readers.
struct KnobRow {
    /// The `MMDS_*` variable.
    name: String,
    /// Workspace-relative files the row says read it.
    readers: Vec<String>,
}

/// Extracts the knob rows from manifest text: table rows whose first
/// cell is a backticked `MMDS_*` name, readers being the backticked
/// paths of the second cell.
fn parse_knob_rows(text: &str) -> Vec<KnobRow> {
    let backticked = |cell: &str| -> Vec<String> {
        cell.split('`')
            .skip(1)
            .step_by(2)
            .map(str::to_string)
            .collect()
    };
    text.lines()
        .filter_map(|line| {
            let mut cells = line.trim().strip_prefix('|')?.split('|');
            let name = backticked(cells.next()?).into_iter().next()?;
            if !is_knob(&name) {
                return None;
            }
            let readers = backticked(cells.next().unwrap_or(""));
            Some(KnobRow { name, readers })
        })
        .collect()
}

fn is_knob(s: &str) -> bool {
    s.len() > KNOB_PREFIX.len()
        && s.starts_with(KNOB_PREFIX)
        && s.chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// Scans one file's live (non-test) code for `"MMDS_…"` string
/// literals — the knobs it reads.
fn knob_reads(file: &SourceFile) -> Vec<Charge> {
    let live = workspace::strip_test_blocks(&file.scrubbed);
    let mut out = Vec::new();
    for (ln, (live_line, raw_line)) in live.lines().zip(file.raw.lines()).enumerate() {
        // Scrubbing keeps each literal's opening quote in place.
        for (col, ch) in live_line.chars().enumerate() {
            if ch != '"' {
                continue;
            }
            let name = read_literal(raw_line, col);
            if is_knob(&name) {
                out.push(Charge {
                    name,
                    file: file.rel.clone(),
                    line: ln + 1,
                });
            }
        }
    }
    out
}

/// Scans one file's live (non-test) code for charged names.
///
/// Works line-by-line on scrubbed text (so comments and test modules
/// never match) and recovers each literal from the raw line at the
/// same character position — scrubbing preserves per-line character
/// counts, so the indices line up even in files with non-ASCII
/// comments.
pub fn charged_names(file: &SourceFile) -> Vec<Charge> {
    let live = workspace::strip_test_blocks(&file.scrubbed);
    let live_lines: Vec<&str> = live.lines().collect();
    let raw_lines: Vec<&str> = file.raw.lines().collect();
    let mut out = Vec::new();

    // Call sites: the name is the first string literal inside the
    // argument list (possibly wrapped onto a following line); calls
    // passing a variable instead (e.g. a loop over a name array) have
    // no literal before the closing paren and are skipped here — the
    // array scan below picks their names up.
    for (ln, line) in live_lines.iter().enumerate() {
        for token in CALL_TOKENS {
            let mut from = 0;
            while let Some(p) = line[from..].find(token) {
                let at = from + p;
                from = at + token.len();
                if line[..at].trim_end().ends_with("fn") {
                    continue; // the definition, not a charge
                }
                if let Some(c) = literal_in_call(&live_lines, &raw_lines, ln, at + token.len()) {
                    out.push(Charge {
                        name: c.0,
                        file: file.rel.clone(),
                        line: c.1,
                    });
                }
            }
        }
    }

    // Name arrays: `const FOO_SERIES: … = [ "a.b", … ];` (and
    // `…_COUNTERS`) declare names charged indirectly through loops.
    for (ln, line) in live_lines.iter().enumerate() {
        let is_decl =
            line.trim_start().starts_with("pub const") || line.trim_start().starts_with("const");
        // `&str` keeps numeric consts like `MAX_SERIES_ROWS: usize`
        // from dragging unrelated string literals into the scan.
        if is_decl
            && (line.contains("_SERIES") || line.contains("_COUNTERS"))
            && line.contains("&str")
        {
            out.extend(array_literals(&live_lines, &raw_lines, ln).into_iter().map(
                |(name, line)| Charge {
                    name,
                    file: file.rel.clone(),
                    line,
                },
            ));
        }
    }

    out.retain(|c| c.name.contains('.'));
    out
}

/// From the character just after a call token's `(`, finds the first
/// string literal before the call's closing paren. Returns the literal
/// (read from the raw lines) and its 1-based line.
fn literal_in_call(
    live: &[&str],
    raw: &[&str],
    start_line: usize,
    start_col: usize,
) -> Option<(String, usize)> {
    let mut depth = 1usize;
    for (off, line) in live[start_line..].iter().enumerate() {
        let col0 = if off == 0 { start_col } else { 0 };
        for (col, ch) in line.chars().enumerate().skip(col0) {
            match ch {
                '"' => {
                    let ln = start_line + off;
                    return Some((read_literal(raw[ln], col), ln + 1));
                }
                '(' | '[' | '{' => depth += 1,
                ')' | ']' | '}' => {
                    depth -= 1;
                    if depth == 0 {
                        return None; // no literal argument (variable)
                    }
                }
                _ => {}
            }
        }
    }
    None
}

/// Collects every string literal between the `=` of an array
/// declaration at `start_line` and the bracket that closes it.
fn array_literals(live: &[&str], raw: &[&str], start_line: usize) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut seen_open = false;
    let eq = live[start_line].find('=').map(|p| p + 1).unwrap_or(0);
    for (off, line) in live[start_line..].iter().enumerate() {
        let col0 = if off == 0 { eq } else { 0 };
        let mut in_str = false;
        for (col, ch) in line.chars().enumerate().skip(col0) {
            match ch {
                '"' => {
                    if !in_str {
                        let ln = start_line + off;
                        out.push((read_literal(raw[ln], col), ln + 1));
                    }
                    in_str = !in_str;
                }
                '[' if !in_str => {
                    depth += 1;
                    seen_open = true;
                }
                ']' if !in_str => {
                    depth = depth.saturating_sub(1);
                    if seen_open && depth == 0 {
                        return out;
                    }
                }
                _ => {}
            }
        }
    }
    out
}

/// Reads the string literal opening at character position `col` of a
/// raw line (the position found in the scrubbed twin).
fn read_literal(raw_line: &str, col: usize) -> String {
    raw_line
        .chars()
        .skip(col + 1)
        .take_while(|&c| c != '"')
        .collect()
}

/// Runs the manifest cross-checker against the workspace at `root`.
/// Returns the rendered knob inventory and the findings.
pub fn run(root: &Path) -> (String, Vec<Finding>) {
    let mut findings = Vec::new();
    let manifest_path = root.join(MANIFEST);
    let Ok(manifest_text) = std::fs::read_to_string(&manifest_path) else {
        findings.push(Finding::at(
            Pass::CounterManifest,
            MANIFEST,
            0,
            "registry manifest missing — every charged telemetry name must be checked in",
        ));
        return (String::new(), findings);
    };
    let manifest = parse_manifest(&manifest_text);

    let mut charged: Vec<Charge> = Vec::new();
    for dir in CHARGED_DIRS {
        for file in workspace::load_sources(root, &[dir]) {
            charged.extend(charged_names(&file));
        }
    }

    for c in &charged {
        if !manifest.contains(&c.name) {
            findings.push(Finding::at(
                Pass::CounterManifest,
                c.file.clone(),
                c.line,
                format!(
                    "telemetry name `{}` is not in {MANIFEST} — add a row",
                    c.name
                ),
            ));
        }
    }

    let charged_set: BTreeSet<&str> = charged.iter().map(|c| c.name.as_str()).collect();
    for name in &manifest {
        if !charged_set.contains(name.as_str()) {
            findings.push(Finding::at(
                Pass::CounterManifest,
                MANIFEST,
                0,
                format!(
                    "manifest entry `{name}` is charged nowhere in \
                     md/kmc/coupled/telemetry/bench — stale row"
                ),
            ));
        }
    }

    let reads: Vec<Charge> = workspace::load_sources(root, &KNOB_DIRS)
        .iter()
        .filter(|f| !f.rel.contains("/tests/"))
        .flat_map(knob_reads)
        .collect();
    let rows = parse_knob_rows(&manifest_text);
    findings.extend(check_knobs(&reads, &rows));
    (render_knob_table(&rows), findings)
}

/// The knob half of the cross-check: every read has a row, and every
/// file a row names still reads the row's knob.
fn check_knobs(reads: &[Charge], rows: &[KnobRow]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for r in reads {
        if !rows.iter().any(|row| row.name == r.name) {
            findings.push(Finding::at(
                Pass::CounterManifest,
                r.file.clone(),
                r.line,
                format!(
                    "environment knob `{}` has no row in {MANIFEST}'s \
                     Environment knobs table — add one or drop the knob",
                    r.name
                ),
            ));
        }
    }
    for row in rows {
        let readers: BTreeSet<&str> = reads
            .iter()
            .filter(|r| r.name == row.name)
            .map(|r| r.file.as_str())
            .collect();
        if row.readers.is_empty() {
            findings.push(Finding::at(
                Pass::CounterManifest,
                MANIFEST,
                0,
                format!("knob row `{}` names no reader", row.name),
            ));
        }
        for file in &row.readers {
            if !readers.contains(file.as_str()) {
                findings.push(Finding::at(
                    Pass::CounterManifest,
                    MANIFEST,
                    0,
                    format!(
                        "knob row `{}` names `{file}`, which does not read it — stale row",
                        row.name
                    ),
                ));
            }
        }
    }
    findings
}

/// Renders the knob inventory: one line per manifest row.
fn render_knob_table(rows: &[KnobRow]) -> String {
    let mut out = format!("environment knobs ({}):\n", rows.len());
    for row in rows {
        out.push_str(&format!("  {:<18} {}\n", row.name, row.readers.join(", ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile {
            rel: "crates/fake/src/x.rs".into(),
            raw: src.into(),
            scrubbed: workspace::scrub(src),
        }
    }

    #[test]
    fn manifest_names_parse() {
        let text = "| `kmc.ghost_bytes` | counter |\nprose with `NotAName` and `md.health.x`\n";
        let names = parse_manifest(text);
        assert!(names.contains("kmc.ghost_bytes"));
        assert!(names.contains("md.health.x"));
        assert!(!names.contains("NotAName"));
    }

    #[test]
    fn call_sites_yield_names_even_wrapped() {
        let src = "fn f() {\n    mmds_telemetry::add_counter(\"a.b\", 1.0);\n    mmds_telemetry::emit_series(\n        \"c.d.e\",\n        t,\n        v,\n    );\n}\n";
        let names: Vec<String> = charged_names(&file(src))
            .into_iter()
            .map(|c| c.name)
            .collect();
        assert_eq!(names, vec!["a.b".to_string(), "c.d.e".to_string()]);
    }

    #[test]
    fn variable_calls_and_comments_are_skipped() {
        let src = "fn f(name: &str) {\n    // add_counter(\"ghost.name\", 1.0) in a comment\n    mmds_telemetry::emit_series(name, t, v);\n}\n";
        assert!(charged_names(&file(src)).is_empty());
    }

    #[test]
    fn test_modules_do_not_charge() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { mmds_telemetry::add_counter(\"only.in.test\", 1.0); }\n}\n";
        assert!(charged_names(&file(src)).is_empty());
    }

    #[test]
    fn series_arrays_are_collected() {
        let src = "pub const HIST_SERIES: [&str; 2] = [\n    \"census.h.b1\",\n    \"census.h.b2\",\n];\nconst OTHER: [&str; 1] = [\"not.collected\"];\nconst MAX_SERIES_ROWS: usize = 12;\nfn g() { let x = [\"fake.name\"]; }\n";
        let names: Vec<String> = charged_names(&file(src))
            .into_iter()
            .map(|c| c.name)
            .collect();
        assert_eq!(
            names,
            vec!["census.h.b1".to_string(), "census.h.b2".to_string()]
        );
    }

    fn knob_manifest() -> Vec<KnobRow> {
        parse_knob_rows(
            "## Environment knobs\n\n| knob | read by | meaning |\n|---|---|---|\n\
             | `MMDS_FOO` | `crates/fake/src/x.rs` | a knob |\n\
             | `MMDS_GONE` | `crates/fake/src/x.rs` | nobody reads it |\n\
             | `kmc.ghost_bytes` | counter | not a knob |\n",
        )
    }

    #[test]
    fn knob_rows_parse() {
        let rows = knob_manifest();
        assert_eq!(
            rows.iter().map(|r| r.name.as_str()).collect::<Vec<_>>(),
            vec!["MMDS_FOO", "MMDS_GONE"]
        );
        assert_eq!(rows[0].readers, vec!["crates/fake/src/x.rs".to_string()]);
    }

    #[test]
    fn knob_reads_skip_comments_tests_and_the_bare_prefix() {
        let src = "const P: &str = \"MMDS_\";\n\
                   fn f() {\n    // std::env::var(\"MMDS_IN_COMMENT\")\n    \
                   let _ = std::env::var(\"MMDS_FOO\");\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { std::env::set_var(\"MMDS_TEST_ONLY\", \"1\"); }\n}\n";
        let reads = knob_reads(&file(src));
        assert_eq!(reads.len(), 1);
        assert_eq!((reads[0].name.as_str(), reads[0].line), ("MMDS_FOO", 4));
    }

    #[test]
    fn unlisted_knob_read_is_a_finding() {
        let src = "fn f() {\n    let _ = std::env::var(\"MMDS_FOO\");\n    \
                   let _ = std::env::var(\"MMDS_NEW\");\n}\n";
        let findings = check_knobs(&knob_reads(&file(src)), &knob_manifest());
        let unlisted: Vec<_> = findings
            .iter()
            .filter(|f| f.message.contains("has no row"))
            .collect();
        assert_eq!(unlisted.len(), 1, "{findings:?}");
        assert!(unlisted[0].message.contains("`MMDS_NEW`"));
        assert_eq!(unlisted[0].line, 3);
    }

    #[test]
    fn row_without_a_reader_is_a_finding() {
        let src = "fn f() {\n    let _ = std::env::var(\"MMDS_FOO\");\n}\n";
        let findings = check_knobs(&knob_reads(&file(src)), &knob_manifest());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("`MMDS_GONE`"));
        assert!(findings[0].message.contains("stale row"));
    }

    #[test]
    fn workspace_charges_match_manifest() {
        let (knobs, findings) = run(&crate::built_workspace_root());
        assert!(
            findings.is_empty(),
            "{}",
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(knobs.starts_with("environment knobs (5):"), "{knobs}");
    }
}
