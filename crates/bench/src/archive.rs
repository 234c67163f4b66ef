//! The cross-run performance observatory: a content-addressed run
//! archive plus the statistics behind `mmds-inspect history`,
//! `regress`, and `flamediff`.
//!
//! Every benchmark/traced run persists as an [`ArchiveRecord`] under
//! `results/archive/` (override with `MMDS_ARCHIVE_DIR`; disable with
//! `MMDS_ARCHIVE=0`):
//!
//! * records live at `<config_hash>/<content_hash>.json` — the config
//!   hash is the canonical [`ConfigKey`] digest (scenario + build/run
//!   facets), the file name is the FNV-1a digest of the record's own
//!   bytes, so the store is content-addressed and a re-written record
//!   can never half-overwrite an existing one;
//! * every record file is written atomically (unique temp file +
//!   rename), and the append-only `index.jsonl` takes one `O_APPEND`
//!   single-syscall line per run, so concurrent bench binaries never
//!   corrupt each other's entries;
//! * archiving is *observation only*: it happens after the timed run,
//!   touches no simulation state, and the bench physics is bitwise
//!   identical with archiving on or off (pinned by
//!   `tests/archive.rs`).
//!
//! On top of the store, [`history`]/[`history_doc`] render per-phase
//! wall-time trends across runs, [`regress`] gates a fresh run with
//! tolerances derived from the archived dispersion of each phase
//! (replacing the fixed 15% bench tolerance), and [`flamediff`] diffs
//! the span trees of two archived [`RunReport`] snapshots.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use mmds_telemetry::canon::fnv1a64;
use mmds_telemetry::{ConfigKey, RunReport};
use serde::{Deserialize, Serialize};

use crate::inspect::{sparkline, BenchConfigRow, Gate};

/// Record schema version, bumped on breaking field changes.
pub const SCHEMA: u32 = 1;

/// Default number of archived runs a trend/tolerance looks back over.
pub const DEFAULT_WINDOW: usize = 20;

/// Default relative-tolerance floor for [`regress`]: the derived
/// dispersion tolerance never drops below this, so a near-noiseless
/// history cannot make the gate hair-trigger on shared-runner jitter.
pub const DEFAULT_FLOOR: f64 = 0.10;

// ---------------------------------------------------------------------
// Record + index types
// ---------------------------------------------------------------------

/// One archived run: the canonical config, provenance, per-phase wall
/// times (min over repeats — the bench binaries' noise discipline),
/// throughput rows, comm totals, series last-values, and (when
/// telemetry was on) the full [`RunReport`] snapshot for `flamediff`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ArchiveRecord {
    /// Record schema version ([`SCHEMA`]).
    pub schema: u32,
    /// Canonical config digest — the history key.
    pub config_hash: String,
    /// The full canonical key the hash was derived from.
    pub config: ConfigKey,
    /// Git revision the run was built from (`unknown` outside a repo).
    pub git_rev: String,
    /// Unix seconds when the record was written.
    pub t_unix: u64,
    /// Per-phase wall seconds, keyed `config/leaf` (e.g.
    /// `production/pair`); each value is the min over
    /// the run's repeats.
    pub phases: BTreeMap<String, f64>,
    /// Per-configuration throughput rows (the bench gate's metric).
    pub configs: Vec<BenchConfigRow>,
    /// Total bytes sent across all ranks, when comm stats were taken.
    pub comm_bytes: u64,
    /// Total messages sent across all ranks.
    pub comm_msgs: u64,
    /// Last value of every science series track (`name` or `name@rank`).
    pub series_last: BTreeMap<String, f64>,
    /// Full telemetry snapshot, when the run had telemetry enabled.
    pub report: Option<RunReport>,
}

impl ArchiveRecord {
    /// Starts a record for `config`, stamping schema, hash, git rev and
    /// wall-clock time. Errors (rather than archiving under an aliased
    /// key) when the config cannot be canonically hashed.
    pub fn new(config: ConfigKey) -> Result<Self, String> {
        let config_hash = config.hash().map_err(|e| e.to_string())?;
        Ok(ArchiveRecord {
            schema: SCHEMA,
            config_hash,
            config,
            git_rev: git_rev(),
            t_unix: now_unix(),
            ..Default::default()
        })
    }

    /// Attaches a telemetry snapshot: stores the report, folds its comm
    /// totals, and summarizes every series track's last value.
    pub fn with_report(mut self, report: RunReport) -> Self {
        self.comm_bytes = report.counters.comm.bytes_sent;
        self.comm_msgs = report.counters.comm.msgs_sent;
        for track in &report.series {
            let key = match track.rank {
                Some(r) => format!("{}@{r}", track.name),
                None => track.name.clone(),
            };
            if let Some(v) = track.last_value() {
                self.series_last.insert(key, v);
            }
        }
        self.report = Some(report);
        self
    }

    /// Sum of the `*/wall` phase entries — the record's headline wall
    /// seconds for the index.
    pub fn total_wall_s(&self) -> f64 {
        self.phases
            .iter()
            .filter(|(k, _)| k.ends_with("/wall") || *k == "wall")
            .map(|(_, v)| v)
            .sum()
    }
}

/// One line of the append-only `index.jsonl`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct IndexEntry {
    /// The record's config hash (history key).
    pub config_hash: String,
    /// Record file, relative to the archive dir.
    pub record: String,
    /// Scenario name (denormalized for `--scenario` lookups).
    pub scenario: String,
    /// Git revision of the run.
    pub git_rev: String,
    /// Unix seconds when the record was written.
    pub t_unix: u64,
    /// Headline wall seconds (sum of `*/wall` phases).
    pub wall_s: f64,
}

// ---------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------

/// True unless `MMDS_ARCHIVE` opts out (`0`/`off`/`false`/`no`).
pub fn archiving_enabled() -> bool {
    match std::env::var("MMDS_ARCHIVE") {
        Ok(v) => {
            let v = v.trim().to_ascii_lowercase();
            !(v == "0" || v == "off" || v == "false" || v == "no")
        }
        Err(_) => true,
    }
}

/// The archive directory: `MMDS_ARCHIVE_DIR`, else
/// `<results>/archive` (which itself honours `MMDS_RESULTS`).
pub fn default_dir() -> PathBuf {
    match std::env::var("MMDS_ARCHIVE_DIR") {
        Ok(d) => PathBuf::from(d),
        Err(_) => crate::results_dir().join("archive"),
    }
}

/// Best-effort provenance: `MMDS_GIT_REV` / `GITHUB_SHA`, else
/// `git rev-parse --short=12 HEAD`, else `unknown`.
pub fn git_rev() -> String {
    for var in ["MMDS_GIT_REV", "GITHUB_SHA"] {
        if let Ok(v) = std::env::var(var) {
            let v = v.trim().to_string();
            if !v.is_empty() {
                return v;
            }
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Unix seconds now (0 if the clock is before the epoch).
pub fn now_unix() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// A handle on one archive directory.
#[derive(Debug, Clone)]
pub struct Archive {
    dir: PathBuf,
}

impl Archive {
    /// Opens (creating on demand) the archive at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Archive> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Archive { dir })
    }

    /// Opens the default archive ([`default_dir`]).
    pub fn open_default() -> std::io::Result<Archive> {
        Archive::open(default_dir())
    }

    /// The archive directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the append-only index.
    pub fn index_path(&self) -> PathBuf {
        self.dir.join("index.jsonl")
    }

    /// Persists one record content-addressed and appends its index
    /// line. Returns the record's path. Charges the `archive.*`
    /// observability counters.
    ///
    /// Atomicity: the record body goes to a unique temp file first and
    /// is `rename`d into place (a reader never sees a half-written
    /// record); the index line is a single `write` on an `O_APPEND`
    /// handle (two concurrent writers interleave whole lines, not
    /// bytes — pinned by the concurrency test).
    pub fn write(&self, record: &ArchiveRecord) -> std::io::Result<PathBuf> {
        let body = serde_json::to_string_pretty(record)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        let content_hash = format!("{:016x}", fnv1a64(body.as_bytes()));
        let rel = format!("{}/{content_hash}.json", record.config_hash);
        let path = self.dir.join(&rel);
        std::fs::create_dir_all(path.parent().expect("record path has a parent"))?;
        if !path.exists() {
            let tmp = self.dir.join(format!(
                "{}/.tmp.{content_hash}.{}.{}",
                record.config_hash,
                std::process::id(),
                mmds_telemetry::thread_tid(),
            ));
            std::fs::write(&tmp, &body)?;
            std::fs::rename(&tmp, &path)?;
        }
        let entry = IndexEntry {
            config_hash: record.config_hash.clone(),
            record: rel,
            scenario: record.config.scenario.clone(),
            git_rev: record.git_rev.clone(),
            t_unix: record.t_unix,
            wall_s: record.total_wall_s(),
        };
        let line = format!(
            "{}\n",
            serde_json::to_string(&entry).map_err(|e| std::io::Error::other(e.to_string()))?
        );
        let mut index = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.index_path())?;
        index.write_all(line.as_bytes())?;
        mmds_telemetry::add_counter("archive.runs_written", 1.0);
        mmds_telemetry::add_counter("archive.bytes", (body.len() + line.len()) as f64);
        mmds_telemetry::add_counter("archive.index_entries", 1.0);
        Ok(path)
    }

    /// Reads the index in append order, tolerating a torn final line
    /// (a concurrent writer mid-append) and a missing file (empty
    /// archive).
    pub fn read_index(&self) -> Vec<IndexEntry> {
        let Ok(text) = std::fs::read_to_string(self.index_path()) else {
            return Vec::new();
        };
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .filter_map(|l| serde_json::from_str(l).ok())
            .collect()
    }

    /// Loads the record behind an index entry.
    pub fn load(&self, entry: &IndexEntry) -> Result<ArchiveRecord, String> {
        let path = self.dir.join(&entry.record);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: not a record: {e}", path.display()))
    }

    /// All runs for `config_hash`, oldest first, capped to the last
    /// `window` entries.
    pub fn runs_for(&self, config_hash: &str, window: usize) -> Vec<(IndexEntry, ArchiveRecord)> {
        let mut entries: Vec<IndexEntry> = self
            .read_index()
            .into_iter()
            .filter(|e| e.config_hash == config_hash)
            .collect();
        if entries.len() > window {
            entries.drain(..entries.len() - window);
        }
        entries
            .into_iter()
            .filter_map(|e| self.load(&e).ok().map(|r| (e, r)))
            .collect()
    }

    /// Resolves a `--config <hash>` / `--scenario <name>` selector to a
    /// config hash: a 16-hex-digit string is taken verbatim, anything
    /// else is treated as a scenario name and resolved to its most
    /// recently indexed hash.
    pub fn resolve_selector(&self, selector: &str) -> Result<String, String> {
        if selector.len() == 16 && selector.chars().all(|c| c.is_ascii_hexdigit()) {
            return Ok(selector.to_string());
        }
        self.read_index()
            .iter()
            .rev()
            .find(|e| e.scenario == selector)
            .map(|e| e.config_hash.clone())
            .ok_or_else(|| format!("no archived run for scenario `{selector}`"))
    }
}

// ---------------------------------------------------------------------
// Record builders (shared by the bench binaries and `archive-seed`,
// so a seeded baseline hashes identically to a live run)
// ---------------------------------------------------------------------

/// Canonical key of an `mdstep` run.
pub fn mdstep_config(cells: i64, steps: i64, threads: i64, table_form: &str) -> ConfigKey {
    ConfigKey::new("mdstep")
        .with_int("cells", cells)
        .with_int("steps", steps)
        .with_int("threads", threads)
        .with_str("table_form", table_form)
}

/// Canonical key of a `kmcstep` run.
pub fn kmcstep_config(cells: i64, cycles: i64) -> ConfigKey {
    ConfigKey::new("kmcstep")
        .with_int("cells", cells)
        .with_int("cycles", cycles)
}

/// Canonical key of a `causal_smoke` run.
pub fn causal_config(
    ranks: i64,
    cells: i64,
    md_steps: i64,
    kmc_cycles: i64,
    strategy: &str,
) -> ConfigKey {
    ConfigKey::new("causal_smoke")
        .with_int("ranks", ranks)
        .with_int("cells", cells)
        .with_int("md_steps", md_steps)
        .with_int("kmc_cycles", kmc_cycles)
        .with_str("strategy", strategy)
}

fn doc_u64(v: &serde_json::Value, key: &str) -> Result<i64, String> {
    match v.get(key) {
        Some(serde_json::Value::U64(n)) => Ok(*n as i64),
        Some(serde_json::Value::I64(n)) => Ok(*n),
        Some(serde_json::Value::F64(x)) => Ok(*x as i64),
        _ => Err(format!("bench doc has no integer field `{key}`")),
    }
}

fn doc_f64(v: &serde_json::Value, key: &str) -> Result<f64, String> {
    match v.get(key) {
        Some(serde_json::Value::F64(x)) => Ok(*x),
        Some(serde_json::Value::U64(n)) => Ok(*n as f64),
        Some(serde_json::Value::I64(n)) => Ok(*n as f64),
        _ => Err(format!("bench doc has no number field `{key}`")),
    }
}

fn doc_str<'v>(v: &'v serde_json::Value, key: &str) -> Result<&'v str, String> {
    match v.get(key) {
        Some(serde_json::Value::Str(s)) => Ok(s),
        _ => Err(format!("bench doc has no string field `{key}`")),
    }
}

fn doc_configs(v: &serde_json::Value) -> Result<&[serde_json::Value], String> {
    match v.get("configs") {
        Some(serde_json::Value::Seq(xs)) if !xs.is_empty() => Ok(xs),
        _ => Err("bench doc has no `configs` table".to_string()),
    }
}

/// Converts a `BENCH_mdstep.json` document into an archive record —
/// the seed path that starts CI history non-empty. The facets come
/// from the document itself, so the hash matches a live `mdstep` run
/// at the same size/threads/table form.
pub fn record_from_mdstep_doc(v: &serde_json::Value) -> Result<ArchiveRecord, String> {
    let config = mdstep_config(
        doc_u64(v, "box_cells")?,
        doc_u64(v, "steps")?,
        doc_u64(v, "host_threads")?,
        doc_str(v, "table_form")?,
    );
    let mut rec = ArchiveRecord::new(config)?;
    for c in doc_configs(v)? {
        let name = doc_str(c, "name")?;
        rec.phases
            .insert(format!("{name}/wall"), doc_f64(c, "wall_s")?);
        if let Some(ph) = c.get("phase_s") {
            for leaf in ["density", "embed", "pair", "ghost"] {
                if let Ok(x) = doc_f64(ph, leaf) {
                    rec.phases.insert(format!("{name}/{leaf}"), x);
                }
            }
        }
        rec.configs.push(BenchConfigRow {
            name: name.to_string(),
            atoms_steps_per_sec: doc_f64(c, "atoms_steps_per_sec")?,
            wall_s: doc_f64(c, "wall_s")?,
        });
    }
    Ok(rec)
}

/// Converts a `BENCH_kmcstep.json` document into an archive record.
pub fn record_from_kmcstep_doc(v: &serde_json::Value) -> Result<ArchiveRecord, String> {
    let config = kmcstep_config(doc_u64(v, "box_cells")?, doc_u64(v, "cycles")?);
    let mut rec = ArchiveRecord::new(config)?;
    for c in doc_configs(v)? {
        let name = doc_str(c, "name")?;
        rec.phases
            .insert(format!("{name}/wall"), doc_f64(c, "wall_s")?);
        rec.configs.push(BenchConfigRow {
            name: name.to_string(),
            atoms_steps_per_sec: doc_f64(c, "atoms_steps_per_sec")?,
            wall_s: doc_f64(c, "wall_s")?,
        });
    }
    Ok(rec)
}

/// Parses a bench JSON document by scenario name.
pub fn record_from_bench_doc(scenario: &str, text: &str) -> Result<ArchiveRecord, String> {
    let v = serde_json::parse(text).map_err(|e| format!("not JSON: {e}"))?;
    match scenario {
        "mdstep" => record_from_mdstep_doc(&v),
        "kmcstep" => record_from_kmcstep_doc(&v),
        other => Err(format!(
            "unknown scenario `{other}` (mdstep|kmcstep) — live runs archive themselves"
        )),
    }
}

/// Best-effort archive write for a finished run — the bench binaries'
/// exit hook. Observation-only by construction: runs after all timed
/// work, honours the `MMDS_ARCHIVE` opt-out, and any failure prints a
/// warning instead of failing the bench.
pub fn auto_archive(record: ArchiveRecord) {
    if !archiving_enabled() {
        return;
    }
    let written = Archive::open_default()
        .map_err(|e| e.to_string())
        .and_then(|a| a.write(&record).map_err(|e| e.to_string()));
    match written {
        Ok(path) => println!("[archive] {} -> {}", record.config_hash, path.display()),
        Err(e) => eprintln!("[archive] skipped: {e}"),
    }
}

/// Auto-archives a bench binary's just-emitted JSON artefact: parses it
/// through the same importer `archive-seed` uses (so a live run and a
/// seeded baseline of the same config hash identically) and attaches
/// the live telemetry snapshot when one exists.
pub fn auto_archive_bench(scenario: &str, doc_text: &str) {
    if !archiving_enabled() {
        return;
    }
    match record_from_bench_doc(scenario, doc_text) {
        Ok(mut rec) => {
            let tel = mmds_telemetry::global();
            if tel.enabled() {
                rec = rec.with_report(tel.run_report());
            }
            auto_archive(rec);
        }
        Err(e) => eprintln!("[archive] skipped: {e}"),
    }
}

// ---------------------------------------------------------------------
// history
// ---------------------------------------------------------------------

/// One metric's trajectory across archived runs.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TrendDoc {
    /// Phase path or throughput config name.
    pub name: String,
    /// Chronological values (oldest first).
    pub values: Vec<f64>,
    /// Minimum over the window.
    pub min: f64,
    /// Maximum over the window.
    pub max: f64,
    /// Most recent value.
    pub last: f64,
}

impl TrendDoc {
    fn from_values(name: &str, values: Vec<f64>) -> TrendDoc {
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let last = values.last().copied().unwrap_or(0.0);
        TrendDoc {
            name: name.to_string(),
            values,
            min,
            max,
            last,
        }
    }
}

/// The machine-readable `history --json` document.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct HistoryDoc {
    /// The config hash the history is keyed on.
    pub config_hash: String,
    /// Scenario name of the runs.
    pub scenario: String,
    /// Number of archived runs in the window.
    pub runs: usize,
    /// Git rev of each run, oldest first.
    pub revs: Vec<String>,
    /// Per-phase wall-second trends.
    pub phases: Vec<TrendDoc>,
    /// Per-configuration throughput trends (`atoms_steps_per_sec`).
    pub throughput: Vec<TrendDoc>,
}

fn phase_values(runs: &[(IndexEntry, ArchiveRecord)], phase: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|(_, r)| r.phases.get(phase).copied())
        .collect()
}

/// Builds the cross-run trend document for one config hash.
pub fn history_doc(runs: &[(IndexEntry, ArchiveRecord)]) -> HistoryDoc {
    let Some((first, _)) = runs.first() else {
        return HistoryDoc::default();
    };
    let mut phase_names: Vec<&str> = runs
        .iter()
        .flat_map(|(_, r)| r.phases.keys().map(String::as_str))
        .collect();
    phase_names.sort_unstable();
    phase_names.dedup();
    let phases = phase_names
        .iter()
        .map(|p| TrendDoc::from_values(p, phase_values(runs, p)))
        .collect();
    let mut config_names: Vec<&str> = runs
        .iter()
        .flat_map(|(_, r)| r.configs.iter().map(|c| c.name.as_str()))
        .collect();
    config_names.sort_unstable();
    config_names.dedup();
    let throughput = config_names
        .iter()
        .map(|n| {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|(_, r)| {
                    r.configs
                        .iter()
                        .find(|c| c.name == *n)
                        .map(|c| c.atoms_steps_per_sec)
                })
                .collect();
            TrendDoc::from_values(n, values)
        })
        .collect();
    HistoryDoc {
        config_hash: first.config_hash.clone(),
        scenario: first.scenario.clone(),
        runs: runs.len(),
        revs: runs.iter().map(|(e, _)| e.git_rev.clone()).collect(),
        phases,
        throughput,
    }
}

/// Renders the `history` trend view: per-phase sparklines with
/// min/max/last, then the throughput trends.
pub fn history_view(doc: &HistoryDoc) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "config {} ({}) — {} archived run(s), revs {} → {}",
        doc.config_hash,
        doc.scenario,
        doc.runs,
        doc.revs.first().map(String::as_str).unwrap_or("-"),
        doc.revs.last().map(String::as_str).unwrap_or("-"),
    );
    out.push_str("\n-- per-phase wall seconds (oldest → newest) --\n");
    if doc.phases.is_empty() {
        out.push_str("  no phase walls archived\n");
    }
    for t in &doc.phases {
        let _ = writeln!(
            out,
            "  {:<38} {:<24} n={:<3} min={:<10.4} max={:<10.4} last={:.4}",
            t.name,
            sparkline(&t.values, 24),
            t.values.len(),
            t.min,
            t.max,
            t.last,
        );
    }
    if !doc.throughput.is_empty() {
        out.push_str("\n-- throughput (atom·steps/s, higher is better) --\n");
        for t in &doc.throughput {
            let _ = writeln!(
                out,
                "  {:<38} {:<24} n={:<3} min={:<12.0} max={:<12.0} last={:.0}",
                t.name,
                sparkline(&t.values, 24),
                t.values.len(),
                t.min,
                t.max,
                t.last,
            );
        }
    }
    out
}

// ---------------------------------------------------------------------
// regress
// ---------------------------------------------------------------------

/// Relative dispersion of a history window: `(max - min) / min`.
/// Returns 0 for degenerate windows.
pub fn rel_spread(values: &[f64]) -> f64 {
    let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if values.is_empty() || min <= 0.0 {
        return 0.0;
    }
    (max - min) / min
}

/// The archive-derived tolerance for one metric: the observed relative
/// dispersion of its history, floored at `floor`. If the phase ever
/// wandered by x% across archived runs, a fresh excursion of x% is
/// noise, not regression.
pub fn derived_tolerance(history: &[f64], floor: f64) -> f64 {
    rel_spread(history).max(floor)
}

fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The first run at which a metric's value left the tolerance band
/// around the median of all *prior* runs — the change-point the
/// `regress` report names. Returns the run index (into the window)
/// or `None` when the trend never shifted.
pub fn change_point(values: &[f64], floor: f64) -> Option<usize> {
    for k in 2..values.len() {
        let prior = &values[..k];
        let m = median(prior);
        if m <= 0.0 {
            continue;
        }
        let tol = derived_tolerance(prior, floor);
        let rel = (values[k] - m).abs() / m;
        if rel > tol {
            return Some(k);
        }
    }
    None
}

/// The `regress` verdict over one archive window: the latest archived
/// run (the candidate) gated against all prior runs of the same config
/// hash with per-phase dispersion-derived tolerances.
pub fn regress(runs: &[(IndexEntry, ArchiveRecord)], floor: f64) -> (Gate, String) {
    let mut out = String::new();
    if runs.len() < 2 {
        let _ = writeln!(
            out,
            "regress: need at least 2 archived runs (history + candidate), found {} — \
             seed the archive (`mmds-inspect archive-seed`) or run the bench twice",
            runs.len()
        );
        return (Gate::Missing, out);
    }
    let (hist, cand) = runs.split_at(runs.len() - 1);
    let (cand_entry, cand_rec) = &cand[0];
    let _ = writeln!(
        out,
        "candidate: {} run {} (rev {}) vs {} archived run(s), floor {:.0}%",
        cand_entry.scenario,
        cand_entry.record,
        cand_entry.git_rev,
        hist.len(),
        100.0 * floor,
    );

    let mut gate = Gate::Pass;
    let raise = |g: Gate, gate: &mut Gate| {
        // Missing (structural) outranks Fail outranks Warn.
        let rank = |g: &Gate| match g {
            Gate::Missing => 3,
            Gate::Fail => 2,
            Gate::Warn => 1,
            Gate::Pass => 0,
        };
        if rank(&g) > rank(gate) {
            *gate = g;
        }
    };
    let mut reasons: Vec<String> = Vec::new();

    // Phase walls: lower is better. The reference is the *best*
    // archived wall (min over runs — same min-of-repeats discipline
    // the bench binaries use within a run).
    let mut rows = Vec::new();
    let (_, latest_hist) = hist.last().expect("split leaves history");
    for (phase, &fresh) in &cand_rec.phases {
        let h = phase_values(hist, phase);
        if h.is_empty() {
            rows.push(vec![
                phase.clone(),
                "0".into(),
                "-".into(),
                "-".into(),
                format!("{fresh:.4}"),
                "-".into(),
                "new".into(),
            ]);
            continue;
        }
        let base = h.iter().cloned().fold(f64::INFINITY, f64::min);
        let tol = derived_tolerance(&h, floor);
        let worst = h.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let rel = fresh / base - 1.0;
        let verdict = if base > 0.0 && fresh > base * (1.0 + tol) {
            raise(Gate::Fail, &mut gate);
            "FAIL"
        } else if fresh > worst {
            raise(Gate::Warn, &mut gate);
            "warn"
        } else {
            "ok"
        };
        rows.push(vec![
            phase.clone(),
            h.len().to_string(),
            format!("{base:.4}"),
            format!("{:.0}%", 100.0 * tol),
            format!("{fresh:.4}"),
            format!("{rel:+.1}%", rel = 100.0 * rel),
            verdict.to_string(),
        ]);
    }
    // A phase the history still tracked but the candidate no longer
    // reports is a structural break, not a pass.
    for phase in latest_hist.phases.keys() {
        if !cand_rec.phases.contains_key(phase) {
            raise(Gate::Missing, &mut gate);
            reasons.push(format!(
                "phase `{phase}` present in the archived baseline is missing from the candidate"
            ));
            rows.push(vec![
                phase.clone(),
                phase_values(hist, phase).len().to_string(),
                "-".into(),
                "-".into(),
                "MISSING".into(),
                "-".into(),
                "MISSING".into(),
            ]);
        }
    }
    out.push_str("\n-- phase walls (s, min-of-repeats; lower is better) --\n");
    out.push_str(&mmds_analysis::io::render_table(
        &["phase", "n", "best", "tol", "fresh", "delta", "gate"],
        &rows,
    ));

    // Throughput rows: higher is better; reference is the best
    // archived throughput.
    let mut tp_rows = Vec::new();
    for c in &cand_rec.configs {
        let h: Vec<f64> = hist
            .iter()
            .filter_map(|(_, r)| {
                r.configs
                    .iter()
                    .find(|b| b.name == c.name)
                    .map(|b| b.atoms_steps_per_sec)
            })
            .collect();
        if h.is_empty() {
            tp_rows.push(vec![
                c.name.clone(),
                "0".into(),
                "-".into(),
                "-".into(),
                format!("{:.0}", c.atoms_steps_per_sec),
                "-".into(),
                "new".into(),
            ]);
            continue;
        }
        let base = h.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let worst = h.iter().cloned().fold(f64::INFINITY, f64::min);
        // Dispersion of a higher-is-better metric, relative to its best.
        let spread = if base > 0.0 {
            (base - worst) / base
        } else {
            0.0
        };
        let tol = spread.max(floor);
        let rel = c.atoms_steps_per_sec / base - 1.0;
        let verdict = if base > 0.0 && c.atoms_steps_per_sec < base * (1.0 - tol) {
            raise(Gate::Fail, &mut gate);
            "FAIL"
        } else if c.atoms_steps_per_sec < worst {
            raise(Gate::Warn, &mut gate);
            "warn"
        } else {
            "ok"
        };
        tp_rows.push(vec![
            c.name.clone(),
            h.len().to_string(),
            format!("{base:.0}"),
            format!("{:.0}%", 100.0 * tol),
            format!("{:.0}", c.atoms_steps_per_sec),
            format!("{rel:+.1}%", rel = 100.0 * rel),
            verdict.to_string(),
        ]);
    }
    for b in &latest_hist.configs {
        if !cand_rec.configs.iter().any(|c| c.name == b.name) {
            raise(Gate::Missing, &mut gate);
            reasons.push(format!(
                "config `{}` present in the archived baseline is missing from the candidate",
                b.name
            ));
        }
    }
    if !tp_rows.is_empty() {
        out.push_str("\n-- throughput (atom·steps/s; higher is better) --\n");
        out.push_str(&mmds_analysis::io::render_table(
            &["config", "n", "best", "tol", "fresh", "delta", "gate"],
            &tp_rows,
        ));
    }

    // Change points over the whole window (candidate included): which
    // run first moved each phase out of its prior band.
    let mut shifts = Vec::new();
    let doc = history_doc(runs);
    for t in &doc.phases {
        if let Some(k) = change_point(&t.values, floor) {
            let (e, _) = &runs[k.min(runs.len() - 1)];
            shifts.push(format!(
                "  {}: first shifted at run #{k} (rev {}, {:+.1}% vs prior median)",
                t.name,
                e.git_rev,
                100.0 * (t.values[k] / median(&t.values[..k]) - 1.0),
            ));
        }
    }
    out.push_str("\n-- change points (first run leaving the prior tolerance band) --\n");
    if shifts.is_empty() {
        out.push_str("  none — every phase stayed inside its archived dispersion\n");
    } else {
        for s in &shifts {
            out.push_str(s);
            out.push('\n');
        }
    }

    for r in &reasons {
        let _ = writeln!(out, "missing: {r}");
    }
    let _ = writeln!(out, "gate: {gate:?} (archive-derived tolerances)");
    (gate, out)
}

// ---------------------------------------------------------------------
// flamediff
// ---------------------------------------------------------------------

/// Span-tree diff of two [`RunReport`]s: every path in either tree,
/// in tree order, with both totals and the delta — the cross-run
/// analogue of the single-run hot-path view. Paths present on only one
/// side are marked instead of silently skipped.
pub fn flamediff(a: &RunReport, b: &RunReport) -> String {
    let mut paths: Vec<&str> = a
        .spans
        .iter()
        .chain(b.spans.iter())
        .map(|s| s.path.as_str())
        .collect();
    paths.sort_unstable();
    paths.dedup();
    let total = |r: &RunReport, p: &str| r.spans.iter().find(|s| s.path == p).map(|s| s.total_s);
    let mut rows = Vec::new();
    for p in &paths {
        let depth = p.matches('/').count();
        let leaf = p.rsplit('/').next().unwrap_or(p);
        let label = format!("{:indent$}{leaf}", "", indent = 2 * depth);
        match (total(a, p), total(b, p)) {
            (Some(ta), Some(tb)) => {
                let delta = if ta > 0.0 {
                    format!("{:+.1}%", 100.0 * (tb / ta - 1.0))
                } else {
                    "-".to_string()
                };
                rows.push(vec![
                    label,
                    format!("{ta:.4}"),
                    format!("{tb:.4}"),
                    format!("{:+.4}", tb - ta),
                    delta,
                ]);
            }
            (Some(ta), None) => rows.push(vec![
                label,
                format!("{ta:.4}"),
                "-".into(),
                "-".into(),
                "only in A".into(),
            ]),
            (None, Some(tb)) => rows.push(vec![
                label,
                "-".into(),
                format!("{tb:.4}"),
                "-".into(),
                "only in B".into(),
            ]),
            (None, None) => {}
        }
    }
    if rows.is_empty() {
        return "no spans on either side (were both runs traced?)\n".to_string();
    }
    mmds_analysis::io::render_table(
        &["span path", "A total_s", "B total_s", "delta_s", "delta"],
        &rows,
    )
}

/// Loads a `flamediff` operand: an archived record (using its embedded
/// report) or a bare `<stem>.telemetry.json` [`RunReport`].
pub fn load_report_operand(text: &str, what: &str) -> Result<RunReport, String> {
    if let Ok(rec) = serde_json::from_str::<ArchiveRecord>(text) {
        if rec.schema != 0 {
            return rec.report.ok_or_else(|| {
                format!(
                    "{what}: archived record has no telemetry snapshot (run with MMDS_TELEMETRY)"
                )
            });
        }
    }
    crate::inspect::load_report(text)
        .map_err(|e| format!("{what}: neither an archive record nor a RunReport ({e})"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(phases: &[(&str, f64)], tp: &[(&str, f64)]) -> ArchiveRecord {
        let mut r = ArchiveRecord {
            schema: SCHEMA,
            config_hash: "deadbeefdeadbeef".into(),
            config: ConfigKey::new("t"),
            git_rev: "r0".into(),
            t_unix: 1,
            ..Default::default()
        };
        for (k, v) in phases {
            r.phases.insert(k.to_string(), *v);
        }
        for (n, v) in tp {
            r.configs.push(BenchConfigRow {
                name: n.to_string(),
                atoms_steps_per_sec: *v,
                wall_s: 1.0,
            });
        }
        r
    }

    fn window(records: Vec<ArchiveRecord>) -> Vec<(IndexEntry, ArchiveRecord)> {
        records
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                (
                    IndexEntry {
                        config_hash: r.config_hash.clone(),
                        record: format!("deadbeefdeadbeef/{i}.json"),
                        scenario: "t".into(),
                        git_rev: format!("rev{i}"),
                        t_unix: i as u64,
                        wall_s: r.total_wall_s(),
                    },
                    r,
                )
            })
            .collect()
    }

    #[test]
    fn derived_tolerance_floors_and_tracks_dispersion() {
        // Quiet history: the floor holds.
        assert_eq!(derived_tolerance(&[1.0, 1.0, 1.0], 0.1), 0.1);
        // Noisy history: the observed spread wins.
        let t = derived_tolerance(&[1.0, 1.5, 1.2], 0.1);
        assert!((t - 0.5).abs() < 1e-12);
        assert_eq!(rel_spread(&[]), 0.0);
    }

    #[test]
    fn regress_passes_inside_band_and_fails_outside() {
        let hist = |w| rec(&[("p/wall", w)], &[("p", 1000.0 / w)]);
        // History walls 1.0..1.1 (spread 10%); fresh 2.0 is far out.
        let runs = window(vec![hist(1.0), hist(1.1), hist(1.05), hist(2.0)]);
        let (gate, text) = regress(&runs, 0.10);
        assert_eq!(gate, Gate::Fail);
        assert!(text.contains("FAIL"), "{text}");
        // Fresh inside the band passes.
        let runs = window(vec![hist(1.0), hist(1.1), hist(1.05), hist(1.08)]);
        let (gate, text) = regress(&runs, 0.10);
        assert_eq!(gate, Gate::Pass);
        assert!(text.contains("gate: Pass"), "{text}");
        // Slower than every archived run but within tolerance: warn.
        let runs = window(vec![hist(1.0), hist(1.02), hist(1.04)]);
        let (gate, _) = regress(&runs, 0.30);
        assert_eq!(gate, Gate::Warn);
    }

    #[test]
    fn regress_flags_missing_phase_with_exit_2() {
        let a = rec(&[("p/wall", 1.0), ("q/wall", 2.0)], &[]);
        let b = rec(&[("p/wall", 1.0), ("q/wall", 2.0)], &[]);
        let c = rec(&[("p/wall", 1.0)], &[]); // q vanished
        let (gate, text) = regress(&window(vec![a, b, c]), 0.1);
        assert_eq!(gate, Gate::Missing);
        assert_eq!(gate.exit_code(), 2);
        assert!(
            text.contains("missing: phase `q/wall`"),
            "one-line reason expected: {text}"
        );
    }

    #[test]
    fn regress_gates_missing_on_the_latest_history_run_only() {
        // A restored CI archive may still hold runs from before a bench
        // dropped rows; once a run with the new shape is archived (the
        // re-seeded baseline), the rows only older runs had are history,
        // not a structural break.
        let old = rec(
            &[
                ("reference/wall", 2.0),
                ("gone/wall", 1.5),
                ("production/wall", 1.0),
            ],
            &[
                ("reference", 500.0),
                ("gone", 700.0),
                ("production", 1000.0),
            ],
        );
        let new = || {
            rec(
                &[("reference/wall", 2.0), ("production/wall", 1.0)],
                &[("reference", 500.0), ("production", 1000.0)],
            )
        };
        let (gate, text) = regress(&window(vec![old.clone(), new(), new()]), 0.1);
        assert_eq!(gate, Gate::Pass, "{text}");
        // Straight after the old-shape run it still is one.
        let (gate, _) = regress(&window(vec![old, new()]), 0.1);
        assert_eq!(gate, Gate::Missing);
    }

    #[test]
    fn regress_needs_history() {
        let (gate, text) = regress(&window(vec![rec(&[("p/wall", 1.0)], &[])]), 0.1);
        assert_eq!(gate, Gate::Missing);
        assert!(text.contains("need at least 2"), "{text}");
    }

    #[test]
    fn change_point_names_first_shifted_run() {
        assert_eq!(
            change_point(&[1.0, 1.01, 1.0, 1.02, 1.6, 1.62], 0.1),
            Some(4)
        );
        assert_eq!(change_point(&[1.0, 1.01, 1.0, 1.02], 0.1), None);
        // Too short to judge.
        assert_eq!(change_point(&[1.0, 9.0], 0.1), None);
    }

    #[test]
    fn history_doc_min_max_last() {
        let runs = window(vec![
            rec(&[("p/wall", 1.0)], &[("p", 100.0)]),
            rec(&[("p/wall", 1.5)], &[("p", 70.0)]),
            rec(&[("p/wall", 1.2)], &[("p", 90.0)]),
        ]);
        let doc = history_doc(&runs);
        assert_eq!(doc.runs, 3);
        let p = &doc.phases[0];
        assert_eq!((p.min, p.max, p.last), (1.0, 1.5, 1.2));
        let t = &doc.throughput[0];
        assert_eq!((t.min, t.max, t.last), (70.0, 100.0, 90.0));
        let view = history_view(&doc);
        assert!(view.contains("p/wall"), "{view}");
        assert!(view.contains("last=1.2"), "{view}");
    }

    #[test]
    fn flamediff_marks_one_sided_paths() {
        use mmds_telemetry::SpanReport;
        let mk = |paths: &[(&str, f64)]| RunReport {
            spans: paths
                .iter()
                .map(|(p, t)| SpanReport {
                    path: p.to_string(),
                    count: 1,
                    total_s: *t,
                    self_s: *t,
                })
                .collect(),
            ..Default::default()
        };
        let a = mk(&[("run", 10.0), ("run/md", 7.0), ("run/gone", 1.0)]);
        let b = mk(&[("run", 12.0), ("run/md", 9.5), ("run/new", 0.5)]);
        let text = flamediff(&a, &b);
        assert!(text.contains("only in A"), "{text}");
        assert!(text.contains("only in B"), "{text}");
        assert!(text.contains("+35.7%"), "{text}"); // md 7 -> 9.5
    }

    #[test]
    fn bench_doc_seeding_matches_live_config_hash() {
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_mdstep.json"
        ))
        .expect("committed baseline");
        let rec = record_from_bench_doc("mdstep", &text).unwrap();
        // Exactly what a live run at the committed size would key on.
        let live = mdstep_config(8, 20, 1, "Compacted");
        assert_eq!(rec.config_hash, live.hash().unwrap());
        assert_eq!(rec.configs.len(), 2);
        assert!(rec.phases.contains_key("production/pair"));
        assert!(rec.total_wall_s() > 0.0);

        let ktext = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_kmcstep.json"
        ))
        .expect("committed kmc baseline");
        let krec = record_from_bench_doc("kmcstep", &ktext).unwrap();
        assert_eq!(krec.config_hash, kmcstep_config(12, 12).hash().unwrap());
        assert_eq!(krec.configs.len(), 3);
    }
}
