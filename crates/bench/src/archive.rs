//! The cross-run performance observatory: an append-only archive of
//! the repository benchmark's per-layer results, plus the statistics
//! behind `mmds-inspect history`, `regress`, and `flamediff`.
//!
//! `mmds-inspect archive-add <workload> <result.json>` imports the last
//! stdout lines of one or more replays of `bash benchmark/run.sh
//! --workload <workload> --trace 1`, one line each, as one
//! [`ArchiveRecord`] under `results/archive/` (override with
//! `--archive`). Each workload has one file, `<workload>.jsonl`, and a
//! record is one line of it, appended with a single `O_APPEND` write,
//! so concurrent writers interleave whole records and a torn write is
//! never read as one.
//!
//! Which way each metric improves comes from the `per_layer` table of
//! the repository's `BENCHMARK.json`, embedded at build time. On top of
//! the store, [`history_doc`]/[`history_view`] render per-metric trends
//! across runs, [`regress`] gates the newest run with tolerances
//! derived from the archived replay-to-replay dispersion of each
//! metric, and
//! [`flamediff`] diffs the span trees of two [`RunReport`]s.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::OnceLock;

use mmds_telemetry::RunReport;
use serde::{Deserialize, Serialize};

use crate::inspect::sparkline;

/// Record schema version, bumped on breaking field changes.
pub const SCHEMA: u32 = 3;

/// The archive `mmds-inspect` reads and writes without `--archive`.
pub const DEFAULT_DIR: &str = "results/archive";

/// Default number of archived runs a trend/tolerance looks back over.
pub const DEFAULT_WINDOW: usize = 20;

/// Default relative-tolerance floor for [`regress`]: the derived
/// dispersion tolerance never drops below this, so a near-noiseless
/// history cannot make the gate hair-trigger on shared-runner jitter.
pub const DEFAULT_FLOOR: f64 = 0.10;

// ---------------------------------------------------------------------
// The benchmark's declaration
// ---------------------------------------------------------------------

/// The repository benchmark's declaration, read (never written).
const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Better {
    /// Smaller values are better (times, bytes, counts of work).
    Lower,
    /// Larger values are better (throughputs, coverage).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling. (The workspace's serde stand-in
    /// has no `rename_all`, so the spelling is mapped here, both ways.)
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// The inverse of [`Better::as_str`].
    fn parse(s: &str) -> Option<Better> {
        [Better::Lower, Better::Higher]
            .into_iter()
            .find(|b| b.as_str() == s)
    }
}

#[derive(Deserialize)]
struct SpecName {
    name: String,
}

#[derive(Deserialize)]
struct SpecMetric {
    name: String,
    better: String,
}

#[derive(Deserialize)]
struct SpecDoc {
    workloads: Vec<SpecName>,
    per_layer: Vec<SpecMetric>,
}

/// The slice of `BENCHMARK.json` the archive reads.
#[derive(Debug, Clone, Default)]
struct Spec {
    /// Workload names, in declaration order.
    workloads: Vec<String>,
    /// Per-layer metric name → direction (the `--trace 1` result).
    per_layer: BTreeMap<String, Better>,
}

impl Spec {
    /// Parses a `BENCHMARK.json` document.
    fn parse(text: &str) -> Result<Spec, String> {
        let doc: SpecDoc =
            serde_json::from_str(text).map_err(|e| format!("not a BENCHMARK.json: {e}"))?;
        let mut per_layer = BTreeMap::new();
        for m in doc.per_layer {
            let better = Better::parse(&m.better)
                .ok_or_else(|| format!("metric `{}`: better is `{}`", m.name, m.better))?;
            per_layer.insert(m.name, better);
        }
        Ok(Spec {
            workloads: doc.workloads.into_iter().map(|w| w.name).collect(),
            per_layer,
        })
    }
}

/// The embedded `BENCHMARK.json`, parsed once.
fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| Spec::parse(BENCHMARK_JSON).expect("the embedded BENCHMARK.json parses"))
}

// ---------------------------------------------------------------------
// The record
// ---------------------------------------------------------------------

/// One archived run: the workload, provenance, and the per-layer
/// metrics of its `--trace 1` replays.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ArchiveRecord {
    /// Record schema version ([`SCHEMA`]).
    pub schema: u32,
    /// The `BENCHMARK.json` workload the replays ran — the history key.
    pub workload: String,
    /// Git revision the record was written at (`unknown` outside a repo).
    pub git_rev: String,
    /// Unix seconds when the record was written.
    pub t_unix: u64,
    /// How many benchmark results (replays) the record folds.
    pub replays: u32,
    /// Per-layer metric values, keyed by their `BENCHMARK.json` name:
    /// each the best over the record's replays.
    pub metrics: BTreeMap<String, f64>,
    /// Each metric's worst value over the replays. With `metrics` it
    /// bounds the replay-to-replay spread, which [`regress`] counts as
    /// noise.
    pub worst: BTreeMap<String, f64>,
}

impl ArchiveRecord {
    /// Starts a record for `workload`, stamping schema, git rev and
    /// wall-clock time.
    pub fn new(workload: &str) -> Self {
        ArchiveRecord {
            schema: SCHEMA,
            workload: workload.to_string(),
            git_rev: git_rev(),
            t_unix: now_unix(),
            replays: 1,
            metrics: BTreeMap::new(),
            worst: BTreeMap::new(),
        }
    }

    /// Folds another replay of the same workload into this record: each
    /// metric keeps the better value in `metrics` and the worse one in
    /// `worst`, lower or higher as `BENCHMARK.json` declares. One replay
    /// of a layer that takes milliseconds is mostly scheduler noise; the
    /// best of several is a steadier figure, and their spread says how
    /// noisy the layer is. A result with another metric set is not a
    /// replay of the same benchmark and is refused.
    fn fold_replay(&mut self, replay: &BTreeMap<String, f64>) -> Result<(), String> {
        if !self.metrics.keys().eq(replay.keys()) {
            return Err("another metric set, not a replay of the same benchmark".to_string());
        }
        for (name, best) in &mut self.metrics {
            let worst = self.worst.entry(name.clone()).or_insert(*best);
            let v = replay[name];
            if spec().per_layer.get(name) == Some(&Better::Higher) {
                *best = best.max(v);
                *worst = worst.min(v);
            } else {
                *best = best.min(v);
                *worst = worst.max(v);
            }
        }
        self.replays += 1;
        Ok(())
    }
}

#[derive(Deserialize)]
struct ResultMetric {
    value: f64,
}

#[derive(Deserialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, ResultMetric>,
}

/// Imports the benchmark results in `text`: every line that opens a JSON
/// object is the object `bash benchmark/run.sh --workload <workload>
/// --trace 1` prints last, one per replay; other lines (the run's
/// progress output) are skipped. The replays fold into one record,
/// stamped once. A result that is not a passing per-layer measurement
/// of a declared workload is rejected with a one-line reason.
pub fn record_from_result(workload: &str, text: &str) -> Result<ArchiveRecord, String> {
    let spec = spec();
    if !spec.workloads.iter().any(|w| w == workload) {
        return Err(format!(
            "unknown workload `{workload}` ({})",
            spec.workloads.join("|")
        ));
    }
    let lines: Vec<&str> = text
        .lines()
        .filter(|l| l.trim_start().starts_with('{'))
        .collect();
    if lines.is_empty() {
        return Err("not a benchmark result: no line holds a JSON object".to_string());
    }
    let replays = lines
        .iter()
        .enumerate()
        .map(|(i, line)| {
            replay_from_line(line).map_err(|e| match lines.len() {
                1 => e,
                n => format!("result {} of {n}: {e}", i + 1),
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut replays = replays.into_iter();
    let first = replays.next().expect("at least one result line");
    let mut rec = ArchiveRecord {
        worst: first.clone(),
        metrics: first,
        ..ArchiveRecord::new(workload)
    };
    for replay in replays {
        rec.fold_replay(&replay)?;
    }
    Ok(rec)
}

/// One result line's metrics.
fn replay_from_line(line: &str) -> Result<BTreeMap<String, f64>, String> {
    let result: ResultLine =
        serde_json::from_str(line).map_err(|e| format!("not a benchmark result line: {e}"))?;
    if !result.correct {
        return Err("the run is not a measurement (\"correct\": false)".to_string());
    }
    if result.failed > 0 {
        return Err(format!(
            "{} of {} checks failed",
            result.failed, result.attempted
        ));
    }
    if result.metrics.is_empty() {
        return Err("the result has no metrics".to_string());
    }
    let mut metrics = BTreeMap::new();
    for (name, m) in result.metrics {
        if !spec().per_layer.contains_key(&name) {
            return Err(format!(
                "metric `{name}` is not a per-layer metric of BENCHMARK.json \
                 (archive the `--trace 1` result)"
            ));
        }
        if !m.value.is_finite() {
            return Err(format!("metric `{name}` is not a finite number"));
        }
        metrics.insert(name, m.value);
    }
    Ok(metrics)
}

// ---------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------

/// Best-effort provenance: `GITHUB_SHA`, else
/// `git rev-parse --short=12 HEAD`, else `unknown`.
fn git_rev() -> String {
    if let Ok(v) = std::env::var("GITHUB_SHA") {
        let v = v.trim();
        if !v.is_empty() {
            return v.to_string();
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
fn now_unix() -> u64 {
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

    /// The append-only file of `workload`'s records, one per line.
    pub fn path(&self, workload: &str) -> PathBuf {
        self.dir.join(format!("{workload}.jsonl"))
    }

    /// Appends `record` to its workload's file as one line, in a single
    /// `write` on an `O_APPEND` handle: two concurrent writers
    /// interleave whole records, not bytes (pinned by the concurrency
    /// test). Returns the file's path.
    pub fn write(&self, record: &ArchiveRecord) -> std::io::Result<PathBuf> {
        let mut line =
            serde_json::to_string(record).map_err(|e| std::io::Error::other(e.to_string()))?;
        line.push('\n');
        let path = self.path(&record.workload);
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?
            .write_all(line.as_bytes())?;
        Ok(path)
    }

    /// `workload`'s records from the last `window` lines of its file,
    /// oldest first, and the number of those lines that are not a
    /// record of this schema (a torn write, another schema). Fails when
    /// the workload has no file.
    pub fn runs_for(
        &self,
        workload: &str,
        window: usize,
    ) -> std::io::Result<(Vec<ArchiveRecord>, usize)> {
        let text = std::fs::read_to_string(self.path(workload))?;
        let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        let mut runs = Vec::with_capacity(lines.len().min(window));
        let mut skipped = 0;
        for line in &lines[lines.len().saturating_sub(window)..] {
            match serde_json::from_str::<ArchiveRecord>(line) {
                Ok(r) if r.schema == SCHEMA => runs.push(r),
                _ => skipped += 1,
            }
        }
        Ok((runs, skipped))
    }
}

// ---------------------------------------------------------------------
// history
// ---------------------------------------------------------------------

/// One metric's trajectory across archived runs.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TrendDoc {
    /// Metric name.
    pub name: String,
    /// `lower` or `higher` (is better), from `BENCHMARK.json`;
    /// `unknown` for a metric it no longer declares.
    pub better: String,
    /// Chronological values (oldest first).
    pub values: Vec<f64>,
    /// Minimum over the window.
    pub min: f64,
    /// Maximum over the window.
    pub max: f64,
    /// Most recent value.
    pub last: f64,
}

/// The machine-readable `history --json` document.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct HistoryDoc {
    /// The workload the history is keyed on.
    pub workload: String,
    /// Number of archived runs in the window.
    pub runs: usize,
    /// Git rev of each run, oldest first.
    pub revs: Vec<String>,
    /// Per-metric trends, by name; metrics 0 in every run are left out.
    pub metrics: Vec<TrendDoc>,
}

fn metric_values(runs: &[ArchiveRecord], name: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.metrics.get(name).copied())
        .collect()
}

/// The metrics some run of the window reports as non-zero, by name. A
/// metric that is 0 in every run is a layer the workload does not reach.
fn live_metrics(runs: &[ArchiveRecord]) -> Vec<&str> {
    let mut names: Vec<&str> = runs
        .iter()
        .flat_map(|r| r.metrics.iter())
        .filter(|(_, v)| **v != 0.0)
        .map(|(k, _)| k.as_str())
        .collect();
    names.sort_unstable();
    names.dedup();
    names
}

/// Renders a metric value: whole counts and byte totals in full, fixed
/// point in the middle range, scientific for tiny ratios and times.
fn num(v: f64) -> String {
    if v.fract() == 0.0 && (1e3..1e16).contains(&v.abs()) {
        format!("{v:.0}")
    } else if v == 0.0 || (1e-2..1e5).contains(&v.abs()) {
        format!("{v:.4}")
    } else {
        format!("{v:.3e}")
    }
}

/// Builds the cross-run trend document for one workload's runs.
pub fn history_doc(runs: &[ArchiveRecord]) -> HistoryDoc {
    let Some(first) = runs.first() else {
        return HistoryDoc::default();
    };
    let metrics = live_metrics(runs)
        .into_iter()
        .map(|name| {
            let values = metric_values(runs, name);
            TrendDoc {
                name: name.to_string(),
                better: spec()
                    .per_layer
                    .get(name)
                    .map_or("unknown", |b| b.as_str())
                    .to_string(),
                min: values.iter().cloned().fold(f64::INFINITY, f64::min),
                max: values.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
                last: values.last().copied().unwrap_or(0.0),
                values,
            }
        })
        .collect();
    HistoryDoc {
        workload: first.workload.clone(),
        runs: runs.len(),
        revs: runs.iter().map(|r| r.git_rev.clone()).collect(),
        metrics,
    }
}

/// Renders the `history` trend view: one sparkline per metric with
/// min/max/last and the direction that is better.
pub fn history_view(doc: &HistoryDoc) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} — {} archived run(s), revs {} → {}",
        doc.workload,
        doc.runs,
        doc.revs.first().map(String::as_str).unwrap_or("-"),
        doc.revs.last().map(String::as_str).unwrap_or("-"),
    );
    out.push_str("\n-- per-layer metrics (oldest → newest) --\n");
    if doc.metrics.is_empty() {
        out.push_str("  no non-zero metrics archived\n");
    }
    for t in &doc.metrics {
        let _ = writeln!(
            out,
            "  {:<38} {:<24} n={:<3} min={:<10} max={:<10} last={:<10} {} is better",
            t.name,
            sparkline(&t.values, 24),
            t.values.len(),
            num(t.min),
            num(t.max),
            num(t.last),
            t.better,
        );
    }
    out
}

// ---------------------------------------------------------------------
// regress
// ---------------------------------------------------------------------

/// Outcome of the regression gate, variants in rising gravity (so the
/// verdict over many metrics is their `max`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Gate {
    /// No metric regressed.
    Pass,
    /// Some metric is worse than every archived run, within tolerance.
    Warn,
    /// At least one metric regressed beyond tolerance.
    Fail,
    /// A metric present in the baseline is missing from the candidate
    /// (or is not declared any more) — a structural break, distinct
    /// from a performance regression so CI can tell them apart.
    Missing,
}

impl Gate {
    /// Process exit code the CLI maps this outcome to: 0 pass/warn,
    /// 1 performance regression, 2 structural break (missing side).
    pub fn exit_code(self) -> i32 {
        match self {
            Gate::Fail => 1,
            Gate::Missing => 2,
            _ => 0,
        }
    }
}

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
/// dispersion of its history, floored at `floor`. If the metric ever
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

/// Name suffix of the metrics the benchmark reports as `a / b − 1`.
const OVERHEAD_FRAC: &str = "overhead_frac";

/// What the gate adds to a reported value of metric `name` before it
/// judges it. The benchmark reports an overhead as `traced / untraced − 1`
/// (`*overhead_frac`): a signed fraction near 0, whose relative change
/// means nothing and whose best can be negative. The gate judges the
/// ratio `1 + x` instead, which is always positive. Every other declared
/// metric is a non-negative time, count, size or ratio and is judged as
/// reported.
fn gauge_offset(name: &str) -> f64 {
    if name.ends_with(OVERHEAD_FRAC) {
        1.0
    } else {
        0.0
    }
}

/// One metric's verdict against its history, every value shifted by
/// [`gauge_offset`]: `history` holds each archived run's best replay,
/// `worst` each run's worst. Returns the best archived value, the
/// tolerance, and the gate. The tolerance is the spread of every
/// archived replay relative to the best, floored at `floor`: a layer
/// whose replays wander by x% may wander by x% again. The gate fails
/// when `fresh` is worse than `best ± tol·|best|` and warns when it is
/// worse than every archived run. A best of 0 leaves no band, so any
/// worse value fails: a count such as `md.plan_ref_mismatch_sites`
/// that leaves 0 is a regression of any size.
fn judge(
    better: Better,
    history: &[f64],
    worst: &[f64],
    fresh: f64,
    floor: f64,
) -> (f64, f64, Gate) {
    let lo = history
        .iter()
        .chain(worst)
        .cloned()
        .fold(f64::INFINITY, f64::min);
    let hi = history
        .iter()
        .chain(worst)
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max);
    let min = history.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = history.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let (best, worst_run, sign) = match better {
        Better::Lower => (min, max, 1.0),
        Better::Higher => (max, min, -1.0),
    };
    let tol = if best != 0.0 {
        ((hi - lo) / best.abs()).max(floor)
    } else {
        floor
    };
    let worse_than = |x: f64| sign * (fresh - x) > 0.0;
    let gate = if worse_than(best + sign * tol * best.abs()) {
        Gate::Fail
    } else if worse_than(worst_run) {
        Gate::Warn
    } else {
        Gate::Pass
    };
    (best, tol, gate)
}

/// The `regress` verdict over one archive window: the latest archived
/// run (the candidate) gated against all prior runs of the same
/// workload, metric by metric, with dispersion-derived tolerances.
pub fn regress(runs: &[ArchiveRecord], floor: f64) -> (Gate, String) {
    let mut out = String::new();
    if runs.len() < 2 {
        let _ = writeln!(
            out,
            "regress: need at least 2 archived runs (history + candidate), found {} — \
             add the committed BENCH_<workload>.json and a fresh result \
             (`mmds-inspect archive-add`)",
            runs.len()
        );
        return (Gate::Missing, out);
    }
    let (hist, cand) = runs.split_at(runs.len() - 1);
    let cand_rec = &cand[0];
    let _ = writeln!(
        out,
        "candidate: {} run at rev {} vs {} archived run(s), floor {:.0}%",
        cand_rec.workload,
        cand_rec.git_rev,
        hist.len(),
        100.0 * floor,
    );

    let mut gate = Gate::Pass;
    let mut reasons: Vec<String> = Vec::new();
    let mut rows = Vec::new();
    for name in live_metrics(runs) {
        let Some(&fresh) = cand_rec.metrics.get(name) else {
            continue;
        };
        let Some(&better) = spec().per_layer.get(name) else {
            gate = gate.max(Gate::Missing);
            reasons.push(format!("metric `{name}` is not declared in BENCHMARK.json"));
            continue;
        };
        let h = metric_values(hist, name);
        let mut row = vec![
            name.to_string(),
            better.as_str().to_string(),
            h.len().to_string(),
        ];
        if h.is_empty() {
            row.extend(["-".into(), "-".into(), num(fresh), "-".into(), "new".into()]);
        } else {
            let off = gauge_offset(name);
            let gauged: Vec<f64> = h.iter().map(|v| v + off).collect();
            let worst: Vec<f64> = hist
                .iter()
                .filter_map(|r| r.worst.get(name).or(r.metrics.get(name)))
                .map(|v| v + off)
                .collect();
            let (best, tol, g) = judge(better, &gauged, &worst, fresh + off, floor);
            gate = gate.max(g);
            let delta = if best != 0.0 {
                format!("{:+.1}%", 100.0 * (fresh + off - best) / best.abs())
            } else {
                "from 0".to_string()
            };
            let verdict = match g {
                Gate::Fail => "FAIL",
                Gate::Warn => "warn",
                _ => "ok",
            };
            row.extend([
                num(best - off),
                format!("{:.0}%", 100.0 * tol),
                num(fresh),
                delta,
                verdict.to_string(),
            ]);
        }
        rows.push(row);
    }
    // A metric the latest history run still reported but the candidate
    // no longer does is a structural break, not a pass.
    let latest_hist = hist.last().expect("split leaves history");
    for name in latest_hist.metrics.keys() {
        if !cand_rec.metrics.contains_key(name) {
            gate = gate.max(Gate::Missing);
            reasons.push(format!(
                "metric `{name}` present in the archived baseline is missing from the candidate"
            ));
        }
    }
    out.push_str("\n-- per-layer metrics (best = best archived value) --\n");
    out.push_str(&mmds_analysis::io::render_table(
        &[
            "metric", "better", "n", "best", "tol", "fresh", "delta", "gate",
        ],
        &rows,
    ));
    if rows.iter().any(|r| r[0].ends_with(OVERHEAD_FRAC)) {
        out.push_str("  (an *overhead_frac x is judged as the ratio 1 + x; delta is its change)\n");
    }

    // Change points over the whole window (candidate included): which
    // run first moved each metric out of its prior band.
    let mut shifts = Vec::new();
    for t in history_doc(runs).metrics {
        let off = gauge_offset(&t.name);
        let g: Vec<f64> = t.values.iter().map(|v| v + off).collect();
        if let Some(k) = change_point(&g, floor) {
            let e = &runs[k.min(runs.len() - 1)];
            shifts.push(format!(
                "  {}: first shifted at run #{k} (rev {}, {:+.1}% vs prior median)",
                t.name,
                e.git_rev,
                100.0 * (g[k] / median(&g[..k]) - 1.0),
            ));
        }
    }
    out.push_str("\n-- change points (first run leaving the prior tolerance band) --\n");
    if shifts.is_empty() {
        out.push_str("  none — every metric stayed inside its archived dispersion\n");
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

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(metrics: &[(&str, f64)]) -> ArchiveRecord {
        ArchiveRecord {
            schema: SCHEMA,
            workload: "md_bulk".into(),
            git_rev: "r0".into(),
            t_unix: 1,
            replays: 1,
            metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            worst: BTreeMap::new(),
        }
    }

    fn window(records: Vec<ArchiveRecord>) -> Vec<ArchiveRecord> {
        records
            .into_iter()
            .enumerate()
            .map(|(i, r)| ArchiveRecord {
                git_rev: format!("rev{i}"),
                t_unix: i as u64,
                ..r
            })
            .collect()
    }

    /// A `--trace 1`-shaped result line over `metrics`.
    fn result_line(correct: bool, failed: u64, metrics: &[(&str, f64)]) -> String {
        let body: Vec<String> = metrics
            .iter()
            .map(|(n, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"s\"}}"))
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": 5, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        )
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
    fn embedded_spec_declares_every_workload_and_direction() {
        let s = spec();
        assert_eq!(
            s.workloads,
            ["md_bulk", "coupled_2r", "kmc_dense", "kmc_fullghost"]
        );
        assert_eq!(s.per_layer.get("md.force_s"), Some(&Better::Lower));
        assert_eq!(s.per_layer.get("kmc.events_per_s"), Some(&Better::Higher));
        assert!(!s.per_layer.contains_key("wall_s"));
        assert!(
            Spec::parse(r#"{"workloads": [], "per_layer": [{"name": "x", "better": "up"}]}"#)
                .unwrap_err()
                .contains("`up`")
        );
    }

    #[test]
    fn importer_rejects_what_is_not_a_passing_per_layer_result() {
        let ok = result_line(true, 0, &[("md.force_s", 0.5), ("kmc.events", 0.0)]);
        let r = record_from_result("md_bulk", &format!("metric lines\n{ok}\n")).unwrap();
        assert_eq!(r.workload, "md_bulk");
        assert_eq!(r.metrics.get("md.force_s"), Some(&0.5));
        for (workload, text, reason) in [
            (
                "md_bulk",
                result_line(true, 0, &[("wall_s", 3.8)]),
                "`wall_s` is not a per-layer metric of BENCHMARK.json (archive the `--trace 1`",
            ),
            (
                "md_bulk",
                result_line(false, 5, &[("md.force_s", 0.5)]),
                "not a measurement",
            ),
            (
                "md_bulk",
                result_line(true, 1, &[("md.force_s", 0.5)]),
                "1 of 5 checks failed",
            ),
            (
                "md_bulk",
                result_line(true, 0, &[("md.warp_s", 0.5)]),
                "`md.warp_s` is not",
            ),
            ("md_bulk", result_line(true, 0, &[]), "no metrics"),
            ("md_huge", ok.clone(), "unknown workload"),
            (
                "md_bulk",
                "checks: 5 attempted".to_string(),
                "not a benchmark result",
            ),
            (
                "md_bulk",
                "{\"correct\": tru".to_string(),
                "not a benchmark result",
            ),
        ] {
            let e = record_from_result(workload, &text).unwrap_err();
            assert!(e.contains(reason), "{e}");
            assert_eq!(e.lines().count(), 1, "one-line reason: {e}");
        }
    }

    #[test]
    fn bench_doc_seeding_matches_live_config_hash() {
        // Every committed BENCH_<workload>.json imports, keyed exactly
        // as a fresh result of the same workload (by its workload name,
        // which picks its archive file), with every per-layer metric.
        for w in &spec().workloads {
            let path = format!("{}/../../BENCH_{w}.json", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).expect("committed baseline");
            let rec = record_from_result(w, &text).unwrap_or_else(|e| panic!("{path}: {e}"));
            assert_eq!(&rec.workload, w);
            assert_eq!(rec.metrics.len(), spec().per_layer.len(), "{path}");
            assert!(
                spec().per_layer.keys().all(|m| rec.metrics.contains_key(m)),
                "{path}"
            );
            assert!(rec.metrics.values().any(|v| *v > 0.0), "{path}");
        }
    }

    #[test]
    fn regress_passes_inside_band_and_fails_outside() {
        let hist = |w| rec(&[("md.force_s", w)]);
        // History 1.0..1.1 (spread 10%); fresh 2.0 is far out.
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
    fn regress_fails_a_higher_is_better_metric_that_falls() {
        let hist = |r| rec(&[("kmc.events_per_s", r)]);
        // Best 1000, spread 10%: a fall to 700 is outside, 1100 is fine.
        let runs = window(vec![hist(1000.0), hist(900.0), hist(700.0)]);
        let (gate, text) = regress(&runs, 0.10);
        assert_eq!(gate, Gate::Fail, "{text}");
        assert!(text.contains("higher"), "{text}");
        let runs = window(vec![hist(1000.0), hist(900.0), hist(1100.0)]);
        assert_eq!(regress(&runs, 0.10).0, Gate::Pass);
        // Below every archived run but within tolerance: warn.
        let runs = window(vec![hist(1000.0), hist(900.0), hist(880.0)]);
        assert_eq!(regress(&runs, 0.30).0, Gate::Warn);
    }

    #[test]
    fn overhead_fractions_are_judged_as_ratios() {
        // A negative overhead in the history (the traced replay happened
        // to be the faster one) must not disarm the gate: 10× slower
        // traced than untraced fails.
        let hist = |x| rec(&[("trace.overhead_frac", x)]);
        let (gate, text) = regress(&window(vec![hist(-0.2005), hist(9.0)]), 0.45);
        assert_eq!(gate, Gate::Fail, "{text}");
        // Ratio 0.7995 → 10: the delta is the ratio's change.
        assert!(text.contains("+1150.8%"), "{text}");
        assert!(text.contains("judged as the ratio 1 + x"), "{text}");
        // -20 % → +3 % overhead is a 29 % larger ratio: inside 45 %.
        let (gate, text) = regress(&window(vec![hist(-0.2), hist(0.03)]), 0.45);
        assert_eq!(gate, Gate::Warn, "{text}");
        let (gate, _) = regress(&window(vec![hist(0.03), hist(-0.2)]), 0.45);
        assert_eq!(gate, Gate::Pass);
    }

    #[test]
    fn a_lower_is_better_metric_leaving_zero_fails() {
        // Best 0 leaves no relative band: the gate fails closed.
        let r = |x| rec(&[("md.force_s", 1.0), ("md.plan_ref_mismatch_sites", x)]);
        let (gate, text) = regress(&window(vec![r(0.0), r(3.0)]), 0.45);
        assert_eq!(gate, Gate::Fail, "{text}");
        assert!(text.contains("from 0"), "{text}");
    }

    #[test]
    fn replays_fold_to_each_metric_best_and_worst() {
        let text = [
            result_line(
                true,
                0,
                &[("md.force_s", 1.0), ("md.atom_steps_per_s", 90.0)],
            ),
            "progress output between replays".to_string(),
            result_line(
                true,
                0,
                &[("md.force_s", 0.8), ("md.atom_steps_per_s", 70.0)],
            ),
            result_line(
                true,
                0,
                &[("md.force_s", 0.9), ("md.atom_steps_per_s", 80.0)],
            ),
        ]
        .join("\n");
        let r = record_from_result("md_bulk", &text).unwrap();
        assert_eq!(r.replays, 3);
        assert_eq!(r.metrics["md.force_s"], 0.8);
        assert_eq!(r.worst["md.force_s"], 1.0);
        assert_eq!(r.metrics["md.atom_steps_per_s"], 90.0);
        assert_eq!(r.worst["md.atom_steps_per_s"], 70.0);
        // One bad replay rejects the file, and says which one.
        let bad = format!("{text}\n{}", result_line(true, 2, &[("md.force_s", 0.7)]));
        let e = record_from_result("md_bulk", &bad).unwrap_err();
        assert!(e.starts_with("result 4 of 4: 2 of 5 checks failed"), "{e}");
        let other = format!("{text}\n{}", result_line(true, 0, &[("md.force_s", 0.7)]));
        let e = record_from_result("md_bulk", &other).unwrap_err();
        assert!(e.contains("metric set"), "{e}");
    }

    #[test]
    fn replay_spread_widens_the_tolerance() {
        let mut noisy = rec(&[("swmpi.pingpong_us", 1.0)]);
        noisy.worst.insert("swmpi.pingpong_us".into(), 3.0);
        // Replays spanned 1..3 µs: a best of 2.5 µs is inside that noise.
        let fresh = rec(&[("swmpi.pingpong_us", 2.5)]);
        let (gate, text) = regress(&window(vec![noisy.clone(), fresh]), 0.45);
        assert_eq!(gate, Gate::Warn, "{text}");
        assert!(text.contains("200%"), "{text}");
        // Outside the spread it fails; without replays, the floor holds.
        let fresh = rec(&[("swmpi.pingpong_us", 3.5)]);
        assert_eq!(regress(&window(vec![noisy, fresh]), 0.45).0, Gate::Fail);
        let quiet = rec(&[("swmpi.pingpong_us", 1.0)]);
        let fresh = rec(&[("swmpi.pingpong_us", 2.5)]);
        assert_eq!(regress(&window(vec![quiet, fresh]), 0.45).0, Gate::Fail);
    }

    #[test]
    fn metrics_zero_in_every_run_are_skipped() {
        let r = || rec(&[("md.force_s", 1.0), ("kmc.sector_s", 0.0)]);
        let runs = window(vec![r(), r()]);
        let doc = history_doc(&runs);
        let names: Vec<_> = doc.metrics.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, ["md.force_s"]);
        let (gate, text) = regress(&runs, 0.1);
        assert_eq!(gate, Gate::Pass, "{text}");
        assert!(!text.contains("kmc.sector_s"), "{text}");
        // Once one run reaches the layer it is gated like any other.
        let runs = window(vec![
            r(),
            rec(&[("md.force_s", 1.0), ("kmc.sector_s", 2.0)]),
        ]);
        assert!(regress(&runs, 0.1).1.contains("kmc.sector_s"));
    }

    #[test]
    fn regress_flags_missing_phase_with_exit_2() {
        let a = rec(&[("md.force_s", 1.0), ("md.embed_s", 2.0)]);
        let b = rec(&[("md.force_s", 1.0), ("md.embed_s", 2.0)]);
        let c = rec(&[("md.force_s", 1.0)]); // md.embed_s vanished
        let (gate, text) = regress(&window(vec![a, b, c]), 0.1);
        assert_eq!(gate, Gate::Missing);
        assert_eq!(gate.exit_code(), 2);
        assert!(
            text.contains("missing: metric `md.embed_s`"),
            "one-line reason expected: {text}"
        );
    }

    #[test]
    fn regress_gates_missing_on_the_latest_history_run_only() {
        // A restored CI archive may still hold runs from before the
        // benchmark dropped a metric; once a run with the new shape is
        // archived (the committed baseline), the metrics only older
        // runs had are history, not a structural break.
        let old = rec(&[("md.force_s", 1.0), ("md.gone_s", 1.5)]);
        let new = || rec(&[("md.force_s", 1.0)]);
        let (gate, text) = regress(&window(vec![old.clone(), new(), new()]), 0.1);
        assert_eq!(gate, Gate::Pass, "{text}");
        // Straight after the old-shape run it still is one.
        let (gate, _) = regress(&window(vec![old, new()]), 0.1);
        assert_eq!(gate, Gate::Missing);
    }

    #[test]
    fn regress_needs_history() {
        let (gate, text) = regress(&window(vec![rec(&[("md.force_s", 1.0)])]), 0.1);
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
            rec(&[("md.force_s", 1.0), ("md.atom_steps_per_s", 100.0)]),
            rec(&[("md.force_s", 1.5), ("md.atom_steps_per_s", 70.0)]),
            rec(&[("md.force_s", 1.2), ("md.atom_steps_per_s", 90.0)]),
        ]);
        let doc = history_doc(&runs);
        assert_eq!(doc.runs, 3);
        let [rate, force] = &doc.metrics[..] else {
            panic!("{doc:?}")
        };
        assert_eq!((force.min, force.max, force.last), (1.0, 1.5, 1.2));
        assert_eq!(force.better, "lower");
        assert_eq!((rate.min, rate.max, rate.last), (70.0, 100.0, 90.0));
        assert_eq!(rate.better, "higher");
        let view = history_view(&doc);
        assert!(view.contains("md.force_s"), "{view}");
        assert!(view.contains("last=1.2000"), "{view}");
        assert!(view.contains("higher is better"), "{view}");
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
}
