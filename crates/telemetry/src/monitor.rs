//! Live run monitoring: the tailing JSONL reader, the rolling
//! aggregator, and the declarative watchdog.
//!
//! Everything else in this crate is post-hoc — a run finishes, the
//! stream becomes a [`RunReport`]. The paper's regime (hour-long
//! coupled MD/KMC campaigns over 10⁴–10⁶ cores) needs the autopsy
//! *while the patient is alive*: a stalled rank, runaway energy drift,
//! or an on-demand exchange regressing to full-ghost traffic should
//! surface mid-run. Three pieces deliver that:
//!
//! * [`TailReader`] — incremental reader over a growing JSONL file.
//!   Each poll consumes only the newly appended bytes, tolerates a
//!   torn (mid-write) trailing line by buffering it until the newline
//!   arrives, and restarts cleanly when the file is truncated.
//! * [`LiveAggregator`] — folds [`Record`]s one at a time into a
//!   rolling run view: span totals and open-span stacks, counters,
//!   bounded series tails, per-rank heartbeat ages, sample tallies.
//!   Its [`LiveAggregator::report`] builds a [`RunReport`] through the
//!   same [`crate::report::build_run_report`] path the post-hoc tools
//!   use, so a live view and `mmds-inspect summary` agree by
//!   construction.
//! * [`WatchdogConfig`] + [`LiveAggregator::evaluate`] — declarative
//!   alert rules (heartbeat staleness, health-counter thresholds,
//!   phase imbalance, comm-savings regression, stream parse errors)
//!   producing structured
//!   [`AlertRecord`]s, deduplicated per `(rule, subject)` while the
//!   condition persists.
//!
//! `mmds-inspect watch` is the one consumer: it owns a
//! [`LiveAggregator`] and feeds it from a [`TailReader`].

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{Read as _, Seek as _};
use std::path::PathBuf;
use std::time::Instant;

use crate::event::{
    AlertRecord, AlertSeverity, Event, HeartbeatSample, KmcCycleSample, MdStepSample, Record,
};
use crate::report::{CounterRegistry, RunReport, SpanReport};

/// Alert rule names the watchdog can raise, in evaluation order. The
/// audit manifest pass keys on this array, so a rule rename must also
/// touch `TELEMETRY_MANIFEST.md`.
pub const ALERT_COUNTERS: [&str; 5] = [
    "alert.heartbeat_stale",
    "alert.health_threshold",
    "alert.phase_imbalance",
    "alert.comm_regression",
    "alert.parse_errors",
];

/// Named counters the aggregator derives from traced [`Event::Comm`]
/// records (causal comm tracing), so a live watch shows comm-op volume
/// without replaying the trace. Manifest contract as above.
pub const COMM_COUNTERS: [&str; 3] = ["comm.events", "comm.bytes", "comm.block_ns"];

/// Points kept per series tail when the aggregator is in bounded
/// (live) mode.
pub const SERIES_TAIL_CAP: usize = 256;

// ---------------------------------------------------------------------
// TailReader
// ---------------------------------------------------------------------

/// Incremental reader over a growing JSONL trace.
///
/// `poll` reads from the last consumed offset to the current end of
/// file and returns every *complete* (newline-terminated) record. A
/// partial trailing line — the case a live `FileSink` produces
/// mid-write — is buffered and completed by a later poll. Lines that
/// are complete but unparseable count as `parse_errors` and are
/// skipped, so one corrupt line never wedges the watcher.
#[derive(Debug)]
pub struct TailReader {
    path: PathBuf,
    offset: u64,
    partial: Vec<u8>,
    parse_errors: u64,
}

impl TailReader {
    /// Follows `path` (which may not exist yet).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            offset: 0,
            partial: Vec::new(),
            parse_errors: 0,
        }
    }

    /// Consumes newly appended bytes and returns the complete records
    /// among them. A missing file yields no records (the producer may
    /// not have started); a file shorter than the consumed offset is
    /// treated as truncated/rotated and re-read from the start.
    pub fn poll(&mut self) -> std::io::Result<Vec<Record>> {
        let mut f = match std::fs::File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let len = f.metadata()?.len();
        if len < self.offset {
            self.offset = 0;
            self.partial.clear();
        }
        if len == self.offset {
            return Ok(Vec::new());
        }
        f.seek(std::io::SeekFrom::Start(self.offset))?;
        let mut buf = Vec::with_capacity((len - self.offset) as usize);
        f.take(len - self.offset).read_to_end(&mut buf)?;
        self.offset += buf.len() as u64;
        self.partial.extend_from_slice(&buf);

        let mut out = Vec::new();
        while let Some(pos) = self.partial.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.partial.drain(..=pos).collect();
            match std::str::from_utf8(&line[..line.len() - 1]) {
                Ok(text) if text.trim().is_empty() => {}
                Ok(text) => match Record::from_jsonl(text) {
                    Ok(r) => out.push(r),
                    Err(_) => self.parse_errors += 1,
                },
                Err(_) => self.parse_errors += 1,
            }
        }
        Ok(out)
    }

    /// Tries to parse the buffered partial tail as one complete record
    /// — for end-of-stream reads where the final line has no trailing
    /// newline. Consumes the tail on success; leaves it (still
    /// completable by a later poll) otherwise.
    pub fn finish(&mut self) -> Option<Record> {
        let text = std::str::from_utf8(&self.partial).ok()?;
        let r = Record::from_jsonl(text.trim()).ok()?;
        self.partial.clear();
        Some(r)
    }

    /// Complete-but-unparseable lines seen so far.
    pub fn parse_errors(&self) -> u64 {
        self.parse_errors
    }

    /// Bytes currently buffered as an incomplete trailing line.
    pub fn partial_len(&self) -> usize {
        self.partial.len()
    }
}

// ---------------------------------------------------------------------
// Watchdog configuration
// ---------------------------------------------------------------------

/// Declarative alert rules the aggregator evaluates after each fold.
#[derive(Debug, Clone)]
pub struct WatchdogConfig {
    /// A rank is stale when its heartbeat age reaches `stale_factor ×`
    /// its observed inter-beat interval (and some other rank is still
    /// fresh — a globally quiet stream is a finished run, not a hang).
    pub stale_factor: f64,
    /// Floor on the interval estimate (ns), so a burst of
    /// back-to-back beats can't produce a zero threshold.
    pub stale_floor_ns: u64,
    /// `(counter name, max allowed value)` — exceeding the bound
    /// raises `alert.health_threshold`.
    pub health_rules: Vec<(String, f64)>,
    /// Max tolerated per-phase `max/avg` ratio over tagged ranks; 0
    /// disables the rule.
    pub imbalance_max_ratio: f64,
    /// Ignore phases whose slowest rank spent less than this (s) —
    /// sub-millisecond phases imbalance wildly without meaning it.
    pub imbalance_min_s: f64,
    /// Max tolerated on-demand/full-ghost byte ratio before
    /// `alert.comm_regression`; 0 disables the rule.
    pub comm_ratio_max: f64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self {
            stale_factor: 2.0,
            stale_floor_ns: 1_000,
            health_rules: vec![
                ("md.health.energy_drift_warn".to_string(), 0.0),
                ("md.health.momentum_warn".to_string(), 0.0),
                ("kmc.health.conservation_warn".to_string(), 0.0),
            ],
            imbalance_max_ratio: 4.0,
            imbalance_min_s: 0.05,
            comm_ratio_max: 0.5,
        }
    }
}

// ---------------------------------------------------------------------
// LiveAggregator
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, Default)]
struct SpanAcc {
    count: u64,
    total_ns: u64,
}

/// One currently open span, as seen from the stream.
#[derive(Debug, Clone)]
pub struct OpenSpan {
    /// Full `a/b/c` span path.
    pub path: String,
    /// Emitting rank.
    pub rank: Option<u32>,
    /// Stream time the span opened.
    pub opened_t_ns: u64,
}

/// Rolling tail of one `(name, rank)` series track.
#[derive(Debug, Clone, Default)]
pub struct SeriesTail {
    /// Retained points (all of them in retaining mode, the last
    /// [`SERIES_TAIL_CAP`] in live mode).
    pub points: VecDeque<crate::report::SeriesPoint>,
    /// Points ever seen (≥ `points.len()`).
    pub n: u64,
    /// Domain time of the newest point.
    pub last_t: u64,
}

/// Latest heartbeat state of one `(rank, source)` pair.
#[derive(Debug, Clone, Default)]
pub struct HeartbeatState {
    /// Progress index carried by the newest beat.
    pub progress: u64,
    /// Progress target (0 when open-ended).
    pub total: u64,
    /// Beats seen.
    pub beats: u64,
    /// Stream time of the newest beat.
    pub last_t_ns: u64,
    /// Gap between the two newest beats (0 until the second beat).
    pub interval_ns: u64,
}

/// Folds a record stream into a rolling run view without waiting for
/// run end. See the module docs for the design;
/// [`LiveAggregator::retaining`] is the lossless mode the post-hoc
/// `report_from_records` path uses, [`LiveAggregator::live`] bounds
/// memory for long-running watches.
#[derive(Debug)]
pub struct LiveAggregator {
    cfg: WatchdogConfig,
    retain_all: bool,
    records: u64,
    parse_errors: u64,
    latest_t_ns: u64,
    last_fold_wall: Option<Instant>,
    span_acc: BTreeMap<(Option<u32>, String), SpanAcc>,
    open: BTreeMap<u32, Vec<OpenSpan>>,
    named: BTreeMap<String, f64>,
    series: BTreeMap<(String, Option<u32>), SeriesTail>,
    md_count: u64,
    md_retained: Vec<MdStepSample>,
    kmc_count: u64,
    kmc_retained: Vec<KmcCycleSample>,
    heartbeats: BTreeMap<(Option<u32>, String), HeartbeatState>,
    heartbeat_count: u64,
    alerts: Vec<AlertRecord>,
    active: BTreeSet<(String, String)>,
}

fn rank_subject(rank: Option<u32>) -> String {
    match rank {
        Some(r) => format!("rank {r}"),
        None => "driver".to_string(),
    }
}

impl LiveAggregator {
    fn new(cfg: WatchdogConfig, retain_all: bool) -> Self {
        Self {
            cfg,
            retain_all,
            records: 0,
            parse_errors: 0,
            latest_t_ns: 0,
            last_fold_wall: None,
            span_acc: BTreeMap::new(),
            open: BTreeMap::new(),
            named: BTreeMap::new(),
            series: BTreeMap::new(),
            md_count: 0,
            md_retained: Vec::new(),
            kmc_count: 0,
            kmc_retained: Vec::new(),
            heartbeats: BTreeMap::new(),
            heartbeat_count: 0,
            alerts: Vec::new(),
            active: BTreeSet::new(),
        }
    }

    /// Bounded mode: series tails capped at [`SERIES_TAIL_CAP`], only
    /// the newest MD/KMC sample retained. Memory stays O(span paths +
    /// tracks) no matter how long the run is.
    pub fn live(cfg: WatchdogConfig) -> Self {
        Self::new(cfg, false)
    }

    /// Lossless mode: everything is retained, and
    /// [`LiveAggregator::report`] reproduces exactly what the post-hoc
    /// JSONL loader builds.
    pub fn retaining(cfg: WatchdogConfig) -> Self {
        Self::new(cfg, true)
    }

    /// Folds one record into the rolling view.
    pub fn fold(&mut self, r: &Record) {
        self.records += 1;
        if r.t_ns >= self.latest_t_ns {
            self.latest_t_ns = r.t_ns;
        }
        self.last_fold_wall = Some(Instant::now());
        match &r.event {
            Event::SpanOpen { path } => {
                self.open
                    .entry(r.tid.unwrap_or(0))
                    .or_default()
                    .push(OpenSpan {
                        path: path.clone(),
                        rank: r.rank,
                        opened_t_ns: r.t_ns,
                    });
            }
            Event::SpanClose { path, dur_ns } => {
                if let Some(stack) = self.open.get_mut(&r.tid.unwrap_or(0)) {
                    if let Some(i) = stack.iter().rposition(|o| &o.path == path) {
                        stack.remove(i);
                    }
                }
                let e = self.span_acc.entry((r.rank, path.clone())).or_default();
                e.count += 1;
                e.total_ns += dur_ns;
            }
            Event::Md(s) => {
                self.md_count += 1;
                if self.retain_all {
                    self.md_retained.push(*s);
                } else {
                    self.md_retained.clear();
                    self.md_retained.push(*s);
                }
            }
            Event::Kmc(s) => {
                self.kmc_count += 1;
                if self.retain_all {
                    self.kmc_retained.push(*s);
                } else {
                    self.kmc_retained.clear();
                    self.kmc_retained.push(*s);
                }
            }
            Event::Counter { name, value } => {
                *self.named.entry(name.clone()).or_insert(0.0) += value;
            }
            Event::Series(s) => {
                let tail = self.series.entry((s.name.clone(), r.rank)).or_default();
                // A malformed stream must not wedge the watcher, so
                // (unlike the in-process registry, which panics) a
                // decreasing domain time is dropped, not fatal.
                if tail.n > 0 && s.t < tail.last_t {
                    return;
                }
                tail.n += 1;
                tail.last_t = s.t;
                tail.points.push_back(crate::report::SeriesPoint {
                    t: s.t,
                    value: s.value,
                });
                if !self.retain_all && tail.points.len() > SERIES_TAIL_CAP {
                    tail.points.pop_front();
                }
            }
            Event::Comm(c) => {
                *self
                    .named
                    .entry(COMM_COUNTERS[0].to_string())
                    .or_insert(0.0) += 1.0;
                *self
                    .named
                    .entry(COMM_COUNTERS[1].to_string())
                    .or_insert(0.0) += c.bytes as f64;
                *self
                    .named
                    .entry(COMM_COUNTERS[2].to_string())
                    .or_insert(0.0) += c.dur_ns as f64;
            }
            Event::Heartbeat(h) => self.fold_heartbeat(r.rank, h, r.t_ns),
        }
    }

    fn fold_heartbeat(&mut self, rank: Option<u32>, h: &HeartbeatSample, t_ns: u64) {
        self.heartbeat_count += 1;
        let st = self.heartbeats.entry((rank, h.source.clone())).or_default();
        if st.beats > 0 && t_ns >= st.last_t_ns {
            st.interval_ns = t_ns - st.last_t_ns;
        }
        st.beats += 1;
        st.last_t_ns = t_ns;
        st.progress = h.progress;
        st.total = h.total;
        // A beating rank is, by definition, not stale any more.
        self.active
            .remove(&(ALERT_COUNTERS[0].to_string(), rank_subject(rank)));
    }

    /// Applies the parse-error count of the feeding [`TailReader`]
    /// (the aggregator itself only ever sees parsed records).
    pub fn note_parse_errors(&mut self, n: u64) {
        self.parse_errors = n;
    }

    // -- accessors ----------------------------------------------------

    /// Records folded so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Parse errors reported by the feeding reader.
    pub fn parse_errors(&self) -> u64 {
        self.parse_errors
    }

    /// Heartbeats folded so far.
    pub fn heartbeat_count(&self) -> u64 {
        self.heartbeat_count
    }

    /// Stream time (ns) of the newest folded record.
    pub fn latest_t_ns(&self) -> u64 {
        self.latest_t_ns
    }

    /// Best estimate of "now" on the stream clock: the newest record's
    /// time plus the wall time elapsed since it was folded. Before any
    /// fold, 0.
    pub fn now_ns(&self) -> u64 {
        self.latest_t_ns
            + self
                .last_fold_wall
                .map(|w| w.elapsed().as_nanos() as u64)
                .unwrap_or(0)
    }

    /// Currently open spans, in (tid, open order).
    pub fn open_spans(&self) -> Vec<&OpenSpan> {
        self.open.values().flatten().collect()
    }

    /// Named counters accumulated from the stream.
    pub fn named(&self) -> &BTreeMap<String, f64> {
        &self.named
    }

    /// Series tails keyed by `(name, rank)`.
    pub fn series_tails(&self) -> &BTreeMap<(String, Option<u32>), SeriesTail> {
        &self.series
    }

    /// Heartbeat state keyed by `(rank, source)`.
    pub fn heartbeats(&self) -> &BTreeMap<(Option<u32>, String), HeartbeatState> {
        &self.heartbeats
    }

    /// Every alert so far, in raise/arrival order.
    pub fn alerts(&self) -> &[AlertRecord] {
        &self.alerts
    }

    /// Active (unresolved) `(rule, subject)` pairs.
    pub fn active_alerts(&self) -> &BTreeSet<(String, String)> {
        &self.active
    }

    /// True while no `Crit` alert is active.
    pub fn healthy(&self) -> bool {
        !self.alerts.iter().any(|a| {
            a.severity == AlertSeverity::Crit
                && self.active.contains(&(a.rule.clone(), a.subject.clone()))
        })
    }

    /// Whether the staleness rule currently holds `rank` stale.
    pub fn is_stale(&self, rank: Option<u32>) -> bool {
        self.active
            .contains(&(ALERT_COUNTERS[0].to_string(), rank_subject(rank)))
    }

    /// Per-path span totals summed over ranks, sorted by path.
    pub fn span_totals(&self) -> Vec<SpanReport> {
        let mut merged: BTreeMap<&str, SpanAcc> = BTreeMap::new();
        for ((_, path), acc) in &self.span_acc {
            let e = merged.entry(path.as_str()).or_default();
            e.count += acc.count;
            e.total_ns += acc.total_ns;
        }
        merged
            .into_iter()
            .map(|(path, acc)| SpanReport {
                path: path.to_string(),
                count: acc.count,
                total_s: acc.total_ns as f64 * 1e-9,
                self_s: acc.total_ns as f64 * 1e-9,
            })
            .collect()
    }

    /// Builds the same [`RunReport`] the post-hoc tools build from the
    /// stream: span totals re-accumulated per (rank, path), samples
    /// and counters from their events. Comm stats are not in the
    /// stream, so `ranks[*].comm` stays empty. Without open/close
    /// pairing, self time equals total time.
    ///
    /// In bounded mode the report carries only the retained tails
    /// (newest MD/KMC sample, capped series) — counts are preserved by
    /// the aggregator's accessors, not the report.
    pub fn report(&self) -> RunReport {
        let registry = CounterRegistry::default();
        for (name, v) in &self.named {
            registry.add_named(name, *v);
        }
        for s in &self.md_retained {
            registry.push_md(*s);
        }
        for s in &self.kmc_retained {
            registry.push_kmc(*s);
        }
        for ((name, rank), tail) in &self.series {
            for p in &tail.points {
                registry.push_series(*rank, name, p.t, p.value);
            }
        }
        // BTreeMap iteration order makes both views deterministic.
        let rank_spans: Vec<(Option<u32>, SpanReport)> = self
            .span_acc
            .iter()
            .map(|((rank, path), acc)| {
                (
                    *rank,
                    SpanReport {
                        path: path.clone(),
                        count: acc.count,
                        total_s: acc.total_ns as f64 * 1e-9,
                        self_s: acc.total_ns as f64 * 1e-9,
                    },
                )
            })
            .collect();
        crate::report::build_run_report(self.span_totals(), rank_spans, &registry)
    }

    // -- watchdog -----------------------------------------------------

    /// Evaluates the alert rules at stream time `now_ns`. Newly raised
    /// alerts are appended to the alert log, marked active, and
    /// returned. A rule
    /// already active on the same subject is not raised again until
    /// the condition clears (heartbeat staleness clears on the next
    /// beat; the others stay latched for the run).
    pub fn evaluate(&mut self, now_ns: u64) -> Vec<AlertRecord> {
        let mut raised = Vec::new();

        // Per-rank heartbeat staleness (relative: only meaningful
        // while at least one other rank is demonstrably alive).
        let ranks: Vec<(Option<u32>, u64, u64)> = {
            // Per rank: newest beat over its sources + that source's
            // interval estimate.
            let mut per_rank: BTreeMap<Option<u32>, (u64, u64)> = BTreeMap::new();
            for ((rank, _), st) in &self.heartbeats {
                if st.interval_ns == 0 {
                    continue;
                }
                let e = per_rank.entry(*rank).or_insert((0, 0));
                if st.last_t_ns >= e.0 {
                    *e = (st.last_t_ns, st.interval_ns);
                }
            }
            per_rank
                .into_iter()
                .map(|(r, (last, int))| (r, last, int))
                .collect()
        };
        if ranks.len() >= 2 {
            let (stale_factor, stale_floor_ns) = (self.cfg.stale_factor, self.cfg.stale_floor_ns);
            let threshold =
                |interval_ns: u64| stale_factor * interval_ns.max(stale_floor_ns) as f64;
            let age = |last: u64| now_ns.saturating_sub(last) as f64;
            for &(rank, last, interval) in &ranks {
                let thr = threshold(interval);
                if age(last) < thr {
                    continue;
                }
                let other_fresh = ranks
                    .iter()
                    .any(|&(r, l, i)| r != rank && age(l) < threshold(i));
                if !other_fresh {
                    continue;
                }
                self.raise(
                    &mut raised,
                    AlertRecord {
                        rule: ALERT_COUNTERS[0].to_string(),
                        severity: AlertSeverity::Crit,
                        rank,
                        subject: rank_subject(rank),
                        message: format!(
                            "no heartbeat for {:.3} s (threshold {:.3} s)",
                            age(last) * 1e-9,
                            thr * 1e-9,
                        ),
                        value: age(last) * 1e-9,
                        threshold: thr * 1e-9,
                        t_ns: now_ns,
                    },
                );
            }
        }

        // Health-counter thresholds.
        for (name, max) in &self.cfg.health_rules.clone() {
            let Some(&v) = self.named.get(name) else {
                continue;
            };
            if v > *max {
                self.raise(
                    &mut raised,
                    AlertRecord {
                        rule: ALERT_COUNTERS[1].to_string(),
                        severity: AlertSeverity::Warn,
                        rank: None,
                        subject: name.clone(),
                        message: format!("{name} = {v} exceeds {max}"),
                        value: v,
                        threshold: *max,
                        t_ns: now_ns,
                    },
                );
            }
        }

        // Per-phase imbalance over tagged ranks.
        if self.cfg.imbalance_max_ratio > 0.0 {
            let mut rank_ids: Vec<u32> = self.span_acc.keys().filter_map(|(r, _)| *r).collect();
            rank_ids.sort_unstable();
            rank_ids.dedup();
            if rank_ids.len() >= 2 {
                let mut per_path: BTreeMap<&str, (u64, u64)> = BTreeMap::new(); // (max, sum)
                for ((rank, path), acc) in &self.span_acc {
                    if rank.is_none() {
                        continue;
                    }
                    let e = per_path.entry(path.as_str()).or_insert((0, 0));
                    e.0 = e.0.max(acc.total_ns);
                    e.1 += acc.total_ns;
                }
                let to_raise: Vec<(String, f64, f64)> = per_path
                    .into_iter()
                    .filter_map(|(path, (max_ns, sum_ns))| {
                        let max_s = max_ns as f64 * 1e-9;
                        let avg_s = sum_ns as f64 * 1e-9 / rank_ids.len() as f64;
                        let ratio = if avg_s > 0.0 { max_s / avg_s } else { 1.0 };
                        (max_s >= self.cfg.imbalance_min_s && ratio > self.cfg.imbalance_max_ratio)
                            .then(|| (path.to_string(), ratio, max_s))
                    })
                    .collect();
                for (path, ratio, max_s) in to_raise {
                    self.raise(
                        &mut raised,
                        AlertRecord {
                            rule: ALERT_COUNTERS[2].to_string(),
                            severity: AlertSeverity::Warn,
                            rank: None,
                            subject: path.clone(),
                            message: format!(
                                "phase `{path}` max/avg = {ratio:.2} over {} ranks \
                                 (max {max_s:.3} s)",
                                rank_ids.len(),
                            ),
                            value: ratio,
                            threshold: self.cfg.imbalance_max_ratio,
                            t_ns: now_ns,
                        },
                    );
                }
            }
        }

        // Comm-savings regression: on-demand traffic creeping back
        // toward the full-ghost baseline.
        if self.cfg.comm_ratio_max > 0.0 {
            let bytes = self.named.get("kmc.ghost_bytes").copied().unwrap_or(0.0);
            let baseline = self
                .named
                .get("kmc.exchange.baseline_bytes")
                .copied()
                .unwrap_or(0.0);
            if baseline > 0.0 && bytes / baseline > self.cfg.comm_ratio_max {
                let ratio = bytes / baseline;
                self.raise(
                    &mut raised,
                    AlertRecord {
                        rule: ALERT_COUNTERS[3].to_string(),
                        severity: AlertSeverity::Warn,
                        rank: None,
                        subject: "kmc.exchange".to_string(),
                        message: format!(
                            "ghost traffic at {:.1}% of the full-ghost baseline",
                            100.0 * ratio,
                        ),
                        value: ratio,
                        threshold: self.cfg.comm_ratio_max,
                        t_ns: now_ns,
                    },
                );
            }
        }

        // Stream integrity: complete-but-unparseable lines reported by
        // the feeding reader. Latched once per stream (the count only
        // grows); a corrupt producer should be visible, not silent.
        if self.parse_errors > 0 {
            self.raise(
                &mut raised,
                AlertRecord {
                    rule: ALERT_COUNTERS[4].to_string(),
                    severity: AlertSeverity::Warn,
                    rank: None,
                    subject: "stream".to_string(),
                    message: format!(
                        "{} unparseable JSONL line(s) skipped by the tail reader",
                        self.parse_errors,
                    ),
                    value: self.parse_errors as f64,
                    threshold: 0.0,
                    t_ns: now_ns,
                },
            );
        }

        raised
    }

    fn raise(&mut self, raised: &mut Vec<AlertRecord>, a: AlertRecord) {
        let key = (a.rule.clone(), a.subject.clone());
        if self.active.contains(&key) {
            return;
        }
        self.active.insert(key);
        self.alerts.push(a.clone());
        raised.push(a);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SeriesSample;

    fn rec(seq: u64, t_ns: u64, rank: Option<u32>, event: Event) -> Record {
        Record {
            seq,
            t_ns,
            rank,
            tid: Some(0),
            event,
        }
    }

    fn beat(_rank: u32, progress: u64) -> Event {
        Event::Heartbeat(HeartbeatSample {
            source: "md.heartbeat".into(),
            progress,
            total: 0,
        })
    }

    #[test]
    fn tail_reader_follows_growth_and_tolerates_partial_lines() {
        use std::io::Write as _;
        let dir = std::env::temp_dir().join("mmds_tail_reader_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("grow.jsonl");
        let mk = |seq| rec(seq, seq * 10, None, Event::SpanOpen { path: "x".into() });

        let mut f = std::fs::File::create(&path).unwrap();
        let mut tail = TailReader::new(&path);
        assert!(tail.poll().unwrap().is_empty());

        // One full line plus the first half of another.
        let l0 = mk(0).to_jsonl();
        let l1 = mk(1).to_jsonl();
        write!(f, "{l0}\n{}", &l1[..l1.len() / 2]).unwrap();
        f.flush().unwrap();
        let got = tail.poll().unwrap();
        assert_eq!(got.len(), 1, "partial trailing line must be withheld");
        assert_eq!(got[0].seq, 0);
        assert!(tail.partial_len() > 0);

        // Completing the line releases it; a garbage line is counted
        // and skipped, not fatal.
        write!(
            f,
            "{}\ngarbage not json\n{}\n",
            &l1[l1.len() / 2..],
            mk(2).to_jsonl()
        )
        .unwrap();
        f.flush().unwrap();
        let got = tail.poll().unwrap();
        assert_eq!(got.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(tail.parse_errors(), 1);
        assert_eq!(tail.partial_len(), 0);

        // finish() recovers a complete-but-unterminated final record.
        write!(f, "{}", mk(3).to_jsonl()).unwrap();
        f.flush().unwrap();
        assert!(tail.poll().unwrap().is_empty());
        assert_eq!(tail.finish().unwrap().seq, 3);
        assert_eq!(tail.finish(), None);

        // Truncation restarts the reader.
        drop(f);
        std::fs::write(&path, format!("{}\n", mk(9).to_jsonl())).unwrap();
        let got = tail.poll().unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].seq, 9);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stalled_rank_raises_staleness_within_two_intervals() {
        let mut agg = LiveAggregator::live(WatchdogConfig::default());
        // Two ranks beating every 100 µs of stream time.
        const I: u64 = 100_000;
        let mut seq = 0;
        for k in 1..=3u64 {
            for rank in [0u32, 1] {
                agg.fold(&rec(seq, k * I, Some(rank), beat(rank, k)));
                seq += 1;
            }
            assert!(agg.evaluate(k * I).is_empty(), "both ranks fresh at k={k}");
        }
        // Rank 1 stalls; rank 0 keeps beating.
        for k in 4..=5u64 {
            agg.fold(&rec(seq, k * I, Some(0), beat(0, k)));
            seq += 1;
        }
        // At exactly two intervals past rank 1's last beat, the rule
        // fires (the acceptance bound: "within two heartbeat
        // intervals").
        let raised = agg.evaluate(5 * I);
        assert_eq!(raised.len(), 1, "{raised:?}");
        assert_eq!(raised[0].rule, ALERT_COUNTERS[0]);
        assert_eq!(raised[0].rank, Some(1));
        assert_eq!(raised[0].severity, AlertSeverity::Crit);
        assert!(agg.is_stale(Some(1)));
        assert!(!agg.healthy());
        // Still stale: no duplicate while the condition persists.
        assert!(agg.evaluate(6 * I).is_empty());
        // The rank coming back clears the condition.
        agg.fold(&rec(seq, 6 * I, Some(1), beat(1, 4)));
        assert!(!agg.is_stale(Some(1)));
        assert!(agg.healthy());
    }

    #[test]
    fn quiet_stream_is_finished_not_stale() {
        // Both ranks stop (end of run): nobody is "fresh", so nothing
        // is stale — a globally idle stream must not alert.
        let mut agg = LiveAggregator::live(WatchdogConfig::default());
        const I: u64 = 100_000;
        let mut seq = 0;
        for k in 1..=3u64 {
            for rank in [0u32, 1] {
                agg.fold(&rec(seq, k * I, Some(rank), beat(rank, k)));
                seq += 1;
            }
        }
        assert!(agg.evaluate(30 * I).is_empty());
    }

    #[test]
    fn health_and_comm_rules_latch_once() {
        let mut agg = LiveAggregator::live(WatchdogConfig::default());
        agg.fold(&rec(
            0,
            10,
            None,
            Event::Counter {
                name: "md.health.energy_drift_warn".into(),
                value: 2.0,
            },
        ));
        agg.fold(&rec(
            1,
            20,
            None,
            Event::Counter {
                name: "kmc.ghost_bytes".into(),
                value: 900.0,
            },
        ));
        agg.fold(&rec(
            2,
            30,
            None,
            Event::Counter {
                name: "kmc.exchange.baseline_bytes".into(),
                value: 1000.0,
            },
        ));
        let raised = agg.evaluate(40);
        let rules: Vec<&str> = raised.iter().map(|a| a.rule.as_str()).collect();
        assert!(rules.contains(&ALERT_COUNTERS[1]), "{rules:?}");
        assert!(rules.contains(&ALERT_COUNTERS[3]), "{rules:?}");
        // Latched: the same conditions don't re-raise.
        assert!(agg.evaluate(50).is_empty());
        // Warn-severity alerts leave /healthz green.
        assert!(agg.healthy());
    }

    #[test]
    fn fold_matches_posthoc_report_shapes() {
        let mut agg = LiveAggregator::retaining(WatchdogConfig::default());
        agg.fold(&rec(
            0,
            5,
            Some(0),
            Event::SpanOpen {
                path: "kmc.cycle".into(),
            },
        ));
        agg.fold(&rec(
            1,
            10,
            Some(0),
            Event::SpanClose {
                path: "kmc.cycle".into(),
                dur_ns: 2_000_000_000,
            },
        ));
        agg.fold(&rec(
            2,
            20,
            Some(1),
            Event::SpanClose {
                path: "kmc.cycle".into(),
                dur_ns: 1_000_000_000,
            },
        ));
        agg.fold(&rec(
            3,
            30,
            None,
            Event::Series(SeriesSample {
                name: "kmc.exchange.bytes".into(),
                t: 1,
                value: 26.0,
            }),
        ));
        // Out-of-order series sample is dropped, not fatal.
        agg.fold(&rec(
            4,
            40,
            None,
            Event::Series(SeriesSample {
                name: "kmc.exchange.bytes".into(),
                t: 0,
                value: 1.0,
            }),
        ));
        let report = agg.report();
        assert_eq!(report.ranks.len(), 2);
        assert_eq!(report.spans.len(), 1);
        assert_eq!(report.spans[0].count, 2);
        assert!((report.spans[0].total_s - 3.0).abs() < 1e-12);
        assert_eq!(report.series.len(), 1);
        assert_eq!(report.series[0].points.len(), 1);
        assert!(agg.open_spans().is_empty());
    }

    #[test]
    fn bounded_mode_caps_series_tails() {
        let mut agg = LiveAggregator::live(WatchdogConfig::default());
        for t in 0..(SERIES_TAIL_CAP as u64 + 50) {
            agg.fold(&rec(
                t,
                t,
                None,
                Event::Series(SeriesSample {
                    name: "census.vacancies".into(),
                    t,
                    value: t as f64,
                }),
            ));
        }
        let tail = &agg.series_tails()[&("census.vacancies".to_string(), None)];
        assert_eq!(tail.points.len(), SERIES_TAIL_CAP);
        assert_eq!(tail.n, SERIES_TAIL_CAP as u64 + 50);
        assert_eq!(tail.points.back().unwrap().t, SERIES_TAIL_CAP as u64 + 49);
    }

    #[test]
    fn parse_errors_raise_one_latched_warn_alert() {
        let mut agg = LiveAggregator::live(WatchdogConfig::default());
        agg.fold(&rec(0, 1_000, Some(0), beat(0, 1)));
        assert!(agg.evaluate(2_000).is_empty());
        agg.note_parse_errors(3);
        let raised = agg.evaluate(3_000);
        assert_eq!(raised.len(), 1);
        assert_eq!(raised[0].rule, ALERT_COUNTERS[4]);
        assert_eq!(raised[0].severity, AlertSeverity::Warn);
        assert_eq!(raised[0].value, 3.0);
        assert!(raised[0].message.contains("unparseable"));
        // Latched: a growing count does not re-raise.
        agg.note_parse_errors(5);
        assert!(agg.evaluate(4_000).is_empty());
    }

    #[test]
    fn comm_records_fold_into_comm_counters() {
        let mut agg = LiveAggregator::live(WatchdogConfig::default());
        for (rank, bytes, dur) in [(0u32, 640u64, 1_500u64), (1, 1_024, 2_500)] {
            agg.fold(&rec(
                rank as u64,
                1_000 + rank as u64,
                Some(rank),
                Event::Comm(crate::CommRecord {
                    op: "send".into(),
                    rank,
                    peer: Some(rank ^ 1),
                    tag: 4,
                    bytes,
                    match_src: Some(rank),
                    match_seq: 1,
                    lamport: 2,
                    vt_enter: 0.0,
                    vt_exit: 1.0e-6,
                    dur_ns: dur,
                }),
            ));
        }
        let named = agg.named();
        assert_eq!(named[COMM_COUNTERS[0]], 2.0);
        assert_eq!(named[COMM_COUNTERS[1]], 1_664.0);
        assert_eq!(named[COMM_COUNTERS[2]], 4_000.0);
    }
}
