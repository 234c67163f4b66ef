//! The run fold, the JSONL readers, and the watchdog.
//!
//! Every number a [`RunReport`] carries is computed in one place:
//! [`RunFold`] folds [`Record`]s one at a time into the run model —
//! span totals and self times (from a per-thread open-span stack),
//! named counters, science series, MD/KMC samples, per-rank comm
//! deposits, heartbeat state and the root-span window. The fold has two
//! feeders and no other implementation:
//!
//! * **in process**, [`crate::Telemetry::emit`] folds every record it
//!   builds, under the same lock that forwards it to the sink, and
//!   [`crate::Telemetry::run_report`] is the fold's report;
//! * **from a trace**, `mmds-inspect summary|timeline|watch|causal`
//!   read the JSONL through [`parse_jsonl`] or a [`TailReader`] and fold
//!   it through the same type.
//!
//! An in-process report and a re-fold of its JSONL are therefore equal
//! by construction (the JSONL encoding round-trips every `f64`).
//!
//! [`Watchdog`] evaluates the alert rules (heartbeat staleness,
//! health-counter thresholds, phase imbalance, comm-savings regression,
//! stream parse errors) against a `&RunFold`, producing structured
//! [`AlertRecord`]s deduplicated per `(rule, subject)` while the
//! condition persists. `mmds-inspect watch` is its one consumer.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read as _, Seek as _};
use std::path::PathBuf;
use std::time::Instant;

use crate::event::{
    AlertRecord, AlertSeverity, Event, HeartbeatSample, KmcCycleSample, MdStepSample, RankComm,
    Record,
};
use crate::report::{RunReport, SampleLog, SeriesPoint, SeriesTrack, SpanReport};

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

/// Named counters the fold derives from traced [`Event::Comm`] records
/// (causal comm tracing), so a report shows comm-op volume without
/// replaying the trace. Manifest contract as above.
pub const COMM_COUNTERS: [&str; 3] = ["comm.events", "comm.bytes", "comm.block_ns"];

// ---------------------------------------------------------------------
// JSONL readers
// ---------------------------------------------------------------------

/// Parses a JSONL trace: every non-blank line that is a [`Record`].
/// Returns the records and the number of lines skipped because they
/// did not parse (a torn tail of a live file, or corruption).
pub fn parse_jsonl(text: &str) -> (Vec<Record>, u64) {
    let mut records = Vec::new();
    let mut skipped = 0;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        match Record::from_jsonl(line) {
            Ok(r) => records.push(r),
            Err(_) => skipped += 1,
        }
    }
    (records, skipped)
}

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

        let Some(end) = self.partial.iter().rposition(|&b| b == b'\n') else {
            return Ok(Vec::new());
        };
        let complete: Vec<u8> = self.partial.drain(..=end).collect();
        let (records, skipped) = parse_jsonl(&String::from_utf8_lossy(&complete));
        self.parse_errors += skipped;
        Ok(records)
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
}

// ---------------------------------------------------------------------
// RunFold
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, Default)]
struct SpanAcc {
    count: u64,
    total_ns: u64,
    child_ns: u64,
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
    /// Wall time of the child spans closed so far.
    child_ns: u64,
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

/// The one in-memory run model: folds a record stream into everything
/// a [`RunReport`] carries, plus the live state (`open_spans`,
/// `heartbeats`) a watcher renders. See the module docs.
#[derive(Debug, Default)]
pub struct RunFold {
    records: u64,
    parse_errors: u64,
    series_dropped: u64,
    latest_t_ns: u64,
    last_fold_wall: Option<Instant>,
    spans: BTreeMap<(Option<u32>, String), SpanAcc>,
    open: BTreeMap<u32, Vec<OpenSpan>>,
    root_window: Option<(u64, u64)>,
    named: BTreeMap<String, f64>,
    // Keyed by (name, rank) so iteration — and hence the report — is
    // deterministic regardless of emit interleaving.
    series: BTreeMap<(String, Option<u32>), Vec<SeriesPoint>>,
    md: Vec<MdStepSample>,
    kmc: Vec<KmcCycleSample>,
    heartbeats: BTreeMap<(Option<u32>, String), HeartbeatState>,
    heartbeat_count: u64,
    rank_comm: BTreeMap<u32, RankComm>,
}

impl RunFold {
    /// Folds one record. Returns `false` only for a series point whose
    /// `t` goes backwards on its `(name, rank)` track: the point is
    /// dropped and counted ([`RunFold::series_dropped`]), and the
    /// caller decides whether that is fatal — a trace reader moves on,
    /// the in-process emitter panics (an instrumentation bug).
    pub fn fold(&mut self, r: &Record) -> bool {
        self.records += 1;
        self.latest_t_ns = self.latest_t_ns.max(r.t_ns);
        self.last_fold_wall = Some(Instant::now());
        let tid = r.tid.unwrap_or(0);
        match &r.event {
            Event::SpanOpen { path } => self.open.entry(tid).or_default().push(OpenSpan {
                path: path.clone(),
                rank: r.rank,
                opened_t_ns: r.t_ns,
                child_ns: 0,
            }),
            Event::SpanClose { path, dur_ns } => self.close_span(tid, r, path, *dur_ns),
            Event::Md(s) => self.md.push(*s),
            Event::Kmc(s) => self.kmc.push(*s),
            Event::Counter { name, value } => self.bump(name, *value),
            Event::Series(s) => {
                let points = self.series.entry((s.name.clone(), r.rank)).or_default();
                if points.last().is_some_and(|p| s.t < p.t) {
                    self.series_dropped += 1;
                    return false;
                }
                points.push(SeriesPoint {
                    t: s.t,
                    value: s.value,
                });
            }
            Event::Comm(c) => {
                self.bump(COMM_COUNTERS[0], 1.0);
                self.bump(COMM_COUNTERS[1], c.bytes as f64);
                self.bump(COMM_COUNTERS[2], c.dur_ns as f64);
            }
            Event::Heartbeat(h) => self.fold_heartbeat(r.rank, h, r.t_ns),
            Event::RankComm(c) => self.deposit_comm(c),
        }
        true
    }

    /// Keeps one rank's comm deposit; a later deposit of the same rank
    /// id (another world of the same process) is summed into it.
    fn deposit_comm(&mut self, c: &RankComm) {
        let Some(acc) = self.rank_comm.get_mut(&c.rank) else {
            self.rank_comm.insert(c.rank, c.clone());
            return;
        };
        acc.stats = acc.stats.merge(&c.stats);
        match (&mut acc.matrix, &c.matrix) {
            (Some(m), Some(add)) => m.merge(add),
            (m @ None, Some(add)) => *m = Some(add.clone()),
            (_, None) => {}
        }
    }

    /// Accumulates one close: its wall time into the `(rank, path)`
    /// totals, the child time its open frame collected into its self
    /// time, and its own wall time into the enclosing frame's child
    /// time. A close with no open frame (a trace cut mid-span) counts
    /// with no child time.
    fn close_span(&mut self, tid: u32, r: &Record, path: &str, dur_ns: u64) {
        let mut child_ns = 0;
        if let Some(stack) = self.open.get_mut(&tid) {
            if let Some(i) = stack.iter().rposition(|o| o.path == path) {
                child_ns = stack.remove(i).child_ns;
                if let Some(parent) = i.checked_sub(1).map(|p| &mut stack[p]) {
                    parent.child_ns += dur_ns;
                }
            }
        }
        let acc = self.spans.entry((r.rank, path.to_string())).or_default();
        acc.count += 1;
        acc.total_ns += dur_ns;
        acc.child_ns += child_ns;
        if !path.contains('/') && self.root_window.is_none_or(|(o, c)| dur_ns > c - o) {
            self.root_window = Some((r.t_ns.saturating_sub(dur_ns), r.t_ns));
        }
    }

    fn bump(&mut self, name: &str, value: f64) {
        match self.named.get_mut(name) {
            Some(v) => *v += value,
            None => {
                self.named.insert(name.to_string(), value);
            }
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
    }

    /// Applies the parse-error count of the feeding reader (the fold
    /// itself only ever sees parsed records).
    pub fn note_parse_errors(&mut self, n: u64) {
        self.parse_errors = n;
    }

    /// Forgets every statistic, keeping only the open-span stacks: a
    /// span open across the reset still closes into the fresh totals
    /// with the child time it had collected.
    pub fn reset(&mut self) {
        *self = RunFold {
            open: std::mem::take(&mut self.open),
            ..RunFold::default()
        };
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

    /// Out-of-order series points dropped so far.
    pub fn series_dropped(&self) -> u64 {
        self.series_dropped
    }

    /// Heartbeats folded so far.
    pub fn heartbeat_count(&self) -> u64 {
        self.heartbeat_count
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

    /// Path of the innermost span open on thread `tid`, if any.
    pub fn innermost_open(&self, tid: u32) -> Option<&str> {
        self.open.get(&tid)?.last().map(|o| o.path.as_str())
    }

    /// The widest root span `[open, close]` on the stream clock.
    pub fn root_window(&self) -> Option<(u64, u64)> {
        self.root_window
    }

    /// Named counters accumulated from the stream.
    pub fn named(&self) -> &BTreeMap<String, f64> {
        &self.named
    }

    /// Series points keyed by `(name, rank)`, in fold order.
    pub fn series(&self) -> &BTreeMap<(String, Option<u32>), Vec<SeriesPoint>> {
        &self.series
    }

    /// Heartbeat state keyed by `(rank, source)`.
    pub fn heartbeats(&self) -> &BTreeMap<(Option<u32>, String), HeartbeatState> {
        &self.heartbeats
    }

    /// Per-path span statistics summed over ranks, sorted by path.
    pub fn span_totals(&self) -> Vec<SpanReport> {
        let mut merged: BTreeMap<&str, SpanAcc> = BTreeMap::new();
        for ((_, path), acc) in &self.spans {
            let e = merged.entry(path.as_str()).or_default();
            e.count += acc.count;
            e.total_ns += acc.total_ns;
            e.child_ns += acc.child_ns;
        }
        merged
            .into_iter()
            .map(|(path, acc)| span_report(path, &acc))
            .collect()
    }

    /// The run report of everything folded so far.
    pub fn report(&self) -> RunReport {
        let rank_spans: Vec<(Option<u32>, SpanReport)> = self
            .spans
            .iter()
            .map(|((rank, path), acc)| (*rank, span_report(path, acc)))
            .collect();
        RunReport {
            spans: self.span_totals(),
            counters: self.named.clone(),
            samples: SampleLog {
                md: self.md.clone(),
                kmc: self.kmc.clone(),
            },
            series: self
                .series
                .iter()
                .map(|((name, rank), points)| SeriesTrack {
                    name: name.clone(),
                    rank: *rank,
                    points: points.clone(),
                })
                .collect(),
            ..Default::default()
        }
        .with_ranks(&rank_spans, &self.rank_comm)
    }
}

fn span_report(path: &str, acc: &SpanAcc) -> SpanReport {
    SpanReport {
        path: path.to_string(),
        count: acc.count,
        total_s: acc.total_ns as f64 * 1e-9,
        self_s: acc.total_ns.saturating_sub(acc.child_ns) as f64 * 1e-9,
    }
}

// ---------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------

/// A rank is stale when its heartbeat age reaches this multiple of its
/// observed inter-beat interval (and some other rank is still fresh —
/// a globally quiet stream is a finished run, not a hang).
const STALE_FACTOR: f64 = 2.0;
/// Floor on the interval estimate (ns), so a burst of back-to-back
/// beats can't produce a zero threshold.
const STALE_FLOOR_NS: u64 = 1_000;
/// `(counter, max allowed value)`: exceeding the bound raises
/// `alert.health_threshold`.
const HEALTH_RULES: [(&str, f64); 3] = [
    ("md.health.energy_drift_warn", 0.0),
    ("md.health.momentum_warn", 0.0),
    ("kmc.health.conservation_warn", 0.0),
];
/// Max tolerated per-phase `max/avg` ratio over tagged ranks.
const IMBALANCE_MAX_RATIO: f64 = 4.0;
/// Phases whose slowest rank spent less than this (s) are ignored —
/// sub-millisecond phases imbalance wildly without meaning it.
const IMBALANCE_MIN_S: f64 = 0.05;
/// Max tolerated on-demand/full-ghost byte ratio before
/// `alert.comm_regression`.
const COMM_RATIO_MAX: f64 = 0.5;

fn rank_subject(rank: Option<u32>) -> String {
    match rank {
        Some(r) => format!("rank {r}"),
        None => "driver".to_string(),
    }
}

/// The alert log over a [`RunFold`]: which rules fired, and which
/// `(rule, subject)` conditions are still active.
#[derive(Debug, Default)]
pub struct Watchdog {
    alerts: Vec<AlertRecord>,
    active: BTreeSet<(String, String)>,
}

impl Watchdog {
    /// Every alert so far, in raise order.
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

    /// Evaluates the alert rules over `fold` at stream time `now_ns`.
    /// Newly raised alerts are appended to the log, marked active, and
    /// returned. A rule already active on the same subject is not
    /// raised again until the condition clears (heartbeat staleness
    /// clears once the rank is fresh again; the others stay latched for
    /// the run).
    pub fn evaluate(&mut self, fold: &RunFold, now_ns: u64) -> Vec<AlertRecord> {
        let mut raised = Vec::new();

        // Per-rank heartbeat staleness (relative: only meaningful
        // while at least one other rank is demonstrably alive). Per
        // rank: newest beat over its sources + that source's interval.
        let mut per_rank: BTreeMap<Option<u32>, (u64, u64)> = BTreeMap::new();
        for ((rank, _), st) in fold.heartbeats() {
            if st.interval_ns == 0 {
                continue;
            }
            let e = per_rank.entry(*rank).or_insert((0, 0));
            if st.last_t_ns >= e.0 {
                *e = (st.last_t_ns, st.interval_ns);
            }
        }
        let threshold = |interval_ns: u64| STALE_FACTOR * interval_ns.max(STALE_FLOOR_NS) as f64;
        let age = |last: u64| now_ns.saturating_sub(last) as f64;
        let fresh = |(last, interval): (u64, u64)| age(last) < threshold(interval);
        for (&rank, &beat) in &per_rank {
            if fresh(beat) {
                self.active
                    .remove(&(ALERT_COUNTERS[0].to_string(), rank_subject(rank)));
                continue;
            }
            if !per_rank.iter().any(|(&r, &b)| r != rank && fresh(b)) {
                continue;
            }
            let (age_s, thr_s) = (age(beat.0) * 1e-9, threshold(beat.1) * 1e-9);
            self.raise(
                &mut raised,
                AlertRecord {
                    rule: ALERT_COUNTERS[0].to_string(),
                    severity: AlertSeverity::Crit,
                    rank,
                    subject: rank_subject(rank),
                    message: format!("no heartbeat for {age_s:.3} s (threshold {thr_s:.3} s)"),
                    value: age_s,
                    threshold: thr_s,
                    t_ns: now_ns,
                },
            );
        }

        // Health-counter thresholds.
        for (name, max) in HEALTH_RULES {
            let Some(&v) = fold.named().get(name) else {
                continue;
            };
            if v > max {
                self.raise(
                    &mut raised,
                    AlertRecord {
                        rule: ALERT_COUNTERS[1].to_string(),
                        severity: AlertSeverity::Warn,
                        rank: None,
                        subject: name.to_string(),
                        message: format!("{name} = {v} exceeds {max}"),
                        value: v,
                        threshold: max,
                        t_ns: now_ns,
                    },
                );
            }
        }

        // Per-phase imbalance over tagged ranks.
        let mut rank_ids: Vec<u32> = fold.spans.keys().filter_map(|(r, _)| *r).collect();
        rank_ids.sort_unstable();
        rank_ids.dedup();
        if rank_ids.len() >= 2 {
            let mut per_path: BTreeMap<&str, (u64, u64)> = BTreeMap::new(); // (max, sum)
            for ((rank, path), acc) in &fold.spans {
                if rank.is_some() {
                    let e = per_path.entry(path.as_str()).or_insert((0, 0));
                    e.0 = e.0.max(acc.total_ns);
                    e.1 += acc.total_ns;
                }
            }
            for (path, (max_ns, sum_ns)) in per_path {
                let max_s = max_ns as f64 * 1e-9;
                let avg_s = sum_ns as f64 * 1e-9 / rank_ids.len() as f64;
                let ratio = if avg_s > 0.0 { max_s / avg_s } else { 1.0 };
                if max_s < IMBALANCE_MIN_S || ratio <= IMBALANCE_MAX_RATIO {
                    continue;
                }
                self.raise(
                    &mut raised,
                    AlertRecord {
                        rule: ALERT_COUNTERS[2].to_string(),
                        severity: AlertSeverity::Warn,
                        rank: None,
                        subject: path.to_string(),
                        message: format!(
                            "phase `{path}` max/avg = {ratio:.2} over {} ranks (max {max_s:.3} s)",
                            rank_ids.len(),
                        ),
                        value: ratio,
                        threshold: IMBALANCE_MAX_RATIO,
                        t_ns: now_ns,
                    },
                );
            }
        }

        // Comm-savings regression: on-demand traffic creeping back
        // toward the full-ghost baseline.
        let named = |n: &str| fold.named().get(n).copied().unwrap_or(0.0);
        let (bytes, baseline) = (
            named("kmc.ghost_bytes"),
            named("kmc.exchange.baseline_bytes"),
        );
        if baseline > 0.0 && bytes / baseline > COMM_RATIO_MAX {
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
                    threshold: COMM_RATIO_MAX,
                    t_ns: now_ns,
                },
            );
        }

        // Stream integrity: complete-but-unparseable lines reported by
        // the feeding reader. Latched once per stream (the count only
        // grows); a corrupt producer should be visible, not silent.
        if fold.parse_errors() > 0 {
            self.raise(
                &mut raised,
                AlertRecord {
                    rule: ALERT_COUNTERS[4].to_string(),
                    severity: AlertSeverity::Warn,
                    rank: None,
                    subject: "stream".to_string(),
                    message: format!(
                        "{} unparseable JSONL line(s) skipped by the tail reader",
                        fold.parse_errors(),
                    ),
                    value: fold.parse_errors() as f64,
                    threshold: 0.0,
                    t_ns: now_ns,
                },
            );
        }

        raised
    }

    fn raise(&mut self, raised: &mut Vec<AlertRecord>, a: AlertRecord) {
        if self.active.insert((a.rule.clone(), a.subject.clone())) {
            self.alerts.push(a.clone());
            raised.push(a);
        }
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

    fn series(t: u64, value: f64) -> Event {
        Event::Series(SeriesSample {
            name: "kmc.exchange.bytes".into(),
            t,
            value,
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
    fn parse_jsonl_counts_skipped_lines() {
        let good = rec(0, 1, None, Event::SpanOpen { path: "x".into() }).to_jsonl();
        let text = format!("{good}\n\n  \n{{\"seq\": 1\nnot json\n{good}\n{{\"seq\"");
        let (records, skipped) = parse_jsonl(&text);
        assert_eq!(records.len(), 2);
        assert_eq!(skipped, 3, "blank lines are not skipped records");
    }

    #[test]
    fn stalled_rank_raises_staleness_within_two_intervals() {
        let mut fold = RunFold::default();
        let mut dog = Watchdog::default();
        // Two ranks beating every 100 µs of stream time.
        const I: u64 = 100_000;
        let mut seq = 0;
        for k in 1..=3u64 {
            for rank in [0u32, 1] {
                fold.fold(&rec(seq, k * I, Some(rank), beat(rank, k)));
                seq += 1;
            }
            assert!(
                dog.evaluate(&fold, k * I).is_empty(),
                "both ranks fresh at k={k}"
            );
        }
        // Rank 1 stalls; rank 0 keeps beating.
        for k in 4..=5u64 {
            fold.fold(&rec(seq, k * I, Some(0), beat(0, k)));
            seq += 1;
        }
        // At exactly two intervals past rank 1's last beat, the rule
        // fires (the acceptance bound: "within two heartbeat
        // intervals").
        let raised = dog.evaluate(&fold, 5 * I);
        assert_eq!(raised.len(), 1, "{raised:?}");
        assert_eq!(raised[0].rule, ALERT_COUNTERS[0]);
        assert_eq!(raised[0].rank, Some(1));
        assert_eq!(raised[0].severity, AlertSeverity::Crit);
        assert!(dog.is_stale(Some(1)));
        assert!(!dog.healthy());
        // Still stale: no duplicate while the condition persists.
        assert!(dog.evaluate(&fold, 6 * I).is_empty());
        // The rank coming back clears the condition.
        fold.fold(&rec(seq, 6 * I, Some(1), beat(1, 4)));
        dog.evaluate(&fold, 6 * I);
        assert!(!dog.is_stale(Some(1)));
        assert!(dog.healthy());
    }

    #[test]
    fn quiet_stream_is_finished_not_stale() {
        // Both ranks stop (end of run): nobody is "fresh", so nothing
        // is stale — a globally idle stream must not alert.
        let mut fold = RunFold::default();
        const I: u64 = 100_000;
        let mut seq = 0;
        for k in 1..=3u64 {
            for rank in [0u32, 1] {
                fold.fold(&rec(seq, k * I, Some(rank), beat(rank, k)));
                seq += 1;
            }
        }
        assert!(Watchdog::default().evaluate(&fold, 30 * I).is_empty());
    }

    #[test]
    fn health_and_comm_rules_latch_once() {
        let mut fold = RunFold::default();
        let mut dog = Watchdog::default();
        for (seq, (name, value)) in [
            ("md.health.energy_drift_warn", 2.0),
            ("kmc.ghost_bytes", 900.0),
            ("kmc.exchange.baseline_bytes", 1000.0),
        ]
        .into_iter()
        .enumerate()
        {
            let event = Event::Counter {
                name: name.into(),
                value,
            };
            fold.fold(&rec(seq as u64, 10 * (seq as u64 + 1), None, event));
        }
        let raised = dog.evaluate(&fold, 40);
        let rules: Vec<&str> = raised.iter().map(|a| a.rule.as_str()).collect();
        assert!(rules.contains(&ALERT_COUNTERS[1]), "{rules:?}");
        assert!(rules.contains(&ALERT_COUNTERS[3]), "{rules:?}");
        // Latched: the same conditions don't re-raise.
        assert!(dog.evaluate(&fold, 50).is_empty());
        // Warn-severity alerts leave the run healthy.
        assert!(dog.healthy());
    }

    #[test]
    fn fold_matches_posthoc_report_shapes() {
        let mut fold = RunFold::default();
        fold.fold(&rec(
            0,
            5,
            Some(0),
            Event::SpanOpen {
                path: "kmc.cycle".into(),
            },
        ));
        fold.fold(&rec(
            1,
            10,
            Some(0),
            Event::SpanClose {
                path: "kmc.cycle".into(),
                dur_ns: 2_000_000_000,
            },
        ));
        fold.fold(&rec(
            2,
            20,
            Some(1),
            Event::SpanClose {
                path: "kmc.cycle".into(),
                dur_ns: 1_000_000_000,
            },
        ));
        assert!(fold.fold(&rec(3, 30, None, series(1, 26.0))));
        let report = fold.report();
        assert_eq!(report.ranks.len(), 2);
        assert_eq!(report.spans.len(), 1);
        assert_eq!(report.spans[0].count, 2);
        assert!((report.spans[0].total_s - 3.0).abs() < 1e-12);
        assert_eq!(report.series.len(), 1);
        assert_eq!(report.series[0].points.len(), 1);
        assert!(fold.open_spans().is_empty());
    }

    #[test]
    fn out_of_order_series_point_is_counted_and_dropped() {
        let mut fold = RunFold::default();
        assert!(fold.fold(&rec(0, 10, None, series(5, 1.0))));
        assert!(
            fold.fold(&rec(1, 20, None, series(5, 2.0))),
            "equal t is fine"
        );
        assert!(!fold.fold(&rec(2, 30, None, series(4, 3.0))));
        assert!(fold.fold(&rec(3, 40, Some(1), series(4, 3.0))), "own track");
        assert_eq!(fold.series_dropped(), 1);
        assert_eq!(fold.records(), 4);
        let report = fold.report();
        let values: Vec<f64> = report.series[0].points.iter().map(|p| p.value).collect();
        assert_eq!(values, vec![1.0, 2.0]);
    }

    #[test]
    fn fold_derives_self_time_from_the_open_stack() {
        let mut fold = RunFold::default();
        let open = |p: &str| Event::SpanOpen { path: p.into() };
        let close = |p: &str, dur_ns| Event::SpanClose {
            path: p.into(),
            dur_ns,
        };
        for (seq, event) in [
            open("run"),
            open("run/a"),
            close("run/a", 300),
            open("run/b"),
            open("run/b/c"),
            close("run/b/c", 50),
            close("run/b", 200),
            close("run", 1_000),
        ]
        .into_iter()
        .enumerate()
        {
            fold.fold(&rec(seq as u64, 2_000 + seq as u64, Some(0), event));
        }
        let self_ns: Vec<(String, u64)> = fold
            .span_totals()
            .iter()
            .map(|s| (s.path.clone(), (s.self_s * 1e9).round() as u64))
            .collect();
        assert_eq!(
            self_ns,
            vec![
                ("run".to_string(), 500),
                ("run/a".to_string(), 300),
                ("run/b".to_string(), 150),
                ("run/b/c".to_string(), 50),
            ]
        );
        assert_eq!(fold.root_window(), Some((1_007, 2_007)));
        // The rank view carries the same self times.
        let report = fold.report();
        assert_eq!(report.ranks[0].spans, report.spans);
    }

    #[test]
    fn parse_errors_raise_one_latched_warn_alert() {
        let mut fold = RunFold::default();
        let mut dog = Watchdog::default();
        fold.fold(&rec(0, 1_000, Some(0), beat(0, 1)));
        assert!(dog.evaluate(&fold, 2_000).is_empty());
        fold.note_parse_errors(3);
        let raised = dog.evaluate(&fold, 3_000);
        assert_eq!(raised.len(), 1);
        assert_eq!(raised[0].rule, ALERT_COUNTERS[4]);
        assert_eq!(raised[0].severity, AlertSeverity::Warn);
        assert_eq!(raised[0].value, 3.0);
        assert!(raised[0].message.contains("unparseable"));
        // Latched: a growing count does not re-raise.
        fold.note_parse_errors(5);
        assert!(dog.evaluate(&fold, 4_000).is_empty());
    }

    #[test]
    fn comm_records_fold_into_comm_counters() {
        let mut fold = RunFold::default();
        for (rank, bytes, dur) in [(0u32, 640u64, 1_500u64), (1, 1_024, 2_500)] {
            fold.fold(&rec(
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
        let named = fold.named();
        assert_eq!(named[COMM_COUNTERS[0]], 2.0);
        assert_eq!(named[COMM_COUNTERS[1]], 1_664.0);
        assert_eq!(named[COMM_COUNTERS[2]], 4_000.0);
    }
}
