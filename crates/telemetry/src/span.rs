//! Hierarchical phase spans and the thread-safe accumulation registry.
//!
//! A span is opened with [`Telemetry::span`] (or the [`crate::span!`]
//! macro) and closed by dropping the returned guard. Nesting is
//! tracked per thread: a span opened while another is live becomes its
//! child, and the registry keys stats by the full call path
//! (`"coupled.run/md.phase/md.force"`). Each path accumulates
//!
//! * `count` — times the span closed,
//! * `total` — wall time between open and close,
//! * `child` — wall time spent in child spans (so `total - child` is
//!   *self* time, the quantity the flamegraph-style renderer shows).
//!
//! Cost model: when the owning [`Telemetry`] is disabled, opening a
//! span is one relaxed atomic load and the guard is inert. When
//! enabled, open is an `Instant::now` plus one thread-local push;
//! close adds a mutex-guarded hash-map update. That is cheap enough to
//! stay on in release builds for the per-phase (not per-atom)
//! granularity used across this workspace.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::event::{Event, EventSink, Record};
use crate::report::{CounterRegistry, RunReport};
use crate::Mode;

/// Accumulated statistics of one span path.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SpanStat {
    pub count: u64,
    pub total_ns: u64,
    pub child_ns: u64,
}

/// One telemetry domain: span registry + counter registry + sink.
///
/// The process-wide instance lives behind [`crate::global`]; tests
/// construct private instances for isolation.
pub struct Telemetry {
    enabled: AtomicBool,
    /// Keyed by (emitting rank, full span path). `None` is the driver
    /// (untagged) dimension, so pre-rank callers keep working.
    spans: Mutex<HashMap<(Option<u32>, String), SpanStat>>,
    counters: CounterRegistry,
    sink: Mutex<Option<Box<dyn EventSink>>>,
    jsonl_path: Mutex<Option<String>>,
    seq: AtomicU64,
    epoch: Instant,
    /// Heartbeat cadence: emit every N progress units (0 = off).
    heartbeat_every: AtomicU64,
}

thread_local! {
    /// Per-thread stack of open spans: (full path, start, child time).
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    /// Simulated rank this thread reports as (see [`rank_scope`]).
    static RANK: Cell<Option<u32>> = const { Cell::new(None) };
    /// Dense per-process thread id, assigned on first use.
    static TID: Cell<Option<u32>> = const { Cell::new(None) };
}

/// Next dense thread id (process-wide).
static NEXT_TID: AtomicU32 = AtomicU32::new(0);

/// Small stable id of the calling OS thread, assigned densely from 0
/// on first use. Trace consumers use it as the Perfetto `tid`.
pub fn thread_tid() -> u32 {
    TID.with(|t| match t.get() {
        Some(id) => id,
        None => {
            let id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(Some(id));
            id
        }
    })
}

/// The rank the calling thread is currently tagged with.
pub fn current_rank() -> Option<u32> {
    RANK.with(|r| r.get())
}

/// Tags the calling thread with a simulated rank (or clears the tag
/// with `None`). Spans and events emitted afterwards carry the tag.
/// Prefer [`rank_scope`], which restores the previous tag on drop.
pub fn set_thread_rank(rank: Option<u32>) {
    RANK.with(|r| r.set(rank));
}

/// RAII rank tag: tags the calling thread for the guard's lifetime and
/// restores the previous tag on drop.
///
/// ```
/// let _tag = mmds_telemetry::rank_scope(3);
/// assert_eq!(mmds_telemetry::current_rank(), Some(3));
/// ```
pub fn rank_scope(rank: u32) -> RankScope {
    let prev = current_rank();
    set_thread_rank(Some(rank));
    RankScope { prev }
}

/// Guard returned by [`rank_scope`]; restores the previous tag on drop.
pub struct RankScope {
    prev: Option<u32>,
}

impl Drop for RankScope {
    fn drop(&mut self) {
        set_thread_rank(self.prev);
    }
}

struct Frame {
    path: String,
    start: Instant,
    child_ns: u64,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::with_mode(Mode::Off)
    }
}

impl Telemetry {
    /// Creates an instance in the given mode.
    pub fn with_mode(mode: Mode) -> Self {
        let t = Self {
            enabled: AtomicBool::new(false),
            spans: Mutex::new(HashMap::new()),
            counters: CounterRegistry::default(),
            sink: Mutex::new(None),
            jsonl_path: Mutex::new(None),
            seq: AtomicU64::new(0),
            epoch: Instant::now(),
            heartbeat_every: AtomicU64::new(
                std::env::var("MMDS_HEARTBEAT")
                    .ok()
                    .and_then(|v| v.trim().parse().ok())
                    .unwrap_or(0),
            ),
        };
        t.set_mode(mode);
        t
    }

    /// Switches mode, installing or dropping the file sink as needed.
    pub fn set_mode(&self, mode: Mode) {
        match mode {
            Mode::Off => {
                self.enabled.store(false, Ordering::Relaxed);
                *self.sink.lock().unwrap() = None;
                *self.jsonl_path.lock().unwrap() = None;
            }
            Mode::Summary => {
                self.enabled.store(true, Ordering::Relaxed);
            }
            Mode::Jsonl(path) => {
                match crate::event::FileSink::create(&path) {
                    Ok(s) => {
                        *self.sink.lock().unwrap() = Some(Box::new(s));
                        *self.jsonl_path.lock().unwrap() = Some(path.clone());
                    }
                    Err(e) => eprintln!("[telemetry] cannot open {path}: {e}; events disabled"),
                }
                self.enabled.store(true, Ordering::Relaxed);
            }
        }
    }

    /// Replaces the event sink (tests use [`crate::MemorySink`]).
    pub fn install_sink(&self, sink: Box<dyn EventSink>) {
        self.enabled.store(true, Ordering::Relaxed);
        *self.sink.lock().unwrap() = Some(sink);
    }

    /// Removes the sink, returning it.
    pub fn take_sink(&self) -> Option<Box<dyn EventSink>> {
        *self.jsonl_path.lock().unwrap() = None;
        self.sink.lock().unwrap().take()
    }

    /// Path of the JSONL stream when the sink is a [`Mode::Jsonl`]
    /// file sink; `None` otherwise.
    pub fn jsonl_path(&self) -> Option<String> {
        self.jsonl_path.lock().unwrap().clone()
    }

    /// Flushes the installed sink (no-op without one). Call before
    /// reading the JSONL file back while the process is still alive.
    pub fn flush_sink(&self) {
        if let Some(sink) = self.sink.lock().unwrap().as_mut() {
            sink.flush();
        }
    }

    /// True when spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Heartbeat cadence in progress units (0 = heartbeats off).
    pub fn heartbeat_every(&self) -> u64 {
        self.heartbeat_every.load(Ordering::Relaxed)
    }

    /// Sets the heartbeat cadence (overrides `MMDS_HEARTBEAT`).
    pub fn set_heartbeat_every(&self, every: u64) {
        self.heartbeat_every.store(every, Ordering::Relaxed);
    }

    /// The counter registry of this domain.
    pub fn counters(&self) -> &CounterRegistry {
        &self.counters
    }

    /// Opens a span. The guard closes it on drop.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled() {
            return SpanGuard { owner: None };
        }
        let path = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let path = match s.last() {
                Some(parent) => format!("{}/{name}", parent.path),
                None => name.to_string(),
            };
            s.push(Frame {
                path: path.clone(),
                start: Instant::now(),
                child_ns: 0,
            });
            path
        });
        self.emit(Event::SpanOpen { path });
        SpanGuard { owner: Some(self) }
    }

    fn close_span(&self) {
        let Some(frame) = STACK.with(|s| s.borrow_mut().pop()) else {
            return;
        };
        let elapsed = frame.start.elapsed().as_nanos() as u64;
        STACK.with(|s| {
            if let Some(parent) = s.borrow_mut().last_mut() {
                parent.child_ns += elapsed;
            }
        });
        {
            let mut spans = self.spans.lock().unwrap();
            let e = spans
                .entry((current_rank(), frame.path.clone()))
                .or_default();
            e.count += 1;
            e.total_ns += elapsed;
            e.child_ns += frame.child_ns;
        }
        self.emit(Event::SpanClose {
            path: frame.path,
            dur_ns: elapsed,
        });
    }

    /// Streams one event to the sink, if a sink is installed. Events
    /// get a process-ordered sequence number under the sink lock, so
    /// concurrent emitters produce a consistent total order.
    pub fn emit(&self, event: Event) {
        // Resolve thread identity before taking the sink lock.
        let rank = current_rank();
        let tid = Some(thread_tid());
        let mut sink = self.sink.lock().unwrap();
        let Some(sink) = sink.as_mut() else {
            return;
        };
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let t_ns = self.epoch.elapsed().as_nanos() as u64;
        sink.record(&Record {
            seq,
            t_ns,
            rank,
            tid,
            event,
        });
    }

    /// Snapshot of all span statistics aggregated over ranks, sorted by
    /// path. This is the pre-rank-dimension view existing consumers
    /// (the tree renderer, figure binaries) expect.
    pub fn span_reports(&self) -> Vec<crate::report::SpanReport> {
        let spans = self.spans.lock().unwrap();
        let mut merged: HashMap<&str, SpanStat> = HashMap::new();
        for ((_, path), s) in spans.iter() {
            let e = merged.entry(path.as_str()).or_default();
            e.count += s.count;
            e.total_ns += s.total_ns;
            e.child_ns += s.child_ns;
        }
        let mut out: Vec<_> = merged
            .into_iter()
            .map(|(path, s)| crate::report::SpanReport {
                path: path.to_string(),
                count: s.count,
                total_s: s.total_ns as f64 * 1e-9,
                self_s: s.total_ns.saturating_sub(s.child_ns) as f64 * 1e-9,
            })
            .collect();
        out.sort_by(|a, b| a.path.cmp(&b.path));
        out
    }

    /// Span statistics split by emitting rank, sorted by (rank, path);
    /// the `None` (driver) dimension comes first.
    pub fn rank_span_reports(&self) -> Vec<(Option<u32>, crate::report::SpanReport)> {
        let spans = self.spans.lock().unwrap();
        let mut out: Vec<_> = spans
            .iter()
            .map(|((rank, path), s)| {
                (
                    *rank,
                    crate::report::SpanReport {
                        path: path.clone(),
                        count: s.count,
                        total_s: s.total_ns as f64 * 1e-9,
                        self_s: s.total_ns.saturating_sub(s.child_ns) as f64 * 1e-9,
                    },
                )
            })
            .collect();
        out.sort_by(|a, b| (a.0, &a.1.path).cmp(&(b.0, &b.1.path)));
        out
    }

    /// Merges spans, counters, retained samples, and the per-rank
    /// breakdown into the final run-wide report.
    pub fn run_report(&self) -> RunReport {
        crate::report::build_run_report(
            self.span_reports(),
            self.rank_span_reports(),
            &self.counters,
        )
    }

    /// Renders the flamegraph-style self-time tree of this instance.
    pub fn render_tree(&self) -> String {
        crate::render::render_tree(&self.span_reports())
    }

    /// Clears spans, counters, and samples (not the sink).
    pub fn reset(&self) {
        self.spans.lock().unwrap().clear();
        self.counters.reset();
        self.seq.store(0, Ordering::Relaxed);
    }
}

/// RAII guard returned by [`Telemetry::span`]; closes the span on drop.
pub struct SpanGuard<'a> {
    owner: Option<&'a Telemetry>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(t) = self.owner {
            t.close_span();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sleep_ms(ms: u64) {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let t = Telemetry::with_mode(Mode::Off);
        {
            let _g = t.span("root");
        }
        assert!(t.span_reports().is_empty());
    }

    #[test]
    fn nesting_builds_paths_and_child_time() {
        let t = Telemetry::with_mode(Mode::Summary);
        {
            let _root = t.span("root");
            sleep_ms(5);
            {
                let _child = t.span("child");
                sleep_ms(10);
            }
            sleep_ms(5);
        }
        let reports = t.span_reports();
        let root = reports.iter().find(|r| r.path == "root").unwrap();
        let child = reports.iter().find(|r| r.path == "root/child").unwrap();
        assert_eq!(root.count, 1);
        assert_eq!(child.count, 1);
        // Child total is inside root total; root self-time excludes it.
        assert!(child.total_s <= root.total_s + 1e-9);
        assert!(root.self_s <= root.total_s);
        assert!((root.self_s + child.total_s) <= root.total_s + 1e-3);
    }

    #[test]
    fn sibling_spans_accumulate_counts() {
        let t = Telemetry::with_mode(Mode::Summary);
        {
            let _root = t.span("r2");
            for _ in 0..3 {
                let _c = t.span("step");
            }
        }
        let reports = t.span_reports();
        let step = reports.iter().find(|r| r.path == "r2/step").unwrap();
        assert_eq!(step.count, 3);
    }

    #[test]
    fn guard_drop_order_is_safe_across_threads() {
        let t = std::sync::Arc::new(Telemetry::with_mode(Mode::Summary));
        let mut handles = Vec::new();
        for i in 0..4 {
            let t = std::sync::Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                let _g = t.span(if i % 2 == 0 { "even" } else { "odd" });
                sleep_ms(2);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let reports = t.span_reports();
        assert_eq!(reports.iter().map(|r| r.count).sum::<u64>(), 4);
        // Threads have independent stacks: both names are roots.
        assert!(reports.iter().all(|r| !r.path.contains('/')));
    }
}
