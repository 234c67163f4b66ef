//! Hierarchical phase spans and the telemetry instance that folds and
//! streams every event.
//!
//! A span is opened with [`Telemetry::span`] (or the [`crate::span!`]
//! macro) and closed by dropping the returned guard. Nesting is
//! tracked per thread: a span opened while another is live becomes its
//! child, and its event carries the full call path
//! (`"coupled.run/md.phase/md.force"`). Open and close are ordinary
//! events: [`Telemetry::emit`] folds them into the instance's
//! [`RunFold`], which accumulates per `(rank, path)`
//!
//! * `count` — times the span closed,
//! * `total` — wall time between open and close,
//! * `self` — total minus the wall time of its child spans, from the
//!   fold's per-thread open-span stack (the quantity the
//!   flamegraph-style renderer shows).
//!
//! Cost model: when the owning [`Telemetry`] is off, opening a span
//! and emitting an event are one relaxed atomic load each, and the
//! guard is inert. When on, every event takes one mutex, under which it
//! is folded and forwarded to the sink (if any). That is cheap enough
//! to stay on in release builds for the per-phase (not per-atom)
//! granularity used across this workspace.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::event::{Event, EventSink, Record};
use crate::monitor::RunFold;
use crate::report::RunReport;
use crate::Mode;

/// One telemetry domain: the event fold and its sink.
///
/// The process-wide instance lives behind [`crate::global`]; tests
/// construct private instances for isolation.
pub struct Telemetry {
    enabled: AtomicBool,
    inner: Mutex<Inner>,
    epoch: Instant,
    /// Heartbeat cadence: emit every N progress units (0 = off).
    heartbeat_every: AtomicU64,
}

/// What one lock guards: each record is sequenced, folded and
/// forwarded under it, so the fold and the sink see one total order.
#[derive(Default)]
struct Inner {
    fold: RunFold,
    sink: Option<Box<dyn EventSink>>,
    jsonl_path: Option<String>,
    seq: u64,
}

thread_local! {
    /// Per-thread stack of open spans: (full path, start).
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
pub(crate) fn thread_tid() -> u32 {
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
            inner: Mutex::new(Inner::default()),
            epoch: Instant::now(),
            heartbeat_every: AtomicU64::new(0),
        };
        t.set_mode(mode);
        t
    }

    /// Switches mode, installing or dropping the file sink as needed.
    /// Touches nothing outside this instance: the process-wide comm
    /// tracer and heartbeat cadence that `jsonl:` implies belong to
    /// [`crate::set_mode`] on the global instance.
    pub fn set_mode(&self, mode: Mode) {
        match mode {
            Mode::Off => {
                self.enabled.store(false, Ordering::Relaxed);
                let mut inner = self.inner.lock().unwrap();
                inner.sink = None;
                inner.jsonl_path = None;
            }
            Mode::Summary => {
                self.enabled.store(true, Ordering::Relaxed);
            }
            Mode::Jsonl(path) => {
                match crate::event::FileSink::create(&path) {
                    Ok(s) => {
                        let mut inner = self.inner.lock().unwrap();
                        inner.sink = Some(Box::new(s));
                        inner.jsonl_path = Some(path);
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
        self.inner.lock().unwrap().sink = Some(sink);
    }

    /// Removes the sink, returning it.
    pub fn take_sink(&self) -> Option<Box<dyn EventSink>> {
        let mut inner = self.inner.lock().unwrap();
        inner.jsonl_path = None;
        inner.sink.take()
    }

    /// Path of the JSONL stream when the sink is a [`Mode::Jsonl`]
    /// file sink; `None` otherwise.
    pub fn jsonl_path(&self) -> Option<String> {
        self.inner.lock().unwrap().jsonl_path.clone()
    }

    /// Flushes the installed sink (no-op without one). Call before
    /// reading the JSONL file back while the process is still alive.
    pub fn flush_sink(&self) {
        if let Some(sink) = self.inner.lock().unwrap().sink.as_mut() {
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

    /// Sets the heartbeat cadence (0 turns heartbeats off).
    pub fn set_heartbeat_every(&self, every: u64) {
        self.heartbeat_every.store(every, Ordering::Relaxed);
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
        self.emit(Event::SpanClose {
            dur_ns: frame.start.elapsed().as_nanos() as u64,
            path: frame.path,
        });
    }

    /// Records one event: stamps it with a process-ordered sequence
    /// number, folds it into this instance's [`RunFold`] and forwards
    /// it to the sink (if one is installed), all under one lock, so
    /// concurrent emitters produce one consistent total order. Returns
    /// at once, building nothing, while telemetry is off.
    ///
    /// Panics on a series point whose `t` goes backwards on its
    /// `(rank, name)` track: series are monotonic by contract, and a
    /// violation means the call site charges the wrong domain index.
    pub fn emit(&self, event: Event) {
        if !self.enabled() {
            return;
        }
        // Resolve thread identity before taking the lock.
        let rank = current_rank();
        let tid = Some(thread_tid());
        let mut inner = self.inner.lock().unwrap();
        let record = Record {
            seq: inner.seq,
            t_ns: self.epoch.elapsed().as_nanos() as u64,
            rank,
            tid,
            event,
        };
        if !inner.fold.fold(&record) {
            drop(inner);
            if let Event::Series(s) = &record.event {
                panic!(
                    "series `{}` (rank {rank:?}) is not monotonic: t {} after a later point",
                    s.name, s.t
                );
            }
            return;
        }
        inner.seq += 1;
        if let Some(sink) = inner.sink.as_mut() {
            sink.record(&record);
        }
    }

    /// The run-wide report: the report of this instance's fold.
    pub fn run_report(&self) -> RunReport {
        self.inner.lock().unwrap().fold.report()
    }

    /// Renders the flamegraph-style self-time tree of this instance.
    pub fn render_tree(&self) -> String {
        crate::render::render_tree(&self.inner.lock().unwrap().fold.span_totals())
    }

    /// Clears everything folded so far (not the sink).
    pub fn reset(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.fold.reset();
        inner.seq = 0;
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
            t.emit(Event::Counter {
                name: "x.y".into(),
                value: 1.0,
            });
        }
        assert_eq!(t.run_report(), RunReport::default());
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
        let reports = t.run_report().spans;
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
        let reports = t.run_report().spans;
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
        let reports = t.run_report().spans;
        assert_eq!(reports.iter().map(|r| r.count).sum::<u64>(), 4);
        // Threads have independent stacks: both names are roots.
        assert!(reports.iter().all(|r| !r.path.contains('/')));
    }

    #[test]
    fn out_of_order_series_point_panics_before_reaching_the_sink() {
        let t = Telemetry::with_mode(Mode::Summary);
        let sink = crate::MemorySink::new();
        t.install_sink(Box::new(sink.clone()));
        let point = |t_idx| {
            Event::Series(crate::SeriesSample {
                name: "census.vacancies".into(),
                t: t_idx,
                value: 1.0,
            })
        };
        t.emit(point(5));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| t.emit(point(4))))
            .expect_err("a decreasing t is an instrumentation bug");
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("not monotonic"), "{msg}");
        // The bad point reached neither the sink nor the report, and the
        // instance still works (the lock was released before panicking).
        t.emit(point(6));
        let seqs: Vec<u64> = sink.records().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1], "gapless");
        let points = &t.run_report().series[0].points;
        assert_eq!(points.iter().map(|p| p.t).collect::<Vec<_>>(), vec![5, 6]);
    }
}
