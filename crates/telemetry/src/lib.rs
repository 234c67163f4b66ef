//! Unified telemetry for the MMDS workspace.
//!
//! The paper's whole evaluation (Figs. 9–17) is per-phase timing plus
//! communication-volume accounting; this crate is the substrate that
//! produces those numbers from *one* instrumentation layer:
//!
//! * **Phase spans** ([`span!`]) — RAII-guarded, nestable timers whose
//!   open/close are events like any other. When telemetry is off the
//!   guard is a no-op (one relaxed atomic load), so instrumentation
//!   stays compiled in for release builds.
//! * **Structured events** ([`event::Event`]) — span open/close,
//!   per-step MD samples, per-cycle KMC samples, named counters,
//!   science series, heartbeats, traced comm operations.
//!   [`Telemetry::emit`] is the one write path: it folds each record
//!   into the instance's [`RunFold`] and streams it to a pluggable JSONL
//!   sink (file, in-memory, null), under one lock.
//! * **One fold** ([`RunFold`]) — span totals and self times, counters,
//!   series, samples, heartbeats. The in-process report and every trace
//!   reader (`mmds-inspect summary`/`timeline`/`watch`/`causal`) use it,
//!   so they agree by construction.
//! * **Deposits** ([`report::CounterRegistry`]) — the two inputs that
//!   are not events: per-rank [`mmds_swmpi::CommStats`] (with flow
//!   matrices) and per-CPE [`mmds_sunway::CpeCounters`]. A run ends
//!   with one [`report::RunReport`] serializable to JSON.
//! * **Rank dimension** — worker threads tag themselves with their
//!   simulated rank ([`rank_scope`]); every record and comm deposit
//!   keeps the tag, so the report carries a per-rank breakdown
//!   ([`report::RankReport`]) and per-phase load-imbalance table
//!   ([`report::PhaseImbalance`]).
//! * **Perfetto export** ([`perfetto::export`]) — the JSONL stream
//!   converts to Chrome `trace_event` JSON (rank→process,
//!   thread→track) viewable at <https://ui.perfetto.dev>.
//!
//! Configuration comes from `MMDS_TELEMETRY`:
//!
//! | value          | effect                                          |
//! |----------------|-------------------------------------------------|
//! | `off` / unset  | spans disabled, no events                       |
//! | `summary`      | events folded; end-of-run self-time tree        |
//! | `jsonl:<path>` | as `summary`, plus every record to `<path>`     |
//!
//! ```
//! mmds_telemetry::set_mode(mmds_telemetry::Mode::Summary);
//! {
//!     let _run = mmds_telemetry::span!("example.run");
//!     let _phase = mmds_telemetry::span!("example.phase");
//! }
//! let report = mmds_telemetry::global().run_report();
//! assert_eq!(report.spans[0].path, "example.run");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canon;
pub mod event;
pub mod monitor;
pub mod perfetto;
pub mod render;
pub mod report;
pub mod span;

use std::sync::{Arc, OnceLock};

pub use event::{
    AlertRecord, AlertSeverity, CommRecord, Event, EventSink, FileSink, HeartbeatSample,
    KmcCycleSample, MdStepSample, MemorySink, Record, SeriesSample,
};
pub use monitor::{parse_jsonl, RunFold, TailReader, Watchdog, ALERT_COUNTERS, COMM_COUNTERS};
pub use report::{
    CounterRegistry, PhaseImbalance, RankComm, RankReport, RunReport, SeriesPoint, SeriesTrack,
    SpanReport,
};
pub use span::{current_rank, rank_scope, set_thread_rank, RankScope, SpanGuard, Telemetry};

/// What the telemetry layer does with what it observes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mode {
    /// Spans compile to no-ops; nothing is recorded.
    Off,
    /// Events are folded into the run report; callers may render a
    /// summary.
    Summary,
    /// Like `Summary`, plus every event is streamed as JSONL to a file.
    Jsonl(String),
}

impl Mode {
    /// Parses the `MMDS_TELEMETRY` syntax.
    pub fn parse(s: &str) -> Mode {
        let s = s.trim();
        if s.eq_ignore_ascii_case("summary") {
            Mode::Summary
        } else if let Some(path) = s.strip_prefix("jsonl:") {
            Mode::Jsonl(path.to_string())
        } else {
            Mode::Off
        }
    }

    /// Reads the mode from the environment.
    pub fn from_env() -> Mode {
        match std::env::var("MMDS_TELEMETRY") {
            Ok(v) => Mode::parse(&v),
            Err(_) => Mode::Off,
        }
    }
}

static GLOBAL: OnceLock<Telemetry> = OnceLock::new();

/// The process-wide telemetry instance.
///
/// Initialized lazily from `MMDS_TELEMETRY` on first touch (and, when
/// `MMDS_COMM_TRACE` asks for it, wires the causal comm tracer); the
/// mode can be changed later with [`set_mode`].
pub fn global() -> &'static Telemetry {
    GLOBAL.get_or_init(|| {
        if comm_trace_env_on() {
            enable_comm_tracing();
        }
        Telemetry::with_mode(Mode::from_env())
    })
}

fn comm_trace_env_on() -> bool {
    std::env::var("MMDS_COMM_TRACE")
        .map(|v| {
            let v = v.trim();
            v == "1" || v.eq_ignore_ascii_case("true") || v.eq_ignore_ascii_case("on")
        })
        .unwrap_or(false)
}

/// Forwards every swmpi communication event into the telemetry stream
/// as an [`Event::Comm`] record. Installed process-globally; events are
/// dropped (one relaxed load on the swmpi side, one enabled check here)
/// whenever telemetry is off.
struct CommForwarder;

impl mmds_swmpi::CommTracer for CommForwarder {
    fn on_comm(&self, ev: &mmds_swmpi::CommEvent) {
        let tel = global();
        if tel.enabled() {
            tel.emit(Event::Comm(CommRecord::from(ev)));
        }
    }
}

/// Turns on causal comm tracing: installs a tracer into
/// [`mmds_swmpi::trace`] that forwards every primitive's enter/exit
/// record into the telemetry stream. Also happens automatically when
/// `MMDS_COMM_TRACE=1` is set at first telemetry touch. Tracing is
/// pure observation — the swmpi Lamport/seq bookkeeping runs
/// identically with the tracer absent, so trajectories are bitwise
/// unchanged.
pub fn enable_comm_tracing() {
    mmds_swmpi::trace::install_tracer(Arc::new(CommForwarder));
}

/// Detaches the causal comm tracer (events stop flowing immediately).
pub fn disable_comm_tracing() {
    mmds_swmpi::trace::clear_tracer();
}

/// True while a causal comm tracer is installed.
pub fn comm_tracing_enabled() -> bool {
    mmds_swmpi::trace::tracing()
}

/// Reconfigures the global instance (mainly for tests and binaries
/// that decide the mode programmatically).
pub fn set_mode(mode: Mode) {
    global().set_mode(mode);
}

/// True when spans are being recorded.
pub fn enabled() -> bool {
    global().enabled()
}

/// Opens a phase span on the global instance. Prefer the [`span!`]
/// macro, which reads better at call sites.
pub fn span_enter(name: &'static str) -> SpanGuard<'static> {
    global().span(name)
}

/// Opens a named, RAII-guarded phase span:
///
/// ```
/// # mmds_telemetry::set_mode(mmds_telemetry::Mode::Summary);
/// let _g = mmds_telemetry::span!("md.force");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span_enter($name)
    };
}

/// Records an event on the global instance (see [`Telemetry::emit`]).
pub fn emit(event: Event) {
    global().emit(event);
}

/// Flushes the global instance's sink. The `FileSink` backstop only
/// flushes every 128 records (plus root-span closes), so a run ending
/// without a root-span close can truncate the stream tail — call this
/// at the end of binaries that stream JSONL.
pub fn flush() {
    global().flush_sink();
}

/// Sets the heartbeat cadence of the global instance (progress units
/// between beats; 0 disables). Overrides `MMDS_HEARTBEAT`.
pub fn set_heartbeat_every(every: u64) {
    global().set_heartbeat_every(every);
}

/// Emits a [`Event::Heartbeat`] from a step/cycle loop when the
/// cadence says so: every `MMDS_HEARTBEAT` progress units, plus at
/// `progress == total` when a target is known. `progress` counts from
/// 1 (beats land on completed units); `total = 0` means open-ended.
/// A pure observation — never touches dynamics state — so trajectories
/// stay bitwise-identical with heartbeats on or off.
pub fn emit_heartbeat(source: &str, progress: u64, total: u64) {
    let tel = global();
    if !tel.enabled() {
        return;
    }
    let every = tel.heartbeat_every();
    if every == 0 {
        return;
    }
    if progress.is_multiple_of(every) || (total > 0 && progress == total) {
        tel.emit(Event::Heartbeat(HeartbeatSample {
            source: source.to_string(),
            progress,
            total,
        }));
    }
}

/// Emits a [`Event::Heartbeat`] unconditionally (cadence permitting
/// only that heartbeats are enabled at all) — for coarse phase
/// boundaries where every transition is worth a beat.
pub fn emit_phase_heartbeat(source: &str, progress: u64, total: u64) {
    let tel = global();
    if !tel.enabled() || tel.heartbeat_every() == 0 {
        return;
    }
    tel.emit(Event::Heartbeat(HeartbeatSample {
        source: source.to_string(),
        progress,
        total,
    }));
}

/// Adds `value` to a named counter on the global instance: one
/// [`Event::Counter`] record, so the in-process report and a tailing
/// consumer (`mmds-inspect watch`/`summary` over a JSONL trace) see the
/// same named totals — the watchdog's health-threshold rule depends on
/// this. Builds nothing while telemetry is off.
pub fn add_counter(name: &str, value: f64) {
    let tel = global();
    if tel.enabled() {
        tel.emit(Event::Counter {
            name: name.to_string(),
            value,
        });
    }
}

/// Records one science-series sample on the global instance: one
/// [`Event::Series`] record on the `(current rank, name)` track. `t` is
/// the domain time index (MD step, KMC cycle) and must be
/// non-decreasing per track ([`Telemetry::emit`] panics otherwise).
/// Builds nothing while telemetry is off.
pub fn emit_series(name: &str, t: u64, value: f64) {
    let tel = global();
    if tel.enabled() {
        tel.emit(Event::Series(SeriesSample {
            name: name.to_string(),
            t,
            value,
        }));
    }
}

/// Absorbs one identified rank's communication stats — and, when
/// captured, its pairwise flow matrix — into the global registry. The
/// per-rank detail feeds the [`report::RankReport`] breakdown and
/// comm-matrix validation.
pub fn absorb_comm_rank(
    rank: u32,
    stats: &mmds_swmpi::CommStats,
    matrix: Option<&mmds_swmpi::CommMatrix>,
) {
    global().counters().absorb_comm_rank(rank, stats, matrix);
}

/// Absorbs per-CPE counters into the global registry.
pub fn absorb_cpe_counters(counters: &mmds_sunway::CpeCounters) {
    global().counters().absorb_cpe(counters);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parsing() {
        assert_eq!(Mode::parse("off"), Mode::Off);
        assert_eq!(Mode::parse(""), Mode::Off);
        assert_eq!(Mode::parse("summary"), Mode::Summary);
        assert_eq!(Mode::parse("SUMMARY"), Mode::Summary);
        assert_eq!(
            Mode::parse("jsonl:/tmp/trace.jsonl"),
            Mode::Jsonl("/tmp/trace.jsonl".into())
        );
    }
}
