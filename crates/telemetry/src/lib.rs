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
//!   science series, heartbeats, traced comm operations, per-rank comm
//!   deposits.
//!   [`Telemetry::emit`] is the one write path: it folds each record
//!   into the instance's [`RunFold`] and streams it to a pluggable JSONL
//!   sink (file, in-memory, null), under one lock.
//! * **One fold** ([`RunFold`]) — span totals and self times, counters,
//!   series, samples, heartbeats, per-rank comm deposits. The
//!   in-process report and every trace reader (`mmds-inspect
//!   summary`/`timeline`/`watch`/`causal`) use it, so they agree by
//!   construction. A run ends with one [`report::RunReport`]
//!   serializable to JSON.
//! * **Deposits** — a rank's [`mmds_swmpi::CommStats`] and flow matrix
//!   ([`absorb_comm_rank`]) become one [`Event::RankComm`] record, and
//!   [`mmds_sunway::CpeCounters`] ([`absorb_cpe_counters`]) become the
//!   [`CPE_COUNTERS`] named counters, so a trace carries them too.
//! * **Rank dimension** — worker threads tag themselves with their
//!   simulated rank ([`rank_scope`]); every record keeps the tag, so
//!   the report carries a per-rank breakdown
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
//! Entering `jsonl:` on the global instance also turns on causal comm
//! tracing and heartbeats at every progress unit, so a trace file is
//! complete on its own.
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
    KmcCycleSample, MdStepSample, MemorySink, RankComm, Record, SeriesSample,
};
pub use monitor::{parse_jsonl, RunFold, TailReader, Watchdog, ALERT_COUNTERS, COMM_COUNTERS};
pub use report::{PhaseImbalance, RankReport, RunReport, SeriesPoint, SeriesTrack, SpanReport};
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
/// Initialized lazily from `MMDS_TELEMETRY` on first touch; the mode
/// can be changed later with [`set_mode`]. Either way, entering
/// `jsonl:` installs the causal comm tracer and sets the heartbeat
/// cadence to every progress unit.
pub fn global() -> &'static Telemetry {
    GLOBAL.get_or_init(|| {
        let tel = Telemetry::default();
        enter(&tel, Mode::from_env());
        tel
    })
}

/// Switches `tel` (the global instance) to `mode`, with what `jsonl:`
/// implies for the whole process.
fn enter(tel: &Telemetry, mode: Mode) {
    if matches!(mode, Mode::Jsonl(_)) {
        enable_comm_tracing();
        tel.set_heartbeat_every(1);
    }
    tel.set_mode(mode);
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
/// record into the telemetry stream. Also happens whenever the global
/// instance enters `jsonl:` mode. Tracing is
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
/// that decide the mode programmatically). Entering `jsonl:` also
/// installs the comm tracer and sets the heartbeat cadence to 1;
/// leaving it changes neither.
pub fn set_mode(mode: Mode) {
    enter(global(), mode);
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
/// between beats; 0 disables). Entering `jsonl:` sets it to 1.
pub fn set_heartbeat_every(every: u64) {
    global().set_heartbeat_every(every);
}

/// Emits a [`Event::Heartbeat`] from a step/cycle loop when the
/// cadence says so: every [`set_heartbeat_every`] progress units, plus at
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

/// Where a run's points on the current rank's `name` series track start:
/// the track's last `t` on the global instance, 0 for a new track (and
/// while telemetry is off). An engine whose domain index restarts with
/// each run adds this to its `t`, so a second run in one process
/// continues the track instead of breaking its monotonicity.
pub fn series_origin(name: &str) -> u64 {
    let tel = global();
    if !tel.enabled() {
        return 0;
    }
    tel.series_last_t(current_rank(), name)
}

/// Records one identified rank's communication stats — and, when
/// captured, its pairwise flow matrix — as one [`Event::RankComm`] on
/// the global instance. The per-rank detail feeds the
/// [`report::RankReport`] breakdown and comm-matrix validation. Builds
/// nothing while telemetry is off.
pub fn absorb_comm_rank(
    rank: u32,
    stats: &mmds_swmpi::CommStats,
    matrix: Option<&mmds_swmpi::CommMatrix>,
) {
    let tel = global();
    if tel.enabled() {
        tel.emit(Event::RankComm(RankComm {
            rank,
            stats: *stats,
            matrix: matrix.cloned(),
        }));
    }
}

/// Named counters [`absorb_cpe_counters`] charges, one per
/// [`mmds_sunway::CpeCounters`] field in declaration order; the two
/// times are virtual seconds.
pub const CPE_COUNTERS: [&str; 8] = [
    "cpe.dma_gets",
    "cpe.dma_puts",
    "cpe.bytes_in",
    "cpe.bytes_out",
    "cpe.flops",
    "cpe.table_batches",
    "cpe.dma_time_s",
    "cpe.compute_time_s",
];

/// Charges one CPE counter set to the [`CPE_COUNTERS`] named counters
/// of the global instance.
pub fn absorb_cpe_counters(c: &mmds_sunway::CpeCounters) {
    let values = [
        c.dma_gets as f64,
        c.dma_puts as f64,
        c.bytes_in as f64,
        c.bytes_out as f64,
        c.flops as f64,
        c.table_batches as f64,
        c.dma_time,
        c.compute_time,
    ];
    for (name, value) in CPE_COUNTERS.into_iter().zip(values) {
        add_counter(name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tests below share the process-wide instance and tracer.
    static GLOBAL_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn cpe_counters_fold_as_named_counters() {
        let _serial = GLOBAL_TESTS.lock().unwrap();
        set_mode(Mode::Summary);
        global().reset();
        let set = mmds_sunway::CpeCounters {
            dma_gets: 2,
            flops: 10,
            bytes_in: 64,
            compute_time: 0.25,
            ..Default::default()
        };
        absorb_cpe_counters(&set);
        absorb_cpe_counters(&set);
        let counters = global().run_report().counters;
        assert_eq!(counters.len(), CPE_COUNTERS.len());
        assert_eq!(counters["cpe.dma_gets"], 4.0);
        assert_eq!(counters["cpe.flops"], 20.0);
        assert_eq!(counters["cpe.bytes_in"], 128.0);
        assert_eq!(counters["cpe.dma_puts"], 0.0);
        assert_eq!(counters["cpe.compute_time_s"], 0.5);
        set_mode(Mode::Off);
        global().reset();
    }

    #[test]
    fn jsonl_mode_alone_turns_on_comm_tracing_and_heartbeats() {
        let _serial = GLOBAL_TESTS.lock().unwrap();
        let dir = std::env::temp_dir().join("mmds_telemetry_jsonl_mode");
        let path = dir.join("trace.jsonl").to_str().unwrap().to_string();
        disable_comm_tracing();
        set_heartbeat_every(0);

        // A private instance never touches the process-wide tracer.
        let private = Telemetry::with_mode(Mode::Jsonl(path.clone()));
        assert!(!comm_tracing_enabled());
        assert_eq!(private.heartbeat_every(), 0);
        drop(private);

        set_mode(Mode::Summary);
        assert!(!comm_tracing_enabled());
        assert_eq!(global().heartbeat_every(), 0);
        set_mode(Mode::Jsonl(path));
        assert!(comm_tracing_enabled());
        assert_eq!(global().heartbeat_every(), 1);

        set_mode(Mode::Off);
        disable_comm_tracing();
        set_heartbeat_every(0);
        global().reset();
        let _ = std::fs::remove_dir_all(&dir);
    }

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
