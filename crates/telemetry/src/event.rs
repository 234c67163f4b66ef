//! Structured telemetry events and the pluggable JSONL sink.

use std::io::Write;
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

/// One per-step MD observation (the quantities Fig. 17's narrative
/// tracks through the cascade phase).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MdStepSample {
    /// Step index within the run.
    pub step: u64,
    /// Kinetic energy (eV).
    pub kinetic: f64,
    /// Potential energy: pair + embedding (eV).
    pub potential: f64,
    /// Live run-away (ballistic) atoms.
    pub runaways: u64,
    /// Vacant lattice sites.
    pub vacancies: u64,
    /// Interstitial count from the defect census.
    pub interstitials: u64,
    /// Relative total-energy drift vs. the first sampled step
    /// (`(E - E0) / |E0|`; 0 at the first step). NVE integration should
    /// keep this small; thermostat phases legitimately move it.
    pub energy_drift: f64,
    /// L2 norm of total linear momentum (amu·Å/ps). Should stay near
    /// its initial value for an isolated system.
    pub momentum_norm: f64,
}

/// One per-cycle KMC observation (the quantities Figs. 12–15 report).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct KmcCycleSample {
    /// Synchronisation cycle index.
    pub cycle: u64,
    /// Events fired this cycle.
    pub events: u64,
    /// Bytes of dirty-ghost traffic this cycle.
    pub dirty_ghost_bytes: u64,
    /// Last sector executed (0–7); 255 when aggregated over sectors.
    pub sector: u8,
    /// Owned vacancies after the cycle (conservation tracer).
    pub vacancies: u64,
    /// Net change in owned vacancies over the cycle. Non-zero values
    /// are expected only from inter-rank walker migration; a world-wide
    /// sum that drifts indicates lost or duplicated defects.
    pub vacancy_delta: i64,
}

/// One sample of a named science time-series (defect census output,
/// comm-savings accounting, handoff deltas). Samples for a given
/// `(rank, name)` track must be pushed with non-decreasing `t` — the
/// run fold enforces monotonicity so downstream consumers (sparklines,
/// budget tables) never need to sort.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesSample {
    /// Series name (dotted, e.g. `census.frenkel_pairs`).
    pub name: String,
    /// Domain time index: MD step, KMC cycle, or phase ordinal —
    /// monotonic per `(rank, name)` track, not a wall clock.
    pub t: u64,
    /// Sampled value.
    pub value: f64,
}

/// One liveness beat from a step loop (MD step, KMC cycle, coupled
/// phase). Heartbeats are pure observation: emitting them never touches
/// simulation state, so trajectories are bitwise identical with the
/// cadence on or off.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeartbeatSample {
    /// Beating loop (dotted, e.g. `md.heartbeat`, `kmc.heartbeat`).
    pub source: String,
    /// Monotonic progress index of the loop (step, cycle, phase
    /// ordinal).
    pub progress: u64,
    /// Progress target when known; 0 when the loop is open-ended.
    pub total: u64,
}

/// Watchdog verdict severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AlertSeverity {
    /// Worth a look; the run is still considered healthy.
    Warn,
    /// The run is unhealthy (`watch` exits 1 once one was raised).
    Crit,
}

impl AlertSeverity {
    /// Lower-case label for dashboards and logs.
    pub fn as_str(self) -> &'static str {
        match self {
            AlertSeverity::Warn => "warn",
            AlertSeverity::Crit => "crit",
        }
    }
}

/// One structured watchdog alert, raised by the live aggregator's rule
/// evaluation over a tailed trace (`mmds-inspect watch`, which writes
/// them out with `--alerts-out`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlertRecord {
    /// Rule that fired (dotted, e.g. `alert.heartbeat_stale`).
    pub rule: String,
    /// How bad it is.
    pub severity: AlertSeverity,
    /// Rank the alert is about, when rank-specific.
    pub rank: Option<u32>,
    /// What the rule was looking at (a rank, a counter, a span path).
    pub subject: String,
    /// Human-readable one-liner.
    pub message: String,
    /// Observed value that tripped the rule.
    pub value: f64,
    /// The rule's threshold at evaluation time.
    pub threshold: f64,
    /// Stream time (ns since the telemetry epoch) of the evaluation.
    pub t_ns: u64,
}

/// One communication operation observed by the causal comm trace — the
/// telemetry-side mirror of [`mmds_swmpi::CommEvent`]. Each record
/// carries enough to rebuild the cross-rank event graph offline: the
/// match id (`match_src`, `match_seq`) joins a send with its recv (or a
/// put with its fence-drain, or all ranks' halves of one collective),
/// the Lamport clock orders causally-related records, and the virtual
/// enter/exit times place the operation on the modelled machine
/// timeline. Pure observation: emitting these never perturbs the
/// simulation, so trajectories are bitwise identical traced or not.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommRecord {
    /// Operation name (`send`, `recv`, `barrier`, `allreduce`,
    /// `allgather`, `put`, `put_in`, `fence`).
    pub op: String,
    /// Emitting rank (from the swmpi world, independent of the
    /// telemetry rank tag).
    pub rank: u32,
    /// Peer rank for point-to-point and one-sided ops; `None` for
    /// collectives.
    pub peer: Option<u32>,
    /// Message tag (p2p) or window region (one-sided); 0 otherwise.
    pub tag: u32,
    /// Payload bytes moved by the operation.
    pub bytes: u64,
    /// Source-rank half of the match id; `None` for collectives, where
    /// `match_seq` alone (the hub generation) identifies the call.
    pub match_src: Option<u32>,
    /// Sequence half of the match id: the sender's per-rank message
    /// ordinal (p2p/one-sided) or the collective generation.
    pub match_seq: u64,
    /// Emitter's Lamport clock at operation exit.
    pub lamport: u64,
    /// Virtual time at operation entry (modelled seconds).
    pub vt_enter: f64,
    /// Virtual time at operation exit (modelled seconds).
    pub vt_exit: f64,
    /// Wall-clock duration of the blocking part of the call, ns.
    pub dur_ns: u64,
}

impl From<&mmds_swmpi::CommEvent> for CommRecord {
    fn from(ev: &mmds_swmpi::CommEvent) -> Self {
        CommRecord {
            op: ev.op.name().to_string(),
            rank: ev.rank as u32,
            peer: ev.peer.map(|p| p as u32),
            tag: ev.tag,
            bytes: ev.bytes,
            match_src: ev.match_src.map(|s| s as u32),
            match_seq: ev.match_seq,
            lamport: ev.lamport,
            vt_enter: ev.vt_enter,
            vt_exit: ev.vt_exit,
            dur_ns: ev.wall_ns,
        }
    }
}

/// Everything the telemetry layer can observe.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A span opened (path is the full `a/b/c` call path).
    SpanOpen {
        /// Full span path.
        path: String,
    },
    /// A span closed.
    SpanClose {
        /// Full span path.
        path: String,
        /// Wall-clock duration, nanoseconds.
        dur_ns: u64,
    },
    /// A per-step MD sample.
    Md(MdStepSample),
    /// A per-cycle KMC sample.
    Kmc(KmcCycleSample),
    /// An ad-hoc named counter increment.
    Counter {
        /// Counter name.
        name: String,
        /// Increment value.
        value: f64,
    },
    /// A science time-series sample.
    Series(SeriesSample),
    /// A liveness beat from a step loop.
    Heartbeat(HeartbeatSample),
    /// One traced communication operation (causal comm tracing).
    Comm(CommRecord),
}

/// An event with its total-order stamp.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// Process-wide sequence number (gapless, increasing).
    pub seq: u64,
    /// Nanoseconds since the telemetry epoch.
    pub t_ns: u64,
    /// Simulated rank the emitting thread was tagged with via
    /// [`crate::rank_scope`]; `None` for driver/untagged threads.
    pub rank: Option<u32>,
    /// Small stable id of the emitting OS thread (assigned on first
    /// emit, dense from 0). `None` only in records predating tagging.
    pub tid: Option<u32>,
    /// The event.
    pub event: Event,
}

impl Record {
    /// Renders the record as one JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        serde_json::to_string(self).expect("record serializes")
    }

    /// Parses one JSONL line.
    pub fn from_jsonl(line: &str) -> Result<Record, serde_json::Error> {
        serde_json::from_str(line)
    }
}

/// Where records go. Implementations must be cheap per call; the
/// caller already holds the ordering lock.
pub trait EventSink: Send {
    /// Consumes one record.
    fn record(&mut self, r: &Record);
    /// Flushes buffered output.
    fn flush(&mut self) {}
}

/// Discards everything (useful to measure instrumentation overhead).
#[derive(Debug, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn record(&mut self, _r: &Record) {}
}

/// Appends JSONL lines to a buffered file.
///
/// The global sink is never dropped at process exit, so buffering alone
/// would lose the tail of the stream. The sink therefore flushes when a
/// *root* span closes (the natural end of a run) and every
/// [`FileSink::FLUSH_EVERY`] records as a backstop.
pub struct FileSink {
    w: std::io::BufWriter<std::fs::File>,
    pending: u32,
}

impl FileSink {
    /// Backstop flush interval, in records.
    pub const FLUSH_EVERY: u32 = 128;

    /// Creates/truncates `path`.
    pub fn create(path: &str) -> std::io::Result<Self> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        Ok(Self {
            w: std::io::BufWriter::new(std::fs::File::create(path)?),
            pending: 0,
        })
    }
}

impl EventSink for FileSink {
    fn record(&mut self, r: &Record) {
        let _ = writeln!(self.w, "{}", r.to_jsonl());
        self.pending += 1;
        let root_close = matches!(&r.event, Event::SpanClose { path, .. } if !path.contains('/'));
        if root_close || self.pending >= Self::FLUSH_EVERY {
            self.flush();
        }
    }

    fn flush(&mut self) {
        let _ = self.w.flush();
        self.pending = 0;
    }
}

impl Drop for FileSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Captures records in memory, in arrival order. Clone the handle
/// before installing so the test can read what was captured.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    records: Arc<Mutex<Vec<Record>>>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of everything captured so far.
    pub fn records(&self) -> Vec<Record> {
        self.records.lock().unwrap().clone()
    }
}

impl EventSink for MemorySink {
    fn record(&mut self, r: &Record) {
        self.records.lock().unwrap().push(r.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_through_jsonl() {
        let records = vec![
            Record {
                seq: 0,
                t_ns: 17,
                rank: None,
                tid: Some(0),
                event: Event::SpanOpen {
                    path: "coupled.run/md.phase".into(),
                },
            },
            Record {
                seq: 1,
                t_ns: 42,
                rank: Some(3),
                tid: Some(1),
                event: Event::Md(MdStepSample {
                    step: 3,
                    kinetic: 12.5,
                    potential: -812.25,
                    runaways: 2,
                    vacancies: 4,
                    interstitials: 2,
                    energy_drift: 1.25e-6,
                    momentum_norm: 0.03125,
                }),
            },
            Record {
                seq: 2,
                t_ns: 99,
                rank: Some(0),
                tid: Some(2),
                event: Event::Kmc(KmcCycleSample {
                    cycle: 7,
                    events: 31,
                    dirty_ghost_bytes: 1024,
                    sector: 5,
                    vacancies: 12,
                    vacancy_delta: -2,
                }),
            },
            Record {
                seq: 3,
                t_ns: 100,
                rank: None,
                tid: None,
                event: Event::Counter {
                    name: "md.ghost_bytes".into(),
                    value: 4096.0,
                },
            },
            Record {
                seq: 4,
                t_ns: 110,
                rank: Some(2),
                tid: Some(1),
                event: Event::Series(SeriesSample {
                    name: "census.frenkel_pairs".into(),
                    t: 30,
                    value: 17.0,
                }),
            },
            Record {
                seq: 5,
                t_ns: 115,
                rank: Some(1),
                tid: Some(3),
                event: Event::Comm(CommRecord {
                    op: "recv".into(),
                    rank: 1,
                    peer: Some(0),
                    tag: 11,
                    bytes: 640,
                    match_src: Some(0),
                    match_seq: 4,
                    lamport: 9,
                    vt_enter: 1.5e-3,
                    vt_exit: 1.75e-3,
                    dur_ns: 2_500,
                }),
            },
            Record {
                seq: 6,
                t_ns: 120,
                rank: None,
                tid: Some(0),
                event: Event::SpanClose {
                    path: "coupled.run/md.phase".into(),
                    dur_ns: 103,
                },
            },
        ];
        for r in &records {
            let line = r.to_jsonl();
            assert!(!line.contains('\n'), "JSONL must be single-line");
            let back = Record::from_jsonl(&line).unwrap();
            assert_eq!(&back, r);
        }
    }

    #[test]
    fn file_sink_writes_parseable_lines() {
        let dir = std::env::temp_dir().join("mmds_telemetry_test");
        let path = dir.join("trace.jsonl");
        let path_s = path.to_str().unwrap().to_string();
        {
            let mut sink = FileSink::create(&path_s).unwrap();
            for seq in 0..5 {
                sink.record(&Record {
                    seq,
                    t_ns: seq * 10,
                    rank: Some(seq as u32),
                    tid: Some(0),
                    event: Event::Counter {
                        name: "x".into(),
                        value: seq as f64,
                    },
                });
            }
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        for (i, line) in lines.iter().enumerate() {
            let r = Record::from_jsonl(line).unwrap();
            assert_eq!(r.seq, i as u64);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
