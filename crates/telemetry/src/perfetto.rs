//! Chrome/Perfetto `trace_event` JSON exporter.
//!
//! Converts a JSONL [`Record`] stream into the JSON object format
//! consumed by <https://ui.perfetto.dev> and `chrome://tracing`:
//!
//! * each simulated **rank becomes a process** (`pid = rank + 1`;
//!   untagged driver records get `pid = 0`), labelled by an `M`
//!   metadata event, so the Perfetto track view groups one swimlane
//!   cluster per rank;
//! * each emitting **OS thread becomes a thread** (`tid` straight from
//!   the record);
//! * span open/close become `B`/`E` duration events (nesting is
//!   reconstructed by the viewer from per-thread ordering);
//! * MD/KMC samples and named counters become `C` counter events, so
//!   energy drift, defect counts, and ghost-byte traffic plot as time
//!   series under the track;
//! * per-rank comm deposits (`RankComm`) emit nothing.
//!
//! Timestamps are microseconds from the telemetry epoch, as the format
//! requires.

use serde::Value;

use crate::event::{CommRecord, Event, Record};

/// Pid assigned to records with no rank tag.
pub const DRIVER_PID: u64 = 0;

fn map(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn pid_of(r: &Record) -> u64 {
    match r.rank {
        Some(rank) => rank as u64 + 1,
        None => DRIVER_PID,
    }
}

fn tid_of(r: &Record) -> u64 {
    r.tid.unwrap_or(0) as u64
}

fn ts_of(r: &Record) -> Value {
    Value::F64(r.t_ns as f64 / 1000.0)
}

fn event_value(r: &Record) -> Option<Value> {
    let (ph, name, args) = match &r.event {
        Event::SpanOpen { path } => (
            "B",
            path.rsplit('/').next().unwrap_or(path).to_string(),
            map(vec![("path", Value::Str(path.clone()))]),
        ),
        Event::SpanClose { path, dur_ns } => (
            "E",
            path.rsplit('/').next().unwrap_or(path).to_string(),
            map(vec![
                ("path", Value::Str(path.clone())),
                ("dur_ns", Value::U64(*dur_ns)),
            ]),
        ),
        Event::Md(s) => (
            "C",
            "md.step".to_string(),
            map(vec![
                ("kinetic", Value::F64(s.kinetic)),
                ("potential", Value::F64(s.potential)),
                ("runaways", Value::U64(s.runaways)),
                ("vacancies", Value::U64(s.vacancies)),
                ("interstitials", Value::U64(s.interstitials)),
                ("energy_drift", Value::F64(s.energy_drift)),
                ("momentum_norm", Value::F64(s.momentum_norm)),
            ]),
        ),
        Event::Kmc(s) => (
            "C",
            "kmc.cycle".to_string(),
            map(vec![
                ("events", Value::U64(s.events)),
                ("dirty_ghost_bytes", Value::U64(s.dirty_ghost_bytes)),
                ("vacancies", Value::U64(s.vacancies)),
                ("vacancy_delta", Value::I64(s.vacancy_delta)),
            ]),
        ),
        Event::Counter { name, value } => {
            ("C", name.clone(), map(vec![("value", Value::F64(*value))]))
        }
        Event::Series(s) => (
            "C",
            s.name.clone(),
            map(vec![("value", Value::F64(s.value)), ("t", Value::U64(s.t))]),
        ),
        Event::Heartbeat(h) => (
            "C",
            h.source.clone(),
            map(vec![
                ("progress", Value::U64(h.progress)),
                ("total", Value::U64(h.total)),
            ]),
        ),
        // Comm records expand to several events (slice + flow) and are
        // routed through `comm_values` by `export`; a rank's comm
        // deposit is an end-of-world total with no place on a timeline.
        Event::Comm(_) | Event::RankComm(_) => return None,
    };
    Some(map(vec![
        ("name", Value::Str(name)),
        ("ph", Value::Str(ph.to_string())),
        ("ts", ts_of(r)),
        ("pid", Value::U64(pid_of(r))),
        ("tid", Value::U64(tid_of(r))),
        ("args", args),
    ]))
}

/// Comm records always know their swmpi rank, so they land on the
/// right process even when the emitting thread has no telemetry rank
/// tag (a bare `World::run` outside `rank_scope`).
fn pid_for(r: &Record) -> u64 {
    match &r.event {
        Event::Comm(c) => c.rank as u64 + 1,
        _ => pid_of(r),
    }
}

/// Expands one traced comm operation: an `X` slice spanning the
/// blocking wall time, plus — for the matched p2p/one-sided kinds — a
/// flow event (`s` at the send/put, `t` at the recv/drain) whose id is
/// the match id, so the viewer draws a src→dst arrow per message.
fn comm_values(r: &Record, c: &CommRecord) -> Vec<Value> {
    let pid = pid_for(r);
    let tid = tid_of(r);
    let start_us = r.t_ns.saturating_sub(c.dur_ns) as f64 / 1000.0;
    let mut args = vec![
        ("op", Value::Str(c.op.clone())),
        ("bytes", Value::U64(c.bytes)),
        ("tag", Value::U64(c.tag as u64)),
        ("lamport", Value::U64(c.lamport)),
        ("vt_enter", Value::F64(c.vt_enter)),
        ("vt_exit", Value::F64(c.vt_exit)),
        ("match_seq", Value::U64(c.match_seq)),
    ];
    if let Some(p) = c.peer {
        args.push(("peer", Value::U64(p as u64)));
    }
    if let Some(s) = c.match_src {
        args.push(("match_src", Value::U64(s as u64)));
    }
    let mut out = vec![map(vec![
        ("name", Value::Str(format!("comm.{}", c.op))),
        ("cat", Value::Str("comm".to_string())),
        ("ph", Value::Str("X".to_string())),
        ("ts", Value::F64(start_us)),
        ("dur", Value::F64(c.dur_ns as f64 / 1000.0)),
        ("pid", Value::U64(pid)),
        ("tid", Value::U64(tid)),
        ("args", map(args)),
    ])];
    let flow_ph = match c.op.as_str() {
        "send" | "put" => Some("s"),
        "recv" | "put_in" => Some("t"),
        _ => None,
    };
    if let (Some(ph), Some(src)) = (flow_ph, c.match_src) {
        out.push(map(vec![
            ("name", Value::Str("comm.msg".to_string())),
            ("cat", Value::Str("comm".to_string())),
            ("ph", Value::Str(ph.to_string())),
            ("id", Value::Str(format!("{src}:{}", c.match_seq))),
            ("ts", ts_of(r)),
            ("pid", Value::U64(pid)),
            ("tid", Value::U64(tid)),
        ]));
    }
    out
}

fn metadata(name: &str, pid: u64, tid: Option<u64>, label: &str) -> Value {
    let mut fields = vec![
        ("name", Value::Str(name.to_string())),
        ("ph", Value::Str("M".to_string())),
        ("ts", Value::F64(0.0)),
        ("pid", Value::U64(pid)),
    ];
    if let Some(tid) = tid {
        fields.push(("tid", Value::U64(tid)));
    }
    fields.push(("args", map(vec![("name", Value::Str(label.to_string()))])));
    map(fields)
}

/// Renders the records as a Chrome `trace_event` JSON document
/// (`{"traceEvents": [...]}`), loadable at <https://ui.perfetto.dev>.
pub fn export(records: &[Record]) -> String {
    let records: Vec<&Record> = records
        .iter()
        .filter(|r| !matches!(r.event, Event::RankComm(_)))
        .collect();
    let mut events: Vec<Value> = Vec::new();

    // Metadata first: one process per observed pid, one thread label
    // per observed (pid, tid), in first-appearance order.
    let mut pids: Vec<u64> = Vec::new();
    let mut threads: Vec<(u64, u64)> = Vec::new();
    for &r in &records {
        let pid = pid_for(r);
        if !pids.contains(&pid) {
            pids.push(pid);
        }
        let key = (pid, tid_of(r));
        if !threads.contains(&key) {
            threads.push(key);
        }
    }
    for &pid in &pids {
        let label = if pid == DRIVER_PID {
            "driver".to_string()
        } else {
            format!("rank {}", pid - 1)
        };
        events.push(metadata("process_name", pid, None, &label));
    }
    for &(pid, tid) in &threads {
        events.push(metadata(
            "thread_name",
            pid,
            Some(tid),
            &format!("thread {tid}"),
        ));
    }

    for &r in &records {
        match &r.event {
            Event::Comm(c) => events.extend(comm_values(r, c)),
            _ => events.extend(event_value(r)),
        }
    }

    let doc = map(vec![
        ("traceEvents", Value::Seq(events)),
        ("displayTimeUnit", Value::Str("ms".to_string())),
    ]);
    serde_json::to_string(&doc).expect("trace document serializes")
}

/// Parses a JSONL trace file ([`crate::parse_jsonl`]) and exports it;
/// lines that fail to parse are skipped (a live file's tail may be
/// mid-write).
pub fn export_jsonl(text: &str) -> String {
    export(&crate::parse_jsonl(text).0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::MdStepSample;

    fn rec(seq: u64, t_ns: u64, rank: Option<u32>, tid: u32, event: Event) -> Record {
        Record {
            seq,
            t_ns,
            rank,
            tid: Some(tid),
            event,
        }
    }

    /// Integer fields come back as `I64` or `U64` depending on the
    /// parser's width choice; compare numerically.
    fn num(v: Option<&Value>) -> Option<i64> {
        match v {
            Some(Value::I64(n)) => Some(*n),
            Some(Value::U64(n)) => Some(*n as i64),
            Some(Value::F64(n)) => Some(*n as i64),
            _ => None,
        }
    }

    #[test]
    fn ranks_become_processes_and_spans_pair_up() {
        let records = vec![
            rec(0, 1_000, None, 0, Event::SpanOpen { path: "run".into() }),
            rec(
                1,
                2_000,
                Some(0),
                1,
                Event::SpanOpen {
                    path: "run/md.step".into(),
                },
            ),
            rec(
                2,
                5_000,
                Some(0),
                1,
                Event::SpanClose {
                    path: "run/md.step".into(),
                    dur_ns: 3_000,
                },
            ),
            rec(
                3,
                6_000,
                Some(0),
                1,
                Event::Md(MdStepSample {
                    step: 1,
                    kinetic: 4.5,
                    ..Default::default()
                }),
            ),
            rec(
                4,
                9_000,
                None,
                0,
                Event::SpanClose {
                    path: "run".into(),
                    dur_ns: 8_000,
                },
            ),
        ];
        let json = export(&records);
        let doc = serde_json::parse(&json).unwrap();
        let events = match doc.get("traceEvents").unwrap() {
            Value::Seq(v) => v.clone(),
            other => panic!("traceEvents not a list: {other:?}"),
        };
        // 2 process_name + 2 thread_name + 5 events.
        assert_eq!(events.len(), 9);
        let names: Vec<_> = events
            .iter()
            .filter_map(|e| match e.get("name") {
                Some(Value::Str(s)) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert!(names.contains(&"process_name".to_string()));
        assert!(names.contains(&"md.step".to_string()));
        // The rank-0 span rides on pid 1; the driver span on pid 0.
        let span_b = events
            .iter()
            .find(|e| {
                matches!(e.get("ph"), Some(Value::Str(p)) if p == "B")
                    && num(e.get("pid")) == Some(1)
            })
            .expect("rank-0 B event");
        assert_eq!(num(span_b.get("tid")), Some(1));
    }

    #[test]
    fn comm_records_become_slices_and_flows() {
        fn comm(op: &str, rank: u32, peer: u32) -> CommRecord {
            CommRecord {
                op: op.into(),
                rank,
                peer: Some(peer),
                tag: 5,
                bytes: 64,
                match_src: Some(0),
                match_seq: 1,
                lamport: 2,
                vt_enter: 0.0,
                vt_exit: 1e-6,
                dur_ns: 500,
            }
        }
        // Untagged records (rank: None): the pid must still come from
        // the swmpi rank inside the comm record.
        let records = vec![
            rec(0, 1_000, None, 0, Event::Comm(comm("send", 0, 1))),
            rec(1, 2_000, None, 1, Event::Comm(comm("recv", 1, 0))),
        ];
        let json = export(&records);
        let doc = serde_json::parse(&json).unwrap();
        let events = match doc.get("traceEvents").unwrap() {
            Value::Seq(v) => v.clone(),
            _ => unreachable!(),
        };
        let ph = |p: &str| {
            events
                .iter()
                .filter(|e| matches!(e.get("ph"), Some(Value::Str(s)) if s == p))
                .collect::<Vec<_>>()
        };
        // One X slice per op, one flow start, one flow step.
        assert_eq!(ph("X").len(), 2);
        let (s, t) = (ph("s"), ph("t"));
        assert_eq!((s.len(), t.len()), (1, 1));
        // Both halves share the match id and sit on their rank's pid.
        assert_eq!(s[0].get("id"), t[0].get("id"));
        assert_eq!(num(s[0].get("pid")), Some(1));
        assert_eq!(num(t[0].get("pid")), Some(2));
        // The slice spans the blocking wall time ending at t_ns.
        let x_send = ph("X")
            .into_iter()
            .find(|e| num(e.get("pid")) == Some(1))
            .unwrap()
            .clone();
        assert_eq!(x_send.get("ts"), Some(&Value::F64(0.5)));
        assert_eq!(x_send.get("dur"), Some(&Value::F64(0.5)));
    }

    #[test]
    fn export_jsonl_skips_torn_lines() {
        let good = rec(0, 10, Some(2), 0, Event::SpanOpen { path: "x".into() });
        let text = format!("{}\n{{\"seq\": 1, \"t_ns\"", good.to_jsonl());
        let json = export_jsonl(&text);
        let doc = serde_json::parse(&json).unwrap();
        let events = match doc.get("traceEvents").unwrap() {
            Value::Seq(v) => v.clone(),
            _ => unreachable!(),
        };
        // 1 process + 1 thread + 1 event — the torn line is dropped.
        assert_eq!(events.len(), 3);
    }
}
