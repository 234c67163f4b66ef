//! In-memory spans recorded around the calls into each layer.
//!
//! The traced binary wraps every call it makes into the engine in a
//! span; nothing inside the engine is touched. Each rank thread owns a
//! [`Recorder`], so recording takes no lock, and the spans are merged
//! and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-prefixed name of the call.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index (within the same recorder) of the span that made the call.
    pub parent: Option<u32>,
    /// Rank whose thread recorded the span.
    pub rank: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records the spans of one thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    rank: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    /// A recorder whose timestamps count from `epoch`. Recorders that
    /// share an epoch produce comparable timestamps.
    pub fn new(epoch: Instant, rank: u32) -> Self {
        Self {
            epoch,
            rank,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`; spans opened by `f` through
    /// the recorder it is handed become children.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            rank: self.rank,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    /// The spans recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans recorded so far; pass it to [`Recorder::since`]
    /// to look at only what a later stretch of the run recorded.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// The spans opened at or after `mark`.
    pub fn since(&self, mark: usize) -> &[Span] {
        &self.spans[mark..]
    }
}

/// Self time of every span of one recorder: its duration minus the part
/// of that interval its direct children cover. `spans` must be one
/// recorder's spans from index 0, so parent indices resolve.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Calls, total time and self time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    /// Spans with this name.
    pub calls: u64,
    /// Summed duration (children included), ns.
    pub total_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

impl NameTotal {
    /// Summed duration in seconds.
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }

    /// Summed self time in seconds.
    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 * 1e-9
    }
}

/// Per-name totals over the spans of one recorder that were opened at
/// or after index `from`.
pub fn totals_by_name(spans: &[Span], from: usize) -> BTreeMap<&'static str, NameTotal> {
    let own = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, own_ns) in spans.iter().zip(own).skip(from) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += own_ns;
    }
    out
}

/// Durations, in milliseconds, of the spans called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 * 1e-6)
        .collect()
}

/// Writes spans as one JSON object per line.
pub fn write_jsonl(spans: &[Span], mut w: impl Write) -> std::io::Result<()> {
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"rank\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, s.rank
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            rank: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // step [0,100) → force [10,70) → density [20,50); step → kick [80,90)
        let spans = [
            span("step", 0, 100, None),
            span("force", 10, 70, Some(0)),
            span("density", 20, 50, Some(1)),
            span("kick", 80, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 30, 10]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn totals_group_by_name_and_respect_the_mark() {
        let spans = [
            span("step", 0, 50, None),
            span("kick", 10, 20, Some(0)),
            span("step", 50, 120, None),
            span("kick", 60, 90, Some(2)),
        ];
        let all = totals_by_name(&spans, 0);
        assert_eq!(
            all["step"],
            NameTotal {
                calls: 2,
                total_ns: 120,
                self_ns: 80
            }
        );
        assert_eq!(all["kick"].total_ns, 40);
        assert_eq!(durations_ms(&spans, "kick"), vec![10.0 * 1e-6, 30.0 * 1e-6]);
        let late = totals_by_name(&spans, 2);
        assert_eq!(late["step"].calls, 1);
        assert_eq!(late["step"].self_ns, 40);
        assert_eq!(late["kick"].self_ns, 30);
    }

    #[test]
    fn recorder_nests_scopes_and_orders_timestamps() {
        let mut rec = Recorder::new(Instant::now(), 3);
        let v = rec.scope("outer", |r| {
            r.scope("inner", |_| 1) + r.scope("inner", |_| 2)
        });
        assert_eq!(v, 3);
        let s = rec.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent, s[0].rank), ("outer", None, 3));
        assert_eq!((s[1].parent, s[2].parent), (Some(0), Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[2].start_ns);
        assert!(s[2].end_ns <= s[0].end_ns);
        assert_eq!(rec.since(rec.mark()).len(), 0);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let spans = [span("a.b", 1, 2, None), span("c", 3, 5, Some(0))];
        let mut buf = Vec::new();
        write_jsonl(&spans, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[1],
            r#"{"name":"c","start_ns":3,"end_ns":5,"parent":0,"rank":0}"#
        );
        for l in lines {
            serde_json::parse(l).expect("each line is JSON");
        }
    }
}
