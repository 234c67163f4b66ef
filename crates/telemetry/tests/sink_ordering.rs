//! Concurrency-facing telemetry tests: the in-memory sink must capture
//! a consistent total order (gapless, increasing sequence numbers) even
//! when events are emitted from rayon parallel sections, and span
//! accounting must satisfy the child-self-time inequality under
//! nesting.

use mmds_telemetry::{Event, MemorySink, Mode, Record, Telemetry};
use rayon::prelude::*;

#[test]
fn memory_sink_captures_ordered_events_under_rayon() {
    let tel = Telemetry::with_mode(Mode::Summary);
    let sink = MemorySink::new();
    tel.install_sink(Box::new(sink.clone()));

    let per_task = 25usize;
    let tasks: Vec<usize> = (0..8).collect();
    tasks
        .into_par_iter()
        .map(|task| {
            for i in 0..per_task {
                let _g = tel.span(if task % 2 == 0 { "even" } else { "odd" });
                tel.emit(Event::Counter {
                    name: format!("task{task}"),
                    value: i as f64,
                });
            }
            task
        })
        .collect::<Vec<_>>();

    let records = sink.records();
    // 8 tasks × 25 iterations × (open + counter + close).
    assert_eq!(records.len(), 8 * per_task * 3);
    // Sequence numbers are gapless and increasing in arrival order: the
    // sink saw one consistent total order despite parallel emitters.
    for (i, r) in records.iter().enumerate() {
        assert_eq!(r.seq, i as u64, "record {i} out of order: {r:?}");
    }
    // Timestamps never go backwards along that order.
    for w in records.windows(2) {
        assert!(w[0].t_ns <= w[1].t_ns, "time went backwards: {w:?}");
    }
    // Per-task counter events keep their program order.
    for task in 0..8 {
        let name = format!("task{task}");
        let values: Vec<f64> = records
            .iter()
            .filter_map(|r| match &r.event {
                Event::Counter { name: n, value } if *n == name => Some(*value),
                _ => None,
            })
            .collect();
        assert_eq!(values.len(), per_task);
        for (i, v) in values.iter().enumerate() {
            assert_eq!(*v, i as f64, "task {task} reordered");
        }
    }
}

#[test]
fn nested_span_accounting_from_parallel_sections() {
    let tel = std::sync::Arc::new(Telemetry::with_mode(Mode::Summary));
    let items: Vec<usize> = (0..6).collect();
    {
        let tel = std::sync::Arc::clone(&tel);
        items
            .into_par_iter()
            .map(move |_| {
                let _outer = tel.span("outer");
                std::thread::sleep(std::time::Duration::from_millis(3));
                {
                    let _inner = tel.span("inner");
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
            })
            .collect::<Vec<_>>();
    }
    let reports = tel.run_report().spans;
    let outer = reports.iter().find(|r| r.path == "outer").unwrap();
    let inner = reports.iter().find(|r| r.path == "outer/inner").unwrap();
    assert_eq!(outer.count, 6);
    assert_eq!(inner.count, 6);
    // Child self-time ≤ parent total; parent self excludes child time.
    assert!(inner.self_s <= inner.total_s + 1e-9);
    assert!(inner.total_s <= outer.total_s + 1e-9);
    assert!(outer.self_s <= outer.total_s - inner.total_s + 1e-3);
}

#[test]
fn jsonl_file_round_trips_a_full_event_stream() {
    let dir = std::env::temp_dir().join("mmds_telemetry_it");
    let path = dir.join("stream.jsonl");
    let path_s = path.to_str().unwrap().to_string();
    {
        let tel = Telemetry::with_mode(Mode::Jsonl(path_s.clone()));
        let _a = tel.span("run");
        let _b = tel.span("phase");
        tel.emit(Event::Md(mmds_telemetry::MdStepSample {
            step: 1,
            kinetic: 3.5,
            potential: -10.0,
            runaways: 1,
            vacancies: 2,
            interstitials: 1,
            energy_drift: 0.0,
            momentum_norm: 0.5,
        }));
        drop(_b);
        drop(_a);
        tel.take_sink(); // flush by dropping the FileSink
    }
    let text = std::fs::read_to_string(&path).unwrap();
    let records: Vec<Record> = text
        .lines()
        .map(|l| Record::from_jsonl(l).unwrap())
        .collect();
    assert_eq!(records.len(), 5); // 2 opens, 1 sample, 2 closes
    assert!(matches!(&records[0].event, Event::SpanOpen { path } if path == "run"));
    assert!(
        matches!(&records[4].event, Event::SpanClose { path, .. } if path == "run"),
        "outermost span closes last"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
