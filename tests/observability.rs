//! End-to-end observability tests: the tracer threaded through the whole
//! stack, the Perfetto export of a real run, and span assembly over a
//! saturated ring buffer.

use esp4ml::apps::{CaseApp, TrainedModels};
use esp4ml::experiments::{AppRun, RunOptions};
use esp4ml::noc::Coord;
use esp4ml::runtime::{Dataflow, EspRuntime, ExecMode, RunSpec};
use esp4ml::soc::{ScaleKernel, SocBuilder};
use esp4ml::trace::perfetto::{self, tile_tid};
use esp4ml::trace::{RingBufferSink, SpanCollector, TileCoord, TraceEvent, Tracer};
use esp4ml::TraceSession;

/// A full case-study run exports a valid Chrome trace: parseable JSON,
/// monotonically non-decreasing `ts`, one named track per accelerator
/// tile, and at least one event per simulated frame.
#[test]
fn perfetto_export_round_trips_from_e2e_run() {
    let models = TrainedModels::untrained();
    let app = CaseApp::DenoiserClassifier;
    let frames = 3u64;
    let mut session = TraceSession::with_sampling(Tracer::ring_buffer(), 500);
    let run = AppRun::execute(
        &app,
        &models,
        frames,
        ExecMode::P2p,
        RunOptions::default().traced(&mut session),
    )
    .expect("run");
    assert_eq!(run.metrics.frames, frames);

    // The counter time-series and NoC summary were collected on the way.
    assert_eq!(session.series().len(), 1);
    assert!(session.counters_csv().lines().count() > 1);
    assert!(session.noc_summary().contains("dma-req"));

    let events = session.tracer().drain();
    let completions = events
        .iter()
        .filter(|e| matches!(e.event, TraceEvent::FrameComplete { .. }))
        .count();
    assert!(
        completions >= frames as usize,
        "{completions} frame completions for {frames} frames"
    );

    let text = serde_json::to_string_pretty(&perfetto::chrome_trace(&events, 0, 0))
        .expect("trace serializes");
    let doc: serde_json::Value =
        serde_json::from_str(&text).expect("exporter emitted invalid JSON");
    let rows = doc["traceEvents"].as_array().expect("traceEvents array");

    // ts is monotonic across data rows and every data row carries pid 1
    // (a single RunStart means a single process).
    let mut last_ts = 0u64;
    let mut data_rows = 0usize;
    for row in rows {
        if row["ph"].as_str() == Some("M") {
            continue;
        }
        let ts = row["ts"].as_u64().expect("data row missing ts");
        assert!(ts >= last_ts, "ts went backwards: {ts} < {last_ts}");
        last_ts = ts;
        assert_eq!(row["pid"].as_u64(), Some(1));
        data_rows += 1;
    }
    assert!(data_rows as u64 >= frames, "fewer events than frames");

    // The single process is named after the run.
    let process = rows
        .iter()
        .find(|r| r["name"].as_str() == Some("process_name"))
        .expect("process_name metadata");
    let expected = format!("{} p2p", app.label());
    assert_eq!(process["args"]["name"].as_str(), Some(expected.as_str()));

    // One named accel track per accelerator tile that ran. (Floorplans
    // may contain sockets a given app/mode never invokes; idle tiles
    // emit no events and therefore get no track.)
    let thread_names: Vec<(String, u64)> = rows
        .iter()
        .filter(|r| r["name"].as_str() == Some("thread_name"))
        .map(|r| {
            (
                r["args"]["name"].as_str().unwrap().to_string(),
                r["tid"].as_u64().unwrap(),
            )
        })
        .collect();
    let active: std::collections::BTreeSet<TileCoord> = events
        .iter()
        .filter(|e| matches!(e.event, TraceEvent::AccelPhaseChange { .. }))
        .map(|e| e.source)
        .collect();
    assert!(active.len() >= 2, "pipeline should use at least two accels");
    for coord in active {
        let tid = tile_tid(coord);
        assert!(
            thread_names
                .iter()
                .any(|(name, t)| *t == tid && name.starts_with("accel ")),
            "no accel track for tile {coord}: {thread_names:?}"
        );
    }
}

fn two_stage_runtime() -> EspRuntime {
    let soc = SocBuilder::new(3, 2)
        .processor(Coord::new(0, 0))
        .memory(Coord::new(1, 0))
        .accelerator(Coord::new(0, 1), Box::new(ScaleKernel::new("x2", 16, 2)))
        .accelerator(Coord::new(1, 1), Box::new(ScaleKernel::new("x3", 16, 3)))
        .build()
        .expect("floorplan");
    EspRuntime::new(soc).expect("runtime")
}

fn run_frames(rt: &mut EspRuntime, frames: u64, mode: ExecMode) -> esp4ml::runtime::RunMetrics {
    let df = Dataflow::linear(&[&["x2"], &["x3"]]);
    let buf = rt.prepare(&df, frames).expect("prepare");
    for f in 0..frames {
        rt.write_frame(&buf, f, &[f + 1; 16]).expect("write");
    }
    rt.run(&RunSpec::new(&df).mode(mode), &buf)
        .expect("esp_run")
}

/// A saturated ring buffer must not corrupt span assembly: the online
/// collector sees every event before the buffer evicts it, so the
/// report stays exact — but carrying over the sink's dropped-span count
/// flags it as partial, and replaying the truncated buffer offline
/// (having lost the `RunStart`) yields no half-open run rather than a
/// panic.
#[test]
fn saturated_ring_buffer_yields_consistent_partial_spans() {
    let spans = SpanCollector::new();
    // 64 events is far below what a 4-frame two-stage run emits.
    let tracer = Tracer::with_sink(spans.sink(Box::new(RingBufferSink::new(64))));
    tracer.emit(0, TileCoord::new(0, 0), || TraceEvent::RunStart {
        label: "saturated".into(),
    });
    let mut rt = two_stage_runtime();
    rt.set_tracer(tracer.clone());
    run_frames(&mut rt, 4, ExecMode::Pipe);
    assert!(tracer.dropped() > 0, "buffer was not saturated");
    assert!(
        tracer.dropped_spans() > 0,
        "no span-relevant events were evicted"
    );

    spans.note_dropped_spans(tracer.dropped_spans());
    let end = rt.soc().cycle();
    let report = spans.close_run(end).expect("open run closes");
    assert!(report.partial, "dropped spans must flag the report partial");
    assert_eq!(report.dropped_spans, tracer.dropped_spans());
    assert_eq!(report.frames.len(), 4);
    // The collector observed the full stream online, so attribution
    // stays exact even though the buffered copy is truncated.
    report.check_attribution().expect("attribution");

    // Offline replay of the truncated buffer: the RunStart marker was
    // the oldest event and is long evicted, so a fresh collector opens
    // no run — and must say so instead of panicking or fabricating one.
    let drained = tracer.drain();
    assert!(drained.len() <= 64);
    let fresh = SpanCollector::new();
    fresh.observe_all(&drained);
    assert!(fresh.close_run(end).is_none());
}

/// The tracer observes the full event taxonomy during a DMA-mode run:
/// ioctls, DMA bursts, NoC traffic, phase changes and frame completions.
#[test]
fn tracer_sees_all_event_kinds_in_dma_mode() {
    let mut rt = two_stage_runtime();
    let tracer = Tracer::ring_buffer();
    rt.set_tracer(tracer.clone());
    run_frames(&mut rt, 2, ExecMode::Base);
    let events = tracer.drain();
    let has = |pred: &dyn Fn(&TraceEvent) -> bool| events.iter().any(|e| pred(&e.event));
    assert!(has(&|e| matches!(e, TraceEvent::IoctlIssue { .. })));
    assert!(has(&|e| matches!(e, TraceEvent::DmaBurst { .. })));
    assert!(has(&|e| matches!(e, TraceEvent::NocPacketInject { .. })));
    assert!(has(&|e| matches!(e, TraceEvent::NocPacketEject { .. })));
    assert!(has(&|e| matches!(e, TraceEvent::AccelPhaseChange { .. })));
    assert!(has(&|e| matches!(e, TraceEvent::FrameComplete { .. })));
}
