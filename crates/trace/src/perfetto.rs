//! Chrome `trace_event` JSON export (viewable at ui.perfetto.dev).
//!
//! Mapping:
//!
//! - Each [`TraceEvent::RunStart`] opens a new *process* (pid), named
//!   after the run label, so sweeps like `fig7` render each app/mode
//!   combination as its own process group.
//! - Each tile gets one *thread* (track) per process — see
//!   [`tile_tid`] — named `tile (x,y)` or `accel <name> (x,y)` once an
//!   accelerator identifies itself.
//! - Each NoC plane gets one track per process — see [`plane_tid`].
//! - Accelerator phases become duration (`"X"`) events reconstructed
//!   from consecutive [`TraceEvent::AccelPhaseChange`]s. States in the
//!   span layer's idle class (`idle`, `done`) are elided; DMA bursts and packet flights become duration events;
//!   everything else becomes an instant (`"i"`) event.
//! - `ts`/`dur` are simulated cycles, presented as microseconds
//!   (1 cycle = 1 µs in the viewer).

use crate::event::{TileCoord, TimedEvent, TraceEvent};
use crate::span::{classify_state, SpanKind, SpanReport};
use serde_json::Value;
use std::collections::HashMap;

/// Thread id of a tile track: stable, unique per coordinate.
pub fn tile_tid(tile: TileCoord) -> u64 {
    1 + (tile.x as u64) * 256 + tile.y as u64
}

/// Base offset separating NoC plane tracks from tile tracks.
const PLANE_TID_BASE: u64 = 1_000_000;

/// Thread id of a NoC plane track.
pub fn plane_tid(plane: usize) -> u64 {
    PLANE_TID_BASE + plane as u64
}

struct Builder {
    rows: Vec<Value>,
    /// (pid, tid) -> (phase name, start cycle, frame tag) of the open
    /// accel span.
    open_spans: HashMap<(u64, u64), (String, u64, Option<u64>)>,
    /// (pid, tid) -> track name; accel names win over defaults.
    track_names: HashMap<(u64, u64), (String, bool)>,
    /// pid -> process (run) name.
    process_names: Vec<(u64, String)>,
    pid: u64,
    last_cycle: u64,
}

impl Builder {
    fn new() -> Self {
        Builder {
            rows: Vec::new(),
            open_spans: HashMap::new(),
            track_names: HashMap::new(),
            process_names: Vec::new(),
            pid: 1,
            last_cycle: 0,
        }
    }

    fn name_track(&mut self, tid: u64, name: String, from_accel: bool) {
        let entry = self
            .track_names
            .entry((self.pid, tid))
            .or_insert_with(|| (name.clone(), from_accel));
        if from_accel && !entry.1 {
            *entry = (name, true);
        }
    }

    fn tile_track(&mut self, tile: TileCoord) -> u64 {
        let tid = tile_tid(tile);
        self.name_track(tid, format!("tile {tile}"), false);
        tid
    }

    fn plane_track(&mut self, plane: usize) -> u64 {
        let tid = plane_tid(plane);
        self.name_track(tid, format!("noc plane {plane}"), false);
        tid
    }

    fn duration(&mut self, name: &str, cat: &str, ts: u64, dur: u64, tid: u64, args: Value) {
        let mut map = serde_json::Map::new();
        map.insert("name".into(), Value::from(name));
        map.insert("cat".into(), Value::from(cat));
        map.insert("ph".into(), Value::from("X"));
        map.insert("ts".into(), Value::from(ts));
        map.insert("dur".into(), Value::from(dur.max(1)));
        map.insert("pid".into(), Value::from(self.pid));
        map.insert("tid".into(), Value::from(tid));
        if !args.is_null() {
            map.insert("args".into(), args);
        }
        self.rows.push(Value::Object(map));
    }

    fn instant(&mut self, name: &str, cat: &str, ts: u64, tid: u64, args: Value) {
        let mut map = serde_json::Map::new();
        map.insert("name".into(), Value::from(name));
        map.insert("cat".into(), Value::from(cat));
        map.insert("ph".into(), Value::from("i"));
        map.insert("ts".into(), Value::from(ts));
        map.insert("pid".into(), Value::from(self.pid));
        map.insert("tid".into(), Value::from(tid));
        map.insert("s".into(), Value::from("t"));
        if !args.is_null() {
            map.insert("args".into(), args);
        }
        self.rows.push(Value::Object(map));
    }

    /// Ends the open accelerator span on `(pid, tid)` at `cycle`.
    fn close_span(&mut self, tid: u64, cycle: u64) {
        if let Some((phase, start, frame)) = self.open_spans.remove(&(self.pid, tid)) {
            // Idle gaps carry no information; eliding them keeps the
            // phase tracks readable. The idle class is the span layer's.
            if classify_state(&phase) != SpanKind::Queue {
                let dur = cycle.saturating_sub(start);
                let args = match frame {
                    Some(f) => {
                        let mut map = serde_json::Map::new();
                        map.insert("frame".into(), Value::from(f));
                        Value::Object(map)
                    }
                    None => Value::Null,
                };
                self.duration(&phase, "accel_phase", start, dur, tid, args);
            }
        }
    }

    fn close_all_spans(&mut self, cycle: u64) {
        let open: Vec<u64> = self
            .open_spans
            .keys()
            .filter(|(pid, _)| *pid == self.pid)
            .map(|(_, tid)| *tid)
            .collect();
        for tid in open {
            self.close_span(tid, cycle);
        }
    }

    fn push_event(&mut self, ev: &TimedEvent) {
        let cycle = ev.cycle;
        self.last_cycle = self.last_cycle.max(cycle);
        match &ev.event {
            TraceEvent::RunStart { label } => {
                self.close_all_spans(cycle);
                if !self.process_names.is_empty() {
                    self.pid += 1;
                }
                self.process_names.push((self.pid, label.clone()));
            }
            TraceEvent::AccelPhaseChange {
                accel, to, frame, ..
            } => {
                let tid = self.tile_track(ev.source);
                self.name_track(tid, format!("accel {accel} {}", ev.source), true);
                self.close_span(tid, cycle);
                self.open_spans
                    .insert((self.pid, tid), (to.to_string(), cycle, *frame));
            }
            TraceEvent::DmaBurst {
                kind,
                words,
                latency,
                frame,
            } => {
                let tid = self.tile_track(ev.source);
                let mut args = serde_json::Map::new();
                args.insert("words".into(), Value::from(*words));
                if let Some(f) = frame {
                    args.insert("frame".into(), Value::from(*f));
                }
                self.duration(
                    &format!("dram {}", kind.label()),
                    "dma_burst",
                    cycle,
                    *latency,
                    tid,
                    Value::Object(args),
                );
            }
            TraceEvent::P2pTransfer { dest, words, frame } => {
                let tid = self.tile_track(ev.source);
                let mut args = serde_json::Map::new();
                args.insert("dest".into(), Value::from(dest.to_string()));
                args.insert("words".into(), Value::from(*words));
                if let Some(f) = frame {
                    args.insert("frame".into(), Value::from(*f));
                }
                self.instant(
                    &format!("p2p to {dest}"),
                    "p2p_transfer",
                    cycle,
                    tid,
                    Value::Object(args),
                );
            }
            TraceEvent::NocPacketInject { plane, frame } => {
                let tid = self.plane_track(*plane);
                let mut args = serde_json::Map::new();
                args.insert("src".into(), Value::from(ev.source.to_string()));
                if let Some(f) = frame {
                    args.insert("frame".into(), Value::from(*f));
                }
                self.instant("inject", "noc_packet", cycle, tid, Value::Object(args));
            }
            TraceEvent::NocPacketEject {
                plane,
                latency,
                frame,
            } => {
                let tid = self.plane_track(*plane);
                let mut args = serde_json::Map::new();
                args.insert("dest".into(), Value::from(ev.source.to_string()));
                args.insert("latency".into(), Value::from(*latency));
                if let Some(f) = frame {
                    args.insert("frame".into(), Value::from(*f));
                }
                self.duration(
                    "packet",
                    "noc_packet",
                    cycle.saturating_sub(*latency),
                    *latency,
                    tid,
                    Value::Object(args),
                );
            }
            TraceEvent::TlbMiss { penalty } => {
                let tid = self.tile_track(ev.source);
                let mut args = serde_json::Map::new();
                args.insert("penalty".into(), Value::from(*penalty));
                self.instant("tlb miss", "tlb_miss", cycle, tid, Value::Object(args));
            }
            TraceEvent::IoctlIssue { device } => {
                let tid = self.tile_track(ev.source);
                self.instant(
                    &format!("ioctl {device}"),
                    "ioctl_issue",
                    cycle,
                    tid,
                    Value::Null,
                );
            }
            TraceEvent::FrameComplete { accel, frame } => {
                let tid = self.tile_track(ev.source);
                let mut args = serde_json::Map::new();
                args.insert("accel".into(), Value::from(accel.as_str()));
                args.insert("frame".into(), Value::from(*frame));
                self.instant(
                    &format!("frame {frame} done"),
                    "frame_complete",
                    cycle,
                    tid,
                    Value::Object(args),
                );
            }
            TraceEvent::FaultInjected { fault, detail } => {
                let tid = self.tile_track(ev.source);
                let mut args = serde_json::Map::new();
                args.insert("detail".into(), Value::from(detail.as_str()));
                self.instant(
                    &format!("fault {fault}"),
                    "fault_injected",
                    cycle,
                    tid,
                    Value::Object(args),
                );
            }
            TraceEvent::RetryScheduled {
                device,
                attempt,
                backoff,
            } => {
                let tid = self.tile_track(ev.source);
                let mut args = serde_json::Map::new();
                args.insert("attempt".into(), Value::from(*attempt));
                args.insert("backoff".into(), Value::from(*backoff));
                self.instant(
                    &format!("retry {device} #{attempt}"),
                    "retry_scheduled",
                    cycle,
                    tid,
                    Value::Object(args),
                );
            }
            TraceEvent::FailedOver { from, to } => {
                let tid = self.tile_track(ev.source);
                let mut args = serde_json::Map::new();
                args.insert("from".into(), Value::from(from.as_str()));
                args.insert("to".into(), Value::from(to.as_str()));
                self.instant(
                    &format!("failover {from} -> {to}"),
                    "failed_over",
                    cycle,
                    tid,
                    Value::Object(args),
                );
            }
        }
    }

    fn finish(mut self) -> Value {
        self.close_all_spans(self.last_cycle.saturating_add(1));

        // Chronological `ts` order (stable sort keeps emit order within
        // a cycle).
        self.rows.sort_by_key(|row| row["ts"].as_u64().unwrap_or(0));

        let mut all = Vec::new();
        if self.process_names.is_empty() {
            self.process_names.push((1, "run".to_string()));
        }
        for (pid, name) in &self.process_names {
            all.push(metadata_row("process_name", *pid, None, name));
        }
        let mut named: Vec<_> = self.track_names.iter().collect();
        named.sort_by_key(|(k, _)| **k);
        for ((pid, tid), (name, _)) in named {
            all.push(metadata_row("thread_name", *pid, Some(*tid), name));
        }
        all.extend(self.rows);

        let mut top = serde_json::Map::new();
        top.insert("traceEvents".into(), Value::Array(all));
        top.insert("displayTimeUnit".into(), Value::from("ms"));
        Value::Object(top)
    }
}

fn metadata_row(kind: &str, pid: u64, tid: Option<u64>, name: &str) -> Value {
    let mut args = serde_json::Map::new();
    args.insert("name".into(), Value::from(name));
    let mut map = serde_json::Map::new();
    map.insert("name".into(), Value::from(kind));
    map.insert("ph".into(), Value::from("M"));
    map.insert("pid".into(), Value::from(pid));
    if let Some(tid) = tid {
        map.insert("tid".into(), Value::from(tid));
    }
    map.insert("args".into(), Value::Object(args));
    Value::Object(map)
}

/// Converts recorded events into a Chrome `trace_event` JSON document,
/// recording how many events the sink discarded under capacity pressure
/// (`dropped`) and how many of those the span assembler needed
/// (`dropped_spans`). A nonzero count appends a `trace_dropped_events`
/// or `trace_dropped_spans` metadata row, so truncated traces — and
/// span trees derived from them — are self-describing.
pub fn chrome_trace(events: &[TimedEvent], dropped: u64, dropped_spans: u64) -> Value {
    let mut builder = Builder::new();
    for ev in events {
        builder.push_event(ev);
    }
    let mut doc = builder.finish();
    let mut extra = Vec::new();
    if dropped > 0 {
        extra.push(("trace_dropped_events", "dropped", dropped));
    }
    if dropped_spans > 0 {
        extra.push(("trace_dropped_spans", "dropped_spans", dropped_spans));
    }
    for (name, key, value) in extra {
        let mut args = serde_json::Map::new();
        args.insert(key.into(), Value::from(value));
        let mut row = serde_json::Map::new();
        row.insert("name".into(), Value::from(name));
        row.insert("ph".into(), Value::from("M"));
        row.insert("pid".into(), Value::from(1u64));
        row.insert("args".into(), Value::Object(args));
        if let Some(Value::Array(rows)) = doc.get_mut("traceEvents") {
            rows.push(Value::Object(row));
        }
    }
    doc
}

/// Base offset separating per-stage span tracks from tile/plane tracks.
const STAGE_TID_BASE: u64 = 2_000_000;

/// Converts assembled span reports into a flow-linked Chrome
/// `trace_event` JSON document: one process per run, one track per
/// pipeline stage, one duration row per span (instants for zero-length
/// markers), and `s`/`t`/`f` flow events chaining each frame's spans
/// causally so the viewer draws the frame's critical path as arrows.
/// Partial reports carry a `trace_dropped_spans` metadata row.
pub fn span_chrome_trace(reports: &[SpanReport]) -> Value {
    let mut rows = Vec::new();
    for (i, report) in reports.iter().enumerate() {
        let pid = i as u64 + 1;
        rows.push(metadata_row("process_name", pid, None, &report.label));

        // Stage tracks in order of first appearance.
        let mut stage_tids: Vec<(String, u64)> = Vec::new();
        let mut tid_of = |stage: &str, out: &mut Vec<Value>| -> u64 {
            if let Some((_, tid)) = stage_tids.iter().find(|(n, _)| n == stage) {
                return *tid;
            }
            let tid = STAGE_TID_BASE + stage_tids.len() as u64;
            stage_tids.push((stage.to_string(), tid));
            out.push(metadata_row(
                "thread_name",
                pid,
                Some(tid),
                &format!("stage {stage}"),
            ));
            tid
        };

        for frame in &report.frames {
            // One flow chain per frame; ids are unique across runs.
            let flow_id = (pid << 40) | frame.frame;
            let mut flat: Vec<(u64, &str)> = Vec::new(); // (begin, stage)
            for stage in &frame.stages {
                let tid = tid_of(&stage.stage, &mut rows);
                for span in &stage.spans {
                    let mut args = serde_json::Map::new();
                    args.insert("frame".into(), Value::from(frame.frame));
                    args.insert("owner".into(), Value::from(stage.owner.as_str()));
                    let mut map = serde_json::Map::new();
                    map.insert("name".into(), Value::from(span.kind.label()));
                    map.insert("cat".into(), Value::from("span"));
                    map.insert("ts".into(), Value::from(span.begin));
                    map.insert("pid".into(), Value::from(pid));
                    map.insert("tid".into(), Value::from(tid));
                    if span.cycles() == 0 {
                        map.insert("ph".into(), Value::from("i"));
                        map.insert("s".into(), Value::from("t"));
                    } else {
                        map.insert("ph".into(), Value::from("X"));
                        map.insert("dur".into(), Value::from(span.cycles()));
                        flat.push((span.begin, stage.stage.as_str()));
                    }
                    map.insert("args".into(), Value::Object(args));
                    rows.push(Value::Object(map));
                }
            }
            for (j, (begin, stage)) in flat.iter().enumerate() {
                let ph = if j == 0 {
                    "s"
                } else if j + 1 == flat.len() {
                    "f"
                } else {
                    "t"
                };
                let tid = tid_of(stage, &mut rows);
                let mut map = serde_json::Map::new();
                map.insert("name".into(), Value::from(format!("frame {}", frame.frame)));
                map.insert("cat".into(), Value::from("frame_flow"));
                map.insert("ph".into(), Value::from(ph));
                map.insert("id".into(), Value::from(flow_id));
                map.insert("ts".into(), Value::from(*begin));
                map.insert("pid".into(), Value::from(pid));
                map.insert("tid".into(), Value::from(tid));
                if ph == "f" {
                    map.insert("bp".into(), Value::from("e"));
                }
                rows.push(Value::Object(map));
            }
        }

        if report.dropped_spans > 0 {
            let mut args = serde_json::Map::new();
            args.insert("dropped_spans".into(), Value::from(report.dropped_spans));
            let mut row = serde_json::Map::new();
            row.insert("name".into(), Value::from("trace_dropped_spans"));
            row.insert("ph".into(), Value::from("M"));
            row.insert("pid".into(), Value::from(pid));
            row.insert("args".into(), Value::Object(args));
            rows.push(Value::Object(row));
        }
    }

    let mut top = serde_json::Map::new();
    top.insert("traceEvents".into(), Value::Array(rows));
    top.insert("displayTimeUnit".into(), Value::from("ms"));
    Value::Object(top)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::DmaKind;

    fn at(cycle: u64, x: u8, y: u8, event: TraceEvent) -> TimedEvent {
        TimedEvent {
            cycle,
            source: TileCoord::new(x, y),
            event,
        }
    }

    fn sample_events() -> Vec<TimedEvent> {
        vec![
            at(
                0,
                0,
                0,
                TraceEvent::RunStart {
                    label: "test run".into(),
                },
            ),
            at(
                5,
                1,
                1,
                TraceEvent::AccelPhaseChange {
                    accel: "nightvision0".into(),
                    from: "idle",
                    to: "load_issue",
                    frame: Some(0),
                },
            ),
            at(6, 1, 1, TraceEvent::TlbMiss { penalty: 20 }),
            at(
                8,
                2,
                0,
                TraceEvent::DmaBurst {
                    kind: DmaKind::Read,
                    words: 128,
                    latency: 40,
                    frame: Some(0),
                },
            ),
            at(
                9,
                0,
                1,
                TraceEvent::NocPacketInject {
                    plane: 3,
                    frame: Some(0),
                },
            ),
            at(
                30,
                1,
                1,
                TraceEvent::NocPacketEject {
                    plane: 3,
                    latency: 21,
                    frame: Some(0),
                },
            ),
            at(
                40,
                1,
                1,
                TraceEvent::AccelPhaseChange {
                    accel: "nightvision0".into(),
                    from: "load_issue",
                    to: "compute",
                    frame: Some(0),
                },
            ),
            at(
                90,
                1,
                1,
                TraceEvent::FrameComplete {
                    accel: "nightvision0".into(),
                    frame: 0,
                },
            ),
        ]
    }

    #[test]
    fn ts_is_monotonic_and_json_valid() {
        let text = serde_json::to_string_pretty(&chrome_trace(&sample_events(), 0, 0)).unwrap();
        let doc: Value = serde_json::from_str(&text).expect("exporter emitted invalid JSON");
        let rows = doc["traceEvents"].as_array().unwrap();
        let mut last = 0u64;
        let mut timed = 0;
        for row in rows {
            if row["ph"].as_str() == Some("M") {
                continue;
            }
            let ts = row["ts"].as_u64().expect("data row missing ts");
            assert!(ts >= last, "ts went backwards: {ts} < {last}");
            last = ts;
            timed += 1;
        }
        assert!(timed >= sample_events().len() - 1);
    }

    #[test]
    fn tracks_map_tiles_and_planes() {
        let doc = chrome_trace(&sample_events(), 0, 0);
        let rows = doc["traceEvents"].as_array().unwrap();

        // The accel tile track carries its phase span and is named.
        let phase = rows
            .iter()
            .find(|r| r["cat"].as_str() == Some("accel_phase"))
            .expect("no phase span emitted");
        assert_eq!(phase["tid"].as_u64(), Some(tile_tid(TileCoord::new(1, 1))));
        assert_eq!(phase["name"].as_str(), Some("load_issue"));

        let thread_names: Vec<(&str, u64)> = rows
            .iter()
            .filter(|r| r["name"].as_str() == Some("thread_name"))
            .map(|r| {
                (
                    r["args"]["name"].as_str().unwrap(),
                    r["tid"].as_u64().unwrap(),
                )
            })
            .collect();
        assert!(thread_names
            .iter()
            .any(|(n, t)| n.contains("nightvision0") && *t == tile_tid(TileCoord::new(1, 1))));
        assert!(thread_names
            .iter()
            .any(|(n, t)| *n == "noc plane 3" && *t == plane_tid(3)));

        // NoC events ride the plane track, not a tile track.
        let inject = rows
            .iter()
            .find(|r| r["name"].as_str() == Some("inject"))
            .unwrap();
        assert_eq!(inject["tid"].as_u64(), Some(plane_tid(3)));

        // Process named after the run label.
        let proc = rows
            .iter()
            .find(|r| r["name"].as_str() == Some("process_name"))
            .unwrap();
        assert_eq!(proc["args"]["name"].as_str(), Some("test run"));
    }

    /// The states the span layer counts as idle never become slices,
    /// whichever state they sit between.
    #[test]
    fn idle_class_states_are_elided() {
        let phase = |cycle, from, to| {
            at(
                cycle,
                1,
                1,
                TraceEvent::AccelPhaseChange {
                    accel: "nv0".into(),
                    from,
                    to,
                    frame: Some(0),
                },
            )
        };
        let events = [
            phase(5, "idle", "compute"),
            phase(20, "compute", "done"),
            phase(30, "done", "idle"),
            phase(40, "idle", "store_send"),
            phase(50, "store_send", "done"),
        ];
        let doc = chrome_trace(&events, 0, 0);
        let names: Vec<&str> = doc["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .filter(|r| r["cat"].as_str() == Some("accel_phase"))
            .map(|r| r["name"].as_str().unwrap())
            .collect();
        assert_eq!(names, ["compute", "store_send"]);
    }

    #[test]
    fn frame_completions_are_instants() {
        let doc = chrome_trace(&sample_events(), 0, 0);
        let rows = doc["traceEvents"].as_array().unwrap();
        let frame = rows
            .iter()
            .find(|r| r["cat"].as_str() == Some("frame_complete"))
            .expect("frame completion missing");
        assert_eq!(frame["ph"].as_str(), Some("i"));
        assert_eq!(frame["args"]["frame"].as_u64(), Some(0));
    }

    #[test]
    fn run_starts_split_processes() {
        let mut events = sample_events();
        events.push(at(
            100,
            0,
            0,
            TraceEvent::RunStart {
                label: "second".into(),
            },
        ));
        events.push(at(
            105,
            1,
            1,
            TraceEvent::FrameComplete {
                accel: "a".into(),
                frame: 0,
            },
        ));
        let doc = chrome_trace(&events, 0, 0);
        let rows = doc["traceEvents"].as_array().unwrap();
        let pids: std::collections::HashSet<u64> = rows
            .iter()
            .filter(|r| r["ph"].as_str() != Some("M"))
            .map(|r| r["pid"].as_u64().unwrap())
            .collect();
        assert_eq!(pids.len(), 2, "expected two processes, got {pids:?}");
    }

    #[test]
    fn dropped_events_become_metadata() {
        let doc = chrome_trace(&sample_events(), 42, 0);
        let rows = doc["traceEvents"].as_array().unwrap();
        let row = rows
            .iter()
            .find(|r| r["name"].as_str() == Some("trace_dropped_events"))
            .expect("dropped-event metadata missing");
        assert_eq!(row["ph"].as_str(), Some("M"));
        assert_eq!(row["args"]["dropped"].as_u64(), Some(42));
        // A lossless trace stays clean: no metadata row.
        let clean = chrome_trace(&sample_events(), 0, 0);
        assert!(!clean["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .any(|r| r["name"].as_str() == Some("trace_dropped_events")));
    }

    #[test]
    fn dropped_spans_become_metadata() {
        let doc = chrome_trace(&sample_events(), 42, 7);
        let rows = doc["traceEvents"].as_array().unwrap();
        let row = rows
            .iter()
            .find(|r| r["name"].as_str() == Some("trace_dropped_spans"))
            .expect("dropped-span metadata missing");
        assert_eq!(row["args"]["dropped_spans"].as_u64(), Some(7));
    }

    #[test]
    fn phase_spans_carry_frame_args() {
        let doc = chrome_trace(&sample_events(), 0, 0);
        let rows = doc["traceEvents"].as_array().unwrap();
        let phase = rows
            .iter()
            .find(|r| r["cat"].as_str() == Some("accel_phase"))
            .expect("no phase span");
        assert_eq!(phase["args"]["frame"].as_u64(), Some(0));
        let burst = rows
            .iter()
            .find(|r| r["cat"].as_str() == Some("dma_burst"))
            .expect("no dma burst");
        assert_eq!(burst["args"]["frame"].as_u64(), Some(0));
    }

    fn span_report() -> crate::span::SpanReport {
        use crate::span::SpanCollector;
        let c = SpanCollector::new();
        c.set_stage_groups(vec![
            ("nv".to_string(), vec!["nv0".to_string()]),
            ("cl".to_string(), vec!["cl0".to_string()]),
        ]);
        let seq = [
            at(
                0,
                0,
                0,
                TraceEvent::RunStart {
                    label: "spans".into(),
                },
            ),
            at(
                10,
                1,
                1,
                TraceEvent::AccelPhaseChange {
                    accel: "nv0".into(),
                    from: "idle",
                    to: "compute",
                    frame: Some(0),
                },
            ),
            at(
                100,
                1,
                1,
                TraceEvent::FrameComplete {
                    accel: "nv0".into(),
                    frame: 0,
                },
            ),
            at(
                120,
                2,
                1,
                TraceEvent::AccelPhaseChange {
                    accel: "cl0".into(),
                    from: "idle",
                    to: "compute",
                    frame: Some(0),
                },
            ),
            at(
                150,
                2,
                1,
                TraceEvent::FrameComplete {
                    accel: "cl0".into(),
                    frame: 0,
                },
            ),
        ];
        for ev in &seq {
            c.observe(ev);
        }
        c.close_run(200).expect("run open")
    }

    #[test]
    fn span_trace_links_frames_with_flows() {
        let report = span_report();
        let doc = span_chrome_trace(std::slice::from_ref(&report));
        let rows = doc["traceEvents"].as_array().unwrap();
        // Every non-marker span became a duration row on a stage track.
        let spans: Vec<&Value> = rows
            .iter()
            .filter(|r| r["cat"].as_str() == Some("span"))
            .collect();
        assert!(!spans.is_empty());
        for s in &spans {
            assert_eq!(s["args"]["frame"].as_u64(), Some(0));
        }
        // The frame's flow chain opens with "s" and closes with "f".
        let flow_phases: Vec<&str> = rows
            .iter()
            .filter(|r| r["cat"].as_str() == Some("frame_flow"))
            .map(|r| r["ph"].as_str().unwrap())
            .collect();
        assert_eq!(flow_phases.first(), Some(&"s"));
        assert_eq!(flow_phases.last(), Some(&"f"));
        // Stage tracks are named.
        assert!(rows
            .iter()
            .any(|r| r["name"].as_str() == Some("thread_name")
                && r["args"]["name"].as_str() == Some("stage nv")));
        // Round-trips through serde.
        let text = serde_json::to_string_pretty(&doc).unwrap();
        let _: Value = serde_json::from_str(&text).unwrap();
    }

    #[test]
    fn partial_span_report_flags_trace() {
        let mut report = span_report();
        report.dropped_spans = 3;
        let doc = span_chrome_trace(std::slice::from_ref(&report));
        assert!(doc["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .any(|r| r["name"].as_str() == Some("trace_dropped_spans")));
    }
}
