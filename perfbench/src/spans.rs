//! In-memory spans for traced runs.
//!
//! A span records one call into a layer's public function: its name,
//! its start and end in nanoseconds since the traced run began, the
//! span it ran inside, and the worker thread that ran it. Each thread
//! records into its own [`Recorder`]; [`SpanLog`] merges them once the
//! run is over, answers the per-layer questions, and writes the log out
//! as one JSON file.
//!
//! A name with a space (`point 1De+1Cl p2p`, `phase serial`) groups
//! other spans; every other name is a layer call, `layer.function`.

use crate::{metrics_json, Outcome, TRACE_DIR};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One finished span.
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing span in the same log.
    parent: Option<usize>,
    worker: usize,
}

impl Span {
    fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }

    fn is_layer_call(&self) -> bool {
        !self.name.contains(' ')
    }
}

/// Records the spans of one thread. A disabled recorder only runs the
/// calls, so untraced runs share the code path at no cost.
pub struct Recorder {
    t0: Instant,
    worker: usize,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder for `worker`, timing from `t0`.
    pub fn new(t0: Instant, worker: usize) -> Recorder {
        Recorder {
            t0,
            worker,
            enabled: true,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that records nothing.
    pub fn disabled() -> Recorder {
        Recorder {
            enabled: false,
            ..Recorder::new(Instant::now(), 0)
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            worker: self.worker,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Nanoseconds since the traced run began.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// The merged spans of a traced run.
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Merges the recorders of a run, keeping parent links.
    pub fn merge(recorders: impl IntoIterator<Item = Recorder>) -> SpanLog {
        let mut spans: Vec<Span> = Vec::new();
        for rec in recorders {
            let base = spans.len();
            spans.extend(rec.spans.into_iter().map(|s| Span {
                parent: s.parent.map(|p| p + base),
                ..s
            }));
        }
        SpanLog { spans }
    }

    /// Durations in seconds of the spans named `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Host seconds spent in spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_s(name).iter().sum()
    }

    /// Host seconds per worker inside spans whose name starts with
    /// `prefix`, in worker order.
    pub fn busy_by_worker_s(&self, prefix: &str) -> Vec<f64> {
        let mut busy: BTreeMap<usize, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name.starts_with(prefix)) {
            *busy.entry(s.worker).or_default() += s.secs();
        }
        busy.into_values().collect()
    }

    /// Share of `[from_ns, to_ns]` during which some worker was inside a
    /// layer call.
    pub fn coverage(&self, from_ns: u64, to_ns: u64) -> f64 {
        let mut intervals: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.is_layer_call())
            .map(|s| (s.start_ns.max(from_ns), s.end_ns.min(to_ns)))
            .filter(|(start, end)| end > start)
            .collect();
        intervals.sort_unstable();
        let mut covered = 0;
        let mut current: Option<(u64, u64)> = None;
        for (start, end) in intervals {
            current = match current {
                Some((a, b)) if start <= b => Some((a, b.max(end))),
                Some((a, b)) => {
                    covered += b - a;
                    Some((start, end))
                }
                None => Some((start, end)),
            };
        }
        if let Some((a, b)) = current {
            covered += b - a;
        }
        covered as f64 / to_ns.saturating_sub(from_ns).max(1) as f64
    }

    /// Writes the spans and the run's metrics to
    /// `<TRACE_DIR>/<workload>.trace.json`; returns the path.
    pub fn write(&self, workload: &str, outcome: &Outcome) -> Result<String, String> {
        std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("create {TRACE_DIR}: {e}"))?;
        let spans: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                json!({
                    "id": id,
                    "parent": s.parent.map_or(Value::Null, Value::from),
                    "name": s.name.as_str(),
                    "worker": s.worker,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                })
            })
            .collect();
        let doc = json!({
            "workload": workload,
            "metrics": metrics_json(outcome.record.iter().chain(&outcome.extra)),
            "spans": spans,
        });
        let path = format!("{TRACE_DIR}/{workload}.trace.json");
        let text = serde_json::to_string(&doc).expect("a Value always serializes");
        std::fs::write(&path, text).map_err(|e| format!("write {path}: {e}"))?;
        Ok(path)
    }
}
