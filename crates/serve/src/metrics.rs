//! The espserve metrics registry behind `GET /v1/metrics`.
//!
//! One [`ServeMetrics`] instance lives inside the [`crate::engine::JobEngine`]
//! and accumulates three kinds of series, all rendered together in the
//! Prometheus text exposition format:
//!
//! - **Flat counters** (`espserve.jobs_submitted`, `espserve.cache_hits`,
//!   ...) reuse [`esp4ml::trace::CounterRegistry`] — the same registry
//!   and [`CounterRegistry::render_prometheus`] renderer the simulator's
//!   sampled counters use, so the service plane and the per-run plane
//!   share one metric idiom.
//! - **Labeled families** (per-tenant outcomes, HTTP route × status,
//!   finished-jobs-by-result, queue depth per priority) — label sets
//!   are kept in name order, so rendering is deterministic.
//! - **Duration histograms** (queue wait, run duration, in
//!   milliseconds) reuse [`esp4ml::trace::Histogram`] and its
//!   cumulative-bucket Prometheus rendering, plus p50/p90/p99 gauges.

use esp4ml::trace::{write_prometheus_family, CounterRegistry, Histogram};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

/// Flat counter: jobs accepted into the engine (queued or cache hit).
pub const JOBS_SUBMITTED: &str = "espserve.jobs_submitted";
/// Flat counter: jobs a worker started simulating.
pub const JOBS_STARTED: &str = "espserve.jobs_started";
/// Flat counter: submissions answered from the result cache.
pub const CACHE_HITS: &str = "espserve.cache_hits";
/// Flat counter: executed jobs that had to simulate (no cached result).
pub const CACHE_MISSES: &str = "espserve.cache_misses";
/// Flat counter: cached responses dropped by the capacity bound.
pub const CACHE_EVICTIONS: &str = "espserve.cache_evictions";
/// Flat counter: accelerator invocations answered from a kernel result
/// memo of the engine's models.
pub const KERNEL_MEMO_HITS: &str = "espserve.kernel_memo_hits";
/// Flat counter: accelerator invocations that ran their network.
pub const KERNEL_MEMO_MISSES: &str = "espserve.kernel_memo_misses";
/// Flat counter: runs whose input frames came from the models' frame
/// cache.
pub const FRAME_CACHE_HITS: &str = "espserve.frame_cache_hits";
/// Flat counter: runs that generated their input frames.
pub const FRAME_CACHE_MISSES: &str = "espserve.frame_cache_misses";

const HTTP_FAMILY: &str = "espserve_http_requests_total";
const TENANT_FAMILY: &str = "espserve_tenant_jobs_total";
const FINISHED_FAMILY: &str = "espserve_jobs_finished_total";
const QUEUE_DEPTH_FAMILY: &str = "espserve_queue_depth";
const RUNNING_FAMILY: &str = "espserve_jobs_running";
const QUEUE_WAIT_FAMILY: &str = "espserve_job_queue_wait_ms";
const RUN_DURATION_FAMILY: &str = "espserve_job_run_duration_ms";

/// One labeled series family with fixed help/type metadata.
struct Family {
    help: &'static str,
    kind: &'static str,
    samples: BTreeMap<String, u64>,
}

impl Family {
    fn new(help: &'static str, kind: &'static str) -> Family {
        Family {
            help,
            kind,
            samples: BTreeMap::new(),
        }
    }
}

struct Inner {
    counters: CounterRegistry,
    families: BTreeMap<&'static str, Family>,
    queue_wait_ms: Histogram,
    run_duration_ms: Histogram,
}

/// The thread-safe service metrics registry.
pub struct ServeMetrics {
    inner: Mutex<Inner>,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics::new()
    }
}

/// Escapes a label value per the exposition format (`\`, `"`, newline).
fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Renders a label set as `{a="x",b="y"}` in the given order.
fn label_text(labels: &[(&str, &str)]) -> String {
    let mut out = String::from("{");
    for (i, (name, value)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{name}=\"{}\"", escape_label(value));
    }
    out.push('}');
    out
}

impl ServeMetrics {
    /// A fresh registry with every family declared and at zero.
    pub fn new() -> ServeMetrics {
        let mut families = BTreeMap::new();
        families.insert(
            HTTP_FAMILY,
            Family::new("HTTP requests by route, method and status.", "counter"),
        );
        families.insert(
            TENANT_FAMILY,
            Family::new(
                "Job submissions by tenant and admission outcome.",
                "counter",
            ),
        );
        families.insert(
            FINISHED_FAMILY,
            Family::new("Jobs reaching a terminal state, by result.", "counter"),
        );
        families.insert(
            QUEUE_DEPTH_FAMILY,
            Family::new("Queued jobs per priority class.", "gauge"),
        );
        families.insert(
            RUNNING_FAMILY,
            Family::new("Jobs currently simulating.", "gauge"),
        );
        ServeMetrics {
            inner: Mutex::new(Inner {
                counters: CounterRegistry::new(),
                families,
                queue_wait_ms: Histogram::new(),
                run_duration_ms: Histogram::new(),
            }),
        }
    }

    /// Adds one to a flat `espserve.*` counter.
    pub fn incr(&self, name: &str) {
        self.inner.lock().expect("metrics lock").counters.incr(name);
    }

    /// Sets a flat counter that is counted elsewhere (the models' cache
    /// counts) to its current value.
    pub fn set(&self, name: &str, value: u64) {
        self.inner
            .lock()
            .expect("metrics lock")
            .counters
            .set(name, value);
    }

    /// Current value of a flat counter (zero when never touched) — the
    /// agreement surface between `/v1/metrics` and `/v1/healthz`.
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.lock().expect("metrics lock").counters.get(name)
    }

    fn incr_family(&self, family: &'static str, labels: &[(&str, &str)]) {
        let mut inner = self.inner.lock().expect("metrics lock");
        let fam = inner.families.get_mut(family).expect("declared family");
        *fam.samples.entry(label_text(labels)).or_insert(0) += 1;
    }

    /// Counts one HTTP request by route pattern, method and status.
    pub fn incr_http(&self, route: &str, method: &str, status: u16) {
        self.incr_family(
            HTTP_FAMILY,
            &[
                ("route", route),
                ("method", method),
                ("status", &status.to_string()),
            ],
        );
    }

    /// Counts one submission outcome (`admitted`, `rejected`,
    /// `invalid`, `quota_exceeded`) for a tenant.
    pub fn incr_tenant(&self, tenant: &str, outcome: &str) {
        self.incr_family(TENANT_FAMILY, &[("tenant", tenant), ("outcome", outcome)]);
    }

    /// Counts one job reaching a terminal state (`done`, `failed`,
    /// `cancelled`).
    pub fn incr_finished(&self, result: &str) {
        self.incr_family(FINISHED_FAMILY, &[("result", result)]);
    }

    /// Records how long a job waited queued before a worker took it.
    pub fn observe_queue_wait_ms(&self, ms: u64) {
        self.inner
            .lock()
            .expect("metrics lock")
            .queue_wait_ms
            .record(ms);
    }

    /// Records how long a job's simulation took.
    pub fn observe_run_duration_ms(&self, ms: u64) {
        self.inner
            .lock()
            .expect("metrics lock")
            .run_duration_ms
            .record(ms);
    }

    /// Renders the whole registry as Prometheus text exposition. The
    /// caller supplies the point-in-time gauges — queued jobs per
    /// priority (in `high`, `normal`, `low` order) and running jobs —
    /// since those are engine state, not accumulated flow.
    pub fn render(&self, queue_depth: [usize; 3], running: usize) -> String {
        let mut inner = self.inner.lock().expect("metrics lock");
        for (priority, depth) in ["high", "normal", "low"].iter().zip(queue_depth) {
            let text = label_text(&[("priority", priority)]);
            let fam = inner
                .families
                .get_mut(QUEUE_DEPTH_FAMILY)
                .expect("declared family");
            fam.samples.insert(text, depth as u64);
        }
        let fam = inner
            .families
            .get_mut(RUNNING_FAMILY)
            .expect("declared family");
        fam.samples.insert(String::new(), running as u64);

        let mut out = inner.counters.render_prometheus();
        for (name, family) in &inner.families {
            // A declared family always appears, even before its first
            // event, so scrapers can rely on its presence.
            let zero = family.samples.is_empty().then_some(("", 0));
            let samples = family.samples.iter().map(|(l, v)| (l.as_str(), *v));
            write_prometheus_family(
                &mut out,
                name,
                family.kind,
                family.help,
                samples.chain(zero),
            );
        }
        for (name, hist) in [
            (QUEUE_WAIT_FAMILY, &inner.queue_wait_ms),
            (RUN_DURATION_FAMILY, &inner.run_duration_ms),
        ] {
            out.push_str(&hist.render_prometheus(
                name,
                match name {
                    QUEUE_WAIT_FAMILY => "Milliseconds jobs waited queued before running.",
                    _ => "Milliseconds of simulation per executed job.",
                },
            ));
            for (suffix, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
                write_prometheus_family(
                    &mut out,
                    &format!("{name}_{suffix}"),
                    "gauge",
                    &format!("{suffix} of {name}."),
                    [("", hist.quantile(q))],
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_counters_flow_through_the_trace_registry() {
        let m = ServeMetrics::new();
        m.incr(JOBS_SUBMITTED);
        m.incr(JOBS_SUBMITTED);
        m.incr(CACHE_HITS);
        assert_eq!(m.counter(JOBS_SUBMITTED), 2);
        assert_eq!(m.counter(CACHE_MISSES), 0);
        let text = m.render([0, 0, 0], 0);
        assert!(text.contains("# TYPE espserve_jobs_submitted counter"));
        assert!(text.contains("espserve_jobs_submitted 2\n"));
        assert!(text.contains("espserve_cache_hits 1\n"));
    }

    #[test]
    fn labeled_families_render_deterministically() {
        let m = ServeMetrics::new();
        m.incr_http("/v1/jobs", "POST", 202);
        m.incr_http("/v1/jobs", "POST", 202);
        m.incr_http("/v1/jobs/{id}", "GET", 200);
        m.incr_tenant("alice", "admitted");
        m.incr_finished("done");
        let text = m.render([1, 2, 3], 4);
        assert!(
            text.contains(
                "espserve_http_requests_total{route=\"/v1/jobs\",method=\"POST\",status=\"202\"} 2"
            ),
            "{text}"
        );
        assert!(
            text.contains("espserve_tenant_jobs_total{tenant=\"alice\",outcome=\"admitted\"} 1")
        );
        assert!(text.contains("espserve_jobs_finished_total{result=\"done\"} 1"));
        assert!(text.contains("espserve_queue_depth{priority=\"high\"} 1"));
        assert!(text.contains("espserve_queue_depth{priority=\"normal\"} 2"));
        assert!(text.contains("espserve_queue_depth{priority=\"low\"} 3"));
        assert!(text.contains("espserve_jobs_running 4"));
        assert_eq!(m.render([1, 2, 3], 4), text, "rendering is stable");
    }

    #[test]
    fn histograms_render_with_quantile_gauges() {
        let m = ServeMetrics::new();
        m.observe_run_duration_ms(10);
        m.observe_run_duration_ms(20);
        m.observe_queue_wait_ms(1);
        let text = m.render([0, 0, 0], 0);
        assert!(text.contains("# TYPE espserve_job_run_duration_ms histogram"));
        assert!(text.contains("espserve_job_run_duration_ms_count 2"));
        assert!(text.contains("espserve_job_run_duration_ms_sum 30"));
        assert!(text.contains("espserve_job_run_duration_ms_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("# TYPE espserve_job_run_duration_ms_p99 gauge"));
        assert!(text.contains("espserve_job_queue_wait_ms_count 1"));
    }

    #[test]
    fn empty_registry_still_declares_every_family() {
        let text = ServeMetrics::new().render([0, 0, 0], 0);
        for family in [
            "espserve_http_requests_total",
            "espserve_tenant_jobs_total",
            "espserve_jobs_finished_total",
            "espserve_queue_depth",
            "espserve_jobs_running",
            "espserve_job_queue_wait_ms",
            "espserve_job_run_duration_ms",
        ] {
            assert!(
                text.contains(&format!("# TYPE {family} ")),
                "{family} missing"
            );
        }
        assert!(text.contains("espserve_http_requests_total 0"));
    }

    #[test]
    fn label_values_are_escaped() {
        let m = ServeMetrics::new();
        m.incr_tenant("a\"b\\c", "admitted");
        let text = m.render([0, 0, 0], 0);
        assert!(text.contains("tenant=\"a\\\"b\\\\c\""), "{text}");
    }
}
