//! The transport-agnostic job engine: a FIFO-within-priority queue of
//! [`RunRequest`]s, a worker pool draining it through
//! [`esp4ml_bench::request::execute`], per-tenant quotas, cooperative
//! cancellation, and a deterministic result cache.
//!
//! The cache is sound because requests have a deterministic identity:
//! [`RunRequest::cache_key`] hashes the canonical normalized form
//! (worker count excluded — it never changes results), and the
//! simulator is seeded and engine-byte-identical, so two requests with
//! equal keys produce byte-equal responses. A cache hit therefore
//! returns a job that is `done` before any worker touches it.

use crate::log::Logger;
use crate::metrics::{self, ServeMetrics};
use esp4ml::apps::TrainedModels;
use esp4ml_bench::request::{self, Progress, ProgressSink, RequestError, RunRequest, RunResponse};
use esp4ml_check::Report;
use serde_json::json;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A `Duration` in whole milliseconds as `u64`, saturating at
/// `u64::MAX` — `as u64` on the `u128` from [`Duration::as_millis`]
/// silently truncates, which would report a wrapped-around (tiny)
/// wait after a pathological clock jump.
fn saturating_millis(d: Duration) -> u64 {
    u64::try_from(d.as_millis()).unwrap_or(u64::MAX)
}

/// Scheduling priority: jobs drain high → normal → low, FIFO within a
/// class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// Drained first.
    High,
    /// The default class.
    Normal,
    /// Drained last.
    Low,
}

impl Priority {
    /// Parses the wire name; empty means [`Priority::Normal`].
    ///
    /// # Errors
    ///
    /// A printable message on unknown names.
    pub fn from_name(name: &str) -> Result<Priority, String> {
        match name {
            "high" => Ok(Priority::High),
            "" | "normal" => Ok(Priority::Normal),
            "low" => Ok(Priority::Low),
            other => Err(format!(
                "unknown priority {other}; expected high, normal or low"
            )),
        }
    }

    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    fn index(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// Lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted and waiting for a worker.
    Queued,
    /// A worker is simulating it.
    Running,
    /// Finished successfully; artifacts are available.
    Done,
    /// The run failed; see the job's `error`.
    Failed,
    /// Cancelled before (or while) running; no artifacts.
    Cancelled,
}

impl JobState {
    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether the job can no longer change state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

/// Engine sizing and per-tenant quotas.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads; 0 means jobs only run when
    /// [`JobEngine::run_next`] is called (deterministic test mode).
    pub workers: usize,
    /// Maximum `queued` jobs one tenant may hold (submission returns
    /// quota-exceeded beyond it).
    pub max_queued_per_tenant: usize,
    /// Maximum jobs of one tenant simulating concurrently; further
    /// jobs stay queued until one finishes.
    pub max_running_per_tenant: usize,
    /// Result-cache capacity in responses (least-recently-used evicted
    /// first; a cache hit counts as a use).
    pub cache_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 2,
            max_queued_per_tenant: 16,
            max_running_per_tenant: 2,
            cache_capacity: 64,
        }
    }
}

/// Why a submission was refused (no job was created).
#[derive(Debug)]
pub enum SubmitError {
    /// The request is malformed — HTTP 400.
    Invalid(String),
    /// The espcheck admission lint found errors — HTTP 422, diagnostics
    /// with their `E`-codes in the report.
    Rejected(Report),
    /// The tenant's queued-job quota is exhausted — HTTP 429.
    QuotaExceeded {
        /// Jobs the tenant already has queued.
        queued: usize,
        /// The per-tenant limit.
        limit: usize,
    },
}

/// What a successful submission created.
#[derive(Debug, Clone)]
pub struct SubmitOutcome {
    /// The job id.
    pub id: u64,
    /// `queued`, or `done` immediately on a cache hit.
    pub state: JobState,
    /// Whether the result came from the deterministic cache.
    pub cached: bool,
    /// The request's deterministic cache key.
    pub cache_key: u64,
}

/// A point-in-time snapshot of one job, safe to serialize.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// The job id.
    pub id: u64,
    /// Owning tenant (API key).
    pub tenant: String,
    /// Scheduling class.
    pub priority: Priority,
    /// Current state.
    pub state: JobState,
    /// Workload label of the request.
    pub workload: String,
    /// Whether the result came from the cache.
    pub cached: bool,
    /// The request's deterministic cache key.
    pub cache_key: u64,
    /// Failure detail when `state == failed`.
    pub error: Option<String>,
    /// Artifact kinds available once `state == done`.
    pub artifacts: Vec<String>,
    /// The workload verdict (`ok` flag), when done.
    pub verdict_ok: Option<bool>,
    /// Latest progress snapshot (absent before the first unit
    /// completes, and always absent for cache hits — nothing ran).
    pub progress: Option<Progress>,
    /// Change counter: bumped on every state or progress transition.
    /// Long-polls wait for it to move past the value they last saw.
    pub version: u64,
}

/// Outcome of a cancellation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job was still queued and is now cancelled.
    Cancelled,
    /// The job is mid-simulation; it will be marked cancelled when the
    /// worker finishes (simulation itself is not interruptible) and its
    /// result discarded.
    CancelRequested,
    /// The job had already finished; nothing to cancel.
    AlreadyFinished,
}

/// Engine health counters for `/v1/healthz`.
#[derive(Debug, Clone)]
pub struct EngineHealth {
    /// Jobs waiting for a worker.
    pub queued: usize,
    /// Jobs currently simulating.
    pub running: usize,
    /// Jobs in a terminal state.
    pub finished: usize,
    /// Responses held by the result cache.
    pub cache_entries: usize,
    /// Worker threads configured.
    pub workers: usize,
    /// Whole seconds since the engine was created (monotonic clock).
    pub uptime_secs: u64,
    /// Workspace crate version serving the API.
    pub version: &'static str,
    /// Cumulative submissions answered from the result cache.
    pub cache_hits: u64,
    /// Cumulative executed jobs that had to simulate.
    pub cache_misses: u64,
    /// Cumulative cached responses dropped by the capacity bound.
    pub cache_evictions: u64,
}

/// Fetching an artifact from a job.
#[derive(Debug)]
pub enum ArtifactResult {
    /// The job id does not exist (or belongs to another tenant).
    NoSuchJob,
    /// The job exists but is not `done`.
    NotReady(JobState),
    /// The job is done but has no artifact of that kind; the available
    /// kinds ride along.
    NoSuchKind(Vec<String>),
    /// The artifact body.
    Body(String),
}

struct Job {
    tenant: String,
    priority: Priority,
    state: JobState,
    request: RunRequest,
    cache_key: u64,
    cached: bool,
    cancel_requested: bool,
    error: Option<String>,
    response: Option<Arc<RunResponse>>,
    /// Every progress snapshot published so far, in order (bounded by
    /// the request's work-unit count).
    progress: Vec<Progress>,
    /// Bumped on every observable change (state or progress); the
    /// long-poll wait key.
    version: u64,
    queued_at: Instant,
}

struct EngineState {
    next_id: u64,
    jobs: BTreeMap<u64, Job>,
    queues: [VecDeque<u64>; 3],
    cache: HashMap<u64, Arc<RunResponse>>,
    cache_order: VecDeque<u64>,
}

/// The job engine. Wrap it in an [`Arc`] and call [`JobEngine::start`]
/// to spawn the worker pool, or drive it manually with
/// [`JobEngine::run_next`].
pub struct JobEngine {
    state: Mutex<EngineState>,
    ready: Condvar,
    /// Woken on job state/progress changes — separate from `ready` so
    /// long-polls never steal wakeups meant for idle workers.
    watch: Condvar,
    models: TrainedModels,
    config: EngineConfig,
    shutdown: AtomicBool,
    metrics: ServeMetrics,
    logger: Logger,
    started: Instant,
}

impl JobEngine {
    /// A fresh engine with untrained (deterministic) models and
    /// logging disabled (tests and embedders opt in via
    /// [`JobEngine::with_logger`]).
    pub fn new(config: EngineConfig) -> JobEngine {
        JobEngine::with_logger(config, Logger::disabled())
    }

    /// A fresh engine emitting lifecycle events through `logger`.
    pub fn with_logger(config: EngineConfig, logger: Logger) -> JobEngine {
        JobEngine {
            state: Mutex::new(EngineState {
                next_id: 1,
                jobs: BTreeMap::new(),
                queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                cache: HashMap::new(),
                cache_order: VecDeque::new(),
            }),
            ready: Condvar::new(),
            watch: Condvar::new(),
            models: TrainedModels::untrained(),
            config,
            shutdown: AtomicBool::new(false),
            metrics: ServeMetrics::new(),
            logger,
            started: Instant::now(),
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The service metrics registry.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// The lifecycle logger.
    pub fn logger(&self) -> &Logger {
        &self.logger
    }

    /// Renders `/v1/metrics`: the accumulated registry, the models'
    /// cache counts, and the point-in-time queue-depth and running
    /// gauges.
    pub fn render_metrics(&self) -> String {
        let caches = self.models.cache_counts();
        for (name, value) in [
            (metrics::KERNEL_MEMO_HITS, caches.kernel_memo_hits),
            (metrics::KERNEL_MEMO_MISSES, caches.kernel_memo_misses),
            (metrics::FRAME_CACHE_HITS, caches.frame_hits),
            (metrics::FRAME_CACHE_MISSES, caches.frame_misses),
        ] {
            self.metrics.set(name, value);
        }
        let (queue_depth, running) = {
            let st = self.state.lock().expect("engine lock");
            let depths = [st.queues[0].len(), st.queues[1].len(), st.queues[2].len()];
            let running = st
                .jobs
                .values()
                .filter(|j| j.state == JobState::Running)
                .count();
            (depths, running)
        };
        self.metrics.render(queue_depth, running)
    }

    /// Spawns the configured worker threads. Threads exit when
    /// [`JobEngine::stop`] is called.
    pub fn start(self: &Arc<Self>) {
        for _ in 0..self.config.workers {
            let engine = Arc::clone(self);
            std::thread::spawn(move || engine.worker_loop());
        }
    }

    /// Asks the worker threads to exit after their current job.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.ready.notify_all();
    }

    /// Validates, admission-lints and enqueues one request for
    /// `tenant`. A cache hit creates the job directly in `done` with
    /// the cached response attached — no simulation, no queue slot.
    ///
    /// # Errors
    ///
    /// See [`SubmitError`]; no job is created on any error.
    pub fn submit(
        &self,
        tenant: &str,
        priority: Priority,
        request: &RunRequest,
    ) -> Result<SubmitOutcome, SubmitError> {
        let normalized = request.normalized();
        if let Err(msg) = normalized.validate() {
            self.metrics.incr_tenant(tenant, "invalid");
            self.logger.warn(
                "job.invalid",
                &[("tenant", json!(tenant)), ("error", json!(msg.clone()))],
            );
            return Err(SubmitError::Invalid(msg));
        }
        let report = request::admission(&normalized);
        if report.has_errors() {
            self.metrics.incr_tenant(tenant, "rejected");
            self.logger.warn(
                "job.admission_rejected",
                &[
                    ("tenant", json!(tenant)),
                    ("errors", json!(report.error_count())),
                    ("workload", json!(normalized.workload.label())),
                ],
            );
            return Err(SubmitError::Rejected(report));
        }
        let cache_key = normalized.cache_key();
        let mut st = self.state.lock().expect("engine lock");
        if let Some(resp) = st.cache.get(&cache_key).cloned() {
            // A hit refreshes recency: move the key to the back of the
            // eviction order so a hot entry outlives cold ones (LRU,
            // not insertion order).
            if let Some(pos) = st.cache_order.iter().position(|k| *k == cache_key) {
                st.cache_order.remove(pos);
                st.cache_order.push_back(cache_key);
            }
            let id = st.next_id;
            st.next_id += 1;
            st.jobs.insert(
                id,
                Job {
                    tenant: tenant.to_string(),
                    priority,
                    state: JobState::Done,
                    request: normalized,
                    cache_key,
                    cached: true,
                    cancel_requested: false,
                    error: None,
                    response: Some(resp),
                    progress: Vec::new(),
                    version: 1,
                    queued_at: Instant::now(),
                },
            );
            drop(st);
            self.metrics.incr(metrics::JOBS_SUBMITTED);
            self.metrics.incr(metrics::CACHE_HITS);
            self.metrics.incr_tenant(tenant, "admitted");
            self.metrics.incr_finished("done");
            self.logger.info(
                "job.cache_hit",
                &[
                    ("job_id", json!(id)),
                    ("tenant", json!(tenant)),
                    ("cache_key", json!(cache_key)),
                ],
            );
            return Ok(SubmitOutcome {
                id,
                state: JobState::Done,
                cached: true,
                cache_key,
            });
        }
        let queued = st
            .jobs
            .values()
            .filter(|j| j.tenant == tenant && j.state == JobState::Queued)
            .count();
        if queued >= self.config.max_queued_per_tenant {
            drop(st);
            self.metrics.incr_tenant(tenant, "quota_exceeded");
            self.logger.warn(
                "job.quota_exceeded",
                &[
                    ("tenant", json!(tenant)),
                    ("queued", json!(queued)),
                    ("limit", json!(self.config.max_queued_per_tenant)),
                ],
            );
            return Err(SubmitError::QuotaExceeded {
                queued,
                limit: self.config.max_queued_per_tenant,
            });
        }
        let id = st.next_id;
        st.next_id += 1;
        st.jobs.insert(
            id,
            Job {
                tenant: tenant.to_string(),
                priority,
                state: JobState::Queued,
                request: normalized.clone(),
                cache_key,
                cached: false,
                cancel_requested: false,
                error: None,
                response: None,
                progress: Vec::new(),
                version: 1,
                queued_at: Instant::now(),
            },
        );
        st.queues[priority.index()].push_back(id);
        drop(st);
        self.metrics.incr(metrics::JOBS_SUBMITTED);
        self.metrics.incr_tenant(tenant, "admitted");
        self.logger.info(
            "job.submitted",
            &[
                ("job_id", json!(id)),
                ("tenant", json!(tenant)),
                ("priority", json!(priority.name())),
                ("workload", json!(normalized.workload.label())),
                ("cache_key", json!(cache_key)),
            ],
        );
        self.ready.notify_one();
        Ok(SubmitOutcome {
            id,
            state: JobState::Queued,
            cached: false,
            cache_key,
        })
    }

    /// Picks the next runnable job — highest priority class first, FIFO
    /// within a class, skipping jobs whose tenant is already at its
    /// concurrent-run quota — and removes it from its queue.
    fn next_runnable(&self, st: &mut EngineState) -> Option<u64> {
        for class in 0..st.queues.len() {
            for pos in 0..st.queues[class].len() {
                let id = st.queues[class][pos];
                let tenant = st.jobs[&id].tenant.clone();
                let running = st
                    .jobs
                    .values()
                    .filter(|j| j.tenant == tenant && j.state == JobState::Running)
                    .count();
                if running < self.config.max_running_per_tenant {
                    st.queues[class].remove(pos);
                    return Some(id);
                }
            }
        }
        None
    }

    /// Dequeues and executes one job on the calling thread. Returns
    /// `false` when nothing was runnable. This is the whole execution
    /// path — worker threads just call it in a loop — so tests can
    /// drive the engine deterministically with `workers: 0`.
    pub fn run_next(&self) -> bool {
        let (id, tenant, cache_key, request) = {
            let mut st = self.state.lock().expect("engine lock");
            let Some(id) = self.next_runnable(&mut st) else {
                return false;
            };
            let job = st.jobs.get_mut(&id).expect("queued job exists");
            job.state = JobState::Running;
            job.version += 1;
            let queue_wait = job.queued_at.elapsed();
            let info = (id, job.tenant.clone(), job.cache_key, job.request.clone());
            drop(st);
            self.metrics.incr(metrics::JOBS_STARTED);
            self.metrics.incr(metrics::CACHE_MISSES);
            self.metrics
                .observe_queue_wait_ms(saturating_millis(queue_wait));
            self.logger.info(
                "job.started",
                &[
                    ("job_id", json!(info.0)),
                    ("tenant", json!(info.1.clone())),
                    ("queue_wait_ms", json!(saturating_millis(queue_wait))),
                ],
            );
            self.watch.notify_all();
            info
        };
        let sink = JobProgressSink { engine: self, id };
        let run_started = Instant::now();
        let result = request::execute_with_progress(&request, &self.models, Some(&sink));
        let run_ms = saturating_millis(run_started.elapsed());
        self.metrics.observe_run_duration_ms(run_ms);
        let mut st = self.state.lock().expect("engine lock");
        let cache_capacity = self.config.cache_capacity;
        let mut evictions = 0u64;
        let job = st.jobs.get_mut(&id).expect("running job exists");
        let result_name;
        if job.cancel_requested {
            // The submitter walked away mid-run: discard the result
            // (don't even cache it — a cancelled job must leave no
            // observable artifacts).
            job.state = JobState::Cancelled;
            result_name = "cancelled";
        } else {
            match result {
                Ok(response) => {
                    let response = Arc::new(response);
                    job.state = JobState::Done;
                    job.response = Some(Arc::clone(&response));
                    result_name = "done";
                    let key = job.cache_key;
                    if cache_capacity > 0 && !st.cache.contains_key(&key) {
                        st.cache.insert(key, response);
                        st.cache_order.push_back(key);
                        while st.cache.len() > cache_capacity {
                            if let Some(old) = st.cache_order.pop_front() {
                                st.cache.remove(&old);
                                evictions += 1;
                            }
                        }
                    }
                }
                Err(e) => {
                    job.state = JobState::Failed;
                    result_name = "failed";
                    job.error = Some(match e {
                        RequestError::Invalid(msg) => msg,
                        RequestError::Rejected(report) => format!(
                            "rejected by admission lint ({} error(s))",
                            report.error_count()
                        ),
                        RequestError::Run(err) => err.to_string(),
                    });
                }
            }
        }
        let job = st.jobs.get_mut(&id).expect("running job exists");
        job.version += 1;
        let error = job.error.clone();
        let verdict_ok = job.response.as_ref().map(|r| r.verdict.ok);
        drop(st);
        for _ in 0..evictions {
            self.metrics.incr(metrics::CACHE_EVICTIONS);
        }
        self.metrics.incr_finished(result_name);
        match result_name {
            "failed" => self.logger.error(
                "job.worker_error",
                &[
                    ("job_id", json!(id)),
                    ("tenant", json!(tenant)),
                    ("run_ms", json!(run_ms)),
                    ("error", json!(error.unwrap_or_default())),
                ],
            ),
            "cancelled" => self.logger.info(
                "job.cancelled",
                &[
                    ("job_id", json!(id)),
                    ("tenant", json!(tenant)),
                    ("run_ms", json!(run_ms)),
                    ("discarded", json!(true)),
                ],
            ),
            _ => self.logger.info(
                "job.finished",
                &[
                    ("job_id", json!(id)),
                    ("tenant", json!(tenant)),
                    ("cache_key", json!(cache_key)),
                    ("run_ms", json!(run_ms)),
                    ("verdict_ok", json!(verdict_ok.unwrap_or(false))),
                ],
            ),
        }
        self.ready.notify_all();
        self.watch.notify_all();
        true
    }

    fn worker_loop(&self) {
        while !self.shutdown.load(Ordering::SeqCst) {
            if !self.run_next() {
                let st = self.state.lock().expect("engine lock");
                // Timeout so shutdown is noticed even without traffic.
                let _ = self
                    .ready
                    .wait_timeout(st, Duration::from_millis(50))
                    .expect("engine lock");
            }
        }
    }

    /// Snapshot of one job, if it exists and belongs to `tenant`.
    pub fn job(&self, tenant: &str, id: u64) -> Option<JobStatus> {
        let st = self.state.lock().expect("engine lock");
        let job = st.jobs.get(&id)?;
        if job.tenant != tenant {
            return None;
        }
        Some(Self::snapshot(id, job))
    }

    fn snapshot(id: u64, job: &Job) -> JobStatus {
        JobStatus {
            id,
            tenant: job.tenant.clone(),
            priority: job.priority,
            state: job.state,
            workload: job.request.workload.label().to_string(),
            cached: job.cached,
            cache_key: job.cache_key,
            error: job.error.clone(),
            artifacts: job
                .response
                .as_ref()
                .map(|r| r.artifacts.keys().cloned().collect())
                .unwrap_or_default(),
            verdict_ok: job.response.as_ref().map(|r| r.verdict.ok),
            progress: job.progress.last().cloned(),
            version: job.version,
        }
    }

    /// Every progress snapshot a job has published, in publication
    /// order — the byte-identity surface against a CLI `--progress`
    /// run of the same request. `None` for unknown/foreign jobs.
    pub fn progress_history(&self, tenant: &str, id: u64) -> Option<Vec<Progress>> {
        let st = self.state.lock().expect("engine lock");
        let job = st.jobs.get(&id)?;
        if job.tenant != tenant {
            return None;
        }
        Some(job.progress.clone())
    }

    /// Long-poll: blocks until the job's state or progress changes
    /// from the snapshot taken at entry, or `timeout` elapses, and
    /// returns the (possibly unchanged) latest snapshot. Terminal jobs
    /// return immediately. `None` for unknown/foreign jobs.
    pub fn wait_for_update(&self, tenant: &str, id: u64, timeout: Duration) -> Option<JobStatus> {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock().expect("engine lock");
        let entry_version = {
            let job = st.jobs.get(&id)?;
            if job.tenant != tenant {
                return None;
            }
            if job.state.is_terminal() {
                return Some(Self::snapshot(id, job));
            }
            job.version
        };
        loop {
            let job = st.jobs.get(&id).expect("jobs are never removed");
            if job.version != entry_version || job.state.is_terminal() {
                return Some(Self::snapshot(id, job));
            }
            let now = Instant::now();
            let Some(remaining) = deadline
                .checked_duration_since(now)
                .filter(|d| !d.is_zero())
            else {
                return Some(Self::snapshot(id, job));
            };
            let (guard, _) = self.watch.wait_timeout(st, remaining).expect("engine lock");
            st = guard;
        }
    }

    /// The full response of a `done` job.
    pub fn response(&self, tenant: &str, id: u64) -> Option<Arc<RunResponse>> {
        let st = self.state.lock().expect("engine lock");
        let job = st.jobs.get(&id)?;
        if job.tenant != tenant {
            return None;
        }
        job.response.clone()
    }

    /// One named artifact of a `done` job.
    pub fn artifact(&self, tenant: &str, id: u64, kind: &str) -> ArtifactResult {
        let st = self.state.lock().expect("engine lock");
        let Some(job) = st.jobs.get(&id) else {
            return ArtifactResult::NoSuchJob;
        };
        if job.tenant != tenant {
            return ArtifactResult::NoSuchJob;
        }
        let Some(response) = &job.response else {
            return ArtifactResult::NotReady(job.state);
        };
        match response.artifacts.get(kind) {
            Some(body) => ArtifactResult::Body(body.clone()),
            None => ArtifactResult::NoSuchKind(response.artifacts.keys().cloned().collect()),
        }
    }

    /// Cancels a job: queued jobs are removed immediately, running jobs
    /// are flagged (their result is discarded when the worker returns),
    /// finished jobs are left alone. `None` when the id does not exist
    /// or belongs to another tenant.
    pub fn cancel(&self, tenant: &str, id: u64) -> Option<CancelOutcome> {
        let mut st = self.state.lock().expect("engine lock");
        let job = st.jobs.get(&id)?;
        if job.tenant != tenant {
            return None;
        }
        let outcome = match job.state {
            JobState::Queued => {
                let class = job.priority.index();
                st.queues[class].retain(|&q| q != id);
                let job = st.jobs.get_mut(&id).expect("job exists");
                job.state = JobState::Cancelled;
                job.version += 1;
                CancelOutcome::Cancelled
            }
            JobState::Running => {
                st.jobs.get_mut(&id).expect("job exists").cancel_requested = true;
                CancelOutcome::CancelRequested
            }
            _ => CancelOutcome::AlreadyFinished,
        };
        drop(st);
        if outcome == CancelOutcome::Cancelled {
            self.metrics.incr_finished("cancelled");
            self.logger.info(
                "job.cancelled",
                &[
                    ("job_id", json!(id)),
                    ("tenant", json!(tenant)),
                    ("discarded", json!(false)),
                ],
            );
            self.watch.notify_all();
        }
        Some(outcome)
    }

    /// Engine health counters.
    pub fn health(&self) -> EngineHealth {
        let st = self.state.lock().expect("engine lock");
        let queued = st
            .jobs
            .values()
            .filter(|j| j.state == JobState::Queued)
            .count();
        let running = st
            .jobs
            .values()
            .filter(|j| j.state == JobState::Running)
            .count();
        let finished = st.jobs.values().filter(|j| j.state.is_terminal()).count();
        EngineHealth {
            queued,
            running,
            finished,
            cache_entries: st.cache.len(),
            workers: self.config.workers,
            uptime_secs: self.started.elapsed().as_secs(),
            version: env!("CARGO_PKG_VERSION"),
            cache_hits: self.metrics.counter(metrics::CACHE_HITS),
            cache_misses: self.metrics.counter(metrics::CACHE_MISSES),
            cache_evictions: self.metrics.counter(metrics::CACHE_EVICTIONS),
        }
    }
}

/// The per-job [`ProgressSink`] workers publish through: each snapshot
/// is appended to the job's history and bumps its version, waking any
/// long-poll.
struct JobProgressSink<'a> {
    engine: &'a JobEngine,
    id: u64,
}

impl ProgressSink for JobProgressSink<'_> {
    fn publish(&self, progress: &Progress) {
        let mut st = self.engine.state.lock().expect("engine lock");
        if let Some(job) = st.jobs.get_mut(&self.id) {
            job.progress.push(progress.clone());
            job.version += 1;
        }
        drop(st);
        self.engine.watch.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp4ml_bench::request::WorkloadKind;

    fn test_engine() -> JobEngine {
        JobEngine::new(EngineConfig {
            workers: 0,
            max_queued_per_tenant: 2,
            max_running_per_tenant: 1,
            cache_capacity: 4,
        })
    }

    fn small_request() -> RunRequest {
        let mut r = RunRequest::new(WorkloadKind::Fig8);
        r.frames = 2;
        r.configs = vec![0];
        r
    }

    #[test]
    fn submit_run_fetch_roundtrip() {
        let engine = test_engine();
        let out = engine
            .submit("alice", Priority::Normal, &small_request())
            .expect("submits");
        assert_eq!(out.state, JobState::Queued);
        assert!(!out.cached);
        assert!(engine.run_next());
        let status = engine.job("alice", out.id).expect("visible");
        assert_eq!(status.state, JobState::Done);
        assert!(status.artifacts.contains(&"metrics".to_string()));
        match engine.artifact("alice", out.id, "metrics") {
            ArtifactResult::Body(body) => assert!(body.contains("schema_version")),
            other => panic!("expected body, got {other:?}"),
        }
        // Foreign tenants can't see the job.
        assert!(engine.job("mallory", out.id).is_none());
        assert!(matches!(
            engine.artifact("mallory", out.id, "metrics"),
            ArtifactResult::NoSuchJob
        ));
    }

    #[test]
    fn identical_resubmission_hits_the_cache() {
        let engine = test_engine();
        let first = engine
            .submit("alice", Priority::Normal, &small_request())
            .expect("submits");
        assert!(engine.run_next());
        let again = engine
            .submit("bob", Priority::Normal, &small_request())
            .expect("submits");
        assert_eq!(again.state, JobState::Done, "cache hit is instantly done");
        assert!(again.cached);
        assert_eq!(again.cache_key, first.cache_key);
        let a = engine.response("alice", first.id).expect("response");
        let b = engine.response("bob", again.id).expect("response");
        assert_eq!(a.to_json(), b.to_json(), "cached bytes are identical");
        assert!(!engine.run_next(), "nothing left to simulate");
    }

    #[test]
    fn queued_quota_is_enforced_per_tenant() {
        let engine = test_engine();
        for _ in 0..2 {
            // Vary frames so the cache never collapses the submissions.
            engine
                .submit("alice", Priority::Normal, &small_request())
                .expect("within quota");
        }
        // Both submissions above dedupe to... no: both are identical and
        // both queued (cache only fills after a run) — quota now full.
        match engine.submit("alice", Priority::Normal, &small_request()) {
            Err(SubmitError::QuotaExceeded { queued, limit }) => {
                assert_eq!((queued, limit), (2, 2));
            }
            other => panic!("expected quota error, got {other:?}"),
        }
        // A different tenant still has its own quota.
        engine
            .submit("bob", Priority::Normal, &small_request())
            .expect("separate quota");
    }

    #[test]
    fn priority_classes_drain_high_first() {
        let engine = test_engine();
        let mut low = small_request();
        low.frames = 3;
        let low_id = engine
            .submit("alice", Priority::Low, &low)
            .expect("submits")
            .id;
        let mut high = small_request();
        high.frames = 4;
        let high_id = engine
            .submit("bob", Priority::High, &high)
            .expect("submits")
            .id;
        assert!(engine.run_next());
        assert_eq!(
            engine.job("bob", high_id).unwrap().state,
            JobState::Done,
            "high-priority job ran first despite later submission"
        );
        assert_eq!(engine.job("alice", low_id).unwrap().state, JobState::Queued);
    }

    #[test]
    fn cancel_mid_queue_removes_the_job() {
        let engine = test_engine();
        let out = engine
            .submit("alice", Priority::Normal, &small_request())
            .expect("submits");
        assert_eq!(
            engine.cancel("alice", out.id),
            Some(CancelOutcome::Cancelled)
        );
        assert_eq!(
            engine.job("alice", out.id).unwrap().state,
            JobState::Cancelled
        );
        assert!(!engine.run_next(), "cancelled job never runs");
        assert_eq!(
            engine.cancel("alice", out.id),
            Some(CancelOutcome::AlreadyFinished)
        );
        assert!(engine.cancel("mallory", out.id).is_none());
    }

    #[test]
    fn invalid_and_rejected_submissions_create_no_job() {
        let engine = test_engine();
        let mut bad = small_request();
        bad.engine = "warp".into();
        assert!(matches!(
            engine.submit("alice", Priority::Normal, &bad),
            Err(SubmitError::Invalid(_))
        ));
        let mut rejected = small_request();
        rejected.fault_plan = Some(
            esp4ml_fault::FaultPlan::new(1)
                .with(esp4ml_fault::FaultSpec::transient_hang("no-such-device", 0)),
        );
        match engine.submit("alice", Priority::Normal, &rejected) {
            Err(SubmitError::Rejected(report)) => assert!(report.has_errors()),
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(engine.health().queued, 0, "no job slots consumed");
    }

    #[test]
    fn cache_evicts_least_recently_used_and_counts() {
        let engine = JobEngine::new(EngineConfig {
            workers: 0,
            max_queued_per_tenant: 8,
            max_running_per_tenant: 1,
            cache_capacity: 2,
        });
        // Three distinct requests (frames differ) fill the cache past
        // its bound; with no hits in between, the least-recently-used
        // entry is the oldest insertion.
        for frames in [2, 3, 4] {
            let mut r = small_request();
            r.frames = frames;
            engine
                .submit("alice", Priority::Normal, &r)
                .expect("submits");
            assert!(engine.run_next());
        }
        let health = engine.health();
        assert_eq!(health.cache_entries, 2, "capacity bound holds");
        assert_eq!(health.cache_evictions, 1, "exactly one eviction");
        assert_eq!(engine.metrics().counter(metrics::CACHE_EVICTIONS), 1);
        // The oldest entry (frames=2) is gone: resubmitting it queues a
        // real run. The two newer entries still hit.
        let mut oldest = small_request();
        oldest.frames = 2;
        let out = engine
            .submit("alice", Priority::Normal, &oldest)
            .expect("submits");
        assert!(!out.cached, "evicted entry must re-simulate");
        for frames in [3, 4] {
            let mut r = small_request();
            r.frames = frames;
            let out = engine.submit("bob", Priority::Normal, &r).expect("submits");
            assert!(out.cached, "newer entries survive eviction");
        }
    }

    /// The regression the LRU fix closes: a cache hit must refresh the
    /// entry's recency, so inserting past capacity evicts the entry
    /// that was never hit — not the hot one that merely arrived first.
    #[test]
    fn cache_hit_promotes_entry_over_unhit_one() {
        let engine = JobEngine::new(EngineConfig {
            workers: 0,
            max_queued_per_tenant: 8,
            max_running_per_tenant: 1,
            cache_capacity: 2,
        });
        let request = |frames| {
            let mut r = small_request();
            r.frames = frames;
            r
        };
        // Insertion order: frames=2, then frames=3.
        for frames in [2, 3] {
            engine
                .submit("alice", Priority::Normal, &request(frames))
                .expect("submits");
            assert!(engine.run_next());
        }
        // Hit the older entry — under pure insertion-order eviction
        // this would not save it.
        let hit = engine
            .submit("bob", Priority::Normal, &request(2))
            .expect("submits");
        assert!(hit.cached, "warm-up hit");
        // Insert past capacity: the unhit frames=3 entry must go.
        engine
            .submit("alice", Priority::Normal, &request(4))
            .expect("submits");
        assert!(engine.run_next());
        let health = engine.health();
        assert_eq!(health.cache_entries, 2, "capacity bound holds");
        assert_eq!(health.cache_evictions, 1, "exactly one eviction");
        let promoted = engine
            .submit("bob", Priority::Normal, &request(2))
            .expect("submits");
        assert!(promoted.cached, "the hit entry survived the eviction");
        let unhit = engine
            .submit("bob", Priority::Normal, &request(3))
            .expect("submits");
        assert!(!unhit.cached, "the unhit entry was the LRU victim");
    }

    #[test]
    fn progress_history_is_monotonic_and_reaches_totals() {
        let engine = test_engine();
        let out = engine
            .submit("alice", Priority::Normal, &small_request())
            .expect("submits");
        assert!(engine.run_next());
        let history = engine.progress_history("alice", out.id).expect("visible");
        assert!(!history.is_empty(), "at least one snapshot per run");
        let total = history.len() as u64;
        for (i, p) in history.iter().enumerate() {
            assert_eq!(p.points_done, i as u64 + 1, "one snapshot per unit");
            assert_eq!(p.points_total, total, "totals are stable");
        }
        let last = history.last().expect("non-empty");
        assert!(last.is_final(), "final snapshot covers the whole grid");
        let status = engine.job("alice", out.id).expect("visible");
        assert_eq!(status.progress.as_ref(), Some(last));
        // A cache hit never ran, so it has no progress history.
        let hit = engine
            .submit("bob", Priority::Normal, &small_request())
            .expect("submits");
        assert!(hit.cached);
        assert!(engine
            .progress_history("bob", hit.id)
            .expect("visible")
            .is_empty());
    }

    #[test]
    fn long_poll_wakes_on_cancellation() {
        let engine = Arc::new(test_engine());
        let out = engine
            .submit("alice", Priority::Normal, &small_request())
            .expect("submits");
        let id = out.id;
        let waiter = Arc::clone(&engine);
        let poller = std::thread::spawn(move || {
            waiter.wait_for_update("alice", id, Duration::from_secs(10))
        });
        // Whether the poller is already parked or not when the cancel
        // lands, it must return the cancelled snapshot well before its
        // ten-second timeout.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(engine.cancel("alice", id), Some(CancelOutcome::Cancelled));
        let status = poller.join().expect("poller thread").expect("visible");
        assert_eq!(status.state, JobState::Cancelled);
    }

    #[test]
    fn long_poll_times_out_on_an_idle_job() {
        let engine = test_engine();
        let out = engine
            .submit("alice", Priority::Normal, &small_request())
            .expect("submits");
        let status = engine
            .wait_for_update("alice", out.id, Duration::from_millis(10))
            .expect("visible");
        assert_eq!(status.state, JobState::Queued, "unchanged after timeout");
        assert!(engine
            .wait_for_update("mallory", out.id, Duration::ZERO)
            .is_none());
    }

    #[test]
    fn server_progress_matches_a_direct_cli_run() {
        let engine = test_engine();
        let out = engine
            .submit("alice", Priority::Normal, &small_request())
            .expect("submits");
        assert!(engine.run_next());
        let server: Vec<String> = engine
            .progress_history("alice", out.id)
            .expect("visible")
            .iter()
            .map(Progress::to_json_line)
            .collect();
        // The same request run the way the CLI does, with a collecting
        // sink standing in for --progress stderr lines.
        let sink = request::CollectingSink::new();
        request::execute_with_progress(
            &small_request().normalized(),
            &TrainedModels::untrained(),
            Some(&sink),
        )
        .expect("runs");
        let cli: Vec<String> = sink
            .snapshots()
            .iter()
            .map(Progress::to_json_line)
            .collect();
        assert_eq!(server, cli, "server and CLI progress are byte-identical");
    }

    #[test]
    fn failed_runs_surface_the_error() {
        // An empty-selection faults campaign can't fail deterministically
        // here, so exercise Failed via a request that passes validation
        // and admission but dies in the simulator: nothing in the current
        // workload set does, so assert health bookkeeping instead.
        let engine = test_engine();
        let out = engine
            .submit("alice", Priority::Normal, &small_request())
            .expect("submits");
        assert_eq!(engine.health().queued, 1);
        assert!(engine.run_next());
        let health = engine.health();
        assert_eq!(health.queued, 0);
        assert_eq!(health.finished, 1);
        assert_eq!(health.cache_entries, 1);
        assert_eq!(engine.job("alice", out.id).unwrap().error, None);
    }
}
