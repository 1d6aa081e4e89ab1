//! The versioned v1 REST surface: URL routing, tenant extraction and
//! JSON encoding on top of the transport-agnostic [`JobEngine`].
//!
//! | Endpoint | Meaning |
//! |---|---|
//! | `POST /v1/jobs` | submit a [`RunRequest`] (201 queued, 200 cache hit) |
//! | `GET /v1/jobs/{id}` | job status snapshot |
//! | `GET /v1/jobs/{id}/artifacts/{kind}` | one artifact body |
//! | `DELETE /v1/jobs/{id}` | cancel (200 queued, 202 running, 409 finished) |
//! | `GET /v1/healthz` | engine health, enveloped (kind `healthz`) |
//! | `GET /v1/metrics` | Prometheus text exposition of the service metrics |
//!
//! `GET /v1/jobs/{id}?wait_ms=N` long-polls: the response is held until
//! the job's state or progress changes (or `N` ms elapse), so pollers
//! see every transition without a tight loop. Any numeric `N` is
//! accepted — values past [`MAX_WAIT_MS`] (even past `u64::MAX`) clamp
//! to it, never 400 — and `wait_ms=0` answers immediately.
//!
//! The tenant is the `X-Api-Key` header (default `anonymous`); quotas
//! and job visibility are scoped to it. Every JSON body carries
//! `schema_version` like all other machine-readable output in the
//! repo.

use crate::engine::{
    ArtifactResult, CancelOutcome, JobEngine, JobState, JobStatus, Priority, SubmitError,
};
use crate::http::{HttpRequest, HttpResponse};
use esp4ml::trace::schema::envelope_json;
use esp4ml_bench::request::{RunRequest, JSON_ARTIFACTS, SCHEMA_VERSION};
use serde::{Deserialize, Map, Value};
use serde_json::json;
use std::time::Duration;

/// Upper bound on one `wait_ms` long-poll hold; longer waits must
/// re-poll (keeps a dead client from pinning a thread for minutes).
pub const MAX_WAIT_MS: u64 = 30_000;

/// The body of `POST /v1/jobs`.
#[derive(Debug, Clone, Deserialize)]
pub struct JobRequest {
    /// `high`, `normal` (default) or `low`.
    #[serde(default)]
    pub priority: String,
    /// The simulation request itself.
    pub request: RunRequest,
}

/// Encoding a [`Value`] tree cannot fail; keep the call sites terse.
fn encode(value: &Value) -> String {
    serde_json::to_string(value).expect("a Value always serializes")
}

fn error_body(message: &str) -> String {
    encode(&json!({
        "schema_version": SCHEMA_VERSION,
        "error": message,
    }))
}

fn status_value(status: &JobStatus) -> Value {
    let mut map = Map::new();
    map.insert("schema_version".to_string(), Value::from(SCHEMA_VERSION));
    map.insert("job_id".to_string(), Value::from(status.id));
    map.insert("state".to_string(), Value::from(status.state.name()));
    map.insert("priority".to_string(), Value::from(status.priority.name()));
    map.insert("workload".to_string(), Value::from(status.workload.clone()));
    map.insert("cached".to_string(), Value::from(status.cached));
    map.insert(
        "cache_key".to_string(),
        Value::from(format!("{:016x}", status.cache_key)),
    );
    map.insert(
        "error".to_string(),
        status.error.clone().map(Value::from).unwrap_or(Value::Null),
    );
    map.insert(
        "artifacts".to_string(),
        Value::Array(
            status
                .artifacts
                .iter()
                .map(|k| Value::from(k.as_str()))
                .collect(),
        ),
    );
    map.insert(
        "verdict_ok".to_string(),
        status.verdict_ok.map(Value::from).unwrap_or(Value::Null),
    );
    map.insert(
        "progress".to_string(),
        status
            .progress
            .as_ref()
            .and_then(|p| serde_json::to_value(p).ok())
            .unwrap_or(Value::Null),
    );
    map.insert("version".to_string(), Value::from(status.version));
    Value::Object(map)
}

fn tenant(req: &HttpRequest) -> String {
    match req.header("x-api-key") {
        Some(key) if !key.is_empty() => key.to_string(),
        _ => "anonymous".to_string(),
    }
}

fn submit(engine: &JobEngine, req: &HttpRequest) -> HttpResponse {
    let job: JobRequest = match serde_json::from_str(&req.body) {
        Ok(job) => job,
        Err(e) => {
            return HttpResponse::json(400, error_body(&format!("malformed job request: {e}")))
        }
    };
    let priority = match Priority::from_name(&job.priority) {
        Ok(p) => p,
        Err(msg) => return HttpResponse::json(400, error_body(&msg)),
    };
    match engine.submit(&tenant(req), priority, &job.request) {
        Ok(outcome) => {
            let status = if outcome.cached { 200 } else { 201 };
            HttpResponse::json(
                status,
                encode(&json!({
                    "schema_version": SCHEMA_VERSION,
                    "job_id": outcome.id,
                    "state": outcome.state.name(),
                    "cached": outcome.cached,
                    "cache_key": format!("{:016x}", outcome.cache_key),
                })),
            )
        }
        Err(SubmitError::Invalid(msg)) => HttpResponse::json(400, error_body(&msg)),
        Err(SubmitError::Rejected(report)) => {
            let diagnostics = match serde_json::to_value(&report.diagnostics) {
                Ok(v) => v,
                Err(e) => return HttpResponse::json(500, error_body(&e.to_string())),
            };
            HttpResponse::json(
                422,
                encode(&json!({
                    "schema_version": SCHEMA_VERSION,
                    "error": format!(
                        "rejected by the admission lint: {} error(s); nothing was simulated",
                        report.error_count()
                    ),
                    "diagnostics": diagnostics,
                })),
            )
        }
        Err(SubmitError::QuotaExceeded { queued, limit }) => HttpResponse::json(
            429,
            encode(&json!({
                "schema_version": SCHEMA_VERSION,
                "error": format!(
                    "tenant queue quota exceeded: {queued} job(s) queued, limit {limit}"
                ),
            })),
        ),
    }
}

fn job_status(engine: &JobEngine, req: &HttpRequest, id: u64) -> HttpResponse {
    let tenant = tenant(req);
    let status = match req.query_param("wait_ms") {
        None => engine.job(&tenant, id),
        Some(raw) => match raw.parse::<u64>() {
            Ok(ms) => {
                engine.wait_for_update(&tenant, id, Duration::from_millis(ms.min(MAX_WAIT_MS)))
            }
            // Any all-digit value is a valid wait: one past `u64::MAX`
            // is still just "longer than MAX_WAIT_MS", so overflow
            // clamps like every other oversized value instead of
            // 400ing. Only non-numeric input is malformed.
            Err(_) if !raw.is_empty() && raw.bytes().all(|b| b.is_ascii_digit()) => {
                engine.wait_for_update(&tenant, id, Duration::from_millis(MAX_WAIT_MS))
            }
            Err(_) => {
                return HttpResponse::json(400, error_body(&format!("bad wait_ms value {raw}")))
            }
        },
    };
    match status {
        Some(status) => HttpResponse::json(200, encode(&status_value(&status))),
        None => HttpResponse::json(404, error_body(&format!("no such job {id}"))),
    }
}

fn job_artifact(engine: &JobEngine, req: &HttpRequest, id: u64, kind: &str) -> HttpResponse {
    match engine.artifact(&tenant(req), id, kind) {
        ArtifactResult::NoSuchJob => {
            HttpResponse::json(404, error_body(&format!("no such job {id}")))
        }
        ArtifactResult::NotReady(state) => HttpResponse::json(
            409,
            error_body(&format!(
                "job {id} is {}; artifacts exist only once it is done",
                state.name()
            )),
        ),
        ArtifactResult::NoSuchKind(kinds) => HttpResponse::json(
            404,
            error_body(&format!(
                "job {id} has no {kind} artifact; available: {}",
                kinds.join(", ")
            )),
        ),
        // Artifacts are served verbatim — for the metrics artifact this
        // is the byte-identity contract with the CLI `--metrics` file.
        ArtifactResult::Body(body) => {
            if JSON_ARTIFACTS.contains(&kind) {
                HttpResponse::json(200, body)
            } else {
                HttpResponse {
                    status: 200,
                    content_type: "text/plain; charset=utf-8".to_string(),
                    body,
                }
            }
        }
    }
}

fn cancel(engine: &JobEngine, req: &HttpRequest, id: u64) -> HttpResponse {
    let body = |state: &str, note: &str| {
        encode(&json!({
            "schema_version": SCHEMA_VERSION,
            "job_id": id,
            "state": state,
            "note": note,
        }))
    };
    match engine.cancel(&tenant(req), id) {
        None => HttpResponse::json(404, error_body(&format!("no such job {id}"))),
        Some(CancelOutcome::Cancelled) => HttpResponse::json(
            200,
            body(JobState::Cancelled.name(), "removed from the queue"),
        ),
        Some(CancelOutcome::CancelRequested) => HttpResponse::json(
            202,
            body(
                JobState::Running.name(),
                "cancellation requested; the result will be discarded when the worker finishes",
            ),
        ),
        Some(CancelOutcome::AlreadyFinished) => HttpResponse::json(
            409,
            error_body(&format!("job {id} already finished; nothing to cancel")),
        ),
    }
}

fn healthz(engine: &JobEngine) -> HttpResponse {
    let health = engine.health();
    HttpResponse::json(
        200,
        envelope_json(
            "healthz",
            json!({
                "status": "ok",
                "queued": health.queued,
                "running": health.running,
                "finished": health.finished,
                "cache_entries": health.cache_entries,
                "workers": health.workers,
                "uptime_secs": health.uptime_secs,
                "version": health.version,
                "cache_hits": health.cache_hits,
                "cache_misses": health.cache_misses,
                "cache_evictions": health.cache_evictions,
            }),
        ),
    )
}

fn metrics(engine: &JobEngine) -> HttpResponse {
    HttpResponse {
        status: 200,
        content_type: "text/plain; version=0.0.4; charset=utf-8".to_string(),
        body: engine.render_metrics(),
    }
}

/// Routes one parsed request to the engine and encodes the response.
///
/// Every request increments `espserve_http_requests_total` labeled by
/// the matched route *pattern* (`/v1/jobs/{id}`, not the literal path
/// — literal ids would make the label set unbounded), method and
/// response status.
pub fn route(engine: &JobEngine, req: &HttpRequest) -> HttpResponse {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    let (pattern, response) = match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["v1", "healthz"]) => ("/v1/healthz", healthz(engine)),
        ("GET", ["v1", "metrics"]) => ("/v1/metrics", metrics(engine)),
        ("POST", ["v1", "jobs"]) => ("/v1/jobs", submit(engine, req)),
        ("GET", ["v1", "jobs", id]) => (
            "/v1/jobs/{id}",
            match id.parse() {
                Ok(id) => job_status(engine, req, id),
                Err(_) => HttpResponse::json(400, error_body(&format!("bad job id {id}"))),
            },
        ),
        ("GET", ["v1", "jobs", id, "artifacts", kind]) => (
            "/v1/jobs/{id}/artifacts/{kind}",
            match id.parse() {
                Ok(id) => job_artifact(engine, req, id, kind),
                Err(_) => HttpResponse::json(400, error_body(&format!("bad job id {id}"))),
            },
        ),
        ("DELETE", ["v1", "jobs", id]) => (
            "/v1/jobs/{id}",
            match id.parse() {
                Ok(id) => cancel(engine, req, id),
                Err(_) => HttpResponse::json(400, error_body(&format!("bad job id {id}"))),
            },
        ),
        ("POST" | "DELETE", ["v1", "healthz"]) | ("DELETE" | "PUT", ["v1", "jobs"]) => (
            "other",
            HttpResponse::json(405, error_body("method not allowed")),
        ),
        _ => (
            "other",
            HttpResponse::json(
                404,
                error_body(&format!("no route for {} {}", req.method, req.path)),
            ),
        ),
    };
    engine
        .metrics()
        .incr_http(pattern, &req.method, response.status);
    response
}
