//! Contract tests for the espserve v1 HTTP API.
//!
//! Most tests drive [`esp4ml_serve::api::route`] directly against an
//! engine with `workers: 0`, so job execution happens exactly when the
//! test calls `run_next()` — every state transition is deterministic
//! and observable. One test goes through a real TCP socket end to end.

use esp4ml::apps::TrainedModels;
use esp4ml_bench::request::{self, RunRequest, WorkloadKind};
use esp4ml_serve::api::route;
use esp4ml_serve::engine::{EngineConfig, JobEngine};
use esp4ml_serve::http::{HttpRequest, HttpResponse};
use serde::Value;

const BROKEN_CONFIG: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../configs/broken_dup_tile.json"
));

fn test_engine() -> JobEngine {
    JobEngine::new(EngineConfig {
        workers: 0,
        max_queued_per_tenant: 3,
        max_running_per_tenant: 1,
        cache_capacity: 8,
    })
}

fn req(method: &str, path: &str, api_key: &str, body: &str) -> HttpRequest {
    // Split a query string off the path the way http::read_request does,
    // so tests can exercise e.g. `/v1/jobs/1?wait_ms=50`.
    let (path, query) = path.split_once('?').unwrap_or((path, ""));
    HttpRequest {
        method: method.to_string(),
        path: path.to_string(),
        query: query.to_string(),
        headers: vec![("x-api-key".to_string(), api_key.to_string())],
        body: body.to_string(),
    }
}

fn parse(response: &HttpResponse) -> Value {
    serde_json::parse_value(&response.body)
        .unwrap_or_else(|e| panic!("body is JSON ({e}): {}", response.body))
}

/// The golden fig8 single-point submission body.
fn fig8_body() -> String {
    r#"{"priority":"normal","request":{"schema_version":1,"workload":{"kind":"fig8"},"configs":[0],"frames":2}}"#
        .to_string()
}

#[test]
fn golden_submit_poll_fetch_flow() {
    let engine = test_engine();
    let created = route(&engine, &req("POST", "/v1/jobs", "alice", &fig8_body()));
    assert_eq!(created.status, 201);
    let body = parse(&created);
    assert_eq!(body.get("schema_version").and_then(Value::as_u64), Some(1));
    assert_eq!(body.get("state").and_then(Value::as_str), Some("queued"));
    assert_eq!(body.get("cached").and_then(Value::as_bool), Some(false));
    let id = body.get("job_id").and_then(Value::as_u64).expect("job id");

    let pending = route(&engine, &req("GET", &format!("/v1/jobs/{id}"), "alice", ""));
    assert_eq!(pending.status, 200);
    assert_eq!(
        parse(&pending).get("state").and_then(Value::as_str),
        Some("queued")
    );
    // Artifacts are not available before the job is done.
    let early = route(
        &engine,
        &req(
            "GET",
            &format!("/v1/jobs/{id}/artifacts/metrics"),
            "alice",
            "",
        ),
    );
    assert_eq!(early.status, 409);

    assert!(engine.run_next());

    let done = parse(&route(
        &engine,
        &req("GET", &format!("/v1/jobs/{id}"), "alice", ""),
    ));
    assert_eq!(done.get("state").and_then(Value::as_str), Some("done"));
    assert_eq!(done.get("verdict_ok").and_then(Value::as_bool), Some(true));
    let kinds = done
        .get("artifacts")
        .and_then(Value::as_array)
        .expect("kinds");
    assert!(kinds.iter().any(|k| k.as_str() == Some("metrics")));

    let metrics = route(
        &engine,
        &req(
            "GET",
            &format!("/v1/jobs/{id}/artifacts/metrics"),
            "alice",
            "",
        ),
    );
    assert_eq!(metrics.status, 200);
    assert_eq!(metrics.content_type, "application/json");
    // The artifact is the enveloped run-metrics document, byte-identical
    // to what the CLI writes for the same request via --metrics.
    let mut expected = RunRequest::new(WorkloadKind::Fig8);
    expected.frames = 2;
    expected.configs = vec![0];
    let response = request::execute(&expected, &TrainedModels::untrained()).expect("runs");
    assert_eq!(Some(&metrics.body), response.artifacts.get("metrics"));
    let envelope = serde_json::parse_value(&metrics.body).expect("valid JSON");
    esp4ml::trace::schema::open_envelope(envelope, "run-metrics").expect("run-metrics envelope");
}

/// Every JSON artifact of an observed job is served as JSON, every other
/// one as text, by the one list `request::JSON_ARTIFACTS`.
#[test]
fn observed_artifacts_carry_their_content_type() {
    let engine = test_engine();
    let body = fig8_body().replace(
        "\"frames\":2",
        "\"frames\":2,\"observe\":{\"trace\":true,\"profile\":true,\"spans\":true,\"sample_every\":1000}",
    );
    let created = parse(&route(&engine, &req("POST", "/v1/jobs", "alice", &body)));
    let id = created
        .get("job_id")
        .and_then(Value::as_u64)
        .expect("job id");
    assert!(engine.run_next());
    let done = parse(&route(
        &engine,
        &req("GET", &format!("/v1/jobs/{id}"), "alice", ""),
    ));
    let kinds: Vec<String> = done
        .get("artifacts")
        .and_then(Value::as_array)
        .expect("kinds")
        .iter()
        .map(|k| k.as_str().expect("kind name").to_string())
        .collect();
    for kind in [
        "metrics",
        "trace",
        "profile",
        "spans",
        "span_trace",
        "counters_csv",
    ] {
        assert!(kinds.iter().any(|k| k == kind), "no {kind} among {kinds:?}");
    }
    for kind in &kinds {
        let path = format!("/v1/jobs/{id}/artifacts/{kind}");
        let artifact = route(&engine, &req("GET", &path, "alice", ""));
        assert_eq!(artifact.status, 200, "{kind}");
        if request::JSON_ARTIFACTS.contains(&kind.as_str()) {
            assert_eq!(artifact.content_type, "application/json", "{kind}");
            parse(&artifact);
        } else {
            assert!(artifact.content_type.starts_with("text/plain"), "{kind}");
        }
    }
}

#[test]
fn admission_reject_carries_e_codes_and_runs_nothing() {
    let engine = test_engine();
    let body = format!(
        r#"{{"request":{{"schema_version":1,"workload":{{"kind":"fig8"}},"configs":[0],"frames":2,"soc_config":{BROKEN_CONFIG}}}}}"#
    );
    let rejected = route(&engine, &req("POST", "/v1/jobs", "alice", &body));
    assert_eq!(rejected.status, 422);
    let parsed = parse(&rejected);
    let error = parsed.get("error").and_then(Value::as_str).expect("error");
    assert!(error.contains("nothing was simulated"), "got: {error}");
    let diags = parsed
        .get("diagnostics")
        .and_then(Value::as_array)
        .expect("diagnostics array");
    assert!(
        diags.iter().any(|d| {
            d.get("code").and_then(Value::as_str) == Some("E0101")
                && d.get("severity").and_then(Value::as_str) == Some("error")
        }),
        "expected an E0101 diagnostic, got: {}",
        rejected.body
    );
    // No job was created and nothing reached the simulator.
    assert!(!engine.run_next());
    let health = parse(&route(&engine, &req("GET", "/v1/healthz", "alice", "")));
    let payload = health.get("payload").expect("healthz envelope payload");
    assert_eq!(payload.get("queued").and_then(Value::as_u64), Some(0));
    assert_eq!(payload.get("finished").and_then(Value::as_u64), Some(0));
}

#[test]
fn cache_hit_resubmission_is_instant_and_byte_identical() {
    let engine = test_engine();
    let first = parse(&route(
        &engine,
        &req("POST", "/v1/jobs", "alice", &fig8_body()),
    ));
    let first_id = first.get("job_id").and_then(Value::as_u64).expect("id");
    assert!(engine.run_next());
    // Same job, different tenant, reordered JSON keys, different worker
    // count — all irrelevant to the cache key.
    let reordered = r#"{"request":{"frames":2,"jobs":7,"engine":"event-driven","configs":[0],"workload":{"kind":"fig8"},"schema_version":1}}"#;
    let resubmitted = route(&engine, &req("POST", "/v1/jobs", "bob", reordered));
    assert_eq!(
        resubmitted.status, 200,
        "cache hit, not 201: {}",
        resubmitted.body
    );
    let body = parse(&resubmitted);
    assert_eq!(body.get("cached").and_then(Value::as_bool), Some(true));
    assert_eq!(body.get("state").and_then(Value::as_str), Some("done"));
    assert_eq!(
        body.get("cache_key").and_then(Value::as_str),
        first.get("cache_key").and_then(Value::as_str),
        "identical requests share one cache key"
    );
    let second_id = body.get("job_id").and_then(Value::as_u64).expect("id");
    let a = route(
        &engine,
        &req(
            "GET",
            &format!("/v1/jobs/{first_id}/artifacts/metrics"),
            "alice",
            "",
        ),
    );
    let b = route(
        &engine,
        &req(
            "GET",
            &format!("/v1/jobs/{second_id}/artifacts/metrics"),
            "bob",
            "",
        ),
    );
    assert_eq!(a.body, b.body, "cached artifact bytes are identical");
    assert!(!engine.run_next(), "the cache hit consumed no simulation");
}

#[test]
fn cancel_mid_queue_prevents_execution() {
    let engine = test_engine();
    let keep = parse(&route(
        &engine,
        &req("POST", "/v1/jobs", "alice", &fig8_body()),
    ));
    let keep_id = keep.get("job_id").and_then(Value::as_u64).expect("id");
    let drop_body = fig8_body().replace("\"frames\":2", "\"frames\":3");
    let cancel_me = parse(&route(
        &engine,
        &req("POST", "/v1/jobs", "alice", &drop_body),
    ));
    let cancel_id = cancel_me.get("job_id").and_then(Value::as_u64).expect("id");

    let cancelled = route(
        &engine,
        &req("DELETE", &format!("/v1/jobs/{cancel_id}"), "alice", ""),
    );
    assert_eq!(cancelled.status, 200);
    assert_eq!(
        parse(&cancelled).get("state").and_then(Value::as_str),
        Some("cancelled")
    );
    // Only the surviving job runs; the queue is then empty.
    assert!(engine.run_next());
    assert!(!engine.run_next());
    let kept = parse(&route(
        &engine,
        &req("GET", &format!("/v1/jobs/{keep_id}"), "alice", ""),
    ));
    assert_eq!(kept.get("state").and_then(Value::as_str), Some("done"));
    let gone = parse(&route(
        &engine,
        &req("GET", &format!("/v1/jobs/{cancel_id}"), "alice", ""),
    ));
    assert_eq!(gone.get("state").and_then(Value::as_str), Some("cancelled"));
    // Cancelling a finished job conflicts.
    let again = route(
        &engine,
        &req("DELETE", &format!("/v1/jobs/{cancel_id}"), "alice", ""),
    );
    assert_eq!(again.status, 409);
}

#[test]
fn queued_quota_returns_429() {
    let engine = test_engine();
    for frames in 2..5 {
        let body = fig8_body().replace("\"frames\":2", &format!("\"frames\":{frames}"));
        let ok = route(&engine, &req("POST", "/v1/jobs", "alice", &body));
        assert_eq!(ok.status, 201, "within quota: {}", ok.body);
    }
    let over = fig8_body().replace("\"frames\":2", "\"frames\":9");
    let refused = route(&engine, &req("POST", "/v1/jobs", "alice", &over));
    assert_eq!(refused.status, 429);
    let error = parse(&refused);
    let msg = error.get("error").and_then(Value::as_str).expect("error");
    assert!(msg.contains("quota"), "got: {msg}");
    // Another tenant is unaffected.
    let other = route(&engine, &req("POST", "/v1/jobs", "bob", &over));
    assert_eq!(other.status, 201);
}

#[test]
fn jobs_are_invisible_across_tenants() {
    let engine = test_engine();
    let created = parse(&route(
        &engine,
        &req("POST", "/v1/jobs", "alice", &fig8_body()),
    ));
    let id = created.get("job_id").and_then(Value::as_u64).expect("id");
    for request in [
        req("GET", &format!("/v1/jobs/{id}"), "mallory", ""),
        req(
            "GET",
            &format!("/v1/jobs/{id}/artifacts/metrics"),
            "mallory",
            "",
        ),
        req("DELETE", &format!("/v1/jobs/{id}"), "mallory", ""),
    ] {
        assert_eq!(route(&engine, &request).status, 404);
    }
}

#[test]
fn malformed_requests_get_400_with_reasons() {
    let engine = test_engine();
    let garbage = route(&engine, &req("POST", "/v1/jobs", "alice", "not json"));
    assert_eq!(garbage.status, 400);
    let bad_priority = fig8_body().replace("\"normal\"", "\"urgent\"");
    let refused = route(&engine, &req("POST", "/v1/jobs", "alice", &bad_priority));
    assert_eq!(refused.status, 400);
    assert!(parse(&refused)
        .get("error")
        .and_then(Value::as_str)
        .expect("error")
        .contains("priority"));
    let bad_engine = fig8_body().replace("\"frames\":2", "\"frames\":2,\"engine\":\"warp\"");
    let invalid = route(&engine, &req("POST", "/v1/jobs", "alice", &bad_engine));
    assert_eq!(invalid.status, 400);
    assert!(parse(&invalid)
        .get("error")
        .and_then(Value::as_str)
        .expect("error")
        .contains("unknown engine"));
    assert_eq!(
        route(&engine, &req("GET", "/v1/jobs/nope", "alice", "")).status,
        400
    );
    assert_eq!(
        route(&engine, &req("GET", "/v2/jobs", "alice", "")).status,
        404
    );
    assert_eq!(
        route(&engine, &req("PUT", "/v1/jobs", "alice", "")).status,
        405
    );
}

#[test]
fn healthz_tracks_engine_counters() {
    let engine = test_engine();
    let before = parse(&route(&engine, &req("GET", "/v1/healthz", "", "")));
    // Healthz is wrapped in the standard artifact envelope.
    assert_eq!(
        before.get("schema_version").and_then(Value::as_u64),
        Some(1)
    );
    assert_eq!(before.get("kind").and_then(Value::as_str), Some("healthz"));
    let payload = before.get("payload").expect("payload");
    assert_eq!(payload.get("status").and_then(Value::as_str), Some("ok"));
    assert_eq!(payload.get("queued").and_then(Value::as_u64), Some(0));
    assert_eq!(payload.get("cache_hits").and_then(Value::as_u64), Some(0));
    assert_eq!(
        payload.get("version").and_then(Value::as_str),
        Some(env!("CARGO_PKG_VERSION"))
    );
    assert!(payload.get("uptime_secs").and_then(Value::as_u64).is_some());
    route(&engine, &req("POST", "/v1/jobs", "alice", &fig8_body()));
    assert!(engine.run_next());
    let after = parse(&route(&engine, &req("GET", "/v1/healthz", "", "")));
    let payload = after.get("payload").expect("payload");
    assert_eq!(payload.get("queued").and_then(Value::as_u64), Some(0));
    assert_eq!(payload.get("finished").and_then(Value::as_u64), Some(1));
    assert_eq!(
        payload.get("cache_entries").and_then(Value::as_u64),
        Some(1)
    );
    // The run was a cache miss; a resubmission is a hit, and healthz's
    // counters agree with /v1/metrics (both read ServeMetrics).
    assert_eq!(payload.get("cache_misses").and_then(Value::as_u64), Some(1));
    route(&engine, &req("POST", "/v1/jobs", "bob", &fig8_body()));
    let hit = parse(&route(&engine, &req("GET", "/v1/healthz", "", "")));
    let payload = hit.get("payload").expect("payload");
    assert_eq!(payload.get("cache_hits").and_then(Value::as_u64), Some(1));
}

/// The `/v1/metrics` contract: after a known flow (one executed job,
/// one cached resubmit, one admission reject, one cancel) every counter
/// has an exact value, the exposition text is well-formed, and the
/// cache counters agree with `/v1/healthz`.
#[test]
fn metrics_contract_counts_every_flow() {
    let engine = test_engine();
    // 1. A job that actually simulates.
    let created = route(&engine, &req("POST", "/v1/jobs", "alice", &fig8_body()));
    assert_eq!(created.status, 201);
    assert!(engine.run_next());
    // 2. The identical request again: a cache hit.
    let hit = route(&engine, &req("POST", "/v1/jobs", "bob", &fig8_body()));
    assert_eq!(hit.status, 200);
    // 3. An admission reject (broken SoC config).
    let broken = format!(
        r#"{{"request":{{"schema_version":1,"workload":{{"kind":"fig8"}},"configs":[0],"frames":2,"soc_config":{BROKEN_CONFIG}}}}}"#
    );
    assert_eq!(
        route(&engine, &req("POST", "/v1/jobs", "alice", &broken)).status,
        422
    );
    // 4. A queued job cancelled before it runs.
    let body = fig8_body().replace("\"frames\":2", "\"frames\":3");
    let doomed = parse(&route(&engine, &req("POST", "/v1/jobs", "alice", &body)));
    let doomed_id = doomed.get("job_id").and_then(Value::as_u64).expect("id");
    assert_eq!(
        route(
            &engine,
            &req("DELETE", &format!("/v1/jobs/{doomed_id}"), "alice", "")
        )
        .status,
        200
    );

    let metrics = route(&engine, &req("GET", "/v1/metrics", "", ""));
    assert_eq!(metrics.status, 200);
    assert!(
        metrics.content_type.starts_with("text/plain"),
        "Prometheus exposition is text: {}",
        metrics.content_type
    );
    let text = &metrics.body;
    // Flat counters (rendered through the trace CounterRegistry).
    assert!(text.contains("espserve_jobs_submitted 3\n"), "{text}");
    assert!(text.contains("espserve_jobs_started 1\n"), "{text}");
    assert!(text.contains("espserve_cache_hits 1\n"), "{text}");
    assert!(text.contains("espserve_cache_misses 1\n"), "{text}");
    // Per-tenant admission outcomes.
    assert!(text.contains("espserve_tenant_jobs_total{tenant=\"alice\",outcome=\"admitted\"} 2"));
    assert!(text.contains("espserve_tenant_jobs_total{tenant=\"alice\",outcome=\"rejected\"} 1"));
    assert!(text.contains("espserve_tenant_jobs_total{tenant=\"bob\",outcome=\"admitted\"} 1"));
    // Terminal results: the executed job and the cache hit are both
    // `done`; the cancel is its own result.
    assert!(text.contains("espserve_jobs_finished_total{result=\"done\"} 2"));
    assert!(text.contains("espserve_jobs_finished_total{result=\"cancelled\"} 1"));
    // HTTP requests by route pattern × method × status. The /v1/metrics
    // scrape itself is counted after its body is rendered, so it does
    // not appear in its own exposition.
    assert!(text.contains(
        "espserve_http_requests_total{route=\"/v1/jobs\",method=\"POST\",status=\"201\"} 2"
    ));
    assert!(text.contains(
        "espserve_http_requests_total{route=\"/v1/jobs\",method=\"POST\",status=\"200\"} 1"
    ));
    assert!(text.contains(
        "espserve_http_requests_total{route=\"/v1/jobs\",method=\"POST\",status=\"422\"} 1"
    ));
    assert!(text.contains(
        "espserve_http_requests_total{route=\"/v1/jobs/{id}\",method=\"DELETE\",status=\"200\"} 1"
    ));
    // Exactly one simulation ran: one observation in each duration
    // histogram, with the cumulative +Inf bucket equal to the count.
    assert!(text.contains("# TYPE espserve_job_run_duration_ms histogram"));
    assert!(text.contains("espserve_job_run_duration_ms_count 1"));
    assert!(text.contains("espserve_job_run_duration_ms_bucket{le=\"+Inf\"} 1"));
    assert!(text.contains("espserve_job_queue_wait_ms_count 1"));
    // The models' host caches: the one run generated its frames and ran
    // its networks; the cached resubmission ran nothing.
    assert!(text.contains("espserve_frame_cache_hits 0\n"), "{text}");
    assert!(text.contains("espserve_frame_cache_misses 1\n"), "{text}");
    let count = |name: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse::<u64>().ok())
    };
    assert!(
        count("espserve_kernel_memo_misses").is_some_and(|n| n > 0),
        "{text}"
    );
    assert!(count("espserve_kernel_memo_hits").is_some(), "{text}");
    // Nothing queued or running at scrape time.
    assert!(text.contains("espserve_queue_depth{priority=\"normal\"} 0"));
    assert!(text.contains("espserve_jobs_running 0"));
    // The healthz cache counters read the same registry.
    let health = parse(&route(&engine, &req("GET", "/v1/healthz", "", "")));
    let payload = health.get("payload").expect("payload");
    assert_eq!(payload.get("cache_hits").and_then(Value::as_u64), Some(1));
    assert_eq!(payload.get("cache_misses").and_then(Value::as_u64), Some(1));
    assert_eq!(
        payload.get("cache_evictions").and_then(Value::as_u64),
        Some(0)
    );
}

/// Progress and long-polling through the HTTP surface: `wait_ms` on a
/// queued job times out unchanged, a terminal job answers immediately,
/// and the final snapshot's `points_done` equals its `points_total`.
#[test]
fn job_status_reports_progress_and_long_polls() {
    let engine = test_engine();
    let created = parse(&route(
        &engine,
        &req("POST", "/v1/jobs", "alice", &fig8_body()),
    ));
    let id = created.get("job_id").and_then(Value::as_u64).expect("id");
    let queued = route(
        &engine,
        &req("GET", &format!("/v1/jobs/{id}?wait_ms=1"), "alice", ""),
    );
    assert_eq!(queued.status, 200);
    let body = parse(&queued);
    assert_eq!(body.get("state").and_then(Value::as_str), Some("queued"));
    assert!(matches!(body.get("progress"), Some(Value::Null)));
    let entry_version = body
        .get("version")
        .and_then(Value::as_u64)
        .expect("version");

    assert!(engine.run_next());
    // Terminal jobs return immediately even with the maximum hold.
    let done = parse(&route(
        &engine,
        &req("GET", &format!("/v1/jobs/{id}?wait_ms=30000"), "alice", ""),
    ));
    assert_eq!(done.get("state").and_then(Value::as_str), Some("done"));
    assert!(
        done.get("version")
            .and_then(Value::as_u64)
            .expect("version")
            > entry_version,
        "every transition bumps the version"
    );
    let progress = done.get("progress").expect("progress");
    let points_done = progress
        .get("points_done")
        .and_then(Value::as_u64)
        .expect("points_done");
    assert!(points_done > 0);
    assert_eq!(
        progress.get("points_total").and_then(Value::as_u64),
        Some(points_done),
        "final progress covers the whole grid"
    );
    assert_eq!(
        route(
            &engine,
            &req("GET", &format!("/v1/jobs/{id}?wait_ms=soon"), "alice", "")
        )
        .status,
        400
    );
}

/// The `wait_ms` contract: any numeric value is accepted — oversized
/// ones (even past `u64::MAX`) clamp to the server bound instead of
/// 400ing — `wait_ms=0` answers immediately, and only non-numeric
/// input is rejected.
#[test]
fn wait_ms_clamps_overflow_and_zero_answers_immediately() {
    let engine = test_engine();
    let created = parse(&route(
        &engine,
        &req("POST", "/v1/jobs", "alice", &fig8_body()),
    ));
    let id = created.get("job_id").and_then(Value::as_u64).expect("id");

    // wait_ms=0 on a *queued* job: no state change is coming (no
    // workers), so only a zero-duration hold lets this return at all.
    let started = std::time::Instant::now();
    let zero = route(
        &engine,
        &req("GET", &format!("/v1/jobs/{id}?wait_ms=0"), "alice", ""),
    );
    assert_eq!(zero.status, 200);
    assert_eq!(
        parse(&zero).get("state").and_then(Value::as_str),
        Some("queued")
    );
    assert!(
        started.elapsed() < std::time::Duration::from_secs(5),
        "wait_ms=0 must answer immediately, not hold the poll"
    );

    assert!(engine.run_next());
    // On the terminal job every numeric value answers instantly, so the
    // oversized ones only have to prove they don't 400: exactly
    // u64::MAX, one past it, and a value far beyond any integer width.
    for oversized in [
        "18446744073709551615",
        "18446744073709551616",
        "99999999999999999999999999999999",
    ] {
        let resp = route(
            &engine,
            &req(
                "GET",
                &format!("/v1/jobs/{id}?wait_ms={oversized}"),
                "alice",
                "",
            ),
        );
        assert_eq!(resp.status, 200, "wait_ms={oversized} must clamp, not 400");
        assert_eq!(
            parse(&resp).get("state").and_then(Value::as_str),
            Some("done")
        );
    }
    // Only non-numeric input is malformed.
    for bad in ["", "-1", "1e3", "10s"] {
        let resp = route(
            &engine,
            &req("GET", &format!("/v1/jobs/{id}?wait_ms={bad}"), "alice", ""),
        );
        assert_eq!(resp.status, 400, "wait_ms={bad:?} must be rejected");
    }
}

/// End-to-end over a real socket: the exact bytes a curl client would
/// exchange, with a live worker thread doing the simulation.
#[test]
fn v1_api_over_a_real_tcp_socket() {
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::sync::Arc;

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let engine = Arc::new(JobEngine::new(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    }));
    engine.start();
    let server_engine = Arc::clone(&engine);
    std::thread::spawn(move || {
        esp4ml_serve::http::serve(
            listener,
            move |request| route(&server_engine, &request),
            esp4ml_serve::log::Logger::disabled(),
        );
    });

    let exchange = |method: &str, path: &str, body: &str| -> HttpResponse {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nX-Api-Key: ci\r\n\
             Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("send");
        // Reuse the server-side parser to read the response: the shapes
        // are close enough (status line is ignored; we re-parse it).
        use std::io::Read;
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).expect("response");
        let text = String::from_utf8(raw).expect("utf8");
        let (head, body) = text.split_once("\r\n\r\n").expect("header/body split");
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .expect("status code")
            .parse()
            .expect("numeric status");
        let content_type = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Type: "))
            .unwrap_or("")
            .to_string();
        HttpResponse {
            status,
            content_type,
            body: body.to_string(),
        }
    };

    let created = exchange("POST", "/v1/jobs", &fig8_body());
    assert_eq!(created.status, 201, "body: {}", created.body);
    let id = parse(&created)
        .get("job_id")
        .and_then(Value::as_u64)
        .expect("job id");

    let mut state = String::new();
    for _ in 0..600 {
        let status = parse(&exchange("GET", &format!("/v1/jobs/{id}"), ""));
        state = status
            .get("state")
            .and_then(Value::as_str)
            .expect("state")
            .to_string();
        if state == "done" || state == "failed" {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    assert_eq!(state, "done", "job should finish under the worker thread");

    let metrics = exchange("GET", &format!("/v1/jobs/{id}/artifacts/metrics"), "");
    assert_eq!(metrics.status, 200);
    let mut expected = RunRequest::new(WorkloadKind::Fig8);
    expected.frames = 2;
    expected.configs = vec![0];
    let response = request::execute(&expected, &TrainedModels::untrained()).expect("runs");
    assert_eq!(
        Some(&metrics.body),
        response.artifacts.get("metrics"),
        "server artifact is byte-identical to the library run"
    );
    engine.stop();
}
