//! `serve_mix`: the job server under a seeded request mix.
//!
//! An in-process `espserve` (a `JobEngine` with the default
//! `EngineConfig`: 2 workers, 64-entry result cache) behind
//! `http::serve` on `127.0.0.1:0` is driven over loopback by two
//! closed-loop clients: each sends its next request only once the
//! previous one has its artifact. A request is `POST /v1/jobs`, then
//! long-polls of `GET /v1/jobs/{id}?wait_ms=` until the job is done,
//! then `GET /v1/jobs/{id}/artifacts/metrics`.
//!
//! The request sequence comes from the seed. Every request is one
//! Fig. 8 or Table I grid point (`configs: [i]`) with 1 to 8 frames.
//! About half of the submissions repeat an earlier request, and one
//! fresh request in four is sanitized. The 144 keys outnumber the 64
//! cache entries, so a request not repeated for a while misses again
//! after LRU eviction.

use crate::calib::Gauge;
use crate::layers::{self, PointRun};
use crate::spans::{Recorder, SpanLog};
use crate::util::{digest, median, peak_rss_mb, quantile, ratio};
use crate::{timed_setup, Args, Outcome, GOLDEN_DIR};
use esp4ml::apps::TrainedModels;
use esp4ml::experiments::{Fig8, GridPoint, Table1};
use esp4ml_bench::request::{self, RunRequest, RunResponse, WorkloadKind};
use esp4ml_serve::engine::{EngineConfig, JobEngine};
use esp4ml_serve::log::Logger;
use esp4ml_serve::{api, http};
use serde_json::{json, Map, Value};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The points a request selects: the six Fig. 8 points, then the three
/// Table I points.
const SELECTIONS: [(WorkloadKind, usize); 9] = [
    (WorkloadKind::Fig8, 0),
    (WorkloadKind::Fig8, 1),
    (WorkloadKind::Fig8, 2),
    (WorkloadKind::Fig8, 3),
    (WorkloadKind::Fig8, 4),
    (WorkloadKind::Fig8, 5),
    (WorkloadKind::Table1, 0),
    (WorkloadKind::Table1, 1),
    (WorkloadKind::Table1, 2),
];
/// Requests simulate 1 to this many frames.
const MAX_FRAMES: u64 = 8;
/// Result-cache capacity of the default engine.
const CACHE: usize = 64;
/// Share of submissions that repeat an earlier request.
const REPEAT_SHARE: f64 = 0.5;
/// Repeats meant to hit pick one of this many most recently used
/// requests.
const HOT_WINDOW: usize = 32;
/// Share of repeats that pick a request the cache has likely evicted.
const STALE_SHARE: f64 = 0.15;
/// Requests generated per run: more than a run can send.
const SEQUENCE_LEN: usize = 20_000;
/// Closed-loop clients, and so connections in flight.
const CLIENTS: usize = 2;
/// A measured run holds at least this many misses, so that ten lie
/// beyond the p90.
const MIN_MISSES: usize = 100;
/// The clients stop here even short of `MIN_MISSES`, well inside the
/// run's time limit.
const MAX_LOOP: Duration = Duration::from_secs(120);
/// A measured run drives the clients in this many segments of equal
/// length, each followed by a reference pass that scales it.
const SEGMENTS: u32 = 24;
/// Long-poll hold per status request, in milliseconds.
const WAIT_MS: u64 = 10_000;
/// Requests a traced run sends untraced and then traced, each on a
/// fresh server, to measure the span overhead.
const TRACED_REQUESTS: usize = 200;
/// `GET /v1/healthz` round trips a traced run times.
const RTT_PROBES: usize = 50;
/// Frames of the points a traced run replays call by call.
const REPLAY_FRAMES: u64 = 4;
/// Sequence length of the generator self-test: long enough that the
/// shares vary from seed to seed by a standard deviation of 0.002-0.004,
/// so every bound of the self-test lies over ten standard deviations out
/// and no seed fails it by chance.
const SELFTEST_LEN: usize = 20_000;
/// How far the self-test lets two seeds' shares differ.
const SELFTEST_TOLERANCE: f64 = 0.05;

/// One request of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MixRequest {
    /// Index into [`SELECTIONS`].
    selection: usize,
    frames: u64,
    sanitize: bool,
}

impl MixRequest {
    fn run_request(self) -> RunRequest {
        let (kind, config) = SELECTIONS[self.selection];
        let mut req = RunRequest::new(kind);
        req.configs = vec![config];
        req.frames = self.frames;
        req.sanitize = self.sanitize;
        req.engine = "event".to_string();
        req
    }

    /// The grid point the request runs.
    fn point(self) -> GridPoint {
        let (kind, config) = SELECTIONS[self.selection];
        let grid = if kind == WorkloadKind::Table1 {
            Table1::grid()
        } else {
            Fig8::grid()
        };
        grid[config]
    }

    /// The cache key the server computes, as the API prints it.
    fn key(self) -> String {
        format!("{:016x}", self.run_request().cache_key())
    }

    fn body(self) -> String {
        let request = serde_json::to_value(self.run_request()).expect("requests serialize");
        serde_json::to_string(&json!({"priority": "normal", "request": request}))
            .expect("a Value always serializes")
    }

    fn describe(self) -> String {
        let (kind, config) = SELECTIONS[self.selection];
        let sanitized = if self.sanitize { " sanitized" } else { "" };
        format!(
            "{} config {config} with {} frames{sanitized}",
            kind.label(),
            self.frames
        )
    }
}

/// Every request the mix can hold.
fn key_space() -> Vec<MixRequest> {
    let mut all = Vec::new();
    for selection in 0..SELECTIONS.len() {
        for frames in 1..=MAX_FRAMES {
            for sanitize in [false, true] {
                all.push(MixRequest {
                    selection,
                    frames,
                    sanitize,
                });
            }
        }
    }
    all
}

/// SplitMix64: small and fully specified, so a seed gives the same
/// sequence on every platform and toolchain.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, p: f64) -> bool {
        ((self.next() >> 11) as f64) / ((1u64 << 53) as f64) < p
    }
}

/// The request sequence of `seed`, and how many of its submissions were
/// drawn as repeats.
///
/// Fresh requests deal (point, frames) pairs from a shuffled deck of all
/// 72, so every seed draws the same mix of points and frame counts; one
/// in each block of four fresh requests, at a random position, is
/// sanitized. Once 32 distinct requests exist, half of the submissions
/// repeat one: most pick among the 32 most recently used, and
/// `STALE_SHARE` of them one the cache has evicted.
pub fn generate(seed: u64, len: usize) -> (Vec<MixRequest>, usize) {
    let mut rng = Rng(seed);
    let pairs: Vec<(usize, u64)> = (0..SELECTIONS.len())
        .flat_map(|s| (1..=MAX_FRAMES).map(move |f| (s, f)))
        .collect();
    let mut deck: Vec<(usize, u64)> = Vec::new();
    // Distinct requests, least recently used first.
    let mut recent: Vec<MixRequest> = Vec::new();
    let mut fresh = 0;
    let mut sanitized_slot = 0;
    let mut seq = Vec::with_capacity(len);
    while seq.len() < len {
        let req = if recent.len() >= HOT_WINDOW && rng.chance(REPEAT_SHARE) {
            let idx = if recent.len() > CACHE && rng.chance(STALE_SHARE) {
                rng.below(recent.len() - CACHE)
            } else {
                recent.len() - 1 - rng.below(HOT_WINDOW)
            };
            recent[idx]
        } else {
            if deck.is_empty() {
                deck = pairs.clone();
                for i in (1..deck.len()).rev() {
                    deck.swap(i, rng.below(i + 1));
                }
            }
            let (selection, frames) = deck.pop().expect("the deck was just refilled");
            if fresh % 4 == 0 {
                sanitized_slot = rng.below(4);
            }
            let sanitize = fresh % 4 == sanitized_slot;
            fresh += 1;
            MixRequest {
                selection,
                frames,
                sanitize,
            }
        };
        if let Some(pos) = recent.iter().position(|r| *r == req) {
            recent.remove(pos);
        }
        recent.push(req);
        seq.push(req);
    }
    let repeats = len - fresh;
    (seq, repeats)
}

/// Shares of a sequence: of submissions drawn as repeats, and of hits
/// and sanitized misses as one client would meet them against a 64-entry
/// LRU cache.
#[derive(Debug)]
struct MixProfile {
    repeat: f64,
    hit: f64,
    sanitized_misses: f64,
}

fn profile(seed: u64) -> (Vec<MixRequest>, MixProfile) {
    let (seq, repeats) = generate(seed, SELFTEST_LEN);
    let mut lru: Vec<MixRequest> = Vec::new();
    let (mut hits, mut misses, mut sanitized) = (0, 0, 0);
    for req in &seq {
        if let Some(pos) = lru.iter().position(|r| r == req) {
            hits += 1;
            lru.remove(pos);
        } else {
            misses += 1;
            sanitized += usize::from(req.sanitize);
            if lru.len() == CACHE {
                lru.remove(0);
            }
        }
        lru.push(*req);
    }
    let n = seq.len() as f64;
    let shares = MixProfile {
        repeat: ratio(repeats as f64, n),
        hit: ratio(hits as f64, n),
        sanitized_misses: ratio(sanitized as f64, misses as f64),
    };
    (seq, shares)
}

/// The shares of `seed`'s sequence, for the self-test's report.
pub fn shares(seed: u64) -> String {
    let p = profile(seed).1;
    format!(
        "repeat {:.3}, hit {:.3}, sanitized misses {:.3}",
        p.repeat, p.hit, p.sanitized_misses
    )
}

/// The generator self-test: a seed gives the same sequence every time,
/// and the next seed a different sequence with the same repeat, hit and
/// sanitize shares. Returns the problems found.
pub fn selftest(seed: u64) -> Vec<String> {
    let mut problems = Vec::new();
    let (a, pa) = profile(seed);
    if a != profile(seed).0 {
        problems.push(format!("seed {seed} gave two different sequences"));
    }
    let other = seed.wrapping_add(1);
    let (b, pb) = profile(other);
    if a == b {
        problems.push(format!("seeds {seed} and {other} gave the same sequence"));
    }
    for (name, x, y) in [
        ("repeat", pa.repeat, pb.repeat),
        ("hit", pa.hit, pb.hit),
        ("sanitized-miss", pa.sanitized_misses, pb.sanitized_misses),
    ] {
        if (x - y).abs() > SELFTEST_TOLERANCE {
            problems.push(format!(
                "{name} share {x:.3} under seed {seed} but {y:.3} under seed {other}"
            ));
        }
    }
    if !(0.4..=0.65).contains(&pa.repeat) {
        problems.push(format!("repeat share {:.3}, not about half", pa.repeat));
    }
    // One fresh request in four is sanitized, but the sanitized share of
    // misses is about a third: a fresh plain request more often finds its
    // key already cached from an earlier deal of the deck.
    if !(0.25..=0.45).contains(&pa.sanitized_misses) {
        problems.push(format!(
            "sanitized share of misses {:.3}, not about a third",
            pa.sanitized_misses
        ));
    }
    problems
}

/// The expected metrics-artifact digest and simulated cycles per cache
/// key, from the library's `execute` of every request in the key space.
struct Golden(HashMap<String, (String, u64)>);

fn golden_path() -> String {
    format!("{GOLDEN_DIR}/serve_mix.json")
}

impl Golden {
    fn load() -> Result<Golden, String> {
        let path = golden_path();
        let bad = |what: &str| format!("{path}: {what}");
        let text = std::fs::read_to_string(&path).map_err(|e| bad(&e.to_string()))?;
        let doc: Value = serde_json::from_str(&text).map_err(|e| bad(&e.to_string()))?;
        let mut keys = HashMap::new();
        for (key, entry) in doc["keys"].as_object().ok_or_else(|| bad("no keys"))? {
            let digest = entry["metrics_artifact_digest"]
                .as_str()
                .ok_or_else(|| bad("an entry has no digest"))?;
            let cycles = entry["cycles"]
                .as_u64()
                .ok_or_else(|| bad("an entry has no cycles"))?;
            keys.insert(key.clone(), (digest.to_string(), cycles));
        }
        Ok(Golden(keys))
    }

    /// The problem with `artifact` as the answer to `req`, if any.
    fn check(&self, req: MixRequest, artifact: &str) -> Option<String> {
        match self.0.get(&req.key()) {
            None => Some(format!("{}: no golden for its key", req.describe())),
            Some((expected, _)) if *expected != digest(artifact) => Some(format!(
                "{}: metrics artifact digest {}, golden {expected}",
                req.describe(),
                digest(artifact)
            )),
            Some(_) => None,
        }
    }

    fn cycles(&self, req: MixRequest) -> u64 {
        self.0.get(&req.key()).map_or(0, |g| g.1)
    }
}

/// Writes the `serve_mix` golden: every request of the key space run
/// through the library's `execute`.
pub fn write_goldens() -> Result<(), String> {
    let models = TrainedModels::untrained();
    let mut keys = Map::new();
    for req in key_space() {
        let resp = request::execute(&req.run_request(), &models).map_err(|e| e.to_string())?;
        let metrics = resp
            .artifacts
            .get("metrics")
            .ok_or("the response has no metrics artifact")?;
        let cycles: u64 = resp.runs.iter().map(|r| r.metrics.cycles).sum();
        let entry = json!({
            "request": req.describe(),
            "metrics_artifact_digest": digest(metrics),
            "cycles": cycles,
        });
        keys.insert(req.key(), entry);
    }
    let doc = json!({"workload": "serve_mix", "keys": Value::Object(keys)});
    let path = golden_path();
    let text = serde_json::to_string_pretty(&doc).expect("a Value always serializes");
    std::fs::write(&path, text + "\n").map_err(|e| format!("write {path}: {e}"))?;
    eprintln!("wrote {path}");
    Ok(())
}

/// An in-process server on an ephemeral loopback port.
struct Server {
    engine: Arc<JobEngine>,
    addr: SocketAddr,
}

impl Server {
    /// Starts a default engine behind `http::serve` and waits for the
    /// first healthy `/v1/healthz`.
    fn start() -> Result<Server, String> {
        let engine = Arc::new(JobEngine::new(EngineConfig::default()));
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local address: {e}"))?;
        engine.start();
        let routed = Arc::clone(&engine);
        // `http::serve` never returns: the accept thread ends with the
        // process.
        std::thread::spawn(move || {
            http::serve(
                listener,
                move |req| api::route(&routed, &req),
                Logger::disabled(),
            );
        });
        let server = Server { engine, addr };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match call(addr, "GET", "/v1/healthz", "", "bench") {
                Ok((200, _)) => return Ok(server),
                _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
                other => return Err(format!("no healthy /v1/healthz within 10 s: {other:?}")),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.engine.stop();
    }
}

/// One HTTP/1.1 exchange on a fresh connection (the server closes each
/// connection after its response); returns the status and body.
fn call(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    tenant: &str,
) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("set timeout: {e}"))?;
    let message = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nX-Api-Key: {tenant}\r\n\
         Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(message.as_bytes())
        .map_err(|e| format!("send {method} {path}: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read {method} {path}: {e}"))?;
    let text =
        String::from_utf8(raw).map_err(|_| format!("{method} {path}: reply is not UTF-8"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: reply has no header end"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: bad status line"))?;
    Ok((status, body.to_string()))
}

/// The JSON field `name` of a reply body, as a string.
fn field(reply: &str, name: &str) -> Result<Value, String> {
    let value: Value = serde_json::from_str(reply).map_err(|e| format!("reply: {e}"))?;
    Ok(value[name].clone())
}

/// One completed client request.
struct Sample {
    req: MixRequest,
    hit: bool,
    /// The cache key the server reported.
    key: String,
    /// Seconds from submit to artifact received.
    latency_s: f64,
    /// The gauge factor of the segment the request ran in.
    scale: f64,
    artifact: String,
}

/// One client request: submit, long-poll until done, fetch the metrics
/// artifact.
fn request_once(
    addr: SocketAddr,
    tenant: &str,
    req: MixRequest,
    rec: &mut Recorder,
) -> Result<Sample, String> {
    let begin = Instant::now();
    let body = req.body();
    let (status, reply) = rec.span("serve.submit", |_| {
        call(addr, "POST", "/v1/jobs", &body, tenant)
    })?;
    if status != 200 && status != 201 {
        return Err(format!(
            "{}: POST /v1/jobs answered {status}: {reply}",
            req.describe()
        ));
    }
    let id = field(&reply, "job_id")?
        .as_u64()
        .ok_or("the submit reply has no job_id")?;
    let hit = field(&reply, "cached")?.as_bool() == Some(true);
    let key = field(&reply, "cache_key")?
        .as_str()
        .unwrap_or_default()
        .to_string();
    let mut state = field(&reply, "state")?
        .as_str()
        .unwrap_or_default()
        .to_string();
    let poll = format!("/v1/jobs/{id}?wait_ms={WAIT_MS}");
    while state != "done" {
        if state == "failed" || state == "cancelled" {
            return Err(format!("{}: job {id} ended {state}", req.describe()));
        }
        let (status, reply) = rec.span("serve.poll", |_| call(addr, "GET", &poll, "", tenant))?;
        if status != 200 {
            return Err(format!("{}: GET {poll} answered {status}", req.describe()));
        }
        state = field(&reply, "state")?
            .as_str()
            .unwrap_or_default()
            .to_string();
    }
    let path = format!("/v1/jobs/{id}/artifacts/metrics");
    let (status, artifact) =
        rec.span("serve.artifact", |_| call(addr, "GET", &path, "", tenant))?;
    if status != 200 {
        return Err(format!("{}: GET {path} answered {status}", req.describe()));
    }
    Ok(Sample {
        req,
        hit,
        key,
        latency_s: begin.elapsed().as_secs_f64(),
        scale: 1.0,
        artifact,
    })
}

/// When the clients stop.
#[derive(Clone, Copy)]
enum Stop {
    /// After this many seconds.
    Seconds(f64),
    /// After this many requests.
    Requests(usize),
}

/// What the clients did in one [`drive`].
struct Driven {
    attempts: Vec<Result<Sample, String>>,
    recorders: Vec<Recorder>,
    /// Seconds the clients ran.
    seconds: f64,
    /// Requests of the sequence taken, run or not.
    taken: usize,
}

/// Runs the clients over `seq` until `stop`. With `t0`, every client
/// records its route spans.
fn drive(addr: SocketAddr, seq: &[MixRequest], stop: Stop, t0: Option<Instant>) -> Driven {
    let next = AtomicUsize::new(0);
    let begin = Instant::now();
    let done = |claimed: usize| match stop {
        Stop::Requests(n) => claimed >= n,
        Stop::Seconds(seconds) => begin.elapsed().as_secs_f64() >= seconds,
    };
    let per_client = std::thread::scope(|scope| {
        let clients: Vec<_> = (1..=CLIENTS)
            .map(|client| {
                let (next, done) = (&next, &done);
                scope.spawn(move || {
                    let mut rec =
                        t0.map_or_else(Recorder::disabled, |t0| Recorder::new(t0, client));
                    let tenant = format!("client-{client}");
                    let mut attempts = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if done(i) || i >= seq.len() {
                            break;
                        }
                        attempts.push(request_once(addr, &tenant, seq[i], &mut rec));
                    }
                    (attempts, rec)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let seconds = begin.elapsed().as_secs_f64();
    let mut attempts = Vec::new();
    let mut recorders = Vec::new();
    for (client_attempts, rec) in per_client {
        attempts.extend(client_attempts);
        recorders.push(rec);
    }
    Driven {
        attempts,
        recorders,
        seconds,
        taken: next.into_inner().min(seq.len()),
    }
}

/// Latencies by cache outcome, and the cycles the misses simulated.
#[derive(Default)]
struct Served {
    hits: Vec<f64>,
    /// Hit latencies at the nominal host speed.
    hits_scaled: Vec<f64>,
    misses: Vec<f64>,
    cycles: u64,
}

/// Checks every attempt: the server's cache key must be the request's,
/// the artifact must match the golden, and a hit's artifact must equal
/// this run's miss artifact for its key.
fn check(attempts: Vec<Result<Sample, String>>, golden: &Golden, out: &mut Outcome) -> Served {
    let miss_digests: HashMap<String, String> = attempts
        .iter()
        .flatten()
        .filter(|s| !s.hit)
        .map(|s| (s.key.clone(), digest(&s.artifact)))
        .collect();
    let mut served = Served::default();
    for attempt in attempts {
        let sample = match attempt {
            Ok(sample) => sample,
            Err(e) => {
                out.operation(vec![e]);
                continue;
            }
        };
        let mut problems = Vec::new();
        let expected_key = sample.req.key();
        if sample.key != expected_key {
            problems.push(format!(
                "{}: the server's cache key {} is not {expected_key}",
                sample.req.describe(),
                sample.key
            ));
        }
        problems.extend(golden.check(sample.req, &sample.artifact));
        if sample.hit {
            if let Some(miss) = miss_digests.get(&sample.key) {
                if *miss != digest(&sample.artifact) {
                    problems.push(format!(
                        "{}: a hit's artifact differs from the miss artifact of its key",
                        sample.req.describe()
                    ));
                }
            }
        }
        if out.operation(problems) {
            if sample.hit {
                served.hits.push(sample.latency_s);
                served.hits_scaled.push(sample.latency_s * sample.scale);
            } else {
                served.misses.push(sample.latency_s);
                served.cycles += golden.cycles(sample.req);
            }
        }
    }
    served
}

fn latency_extras(served: &Served, out: &mut Outcome) {
    out.extra("hit_p50_ms", median(&served.hits) * 1e3, "ms");
    out.extra("miss_p50_ms", median(&served.misses) * 1e3, "ms");
    out.extra("miss_p90_ms", quantile(&served.misses, 0.9) * 1e3, "ms");
    out.extra("hits", served.hits.len() as f64, "count");
    out.extra("misses", served.misses.len() as f64, "count");
    let completed = (served.hits.len() + served.misses.len()) as f64;
    out.extra(
        "hit_share",
        ratio(served.hits.len() as f64, completed),
        "ratio",
    );
}

/// Runs `serve_mix`. Untraced, the clients run for `args.seconds` (and
/// at least `MIN_MISSES` misses) in `SEGMENTS` segments, each followed by
/// a reference pass, and the end-to-end metrics are reported at the
/// nominal host speed: `wall_s` is the median hit latency,
/// `sim_cycles_per_s` the cycles the misses simulated per second the
/// clients ran, `jobs_per_s` the completed requests per second.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let (setup_s, (seq, server)) = timed_setup(args.started, || {
        let (seq, _) = generate(args.seed, SEQUENCE_LEN);
        Ok((seq, Server::start()?))
    })?;
    let golden = Golden::load()?;
    if args.trace {
        return traced(&golden, &seq, server);
    }
    let mut out = Outcome::default();
    let mut gauge = Gauge::new();
    let segment = Stop::Seconds(args.seconds / f64::from(SEGMENTS));
    let (mut attempts, mut ran, mut ran_scaled, mut next) = (Vec::new(), 0.0, 0.0, 0);
    let mut misses = 0;
    let begin = Instant::now();
    while (begin.elapsed().as_secs_f64() < args.seconds || misses < MIN_MISSES)
        && begin.elapsed() < MAX_LOOP
        && next < seq.len()
    {
        let mut driven = drive(server.addr, &seq[next..], segment, None);
        let factor = gauge.factor();
        for sample in driven.attempts.iter_mut().flatten() {
            sample.scale = factor;
            misses += usize::from(!sample.hit);
        }
        attempts.extend(driven.attempts);
        ran += driven.seconds;
        ran_scaled += driven.seconds * factor;
        next += driven.taken;
    }
    let served = check(attempts, &golden, &mut out);
    out.problems.extend(selftest(args.seed));
    let completed = (served.hits.len() + served.misses.len()) as f64;
    out.record("setup_s", setup_s, "s");
    out.record("wall_s", median(&served.hits_scaled), "s");
    let cycles = served.cycles as f64;
    out.record("sim_cycles_per_s", ratio(cycles, ran_scaled), "1/s");
    out.record("jobs_per_s", ratio(completed, ran_scaled), "1/s");
    out.record("peak_rss_mb", peak_rss_mb()?, "MB");
    latency_extras(&served, &mut out);
    out.extra("jobs_raw_per_s", ratio(completed, ran), "1/s");
    out.extra("reference_s", gauge.reference_s(), "s");
    Ok(out)
}

/// The value of an unlabelled series in a Prometheus exposition.
fn prometheus_value(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        line.strip_prefix(name)
            .and_then(|rest| rest.strip_prefix(' '))
            .and_then(|v| v.trim().parse().ok())
    })
}

/// A traced run: `/v1/healthz` round trips; the first `TRACED_REQUESTS`
/// requests untraced and then traced, each on a fresh server, with the
/// client route spans and a `/v1/metrics` scrape; the nine points at
/// `REPLAY_FRAMES` frames replayed call by call and through `execute`
/// plain and sanitized; request-layer and snapshot timings.
fn traced(golden: &Golden, seq: &[MixRequest], server: Server) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let t0 = Instant::now();
    let mut main = Recorder::new(t0, 0);
    main.span("phase healthz", |rec| {
        for _ in 0..RTT_PROBES {
            let reply = rec.span("serve.healthz", |_| {
                call(server.addr, "GET", "/v1/healthz", "", "bench")
            });
            let problems = match reply {
                Ok((200, _)) => Vec::new(),
                Ok((status, _)) => vec![format!("GET /v1/healthz answered {status}")],
                Err(e) => vec![e],
            };
            out.operation(problems);
        }
    });
    let stop = Stop::Requests(TRACED_REQUESTS);
    let plain = main.span("phase plain", |_| drive(server.addr, seq, stop, None));
    check(plain.attempts, golden, &mut out);
    drop(server);
    let fresh = Server::start()?;
    let from = main.now_ns();
    let traced = main.span("phase traced", |_| drive(fresh.addr, seq, stop, Some(t0)));
    let to = main.now_ns();
    let served = check(traced.attempts, golden, &mut out);
    latency_extras(&served, &mut out);
    let (status, scrape) = main.span("serve.metrics", |_| {
        call(fresh.addr, "GET", "/v1/metrics", "", "bench")
    })?;
    drop(fresh);
    if status != 200 {
        out.problems
            .push(format!("GET /v1/metrics answered {status}"));
    }

    let models = TrainedModels::untrained();
    let mut runs: Vec<PointRun> = Vec::new();
    let mut responses: Vec<RunResponse> = Vec::new();
    let (mut sanitize_s, mut replay_s, mut execute_s) = (0.0, 0.0, 0.0);
    main.span("phase replay", |rec| -> Result<(), String> {
        for selection in 0..SELECTIONS.len() {
            let plain = MixRequest {
                selection,
                frames: REPLAY_FRAMES,
                sanitize: false,
            };
            let point = plain.point();
            let begin = Instant::now();
            let run = layers::run_point(rec, &point.app, point.mode, &models, REPLAY_FRAMES, None)?;
            replay_s += begin.elapsed().as_secs_f64();
            let artifact = layers::metrics_artifact(std::slice::from_ref(&run));
            let mut problems: Vec<String> = golden.check(plain, &artifact).into_iter().collect();
            runs.push(run);
            let sanitized = MixRequest {
                sanitize: true,
                ..plain
            };
            let mut seconds = [0.0; 2];
            for (i, req) in [plain, sanitized].into_iter().enumerate() {
                let begin = Instant::now();
                match request::execute(&req.run_request(), &models) {
                    Ok(resp) => {
                        seconds[i] = begin.elapsed().as_secs_f64();
                        let metrics = resp.artifacts.get("metrics").map_or("", String::as_str);
                        problems.extend(golden.check(req, metrics));
                        if !req.sanitize {
                            responses.push(resp);
                        }
                    }
                    Err(e) => problems.push(format!("{}: {e}", req.describe())),
                }
            }
            sanitize_s += seconds[1] - seconds[0];
            execute_s += seconds[0];
            out.operation(problems);
        }
        Ok(())
    })?;
    let requests: Vec<RunRequest> = (0..SELECTIONS.len())
        .map(|selection| {
            let req = MixRequest {
                selection,
                frames: REPLAY_FRAMES,
                sanitize: false,
            };
            req.run_request()
        })
        .collect();
    let response_refs: Vec<&RunResponse> = responses.iter().collect();
    main.span("phase request", |rec| {
        layers::request_probe(rec, &requests, &response_refs);
    });
    let apps = Table1::best_configs();
    let snapshot_kib = main.span("phase snapshot", |rec| {
        layers::snapshot_probe(rec, &apps, &models, REPLAY_FRAMES)
    })?;

    let log = SpanLog::merge(std::iter::once(main).chain(traced.recorders));
    layers::layer_metrics(&log, &runs, snapshot_kib, &mut out);
    layers::request_metrics(&log, &mut out);
    out.record("bench.span_overhead_s", traced.seconds - plain.seconds, "s");
    out.record("bench.span_coverage", log.coverage(from, to), "ratio");
    out.extra("sanitize.overhead_s", sanitize_s, "s");
    layers::check_replay(replay_s, execute_s, &mut out);
    let route_ms = |name: &str| median(&log.durations_s(name)) * 1e3;
    out.extra("serve.http_rtt_ms", route_ms("serve.healthz"), "ms");
    out.extra("serve.submit_ms", route_ms("serve.submit"), "ms");
    out.extra("serve.poll_ms", route_ms("serve.poll"), "ms");
    out.extra("serve.artifact_ms", route_ms("serve.artifact"), "ms");
    let scraped = |name: &str| prometheus_value(&scrape, name).unwrap_or(f64::NAN);
    out.extra(
        "serve.queue_wait_ms_p50",
        scraped("espserve_job_queue_wait_ms_p50"),
        "ms",
    );
    out.extra(
        "serve.queue_wait_ms_p90",
        scraped("espserve_job_queue_wait_ms_p90"),
        "ms",
    );
    out.extra(
        "serve.run_ms_p50",
        scraped("espserve_job_run_duration_ms_p50"),
        "ms",
    );
    let (hits, misses) = (
        scraped("espserve_cache_hits"),
        scraped("espserve_cache_misses"),
    );
    out.extra("serve.cache_hit_ratio", ratio(hits, hits + misses), "ratio");
    out.extra(
        "serve.cache_evictions",
        scraped("espserve_cache_evictions"),
        "count",
    );
    if out.extra.iter().any(|m| m.value.is_nan()) {
        out.problems
            .push("a series is missing from /v1/metrics".to_string());
    }
    let path = log.write("serve_mix", &out)?;
    eprintln!("spans written to {path}");
    Ok(out)
}
