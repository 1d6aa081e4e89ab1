//! Pinned response bytes for every workload the request layer serves.
//!
//! Each case executes one [`RunRequest`] at 2 frames and pins two FNV-1a
//! 64 digests: one over [`RunResponse::to_json`] (runs, verdict, summary,
//! notes and every artifact body) and one over the `--progress` line
//! sequence (the [`Progress::to_json_line`] bytes, newline-joined). A
//! refactor of the request layer must leave both unchanged; a deliberate
//! output change must update the constants and say why.

use esp4ml::apps::TrainedModels;
use esp4ml::deploy::Deployment;
use esp4ml_bench::request::{
    execute_with_progress, CollectingSink, ObserveOpts, Progress, RunRequest, WorkloadKind,
};
use esp4ml_fault::{FaultPlan, FaultSpec};

/// FNV-1a 64-bit over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn request(workload: WorkloadKind, configs: &[usize]) -> RunRequest {
    let mut r = RunRequest::new(workload);
    r.frames = 2;
    r.configs = configs.to_vec();
    r
}

/// Executes `req` and returns `(response digest, progress digest)`.
fn digests(req: &RunRequest, models: &TrainedModels) -> (u64, u64) {
    let sink = CollectingSink::new();
    let response = execute_with_progress(req, models, Some(&sink)).expect("request runs");
    let lines: Vec<String> = sink
        .snapshots()
        .iter()
        .map(Progress::to_json_line)
        .collect();
    (
        fnv1a64(response.to_json().as_bytes()),
        fnv1a64(lines.join("\n").as_bytes()),
    )
}

fn assert_pinned(name: &str, req: &RunRequest, expected: (u64, u64)) {
    let models = TrainedModels::untrained();
    let got = digests(req, &models);
    assert_eq!(
        got, expected,
        "{name}: response/progress digests moved (got {:#018x}, {:#018x})",
        got.0, got.1
    );
}

#[test]
fn fig8_plain_response_is_pinned() {
    let req = request(WorkloadKind::Fig8, &[0, 1]);
    assert_pinned(
        "fig8 plain",
        &req,
        (0x6a39_c862_b593_cb1f, 0xe33a_e461_a47e_1d7a),
    );
}

#[test]
fn fig8_traced_response_is_pinned() {
    let mut req = request(WorkloadKind::Fig8, &[0, 1]);
    req.observe = ObserveOpts {
        trace: true,
        sample_every: Some(1000),
        ..ObserveOpts::default()
    };
    assert_pinned(
        "fig8 trace",
        &req,
        (0x0446_6f09_dacc_a061, 0xe33a_e461_a47e_1d7a),
    );
}

#[test]
fn fig8_spanned_and_profiled_response_is_pinned() {
    let mut req = request(WorkloadKind::Fig8, &[0, 1]);
    req.observe = ObserveOpts {
        spans: true,
        profile: true,
        ..ObserveOpts::default()
    };
    assert_pinned(
        "fig8 spans+profile",
        &req,
        (0x07f1_65ee_9297_3ee8, 0xe33a_e461_a47e_1d7a),
    );
}

/// The whole 15-point Fig. 7 grid, including the base-mode Night-Vision
/// points where an invocation completes inside its own ioctl window.
#[test]
fn fig7_full_grid_response_is_pinned() {
    let req = request(WorkloadKind::Fig7, &[]);
    assert_pinned(
        "fig7 grid",
        &req,
        (0x6373_fcb4_d577_d30b, 0x4601_fc2c_a664_3f58),
    );
}

#[test]
fn fig7_sanitized_response_is_pinned() {
    let mut req = request(WorkloadKind::Fig7, &[9, 10, 11]);
    req.sanitize = true;
    assert_pinned(
        "fig7 sanitized",
        &req,
        (0x2af9_3429_6025_d869, 0x80b8_dcae_ceaa_74c5),
    );
}

#[test]
fn fig7_faulted_response_is_pinned() {
    let mut req = request(WorkloadKind::Fig7, &[9, 10, 11]);
    req.fault_plan = Some(FaultPlan::new(0).with(FaultSpec::transient_hang("denoiser", 0)));
    assert_pinned(
        "fig7 faulted",
        &req,
        (0x6033_e4ea_1ce5_fd66, 0xadaa_90aa_d381_29bd),
    );
}

#[test]
fn table1_response_is_pinned() {
    let req = request(WorkloadKind::Table1, &[]);
    assert_pinned(
        "table1",
        &req,
        (0x0292_5acc_9016_60bb, 0x1b2a_a1d9_087d_7ce2),
    );
}

#[test]
fn profile_response_is_pinned() {
    let req = request(WorkloadKind::Profile, &[]);
    assert_pinned(
        "profile",
        &req,
        (0x8623_02e7_8952_5d81, 0x401a_69ad_aaae_5ffa),
    );
}

#[test]
fn spans_response_is_pinned() {
    let mut req = request(WorkloadKind::Spans, &[3]);
    req.modes = vec!["base".into(), "pipe".into(), "p2p".into()];
    assert_pinned(
        "spans",
        &req,
        (0x0914_f930_ff53_c677, 0x80b8_dcae_ceaa_74c5),
    );
}

#[test]
fn faults_response_is_pinned() {
    let req = request(WorkloadKind::Faults { seeds: 1 }, &[]);
    assert_pinned(
        "faults",
        &req,
        (0x514d_c84e_59e8_2129, 0xdab9_65e6_d329_3e4d),
    );
}

#[test]
fn check_response_is_pinned() {
    let req = request(WorkloadKind::Check, &[]);
    assert_pinned(
        "check",
        &req,
        (0xeab4_69a0_61e0_bcfb, 0x36cc_f0be_a7eb_5569),
    );
}

#[test]
fn deployment_response_is_pinned() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../configs/deploy_ok.json"
    ))
    .expect("seeded deployment");
    let mut req = request(WorkloadKind::Deployment, &[]);
    req.deployment = Some(Deployment::from_json(&text).expect("deployment parses"));
    assert_pinned(
        "deployment",
        &req,
        (0x40bc_4a2a_90c8_baab, 0x8f99_5aaa_de03_09cc),
    );
}
