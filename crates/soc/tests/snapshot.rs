//! Snapshot/restore contract: `restore(snapshot(s))` resumes
//! byte-identically under both engines.
//!
//! "Byte-identically" is checked literally: after resuming to
//! quiescence, the *entire machine state* is serialized again and the
//! JSON must equal the uninterrupted reference run's — every register,
//! PLM word, DRAM span, queue, statistic, sampling row, sanitizer
//! ledger and fault trigger counter included.

use esp4ml_check::SanitizerConfig;
use esp4ml_fault::{FaultPlan, FaultSpec};
use esp4ml_noc::Coord;
use esp4ml_soc::{AccelConfig, ScaleKernel, Soc, SocBuilder, SocEngine, SocError, SocSnapshot};
use proptest::prelude::*;

const A: Coord = Coord { x: 0, y: 1 };
const B: Coord = Coord { x: 1, y: 1 };

fn build_soc(engine: SocEngine, sanitize: bool, sample_every: Option<u64>) -> Soc {
    let mut soc = SocBuilder::new(3, 2)
        .processor(Coord::new(0, 0))
        .memory(Coord::new(1, 0))
        .accelerator(
            Coord::new(0, 1),
            Box::new(ScaleKernel::new("a0", 16, 2).with_cycles_per_value(7)),
        )
        .accelerator(Coord::new(1, 1), Box::new(ScaleKernel::new("a1", 16, 3)))
        .engine(engine)
        .build()
        .expect("valid floorplan");
    if sanitize {
        soc.enable_sanitizer(SanitizerConfig::all());
    }
    if let Some(every) = sample_every {
        soc.enable_counter_sampling(every);
    }
    soc
}

/// Configures and starts either a single DMA accelerator or a two-stage
/// p2p pipeline, exercising registers, page tables, PLM buffers, DVFS
/// and double buffering.
fn start_workload(soc: &mut Soc, p2p: bool, frames: u64, dbuf: bool, divider: u64) {
    for f in 0..frames {
        let vals: Vec<u64> = (0..16).map(|i| i + 10 * f).collect();
        soc.dram_write_values(f * 4, &vals, 16).unwrap();
    }
    soc.map_contiguous(A, 0, 4096).unwrap();
    soc.map_contiguous(B, 0, 4096).unwrap();
    if p2p {
        let mut ca = AccelConfig::dma_to_p2p(0, frames).with_dvfs_divider(divider);
        let mut cb = AccelConfig::p2p_to_dma(vec![A], 100, frames);
        if dbuf {
            ca = ca.with_double_buffer();
            cb = cb.with_double_buffer();
        }
        soc.configure_accel(A, &ca).unwrap();
        soc.configure_accel(B, &cb).unwrap();
        soc.start_accel(A).unwrap();
        soc.start_accel(B).unwrap();
    } else {
        let mut ca = AccelConfig::dma_to_dma(0, 100, frames).with_dvfs_divider(divider);
        if dbuf {
            ca = ca.with_double_buffer();
        }
        soc.configure_accel(A, &ca).unwrap();
        soc.start_accel(A).unwrap();
    }
}

/// Runs to quiescence and serializes the complete final machine state.
fn final_image(soc: &mut Soc) -> String {
    assert!(soc.run_until_idle(1_000_000).is_idle(), "workload stuck");
    serde_json::to_string(&soc.snapshot()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pause a random workload at a random cycle, snapshot, let the
    /// original run finish, then restore the snapshot — onto the same
    /// SoC and onto a freshly built one, under a randomly different
    /// engine — and check the resumed runs reach the exact same final
    /// machine state.
    #[test]
    fn restore_resumes_byte_identically(
        p2p in proptest::bool::ANY,
        dbuf in proptest::bool::ANY,
        frames in 1u64..=3,
        divider in 1u64..=3,
        pause in 1u64..=3000,
        start_naive in proptest::bool::ANY,
        resume_naive in proptest::bool::ANY,
        sanitize in proptest::bool::ANY,
    ) {
        let start_engine = if start_naive { SocEngine::Naive } else { SocEngine::EventDriven };
        let resume_engine = if resume_naive { SocEngine::Naive } else { SocEngine::EventDriven };
        let mut soc = build_soc(start_engine, sanitize, Some(7));
        start_workload(&mut soc, p2p, frames, dbuf, divider);
        soc.run_cycles(pause);
        let snap = soc.snapshot();

        // The uninterrupted reference continuation.
        let reference = final_image(&mut soc);
        let ref_cycle = soc.cycle();

        // Resume on the same SoC, possibly under the other engine.
        soc.set_engine(resume_engine);
        soc.restore(&snap).unwrap();
        prop_assert!(soc.run_until_idle(1_000_000).is_idle());
        prop_assert_eq!(soc.cycle(), ref_cycle);
        prop_assert_eq!(&serde_json::to_string(&soc.snapshot()).unwrap(), &reference);

        // Resume on a freshly built SoC (sanitizer/sampling state come
        // from the snapshot, not the builder).
        let mut fresh = build_soc(resume_engine, false, None);
        fresh.restore(&snap).unwrap();
        prop_assert_eq!(&final_image(&mut fresh), &reference);
    }
}

/// The snapshot survives a JSON encode/decode and the decoded copy
/// resumes a fresh SoC to the identical final state (the persistence
/// path a checkpoint file takes).
#[test]
fn snapshot_json_roundtrip_resumes_identically() {
    let mut soc = build_soc(SocEngine::EventDriven, true, Some(13));
    start_workload(&mut soc, true, 3, true, 2);
    soc.run_cycles(500);
    let snap = soc.snapshot();
    let json = serde_json::to_string(&snap).unwrap();
    let back: SocSnapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(back, snap, "decode must reproduce the snapshot exactly");

    let reference = final_image(&mut soc);
    let mut fresh = build_soc(SocEngine::Naive, false, None);
    fresh.restore(&back).unwrap();
    assert_eq!(final_image(&mut fresh), reference);
}

/// Restoring replaces fault state wholesale: a plan installed after the
/// snapshot is uninstalled by the restore, and a plan captured *in* the
/// snapshot resumes with its trigger counts intact.
#[test]
fn restore_replaces_fault_plans_wholesale() {
    // Fault-free snapshot, then arm a plan: restore must disarm it.
    let mut soc = build_soc(SocEngine::EventDriven, false, None);
    start_workload(&mut soc, false, 2, false, 1);
    let clean = soc.snapshot();
    let plan = FaultPlan::new(1).with(FaultSpec::transient_hang("a0", 0));
    assert_eq!(soc.install_fault_plan(&plan), 1);
    soc.restore(&clean).unwrap();
    assert!(soc.run_until_idle(1_000_000).is_idle());
    assert_eq!(soc.faults_injected(), 0, "restored run must be fault-free");
    assert_eq!(soc.take_irqs(), vec![A], "batch must complete normally");

    // Armed snapshot: the trigger counters travel with it.
    let mut faulty = build_soc(SocEngine::EventDriven, false, None);
    assert_eq!(faulty.install_fault_plan(&plan), 1);
    start_workload(&mut faulty, false, 2, false, 1);
    assert!(faulty.run_until_idle(1_000_000).is_idle());
    assert_eq!(faulty.faults_injected(), 1, "hang must have fired");
    let armed = faulty.snapshot();

    let mut fresh = build_soc(SocEngine::Naive, false, None);
    fresh.restore(&armed).unwrap();
    assert_eq!(
        fresh.faults_injected(),
        1,
        "fired counter must survive the restore"
    );
    // The transient hang already fired at invocation 0; the driver's
    // retry on the restored SoC must succeed without re-firing.
    fresh.reset_accel(A).unwrap();
    fresh.start_accel(A).unwrap();
    assert!(fresh.run_until_idle(1_000_000).is_idle());
    assert_eq!(fresh.faults_injected(), 1, "fault must not re-fire");
    assert_eq!(fresh.take_irqs(), vec![A]);
}

/// A snapshot from one floorplan refuses to restore onto another.
#[test]
fn restore_rejects_wrong_floorplan() {
    let soc = build_soc(SocEngine::EventDriven, false, None);
    let snap = soc.snapshot();
    let mut other = SocBuilder::new(2, 2)
        .processor(Coord::new(0, 0))
        .memory(Coord::new(1, 0))
        .build()
        .unwrap();
    assert!(matches!(
        other.restore(&snap),
        Err(SocError::SnapshotMismatch(_))
    ));
}
