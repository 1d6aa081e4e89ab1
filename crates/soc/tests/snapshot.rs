//! Snapshot/restore contract: `restore(snapshot(s))` resumes
//! byte-identically under both engines.
//!
//! "Byte-identically" is checked literally: after resuming to
//! quiescence, the *entire machine state* is serialized again and the
//! JSON must equal the uninterrupted reference run's — every register,
//! PLM word, DRAM span, queue, statistic, sampling row, sanitizer
//! ledger and fault trigger counter included. Runs that a fault leaves
//! stalled are compared the same way after a fixed cycle budget, by
//! final cycle and machine image.

use esp4ml_fault::{FaultKind, FaultPlan, FaultSpec};
use esp4ml_mem::{CacheConfig, DramConfig};
use esp4ml_noc::{Coord, Plane};
use esp4ml_soc::{AccelConfig, ScaleKernel, Soc, SocBuilder, SocEngine, SocError, SocSnapshot};
use proptest::prelude::*;

const A: Coord = Coord { x: 0, y: 1 };
const B: Coord = Coord { x: 1, y: 1 };

fn build_soc(engine: SocEngine, sanitize: bool, sample_every: Option<u64>) -> Soc {
    build_floorplan(engine, sanitize, sample_every, false)
}

/// The test floorplan; with `llc` its memory tile fronts DRAM with a
/// small LLC partition, so the workloads also hit, miss and write back.
fn build_floorplan(engine: SocEngine, sanitize: bool, sample_every: Option<u64>, llc: bool) -> Soc {
    let mem = Coord::new(1, 0);
    let builder = SocBuilder::new(3, 2).processor(Coord::new(0, 0));
    let builder = if llc {
        let cache = CacheConfig {
            size_words: 256,
            line_words: 8,
            ways: 2,
            hit_cycles: 3,
        };
        builder.memory_llc(mem, DramConfig::default(), cache)
    } else {
        builder.memory(mem)
    };
    let mut soc = builder
        .accelerator(
            Coord::new(0, 1),
            Box::new(ScaleKernel::new("a0", 16, 2).with_cycles_per_value(7)),
        )
        .accelerator(Coord::new(1, 1), Box::new(ScaleKernel::new("a1", 16, 3)))
        .engine(engine)
        .build()
        .expect("valid floorplan");
    if sanitize {
        soc.enable_sanitizer();
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

/// Cycle budget after which a stalled run is compared as it stands.
const STALL_BUDGET: u64 = 40_000;

/// Runs until quiescent or [`STALL_BUDGET`] cycles elapse, whichever
/// comes first, and returns the final cycle and machine image. Both
/// engines must agree on both even when a fault stalls the workload.
fn settled_image(soc: &mut Soc) -> (u64, String) {
    // A stalled run times out; where it then stands is what is compared.
    let _ = soc.run_until_idle(STALL_BUDGET);
    (soc.cycle(), serde_json::to_string(&soc.snapshot()).unwrap())
}

/// One fault of each of the five kinds, aimed at the test workloads:
/// index 0-1 hit accelerator `a0`, 2 the memory tile, 3-4 the DMA planes.
fn fault_of_kind(kind: usize) -> FaultSpec {
    match kind {
        0 => FaultSpec::transient_hang("a0", 0),
        1 => FaultSpec::short_output("a0", 0, 2),
        2 => FaultSpec::new(FaultKind::DmaDropWords {
            from_burst: 1,
            count: 2,
            drop_words: 3,
        }),
        3 => FaultSpec::new(FaultKind::NocDelay {
            plane: Plane::DmaReq.index(),
            from_packet: 1,
            count: 4,
            extra_cycles: 150,
        }),
        _ => FaultSpec::new(FaultKind::NocCorrupt {
            plane: Plane::DmaRsp.index(),
            from_packet: 1,
            count: 2,
            xor_mask: 0xff,
        }),
    }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Arm one fault of a random kind before start, pause mid-flight
    /// (held-back NoC packets, partial trigger counts, LLC tags in use),
    /// snapshot, and let the original run settle. Restoring the snapshot
    /// onto the same SoC under a random engine, and a JSON round-trip of
    /// it onto a freshly built SoC, must settle at the same cycle with
    /// the same machine image, whether or not the fault stalls the run.
    #[test]
    fn restore_resumes_faulted_runs_byte_identically(
        kind in 0usize..5,
        llc in proptest::bool::ANY,
        p2p in proptest::bool::ANY,
        frames in 1u64..=3,
        pause in 1u64..=1500,
        start_naive in proptest::bool::ANY,
        resume_naive in proptest::bool::ANY,
        sanitize in proptest::bool::ANY,
    ) {
        let start_engine = if start_naive { SocEngine::Naive } else { SocEngine::EventDriven };
        let resume_engine = if resume_naive { SocEngine::Naive } else { SocEngine::EventDriven };
        let mut soc = build_floorplan(start_engine, sanitize, Some(7), llc);
        let plan = FaultPlan::new(0).with(fault_of_kind(kind));
        prop_assert_eq!(soc.install_fault_plan(&plan), 1);
        start_workload(&mut soc, p2p, frames, false, 1);
        soc.run_cycles(pause);
        let snap = soc.snapshot();

        let reference = settled_image(&mut soc);

        soc.set_engine(resume_engine);
        soc.restore(&snap).unwrap();
        prop_assert_eq!(&settled_image(&mut soc), &reference);

        let json = serde_json::to_string(&snap).unwrap();
        let back: SocSnapshot = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, &snap);
        let mut fresh = build_floorplan(resume_engine, false, None, llc);
        fresh.restore(&back).unwrap();
        prop_assert_eq!(&settled_image(&mut fresh), &reference);
    }
}

/// The faulted-restore property above reaches the states it is meant
/// to: at a mid-flight pause a NoC delay fault holds packets back, and
/// the LLC has seen traffic.
#[test]
fn mid_flight_pause_holds_delayed_packets() {
    let mut soc = build_floorplan(SocEngine::EventDriven, false, None, true);
    let plan = FaultPlan::new(0).with(fault_of_kind(3));
    assert_eq!(soc.install_fault_plan(&plan), 1);
    start_workload(&mut soc, false, 3, false, 1);
    soc.run_cycles(300);
    let image = serde_json::to_value(soc.snapshot()).unwrap();
    let delayed = image["mesh"]["faults"]["delayed"]
        .as_array()
        .expect("delay fault state");
    assert!(!delayed.is_empty(), "no packet held back at the pause");
    let llc = soc.llc_stats().expect("LLC");
    assert!(llc.hits + llc.misses > 0, "LLC untouched at the pause");
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

    // Same tile counts, processor placed elsewhere.
    let mut moved = SocBuilder::new(3, 2)
        .processor(Coord::new(2, 0))
        .memory(Coord::new(1, 0))
        .accelerator(A, Box::new(ScaleKernel::new("a0", 16, 2)))
        .accelerator(B, Box::new(ScaleKernel::new("a1", 16, 3)))
        .build()
        .unwrap();
    assert!(matches!(
        moved.restore(&snap),
        Err(SocError::SnapshotMismatch(_))
    ));
}
