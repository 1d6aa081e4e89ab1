//! Deterministic fault plans for the ESP4ML simulator.
//!
//! A [`FaultPlan`] describes *where* and *when* hardware misbehaves:
//! accelerator hangs and short (wrong-length) results, DMA word drops in
//! the memory tile, and NoC link degradation or flit corruption on a
//! chosen plane. The SoC installs a plan before a run
//! (`Soc::install_fault_plan`); the runtime's watchdog/retry/failover
//! machinery then has something real to recover from.
//!
//! # Determinism contract
//!
//! Every trigger in a plan counts *architectural events* — the N-th
//! accelerator invocation, the N-th DMA burst a memory tile services,
//! the N-th packet injected on a plane — never wall-clock polling.
//! Architectural events happen at identical cycles under the naive and
//! event-driven engines (the engine-equivalence contract), so the same
//! plan perturbs both engines identically and a seeded fault campaign
//! is byte-for-byte reproducible under either engine. The optional
//! [`CycleWindow`] is evaluated at event time, preserving the property.
//!
//! ```
//! use esp4ml_fault::{FaultPlan, FaultSpec};
//!
//! let plan = FaultPlan::new(7).with(FaultSpec::permanent_hang("nv0"));
//! let json = plan.to_json().unwrap();
//! assert_eq!(FaultPlan::from_json(&json).unwrap(), plan);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A half-open cycle interval `[from, until)` gating when a fault is
/// armed. The window is evaluated at the moment the triggering
/// architectural event happens (engine-deterministic); the default
/// window covers the whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycleWindow {
    /// First cycle (inclusive) at which the fault is armed.
    pub from: u64,
    /// First cycle (exclusive) at which the fault is disarmed.
    pub until: u64,
}

impl CycleWindow {
    /// A window covering the entire run.
    pub fn always() -> Self {
        CycleWindow {
            from: 0,
            until: u64::MAX,
        }
    }

    /// The window `[from, until)`.
    pub fn between(from: u64, until: u64) -> Self {
        CycleWindow { from, until }
    }

    /// Whether `cycle` falls inside the window.
    pub fn contains(&self, cycle: u64) -> bool {
        cycle >= self.from && cycle < self.until
    }
}

impl Default for CycleWindow {
    fn default() -> Self {
        CycleWindow::always()
    }
}

/// What kind of hardware fault to inject. All index fields count
/// architectural events from the moment the plan is installed; `count`
/// is how many consecutive matching events are affected (`u64::MAX`
/// models a permanently broken component).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "fault", rename_all = "snake_case")]
pub enum FaultKind {
    /// The named accelerator swallows its start command: the socket FSM
    /// stays idle and no completion IRQ is ever raised — the classic
    /// hung-device scenario the watchdog must catch.
    AccelHang {
        /// Device (kernel) name, as probed by the driver.
        device: String,
        /// First affected invocation index (0-based, counted per device).
        from_invocation: u64,
        /// Number of consecutive affected invocations.
        count: u64,
    },
    /// The named accelerator produces a wrong-length result: the last
    /// `drop_words` NoC words of its output are never stored, so the
    /// store phase (or the downstream p2p consumer) starves.
    AccelShortOutput {
        /// Device (kernel) name, as probed by the driver.
        device: String,
        /// First affected invocation index (0-based, counted per device).
        from_invocation: u64,
        /// Number of consecutive affected invocations.
        count: u64,
        /// Output words dropped per affected invocation (clamped to the
        /// invocation's output length; at least one word always survives
        /// so the DMA/p2p framing stays parseable).
        drop_words: u64,
    },
    /// A memory tile drops the trailing `drop_words` words of the
    /// response to a DMA load burst, as a flaky memory channel would.
    DmaDropWords {
        /// First affected load burst (0-based, counted per memory tile).
        from_burst: u64,
        /// Number of consecutive affected bursts.
        count: u64,
        /// Words dropped from the tail of each affected response.
        drop_words: u64,
    },
    /// NoC link degradation: packets injected on `plane` are held back
    /// `extra_cycles` before entering the network, modelling a link
    /// retraining at reduced bandwidth.
    NocDelay {
        /// NoC plane index (0-based; see `esp4ml_noc::Plane::ALL`).
        plane: usize,
        /// First affected packet (0-based, counted per plane at inject).
        from_packet: u64,
        /// Number of consecutive affected packets.
        count: u64,
        /// Extra cycles each affected packet is held before injection.
        extra_cycles: u64,
    },
    /// NoC flit corruption: one payload word of a delivered packet on
    /// `plane` is XOR-ed with `xor_mask` at ejection — silent data
    /// corruption that completes "successfully" with wrong results.
    NocCorrupt {
        /// NoC plane index (0-based).
        plane: usize,
        /// First affected packet (0-based, counted per plane at eject).
        from_packet: u64,
        /// Number of consecutive affected packets.
        count: u64,
        /// XOR mask applied to one payload word of each affected packet.
        xor_mask: u64,
    },
}

impl FaultKind {
    /// Stable label for reports and trace events.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::AccelHang { .. } => "accel_hang",
            FaultKind::AccelShortOutput { .. } => "accel_short_output",
            FaultKind::DmaDropWords { .. } => "dma_drop_words",
            FaultKind::NocDelay { .. } => "noc_delay",
            FaultKind::NocCorrupt { .. } => "noc_corrupt",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::AccelHang {
                device,
                from_invocation,
                count,
            } => write!(
                f,
                "hang {device} for {} invocation(s) from #{from_invocation}",
                Pretty(*count)
            ),
            FaultKind::AccelShortOutput {
                device,
                from_invocation,
                count,
                drop_words,
            } => write!(
                f,
                "truncate {device} output by {drop_words} word(s) for {} invocation(s) \
                 from #{from_invocation}",
                Pretty(*count)
            ),
            FaultKind::DmaDropWords {
                from_burst,
                count,
                drop_words,
            } => write!(
                f,
                "drop {drop_words} word(s) from {} DMA load burst(s) from #{from_burst}",
                Pretty(*count)
            ),
            FaultKind::NocDelay {
                plane,
                from_packet,
                count,
                extra_cycles,
            } => write!(
                f,
                "delay {} packet(s) on plane {plane} by {extra_cycles} cycle(s) \
                 from #{from_packet}",
                Pretty(*count)
            ),
            FaultKind::NocCorrupt {
                plane,
                from_packet,
                count,
                xor_mask,
            } => write!(
                f,
                "corrupt {} packet(s) on plane {plane} with mask {xor_mask:#x} \
                 from #{from_packet}",
                Pretty(*count)
            ),
        }
    }
}

/// Renders `u64::MAX` as "all" in Display output.
struct Pretty(u64);

impl fmt::Display for Pretty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == u64::MAX {
            write!(f, "all")
        } else {
            write!(f, "{}", self.0)
        }
    }
}

/// One scheduled fault: a kind plus the cycle window in which it is
/// armed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// What breaks.
    pub kind: FaultKind,
    /// When the fault is armed (default: the whole run).
    #[serde(default)]
    pub window: CycleWindow,
}

impl FaultSpec {
    /// Wraps a kind with the always-on window.
    pub fn new(kind: FaultKind) -> Self {
        FaultSpec {
            kind,
            window: CycleWindow::always(),
        }
    }

    /// Restricts the fault to a cycle window (builder style).
    pub fn in_window(mut self, window: CycleWindow) -> Self {
        self.window = window;
        self
    }

    /// Whether the fault fires on the `seq`-th triggering event (0-based,
    /// as counted by the component that armed it) happening at `cycle`:
    /// `seq` must fall in the kind's `[from, from + count)` range and
    /// `cycle` in the window. The one trigger test every component uses.
    pub fn fires(&self, seq: u64, cycle: u64) -> bool {
        let (from, count) = match self.kind {
            FaultKind::AccelHang {
                from_invocation,
                count,
                ..
            }
            | FaultKind::AccelShortOutput {
                from_invocation,
                count,
                ..
            } => (from_invocation, count),
            FaultKind::DmaDropWords {
                from_burst, count, ..
            } => (from_burst, count),
            FaultKind::NocDelay {
                from_packet, count, ..
            }
            | FaultKind::NocCorrupt {
                from_packet, count, ..
            } => (from_packet, count),
        };
        seq >= from && seq - from < count && self.window.contains(cycle)
    }

    /// A permanently hung device: every invocation is swallowed,
    /// retries are futile and only failover can recover.
    pub fn permanent_hang(device: &str) -> Self {
        FaultSpec::new(FaultKind::AccelHang {
            device: device.to_string(),
            from_invocation: 0,
            count: u64::MAX,
        })
    }

    /// A transient hang: exactly one invocation (`invocation`) of the
    /// device is swallowed; a retry succeeds.
    pub fn transient_hang(device: &str, invocation: u64) -> Self {
        FaultSpec::new(FaultKind::AccelHang {
            device: device.to_string(),
            from_invocation: invocation,
            count: 1,
        })
    }

    /// One short (wrong-length) result at `invocation`, `drop_words`
    /// words short.
    pub fn short_output(device: &str, invocation: u64, drop_words: u64) -> Self {
        FaultSpec::new(FaultKind::AccelShortOutput {
            device: device.to_string(),
            from_invocation: invocation,
            count: 1,
            drop_words,
        })
    }
}

/// A complete, seeded fault schedule for one run.
///
/// The `seed` records how the plan was generated (0 for hand-written
/// plans); the faults themselves are fully explicit, so a serialized
/// plan replays identically regardless of the generator's evolution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct FaultPlan {
    /// Campaign seed this plan was generated from (0 = hand-written).
    #[serde(default)]
    pub seed: u64,
    /// The scheduled faults.
    #[serde(default)]
    pub faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan with a seed recorded.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// Adds a fault (builder style).
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.faults.push(spec);
        self
    }

    /// Whether the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Serializes the plan as pretty JSON.
    ///
    /// # Errors
    ///
    /// Propagates serializer failures.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a plan from JSON.
    ///
    /// # Errors
    ///
    /// Propagates parse failures.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Generates a single-fault plan of the given class from a seed —
    /// the unit of an `espfault` campaign sweep. The targets describe
    /// the victim pipeline; the seed picks the victim device, the
    /// trigger index and the fault magnitude deterministically.
    pub fn generate(seed: u64, class: FaultClass, targets: &CampaignTargets) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xE5F4_FA17);
        let device = if targets.devices.is_empty() {
            String::new()
        } else {
            targets.devices[rng.gen_range(0..targets.devices.len())].clone()
        };
        let invocation = rng.gen_range(0..targets.frames.max(1));
        let kind = match class {
            FaultClass::AccelHang => FaultKind::AccelHang {
                device,
                from_invocation: invocation,
                count: if rng.gen_range(0..4u32) == 0 {
                    u64::MAX // one in four hangs is permanent
                } else {
                    rng.gen_range(1..=2u64)
                },
            },
            FaultClass::AccelShortOutput => FaultKind::AccelShortOutput {
                device,
                from_invocation: invocation,
                count: 1,
                drop_words: rng.gen_range(1..=8u64),
            },
            FaultClass::DmaDropWords => FaultKind::DmaDropWords {
                from_burst: rng.gen_range(0..targets.frames.max(1) * 2),
                count: 1,
                drop_words: rng.gen_range(1..=16u64),
            },
            FaultClass::NocDelay => FaultKind::NocDelay {
                plane: targets.planes[rng.gen_range(0..targets.planes.len().max(1))],
                from_packet: rng.gen_range(0..targets.frames.max(1) * 4),
                count: rng.gen_range(1..=8u64),
                extra_cycles: rng.gen_range(50..=500u64),
            },
            FaultClass::NocCorrupt => FaultKind::NocCorrupt {
                plane: targets.planes[rng.gen_range(0..targets.planes.len().max(1))],
                from_packet: rng.gen_range(0..targets.frames.max(1) * 4),
                count: 1,
                xor_mask: rng.gen::<u64>() | 1, // never the identity mask
            },
        };
        FaultPlan::new(seed).with(FaultSpec::new(kind))
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "fault plan (seed {}):", self.seed)?;
        if self.faults.is_empty() {
            writeln!(f, "  (no faults)")?;
        }
        for spec in &self.faults {
            write!(f, "  - {}", spec.kind)?;
            if spec.window != CycleWindow::always() {
                write!(
                    f,
                    " in cycles [{}, {})",
                    spec.window.from, spec.window.until
                )?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// The fault classes an `espfault` campaign sweeps over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum FaultClass {
    /// Accelerator hang (swallowed start, no IRQ).
    AccelHang,
    /// Accelerator wrong-length (short) result.
    AccelShortOutput,
    /// DMA word drop in the memory tile.
    DmaDropWords,
    /// NoC link degradation (extra injection latency).
    NocDelay,
    /// NoC flit corruption (silent payload bit-flips).
    NocCorrupt,
}

impl FaultClass {
    /// Every class, in campaign sweep order.
    pub const ALL: [FaultClass; 5] = [
        FaultClass::AccelHang,
        FaultClass::AccelShortOutput,
        FaultClass::DmaDropWords,
        FaultClass::NocDelay,
        FaultClass::NocCorrupt,
    ];

    /// Stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultClass::AccelHang => "accel_hang",
            FaultClass::AccelShortOutput => "accel_short_output",
            FaultClass::DmaDropWords => "dma_drop_words",
            FaultClass::NocDelay => "noc_delay",
            FaultClass::NocCorrupt => "noc_corrupt",
        }
    }
}

/// What an `espfault` campaign may aim a generated fault at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignTargets {
    /// Candidate victim devices (the pipeline's stage instances).
    pub devices: Vec<String>,
    /// Candidate NoC plane indices for NoC faults.
    pub planes: Vec<usize>,
    /// Frames the victim run processes (bounds trigger indices).
    pub frames: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn targets() -> CampaignTargets {
        CampaignTargets {
            devices: vec!["nv0".into(), "cl0".into()],
            planes: vec![4, 5],
            frames: 8,
        }
    }

    #[test]
    fn json_roundtrip_preserves_every_kind() {
        let plan = FaultPlan::new(3)
            .with(FaultSpec::permanent_hang("nv0"))
            .with(FaultSpec::short_output("cl0", 2, 4))
            .with(FaultSpec::new(FaultKind::DmaDropWords {
                from_burst: 1,
                count: 1,
                drop_words: 8,
            }))
            .with(
                FaultSpec::new(FaultKind::NocDelay {
                    plane: 4,
                    from_packet: 0,
                    count: 2,
                    extra_cycles: 100,
                })
                .in_window(CycleWindow::between(0, 10_000)),
            )
            .with(FaultSpec::new(FaultKind::NocCorrupt {
                plane: 5,
                from_packet: 3,
                count: 1,
                xor_mask: 0xFF,
            }));
        let json = plan.to_json().unwrap();
        assert_eq!(FaultPlan::from_json(&json).unwrap(), plan);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        for class in FaultClass::ALL {
            let a = FaultPlan::generate(42, class, &targets());
            let b = FaultPlan::generate(42, class, &targets());
            assert_eq!(a, b, "{class:?}");
            let c = FaultPlan::generate(43, class, &targets());
            assert_eq!(c.seed, 43);
        }
    }

    #[test]
    fn generated_triggers_stay_in_bounds() {
        for seed in 0..50 {
            let plan = FaultPlan::generate(seed, FaultClass::AccelHang, &targets());
            assert_eq!(plan.faults.len(), 1);
            match &plan.faults[0].kind {
                FaultKind::AccelHang {
                    device,
                    from_invocation,
                    count,
                } => {
                    assert!(targets().devices.contains(device));
                    assert!(*from_invocation < 8);
                    assert!(*count >= 1);
                }
                other => panic!("wrong kind {other:?}"),
            }
        }
    }

    #[test]
    fn window_gates_cycles() {
        let w = CycleWindow::between(10, 20);
        assert!(!w.contains(9));
        assert!(w.contains(10));
        assert!(w.contains(19));
        assert!(!w.contains(20));
        assert!(CycleWindow::always().contains(u64::MAX - 1));
    }

    #[test]
    fn fires_at_the_range_edges() {
        let spec = FaultSpec::new(FaultKind::DmaDropWords {
            from_burst: 5,
            count: 3,
            drop_words: 1,
        });
        assert!(!spec.fires(4, 0));
        assert!(spec.fires(5, 0));
        assert!(spec.fires(7, 0));
        assert!(!spec.fires(8, 0));
        assert!(!spec.fires(u64::MAX, 0));
    }

    #[test]
    fn fires_at_the_window_edges() {
        let spec = FaultSpec::transient_hang("nv0", 2).in_window(CycleWindow::between(100, 200));
        assert!(!spec.fires(2, 99));
        assert!(spec.fires(2, 100));
        assert!(spec.fires(2, 199));
        assert!(!spec.fires(2, 200));
        // In the window but outside the range.
        assert!(!spec.fires(1, 150));
        assert!(!spec.fires(3, 150));
    }

    #[test]
    fn unbounded_count_from_a_large_start_does_not_overflow() {
        let from = u64::MAX - 10;
        let spec = FaultSpec::new(FaultKind::NocDelay {
            plane: 4,
            from_packet: from,
            count: u64::MAX,
            extra_cycles: 1,
        });
        assert!(!spec.fires(from - 1, 0));
        assert!(spec.fires(from, 0));
        assert!(spec.fires(u64::MAX, u64::MAX - 1));
        assert!(!spec.fires(0, 0));
        // A zero count never fires.
        let never = FaultSpec::new(FaultKind::AccelHang {
            device: "nv0".into(),
            from_invocation: 0,
            count: 0,
        });
        assert!(!never.fires(0, 0));
    }

    #[test]
    fn fires_reads_each_kinds_own_range() {
        let kinds = [
            FaultKind::AccelHang {
                device: "nv0".into(),
                from_invocation: 3,
                count: 2,
            },
            FaultKind::AccelShortOutput {
                device: "nv0".into(),
                from_invocation: 3,
                count: 2,
                drop_words: 9,
            },
            FaultKind::DmaDropWords {
                from_burst: 3,
                count: 2,
                drop_words: 9,
            },
            FaultKind::NocDelay {
                plane: 9,
                from_packet: 3,
                count: 2,
                extra_cycles: 9,
            },
            FaultKind::NocCorrupt {
                plane: 9,
                from_packet: 3,
                count: 2,
                xor_mask: 9,
            },
        ];
        for kind in kinds {
            let spec = FaultSpec::new(kind);
            let fired: Vec<u64> = (0..8).filter(|&seq| spec.fires(seq, 0)).collect();
            assert_eq!(fired, vec![3, 4], "{}", spec.kind);
        }
    }

    #[test]
    fn default_window_omitted_from_json_still_parses() {
        let json = r#"{"seed":0,"faults":[{"kind":{"fault":"accel_hang",
            "device":"nv0","from_invocation":0,"count":1}}]}"#;
        let plan = FaultPlan::from_json(json).unwrap();
        assert_eq!(plan.faults[0].window, CycleWindow::always());
    }

    #[test]
    fn display_summarizes_the_plan() {
        let text = FaultPlan::new(7)
            .with(FaultSpec::permanent_hang("nv1"))
            .to_string();
        assert!(text.contains("seed 7"), "{text}");
        assert!(text.contains("hang nv1 for all invocation(s)"), "{text}");
    }
}
