//! User-level dataflow descriptions (the generated `dflow.h` analog).

use esp4ml_check::{codes, Diagnostic};
use serde::{Deserialize, Serialize};

/// One pipeline stage: one or more identical device instances that share
/// the work round-robin (frame `f` goes to instance `f % n`).
///
/// Running several instances of a slow stage to feed one faster downstream
/// stage is exactly the throughput-balancing technique of §V ("if a slow
/// accelerator is feeding a faster one, multiple instances of the slower
/// accelerator can be activated").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageSpec {
    /// Device names of the instances (as probed by the driver).
    pub devices: Vec<String>,
}

impl StageSpec {
    /// A stage with the given device instances.
    pub fn new<S: Into<String>>(devices: impl IntoIterator<Item = S>) -> Self {
        StageSpec {
            devices: devices.into_iter().map(Into::into).collect(),
        }
    }

    /// Number of parallel instances.
    pub fn width(&self) -> usize {
        self.devices.len()
    }
}

/// How `esp_run` maps the dataflow onto the SoC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExecMode {
    /// Serial single-thread execution: one accelerator invocation at a
    /// time, all communication through memory (the paper's *base* bars).
    Base,
    /// Software pipeline: one thread per accelerator, dependencies enforced
    /// with pthread-style synchronization, communication through memory
    /// (the *pipe* bars).
    Pipe,
    /// Hardware pipeline: single invocation per accelerator with p2p
    /// communication; synchronization happens in the NoC (the *p2p* bars).
    P2p,
}

impl ExecMode {
    /// All modes, in the order the paper's figures present them.
    pub const ALL: [ExecMode; 3] = [ExecMode::Base, ExecMode::Pipe, ExecMode::P2p];

    /// The label used in Fig. 7.
    pub fn label(self) -> &'static str {
        match self {
            ExecMode::Base => "base",
            ExecMode::Pipe => "pipe",
            ExecMode::P2p => "p2p",
        }
    }

    /// The mode whose [`label`](ExecMode::label) is `label`.
    pub fn from_label(label: &str) -> Option<ExecMode> {
        ExecMode::ALL.into_iter().find(|m| m.label() == label)
    }

    /// How instance `j` of stage `s` moves its frames in a pipeline whose
    /// stages have `widths` instances: the one schedule the runtime
    /// programs into the sockets and the deployment analyzer prices.
    ///
    /// Base and pipe stage every frame through memory. Under p2p only the
    /// first stage loads and the last stores; every interior boundary
    /// rides the p2p service. A consumer pulls from its namesake producer
    /// when the two widths match and from every producer when the stage
    /// fans in to one, the two transitions `E0204` admits.
    pub fn instance_io(self, widths: &[usize], s: usize, j: usize) -> InstanceIo {
        let p2p = self == ExecMode::P2p;
        let loads = !p2p || s == 0;
        let sources = if loads {
            Vec::new()
        } else if widths[s - 1] == widths[s] {
            vec![j]
        } else {
            (0..widths[s - 1]).collect()
        };
        InstanceIo {
            loads,
            stores: !p2p || s + 1 == widths.len(),
            sources,
        }
    }
}

/// One stage instance's data movement under an [`ExecMode`], from
/// [`ExecMode::instance_io`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceIo {
    /// Loads its input frames from memory by DMA.
    pub loads: bool,
    /// Stores its output frames to memory by DMA; otherwise it serves
    /// them to the next stage over p2p.
    pub stores: bool,
    /// The previous stage's instances it pulls its input from over p2p
    /// (its `P2P_REG` sources); empty when it loads.
    pub sources: Vec<usize>,
}

/// A linear pipeline of stages — the dataflow shape of all four
/// case-study applications (Fig. 6).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Dataflow {
    /// Stages in execution order.
    pub stages: Vec<StageSpec>,
}

impl Dataflow {
    /// Builds a linear dataflow from stage device lists, e.g.
    /// `Dataflow::linear(&[&["nv0", "nv1"], &["classifier"]])`.
    pub fn linear(stages: &[&[&str]]) -> Self {
        Dataflow {
            stages: stages
                .iter()
                .map(|devs| StageSpec::new(devs.iter().copied()))
                .collect(),
        }
    }

    /// Number of stages.
    pub fn depth(&self) -> usize {
        self.stages.len()
    }

    /// Total device instances across stages.
    pub fn total_instances(&self) -> usize {
        self.stages.iter().map(StageSpec::width).sum()
    }

    /// Structural validation (device existence and size compatibility are
    /// checked by the runtime against the registry).
    ///
    /// Fan-out from a single producer to multiple consumers is rejected:
    /// the on-demand p2p service serves requests in arrival order, which
    /// only preserves frame order when consecutive stages have equal width
    /// or fan *in* to a single consumer.
    ///
    /// # Errors
    ///
    /// Returns a typed [`Diagnostic`] for the first structural problem
    /// found (its `Display` carries the same description as ever).
    pub fn validate(&self) -> Result<(), Diagnostic> {
        match self.lint().into_iter().next() {
            Some(diag) => Err(diag),
            None => Ok(()),
        }
    }

    /// Structural linting: like [`Dataflow::validate`] but collects
    /// *every* finding instead of stopping at the first.
    pub fn lint(&self) -> Vec<Diagnostic> {
        let mut found = Vec::new();
        if self.stages.is_empty() {
            found.push(
                Diagnostic::error(codes::EMPTY_DATAFLOW, "dataflow", "dataflow has no stages")
                    .with_hint("declare at least one stage with one device instance"),
            );
            return found;
        }
        for (i, s) in self.stages.iter().enumerate() {
            if s.devices.is_empty() {
                found.push(Diagnostic::error(
                    codes::EMPTY_STAGE,
                    format!("stage {i}"),
                    format!("stage {i} has no device instances"),
                ));
            }
            if s.devices.len() > 4 {
                found.push(
                    Diagnostic::error(
                        codes::STAGE_FAN_IN,
                        format!("stage {i}"),
                        format!(
                            "stage {i} has {} instances; the P2P_REG supports at most 4 sources",
                            s.devices.len()
                        ),
                    )
                    .with_hint("split the stage or reduce its instance count to 4"),
                );
            }
        }
        for (i, w) in self.stages.windows(2).enumerate() {
            let (a, b) = (w[0].width(), w[1].width());
            if a != b && b != 1 {
                found.push(
                    Diagnostic::error(
                        codes::STAGE_WIDTHS,
                        format!("stages {i} -> {}", i + 1),
                        format!(
                            "stage widths {a} -> {b}: only equal-width or fan-in-to-one supported"
                        ),
                    )
                    .with_hint(
                        "the on-demand p2p service preserves frame order only for \
                         equal-width or fan-in-to-one stage transitions",
                    ),
                );
            }
        }
        let mut seen = std::collections::BTreeSet::new();
        for s in &self.stages {
            for d in &s.devices {
                if !seen.insert(d.clone()) {
                    found.push(Diagnostic::error(
                        codes::DUPLICATE_STAGE_DEVICE,
                        format!("device {d}"),
                        format!("device {d} appears twice in the dataflow"),
                    ));
                }
            }
        }
        found
    }
}

impl Dataflow {
    /// Serializes the dataflow to JSON — the generated `dflow1.h`
    /// configuration of the paper's Fig. 5, in declarative form.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("dataflow serializes")
    }

    /// Parses a dataflow from JSON and validates its structure.
    ///
    /// # Errors
    ///
    /// Malformed JSON (`E0206`) or a structurally invalid dataflow
    /// (`E0201`–`E0205`).
    pub fn from_json(json: &str) -> Result<Dataflow, Diagnostic> {
        let df: Dataflow = serde_json::from_str(json)
            .map_err(|e| Diagnostic::error(codes::DATAFLOW_PARSE, "dataflow", e.to_string()))?;
        df.validate()?;
        Ok(df)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_io_follows_the_mode() {
        let io = |mode: ExecMode, widths: &[usize], s, j| {
            let io = mode.instance_io(widths, s, j);
            (io.loads, io.stores, io.sources)
        };
        for mode in [ExecMode::Base, ExecMode::Pipe] {
            assert_eq!(io(mode, &[4, 1], 1, 0), (true, true, vec![]));
        }
        // p2p: memory only at the edges; a single stage is plain DMA.
        assert_eq!(io(ExecMode::P2p, &[1], 0, 0), (true, true, vec![]));
        assert_eq!(io(ExecMode::P2p, &[2, 2, 2], 0, 1), (true, false, vec![]));
        // Equal widths pair namesakes; a fan-in pulls from every producer.
        assert_eq!(io(ExecMode::P2p, &[2, 2, 2], 1, 1), (false, false, vec![1]));
        assert_eq!(
            io(ExecMode::P2p, &[2, 2, 1], 2, 0),
            (false, true, vec![0, 1])
        );
    }

    #[test]
    fn linear_builder() {
        let df = Dataflow::linear(&[&["a", "b"], &["c"]]);
        assert_eq!(df.depth(), 2);
        assert_eq!(df.total_instances(), 3);
        assert_eq!(df.stages[0].width(), 2);
        assert!(df.validate().is_ok());
    }

    #[test]
    fn empty_dataflow_invalid() {
        assert!(Dataflow { stages: vec![] }.validate().is_err());
        assert!(Dataflow::linear(&[&[]]).validate().is_err());
    }

    #[test]
    fn fan_out_rejected() {
        let df = Dataflow::linear(&[&["a"], &["b", "c"]]);
        assert!(df.validate().is_err());
    }

    #[test]
    fn fan_in_accepted() {
        let df = Dataflow::linear(&[&["a", "b", "c", "d"], &["e"]]);
        assert!(df.validate().is_ok());
    }

    #[test]
    fn too_many_sources_rejected() {
        let df = Dataflow::linear(&[&["a", "b", "c", "d", "e"], &["f"]]);
        assert!(df.validate().is_err());
    }

    #[test]
    fn duplicate_device_rejected() {
        let df = Dataflow::linear(&[&["a"], &["a"]]);
        assert!(df.validate().is_err());
    }

    #[test]
    fn mode_labels() {
        assert_eq!(ExecMode::Base.label(), "base");
        assert_eq!(ExecMode::ALL.len(), 3);
    }
}

#[cfg(test)]
mod json_tests {
    use super::*;

    #[test]
    fn json_roundtrip() {
        let df = Dataflow::linear(&[&["nv0", "nv1"], &["cl0"]]);
        let back = Dataflow::from_json(&df.to_json()).expect("parses");
        assert_eq!(back, df);
    }

    #[test]
    fn from_json_validates_structure() {
        // Fan-out 1 -> 2 must be rejected even if the JSON parses.
        let json = r#"{"stages":[{"devices":["a"]},{"devices":["b","c"]}]}"#;
        assert!(Dataflow::from_json(json).is_err());
        assert!(Dataflow::from_json("not json").is_err());
    }
}
