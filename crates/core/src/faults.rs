//! Fault-tolerance constants, fault-plan lints and the `espfault`
//! campaign driver.
//!
//! A faulted experiment run
//! ([`RunKind::Faulted`](crate::experiments::RunKind::Faulted)) installs
//! its [`FaultPlan`] on the SoC, arms the [`CAMPAIGN_WATCHDOG_CYCLES`]
//! watchdog and the default retry/failover policy, and degrades to the
//! processor-tile software path when the hardware pipeline is
//! unrecoverable. [`lint_fault_plan`] validates a plan
//! against the hosting SoC before anything runs (codes `E0601`/`E0602`/
//! `W0603`); [`CampaignReport::generate`] sweeps seeds × fault classes
//! over the paper's Fig. 7 pipelines and classifies every run as clean,
//! recovered, degraded or failed — the engine-independent artifact the
//! `espfault` binary prints.

use crate::apps::{CaseApp, TrainedModels};
use crate::experiments::{AppRun, ExperimentError, RunOptions};
use esp4ml_check::{codes, Diagnostic, Report};
use esp4ml_fault::{CampaignTargets, FaultClass, FaultKind, FaultPlan};
use esp4ml_noc::Plane;
use esp4ml_runtime::ExecMode;
use esp4ml_soc::SocEngine;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Watchdog deadline used by fault campaigns, in cycles per invocation.
///
/// Deliberately much tighter than
/// [`DEFAULT_WATCHDOG_CYCLES`](esp4ml_runtime::DEFAULT_WATCHDOG_CYCLES): a
/// campaign *expects* hangs, and under the naive oracle engine every
/// expired watchdog is simulated tick by tick. The value still leaves an
/// order-of-magnitude margin over the longest healthy invocation of the
/// campaign pipelines (a whole p2p batch of a few frames).
pub const CAMPAIGN_WATCHDOG_CYCLES: u64 = 200_000;

/// Validates a fault plan against the devices the target SoC hosts.
///
/// Emits [`codes::FAULT_UNKNOWN_DEVICE`] (`E0601`) for accelerator
/// faults naming a device the SoC does not host (the fault would never
/// fire), [`codes::FAULT_BAD_PLANE`] (`E0602`) for NoC faults naming a
/// plane index outside the six-plane NoC, and
/// [`codes::FAULT_EMPTY_PLAN`] (`W0603`) for a plan that schedules
/// nothing.
pub fn lint_fault_plan(plan: &FaultPlan, hosted_devices: &[String]) -> Report {
    let mut report = Report::new();
    if plan.is_empty() {
        report.push(
            Diagnostic::warning(
                codes::FAULT_EMPTY_PLAN,
                "plan",
                "the fault plan schedules no faults; nothing will be injected",
            )
            .with_hint("add a fault spec or drop the --faults flag"),
        );
    }
    for (i, spec) in plan.faults.iter().enumerate() {
        let loc = format!("faults[{i}]");
        match &spec.kind {
            FaultKind::AccelHang { device, .. } | FaultKind::AccelShortOutput { device, .. } => {
                if !hosted_devices.iter().any(|d| d == device) {
                    report.push(
                        Diagnostic::error(
                            codes::FAULT_UNKNOWN_DEVICE,
                            loc,
                            format!("device `{device}` is not hosted by the SoC"),
                        )
                        .with_hint(format!("hosted devices: {}", hosted_devices.join(", "))),
                    );
                }
            }
            FaultKind::NocDelay { plane, .. } | FaultKind::NocCorrupt { plane, .. } => {
                if *plane >= Plane::COUNT {
                    report.push(Diagnostic::error(
                        codes::FAULT_BAD_PLANE,
                        loc,
                        format!(
                            "plane {plane} is out of range (the NoC has {} planes)",
                            Plane::COUNT
                        ),
                    ));
                }
            }
            FaultKind::DmaDropWords { .. } => {}
        }
    }
    report
}

/// One run of a fault campaign: a seeded fault aimed at one pipeline
/// configuration in one execution mode, with the verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignCase {
    /// Pipeline configuration label ("2NV+2Cl", "1De+1Cl").
    pub config: String,
    /// Execution mode label ("pipe", "p2p").
    pub mode: String,
    /// Campaign seed the fault was generated from.
    pub seed: u64,
    /// Fault class label ("accel_hang", "noc_corrupt", …).
    pub fault: String,
    /// Human description of the concrete generated fault.
    pub detail: String,
    /// Verdict: `"clean"` (completed without recovery), `"recovered"`
    /// (retries and/or failovers repaired it), `"degraded"` (fell back
    /// to the processor-tile software path), or `"failed"` (the run
    /// errored out).
    pub status: String,
    /// Whether the predictions match the healthy run's predictions.
    /// `status == "clean" && !correct` is a *silent data corruption* —
    /// the failure mode watchdogs cannot see.
    pub correct: bool,
    /// Measured (or, when degraded, modeled) cycles of the faulted run.
    pub cycles: u64,
    /// Cycles of the healthy reference run of the same pipeline.
    pub healthy_cycles: u64,
    /// Faults that actually fired during the run.
    pub faults_injected: u64,
    /// Watchdog-triggered invocation retries.
    pub retries: u64,
    /// Stage instances remapped to a spare device.
    pub failovers: u64,
}

/// The artifact of an `espfault` campaign: seeds × fault classes swept
/// over the campaign pipelines, with per-case verdicts.
///
/// Every trigger in a generated plan counts architectural events, so
/// the same seeds produce a byte-identical report under the naive and
/// event-driven engines — the report deliberately carries no engine or
/// wall-clock field.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Frames each run processed.
    pub frames: u64,
    /// Watchdog deadline the runs used, in cycles.
    pub watchdog_cycles: u64,
    /// The seeds swept.
    pub seeds: Vec<u64>,
    /// Every case, in sweep order (pipeline-major, then seed, then
    /// fault class).
    pub cases: Vec<CampaignCase>,
}

impl CampaignReport {
    /// The pipelines a campaign sweeps: the two Fig. 7 applications with
    /// redundant classifier instances, in both pipelined modes. (The
    /// spare classifiers are what give failover something to remap to.)
    pub fn grid() -> Vec<(CaseApp, ExecMode)> {
        let apps = [
            CaseApp::NightVisionClassifier { nv: 2, cl: 2 },
            CaseApp::DenoiserClassifier,
        ];
        apps.iter()
            .flat_map(|&app| {
                [ExecMode::Pipe, ExecMode::P2p]
                    .into_iter()
                    .map(move |mode| (app, mode))
            })
            .collect()
    }

    /// Runs the campaign: for each pipeline of [`CampaignReport::grid`],
    /// one healthy reference run, then one faulted run per seed × fault
    /// class with recovery armed
    /// ([`RunKind::Faulted`](crate::experiments::RunKind::Faulted)).
    /// Every run, healthy or faulted, is a cold [`AppRun::execute`] on a
    /// freshly loaded SoC.
    ///
    /// # Errors
    ///
    /// Build failures. Runtime failures of faulted runs are *verdicts*
    /// (`status == "failed"`), not errors.
    pub fn generate(
        models: &TrainedModels,
        seeds: &[u64],
        frames: u64,
        engine: SocEngine,
    ) -> Result<CampaignReport, ExperimentError> {
        let mut cases = Vec::new();
        for (app, mode) in Self::grid() {
            let healthy = AppRun::execute(&app, models, frames, mode, RunOptions::new(engine))?;
            let devices: Vec<String> = app
                .dataflow()
                .stages
                .iter()
                .flat_map(|s| s.devices.clone())
                .collect();
            let targets = CampaignTargets {
                devices,
                // DMA-request and DMA-response planes: the ones every
                // execution mode exercises.
                planes: vec![3, 4],
                frames,
            };
            for &seed in seeds {
                for class in FaultClass::ALL {
                    let plan = FaultPlan::generate(seed, class, &targets);
                    let detail = plan
                        .faults
                        .first()
                        .map(|s| s.kind.to_string())
                        .unwrap_or_default();
                    let opts = RunOptions::faulted(engine, &plan);
                    let result = AppRun::execute(&app, models, frames, mode, opts);
                    let case = match result {
                        Ok(run) => {
                            let status = if run.software_fallback {
                                "degraded"
                            } else if run.metrics.retries + run.metrics.failovers > 0 {
                                "recovered"
                            } else {
                                "clean"
                            };
                            CampaignCase {
                                config: app.label(),
                                mode: mode.label().to_string(),
                                seed,
                                fault: class.label().to_string(),
                                detail,
                                status: status.to_string(),
                                correct: run.predictions == healthy.predictions,
                                cycles: run.metrics.cycles,
                                healthy_cycles: healthy.metrics.cycles,
                                faults_injected: run.metrics.faults_injected,
                                retries: run.metrics.retries,
                                failovers: run.metrics.failovers,
                            }
                        }
                        Err(ExperimentError::Run(_)) => CampaignCase {
                            config: app.label(),
                            mode: mode.label().to_string(),
                            seed,
                            fault: class.label().to_string(),
                            detail,
                            status: "failed".to_string(),
                            correct: false,
                            cycles: 0,
                            healthy_cycles: healthy.metrics.cycles,
                            faults_injected: 0,
                            retries: 0,
                            failovers: 0,
                        },
                        Err(other) => return Err(other),
                    };
                    cases.push(case);
                }
            }
        }
        Ok(CampaignReport {
            frames,
            watchdog_cycles: CAMPAIGN_WATCHDOG_CYCLES,
            seeds: seeds.to_vec(),
            cases,
        })
    }

    /// Cases with the given status.
    fn count(&self, status: &str) -> usize {
        self.cases.iter().filter(|c| c.status == status).count()
    }

    /// Cases that completed "successfully" with wrong predictions — the
    /// silent-corruption tail no watchdog can catch.
    pub fn silent_corruptions(&self) -> usize {
        self.cases
            .iter()
            .filter(|c| c.status == "clean" && !c.correct)
            .count()
    }

    /// Serializes the report as pretty JSON, wrapped in the
    /// `fault-campaign` schema envelope ([`esp4ml_trace::schema`]).
    ///
    /// # Errors
    ///
    /// Propagates serializer failures.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        let payload = serde_json::to_value(self)?;
        Ok(esp4ml_trace::schema::envelope_json(
            "fault-campaign",
            payload,
        ))
    }

    /// Parses a report from enveloped JSON, rejecting unknown schema
    /// versions per the compatibility rule.
    ///
    /// # Errors
    ///
    /// Propagates parse failures; envelope violations surface as a
    /// custom serde error.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        let value = serde_json::parse_value(json)?;
        let payload = esp4ml_trace::schema::open_envelope(value, "fault-campaign")
            .map_err(|e| serde_json::Error::from(serde::Error::custom(e)))?;
        serde_json::from_value(payload)
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "ESPFAULT CAMPAIGN — {} cases ({} frames/run, watchdog {} cycles, seeds {:?})",
            self.cases.len(),
            self.frames,
            self.watchdog_cycles,
            self.seeds,
        )?;
        writeln!(
            f,
            "  {:<10} {:<5} {:>4}  {:<18} {:<9} {:>7}  {:>10}  {:>7} {:>7} {:>9}",
            "config",
            "mode",
            "seed",
            "fault",
            "status",
            "correct",
            "cycles",
            "fired",
            "retries",
            "failovers"
        )?;
        for c in &self.cases {
            writeln!(
                f,
                "  {:<10} {:<5} {:>4}  {:<18} {:<9} {:>7}  {:>10}  {:>7} {:>7} {:>9}",
                c.config,
                c.mode,
                c.seed,
                c.fault,
                c.status,
                if c.correct { "yes" } else { "NO" },
                c.cycles,
                c.faults_injected,
                c.retries,
                c.failovers,
            )?;
        }
        writeln!(
            f,
            "  verdicts: {} clean, {} recovered, {} degraded, {} failed; {} silent corruption(s)",
            self.count("clean"),
            self.count("recovered"),
            self.count("degraded"),
            self.count("failed"),
            self.silent_corruptions(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp4ml_fault::FaultSpec;

    fn hosted() -> Vec<String> {
        vec!["nv0".into(), "cl0".into()]
    }

    #[test]
    fn lint_flags_unknown_device() {
        let plan = FaultPlan::new(0).with(FaultSpec::permanent_hang("ghost"));
        let report = lint_fault_plan(&plan, &hosted());
        assert!(report.has_errors());
        assert_eq!(report.diagnostics[0].code, codes::FAULT_UNKNOWN_DEVICE);
    }

    #[test]
    fn lint_flags_bad_plane() {
        let plan = FaultPlan::new(0).with(FaultSpec::new(FaultKind::NocDelay {
            plane: Plane::COUNT,
            from_packet: 0,
            count: 1,
            extra_cycles: 10,
        }));
        let report = lint_fault_plan(&plan, &hosted());
        assert!(report.has_errors());
        assert_eq!(report.diagnostics[0].code, codes::FAULT_BAD_PLANE);
    }

    #[test]
    fn lint_warns_on_empty_plan() {
        let report = lint_fault_plan(&FaultPlan::default(), &hosted());
        assert!(!report.has_errors());
        assert_eq!(report.diagnostics[0].code, codes::FAULT_EMPTY_PLAN);
    }

    #[test]
    fn lint_accepts_a_valid_plan() {
        let plan = FaultPlan::new(1)
            .with(FaultSpec::transient_hang("nv0", 0))
            .with(FaultSpec::new(FaultKind::DmaDropWords {
                from_burst: 0,
                count: 1,
                drop_words: 4,
            }));
        assert!(lint_fault_plan(&plan, &hosted()).is_clean());
    }

    #[test]
    fn report_json_roundtrips() {
        let report = CampaignReport {
            frames: 3,
            watchdog_cycles: CAMPAIGN_WATCHDOG_CYCLES,
            seeds: vec![1],
            cases: vec![CampaignCase {
                config: "1De+1Cl".into(),
                mode: "p2p".into(),
                seed: 1,
                fault: "accel_hang".into(),
                detail: "hang denoiser for 1 invocation(s) from #0".into(),
                status: "recovered".into(),
                correct: true,
                cycles: 123,
                healthy_cycles: 100,
                faults_injected: 1,
                retries: 1,
                failovers: 0,
            }],
        };
        let json = report.to_json().unwrap();
        assert_eq!(CampaignReport::from_json(&json).unwrap(), report);
        let text = report.to_string();
        assert!(text.contains("1 recovered"), "{text}");
    }
}
