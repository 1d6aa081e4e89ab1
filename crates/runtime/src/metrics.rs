//! Execution metrics returned by `esp_run`.

use serde::{Deserialize, Serialize};

/// Metrics for one `esp_run` execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Application frames processed end-to-end.
    pub frames: u64,
    /// Cycles from the first invocation to the last completion.
    pub cycles: u64,
    /// DRAM words accessed (reads + writes) during the run.
    pub dram_accesses: u64,
    /// DRAM words read.
    pub dram_reads: u64,
    /// DRAM words written.
    pub dram_writes: u64,
    /// NoC flit-hops during the run.
    pub noc_flit_hops: u64,
    /// Accelerator invocations issued (each costing one ioctl path).
    pub invocations: u64,
    /// SoC clock in Hz, for unit conversions.
    pub clock_hz: f64,
    /// Injected hardware faults that fired during the run (zero unless a
    /// `FaultPlan` was installed on the SoC).
    #[serde(default)]
    pub faults_injected: u64,
    /// Invocations re-issued after a watchdog expiry (recovery layer).
    #[serde(default)]
    pub retries: u64,
    /// Stage instances remapped to a spare device after retry exhaustion.
    #[serde(default)]
    pub failovers: u64,
}

impl RunMetrics {
    /// Throughput in frames per second.
    pub fn frames_per_second(&self) -> f64 {
        esp4ml_trace::frames_per_second(self.frames, self.cycles, self.clock_hz)
    }

    /// Energy efficiency in frames per joule at the given average power.
    ///
    /// Non-positive power yields 0.0 frames/J (there is no meaningful
    /// efficiency without a power draw). Negative power is a programming
    /// error in the caller's power model and trips a debug assertion.
    pub fn frames_per_joule(&self, watts: f64) -> f64 {
        debug_assert!(
            watts >= 0.0,
            "negative average power ({watts} W) — broken power model"
        );
        if watts <= 0.0 {
            return 0.0;
        }
        self.frames_per_second() / watts
    }

    /// Wall-clock seconds of the run (0.0 when the clock is unset, like
    /// [`RunMetrics::frames_per_second`] — never NaN).
    pub fn seconds(&self) -> f64 {
        if self.clock_hz <= 0.0 {
            return 0.0;
        }
        self.cycles as f64 / self.clock_hz
    }
}

impl std::fmt::Display for RunMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} frames in {} cycles ({:.0} frames/s at {:.0} MHz), {} DRAM word accesses, {} invocations",
            self.frames,
            self.cycles,
            self.frames_per_second(),
            self.clock_hz / 1.0e6,
            self.dram_accesses,
            self.invocations,
        )?;
        // Recovery counters appear only when something actually went
        // wrong, so healthy-run output stays byte-identical.
        if self.faults_injected > 0 {
            write!(f, ", {} faults injected", self.faults_injected)?;
        }
        if self.retries > 0 {
            write!(f, ", {} retries", self.retries)?;
        }
        if self.failovers > 0 {
            write!(f, ", {} failovers", self.failovers)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> RunMetrics {
        RunMetrics {
            frames: 100,
            cycles: 780_000,
            clock_hz: 78.0e6,
            ..Default::default()
        }
    }

    #[test]
    fn fps() {
        assert!((metrics().frames_per_second() - 10_000.0).abs() < 1e-6);
    }

    #[test]
    fn frames_per_joule() {
        let m = metrics();
        assert!((m.frames_per_joule(2.0) - 5_000.0).abs() < 1e-6);
        assert_eq!(m.frames_per_joule(0.0), 0.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "negative average power")]
    fn negative_watts_is_a_programming_error() {
        metrics().frames_per_joule(-1.0);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn negative_watts_returns_zero_in_release() {
        assert_eq!(metrics().frames_per_joule(-1.0), 0.0);
    }

    #[test]
    fn seconds() {
        assert!((metrics().seconds() - 0.01).abs() < 1e-9);
    }

    #[test]
    fn default_seconds_is_zero_not_nan() {
        // Regression: cycles/clock_hz used to be 0.0/0.0 = NaN here.
        let s = RunMetrics::default().seconds();
        assert_eq!(s, 0.0);
        assert!(!s.is_nan());
    }

    #[test]
    fn zero_cycles_fps_is_zero() {
        assert_eq!(RunMetrics::default().frames_per_second(), 0.0);
    }

    #[test]
    fn display_summarizes() {
        let s = metrics().to_string();
        assert!(s.contains("100 frames"));
        assert!(s.contains("10000 frames/s"));
        assert!(!s.contains("retries"), "healthy run shows no recovery");
    }

    #[test]
    fn display_appends_recovery_counters_only_when_nonzero() {
        let mut m = metrics();
        m.faults_injected = 1;
        m.retries = 2;
        m.failovers = 1;
        let s = m.to_string();
        assert!(s.contains("1 faults injected"), "{s}");
        assert!(s.contains("2 retries"), "{s}");
        assert!(s.contains("1 failovers"), "{s}");
    }

    #[test]
    fn json_without_recovery_fields_still_parses() {
        // Plans serialized before the recovery counters existed must load.
        let old = r#"{"frames":1,"cycles":2,"dram_accesses":0,"dram_reads":0,
            "dram_writes":0,"noc_flit_hops":0,"invocations":1,"clock_hz":1.0}"#;
        let m: RunMetrics = serde_json::from_str(old).unwrap();
        assert_eq!(m.retries, 0);
        assert_eq!(m.failovers, 0);
        assert_eq!(m.faults_injected, 0);
    }
}
