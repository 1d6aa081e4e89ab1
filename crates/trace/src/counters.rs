//! Named counters with a snapshot API.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A registry of named `u64` metrics.
///
/// Monotonic counters grow via [`add`](CounterRegistry::add) /
/// [`incr`](CounterRegistry::incr); gauges are overwritten via
/// [`set`](CounterRegistry::set). Both live in one namespace —
/// dotted names by convention (`soc.dram_reads`, `noc.flit_hops`,
/// `runtime.invocations`) — and are captured together by
/// [`snapshot`](CounterRegistry::snapshot).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterRegistry {
    values: BTreeMap<String, u64>,
}

impl CounterRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        CounterRegistry::default()
    }

    /// Adds `delta` to a monotonic counter, creating it at zero first.
    pub fn add(&mut self, name: &str, delta: u64) {
        if let Some(v) = self.values.get_mut(name) {
            *v = v.saturating_add(delta);
        } else {
            self.values.insert(name.to_string(), delta);
        }
    }

    /// Adds one to a monotonic counter.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Overwrites a gauge.
    pub fn set(&mut self, name: &str, value: u64) {
        self.values.insert(name.to_string(), value);
    }

    /// Current value (zero when the name is unknown).
    pub fn get(&self, name: &str) -> u64 {
        self.values.get(name).copied().unwrap_or(0)
    }

    /// Number of registered names.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Removes every counter.
    pub fn clear(&mut self) {
        self.values.clear();
    }

    /// Captures all current values.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            values: self.values.clone(),
        }
    }

    /// Renders every counter in the Prometheus text exposition format:
    /// one `# HELP` / `# TYPE` header pair per metric followed by its
    /// sample line. Dotted registry names become underscore-separated
    /// Prometheus names (`soc.dram_reads` → `soc_dram_reads`); all
    /// registry values are exposed as `counter`s.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.values {
            write_prometheus_family(
                &mut out,
                &prometheus_name(name),
                "counter",
                &format!("Simulator counter {name}."),
                [("", *value)],
            );
        }
        out
    }
}

/// Appends one metric family in the Prometheus text exposition format:
/// the `# HELP` and `# TYPE` header lines, then one `{name}{suffix}
/// {value}` line per sample. A sample's suffix carries its labels
/// (`{route="/v1/jobs"}`) and, for a histogram, the series tail
/// (`_bucket{le="8"}`, `_sum`, `_count`); it is empty for an unlabeled
/// sample.
pub fn write_prometheus_family<S: std::fmt::Display>(
    out: &mut String,
    name: &str,
    kind: &str,
    help: &str,
    samples: impl IntoIterator<Item = (S, u64)>,
) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
    for (suffix, value) in samples {
        let _ = writeln!(out, "{name}{suffix} {value}");
    }
}

/// Sanitizes a registry name into the Prometheus metric-name charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): every other character becomes `_`.
pub fn prometheus_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// An immutable point-in-time capture of a [`CounterRegistry`].
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    values: BTreeMap<String, u64>,
}

impl CounterSnapshot {
    /// Value at capture time (zero when the name is unknown).
    pub fn get(&self, name: &str) -> u64 {
        self.values.get(name).copied().unwrap_or(0)
    }

    /// Number of captured names.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.values.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Captured names in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.values.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_set_get() {
        let mut reg = CounterRegistry::new();
        reg.incr("a");
        reg.add("a", 4);
        reg.set("g", 7);
        reg.set("g", 3);
        assert_eq!(reg.get("a"), 5);
        assert_eq!(reg.get("g"), 3);
        assert_eq!(reg.get("missing"), 0);
    }

    #[test]
    fn prometheus_exposition_snapshot() {
        let mut reg = CounterRegistry::new();
        reg.add("soc.dram_reads", 12);
        reg.add("noc.flit_hops", 42);
        // Snapshot of the exact text format `espserve` will scrape.
        assert_eq!(
            reg.render_prometheus(),
            "# HELP noc_flit_hops Simulator counter noc.flit_hops.\n\
             # TYPE noc_flit_hops counter\n\
             noc_flit_hops 42\n\
             # HELP soc_dram_reads Simulator counter soc.dram_reads.\n\
             # TYPE soc_dram_reads counter\n\
             soc_dram_reads 12\n"
        );
    }

    #[test]
    fn prometheus_names_are_sanitized() {
        assert_eq!(prometheus_name("soc.dram_reads"), "soc_dram_reads");
        assert_eq!(prometheus_name("noc.plane-0/hops"), "noc_plane_0_hops");
        assert_eq!(prometheus_name("0weird"), "_0weird");
    }
}
