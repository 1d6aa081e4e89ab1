//! The diagnostic data model shared by the static linter and the
//! runtime sanitizer.

use serde::{Deserialize, Serialize};
use std::fmt;

/// How bad a finding is.
///
/// The ordering is meaningful: `Warning < Error`, so a report can be
/// sorted most-severe-last and gated on its maximum severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Severity {
    /// Suspicious but not necessarily wrong; does not fail `espcheck`.
    Warning,
    /// A design-rule or invariant violation; fails `espcheck` and the
    /// sanitizer verdict.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One typed finding, static or runtime.
///
/// The `code` is stable across releases (see [`crate::codes`]); tools
/// and CI scripts may match on it. The `location` is a human-readable
/// path into the design ("soc1/tile(1,0)", "dataflow/stage 2",
/// "router(2,1) plane dma-rsp port N"), not a file position — the
/// design being linted is a configuration, not source text.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct Diagnostic {
    /// Stable error code, e.g. `"E0101"`.
    pub code: &'static str,
    /// Finding severity.
    pub severity: Severity,
    /// Where in the design the finding points.
    pub location: String,
    /// What is wrong.
    pub message: String,
    /// How to fix it, when a fix is known (`null` in JSON otherwise).
    pub hint: Option<String>,
}

impl Diagnostic {
    /// Creates an error-severity diagnostic.
    pub fn error(
        code: &'static str,
        location: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            location: location.into(),
            message: message.into(),
            hint: None,
        }
    }

    /// Creates a warning-severity diagnostic.
    pub fn warning(
        code: &'static str,
        location: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity: Severity::Warning,
            location: location.into(),
            message: message.into(),
            hint: None,
        }
    }

    /// Attaches a fix hint.
    #[must_use]
    pub fn with_hint(mut self, hint: impl Into<String>) -> Self {
        self.hint = Some(hint.into());
        self
    }
}

impl Deserialize for Diagnostic {
    /// Deserializes a finding, interning `code` back to its registry
    /// `&'static str` via [`crate::codes::canonical`]. Codes absent
    /// from the registry are rejected: a diagnostic that round-trips
    /// through JSON (snapshot restore, report ingestion) must compare
    /// equal to one emitted live.
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let obj = value
            .as_object()
            .ok_or_else(|| serde::Error::custom("expected diagnostic object"))?;
        let field = |key: &str| {
            obj.get(key)
                .ok_or_else(|| serde::Error::custom(format!("missing diagnostic field {key:?}")))
        };
        let code_str = String::from_value(field("code")?)?;
        let code = crate::codes::canonical(&code_str)
            .ok_or_else(|| serde::Error::custom(format!("unknown diagnostic code {code_str:?}")))?;
        Ok(Diagnostic {
            code,
            severity: Severity::from_value(field("severity")?)?,
            location: String::from_value(field("location")?)?,
            message: String::from_value(field("message")?)?,
            hint: match obj.get("hint") {
                Some(v) => Option::<String>::from_value(v)?,
                None => None,
            },
        })
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.code, self.location, self.message
        )?;
        if let Some(hint) = &self.hint {
            write!(f, "\n  help: {hint}")?;
        }
        Ok(())
    }
}

impl std::error::Error for Diagnostic {}

/// An ordered collection of diagnostics for one lint target.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct Report {
    /// The findings, in emission order until [`Report::normalize`].
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Adds one finding.
    pub fn push(&mut self, diag: Diagnostic) {
        self.diagnostics.push(diag);
    }

    /// Merges another report into this one.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Sorts by (code, severity, location, message) and removes exact
    /// duplicates, so repeated checks of a persistent condition produce
    /// one finding and reports compare bytewise across engines.
    pub fn normalize(&mut self) {
        self.diagnostics.sort();
        self.diagnostics.dedup();
    }

    /// Whether any finding has error severity.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics.len() - self.error_count()
    }

    /// Whether the report has no findings at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Renders the findings one per line (with hints indented below).
    ///
    /// Rendering always works on a normalized view — sorted by
    /// (code, severity, location, …) and de-duplicated — so the output
    /// is byte-stable regardless of emission order. Deployment reports
    /// aggregate findings across K tenants; without this, map iteration
    /// order would leak into the bytes.
    pub fn render_text(&self) -> String {
        let mut view = self.clone();
        view.normalize();
        let mut out = String::new();
        for d in &view.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes;

    #[test]
    fn display_includes_code_and_hint() {
        let d = Diagnostic::error(codes::DUPLICATE_TILE, "soc1/tile(1,0)", "duplicate tile")
            .with_hint("move one of the tiles");
        let s = d.to_string();
        assert!(s.contains("error[E0101]"), "{s}");
        assert!(s.contains("help: move one of the tiles"), "{s}");
    }

    #[test]
    fn severity_orders_below_error() {
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn report_counts_and_normalize() {
        let mut r = Report::new();
        let d = Diagnostic::error(codes::DUPLICATE_TILE, "t", "m");
        r.push(d.clone());
        r.push(d);
        r.push(Diagnostic::warning(codes::TLB_PRESSURE, "t", "w"));
        assert!(r.has_errors());
        r.normalize();
        assert_eq!(r.diagnostics.len(), 2);
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert!(!r.is_clean());
    }

    #[test]
    fn render_is_byte_stable_across_emission_orders() {
        let a = Diagnostic::error(codes::LEASE_CONFLICT, "device x", "leased twice");
        let b = Diagnostic::error(codes::UNION_CDG_CYCLE, "plane dma-req", "cycle");
        let c = Diagnostic::warning(codes::ROUTING_UNSUPPORTED, "tenant t", "yx");
        let mut fwd = Report::new();
        for d in [a.clone(), b.clone(), c.clone(), b.clone()] {
            fwd.push(d);
        }
        let mut rev = Report::new();
        for d in [c, b.clone(), b, a] {
            rev.push(d);
        }
        assert_eq!(fwd.render_text(), rev.render_text());
        // Duplicates render once.
        assert_eq!(fwd.render_text().matches("E0703").count(), 1);
        // Rendering does not mutate the report itself.
        assert_eq!(fwd.diagnostics.len(), 4);
    }

    #[test]
    fn json_roundtrip_interns_the_code() {
        let d = Diagnostic::error(codes::CREDIT_CONSERVATION, "router(1,1)", "lost credit")
            .with_hint("check pop accounting");
        let json = serde_json::to_string(&d).unwrap();
        let back: Diagnostic = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
        // The code went through the registry, not through an owned
        // copy of whatever the JSON said. (Pointer identity with the
        // `const` is not checkable — consts are inlined per use site —
        // so assert the interning path itself.)
        assert_eq!(codes::canonical("E0401"), Some(back.code));
        // Unknown codes are rejected, not silently leaked.
        let bad = json.replace("E0401", "E9999");
        assert!(serde_json::from_str::<Diagnostic>(&bad).is_err());
    }

    #[test]
    fn serializes_with_stable_code() {
        let d = Diagnostic::error(codes::DUPLICATE_TILE, "t", "m");
        let json = serde_json::to_string(&d).unwrap();
        assert!(json.contains("\"code\":\"E0101\""), "{json}");
        assert!(json.contains("\"severity\":\"error\""), "{json}");
    }
}
