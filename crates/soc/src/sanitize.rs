//! SoC-level sanitizer state and deadlock diagnosis.
//!
//! The NoC sanitizer (see `esp4ml_noc`) audits link-level invariants; this
//! module adds the SoC-level half: end-to-end **DMA byte accounting**
//! (`E0404`) across accelerator sockets, and the **wait-for walk** that
//! turns a `run_until_idle` timeout into a [`DeadlockDiagnosis`] naming
//! the blocked tiles, what each one waits on, and — when the waits close
//! a cycle — the cycle itself (`E0501`).
//!
//! A diagnosis contains no cycle stamps or other transient values, so the
//! naive and event-driven engines produce identical diagnoses for the
//! same stuck configuration.

use esp4ml_check::{codes, Diagnostic, Report};
use esp4ml_noc::Coord;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One tile that cannot make progress, and why.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct BlockedTile {
    /// The tile coordinate.
    pub x: u8,
    /// The tile coordinate.
    pub y: u8,
    /// The accelerator device name.
    pub device: String,
    /// The wrapper FSM state the tile is parked in.
    pub state: String,
    /// The tile this one waits on, when the wait has a concrete peer
    /// (a p2p source or the memory tile).
    pub waits_on: Option<(u8, u8)>,
    /// The NoC plane the awaited message would arrive on.
    pub plane: String,
    /// Human-readable wait description.
    pub reason: String,
}

impl fmt::Display for BlockedTile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tile({},{}) {} in {}: {} [plane {}]",
            self.x, self.y, self.device, self.state, self.reason, self.plane
        )
    }
}

/// Why a `run_until_idle` call timed out, reconstructed from the wait-for
/// graph of the accelerator wrappers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct DeadlockDiagnosis {
    /// Every tile that is parked waiting on something external.
    pub blocked: Vec<BlockedTile>,
    /// A cycle in the wait-for graph, when one exists: each entry is a
    /// `(x, y)` tile coordinate, and each tile waits on the next (the
    /// last waits on the first).
    pub cycle: Option<Vec<(u8, u8)>>,
}

impl DeadlockDiagnosis {
    /// Renders the diagnosis as a stable, single-string diagnostic
    /// attached to `RunOutcome::TimedOut` and `RuntimeError::Timeout`.
    pub fn summary(&self) -> String {
        self.to_string()
    }

    /// The diagnosis as a typed [`Diagnostic`] (code `E0501`).
    pub fn diagnostic(&self) -> Diagnostic {
        let location = match &self.cycle {
            Some(cycle) => {
                let tiles: Vec<String> = cycle
                    .iter()
                    .map(|(x, y)| format!("tile({x},{y})"))
                    .collect();
                tiles.join(" -> ")
            }
            None => "soc".to_string(),
        };
        Diagnostic::error(codes::DEADLOCK, location, self.summary()).with_hint(
            "check that every p2p consumer's P2P_REG sources name running \
             producers and that stage frame counts divide evenly",
        )
    }
}

impl fmt::Display for DeadlockDiagnosis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(cycle) = &self.cycle {
            let tiles: Vec<String> = cycle
                .iter()
                .map(|(x, y)| format!("tile({x},{y})"))
                .collect();
            write!(f, "wait-for cycle {}; ", tiles.join(" -> "))?;
        }
        let blocked: Vec<String> = self.blocked.iter().map(|b| b.to_string()).collect();
        write!(f, "blocked: {}", blocked.join("; "))
    }
}

/// Finds a cycle in the wait-for graph (each blocked tile waits on at
/// most one peer). Returns the cycle in wait order, rotated to start at
/// its smallest coordinate so the result is independent of walk order.
pub(crate) fn wait_cycle(blocked: &[BlockedTile]) -> Option<Vec<(u8, u8)>> {
    let edges: BTreeMap<(u8, u8), (u8, u8)> = blocked
        .iter()
        .filter_map(|b| b.waits_on.map(|w| ((b.x, b.y), w)))
        .collect();
    for start in edges.keys() {
        let mut path = vec![*start];
        let mut seen: BTreeSet<(u8, u8)> = [*start].into();
        let mut cur = *start;
        while let Some(&next) = edges.get(&cur) {
            if let Some(pos) = path.iter().position(|&n| n == next) {
                let mut cycle = path[pos..].to_vec();
                let min = cycle
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, n)| **n)
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                cycle.rotate_left(min);
                return Some(cycle);
            }
            if !seen.insert(next) {
                break;
            }
            path.push(next);
            cur = next;
        }
    }
    None
}

/// The promoted invariants of one component (a tile, or the SoC's
/// end-to-end audit; the mesh keeps its own link-level set): whether the
/// sanitizer is armed, and the violations it recorded. Armed, a broken
/// invariant becomes a typed diagnostic in release builds too; unarmed,
/// it is a `debug_assert!`. A snapshot clones it.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub(crate) struct InvariantLedger {
    armed: bool,
    violations: BTreeSet<Diagnostic>,
}

impl InvariantLedger {
    /// Turns broken invariants into recorded diagnostics.
    pub(crate) fn arm(&mut self) {
        self.armed = true;
    }

    pub(crate) fn armed(&self) -> bool {
        self.armed
    }

    /// Reports a broken invariant: records `diag` when armed, fails a
    /// debug build with its message otherwise.
    pub(crate) fn violated(&mut self, diag: impl FnOnce() -> Diagnostic) {
        if self.armed {
            self.violations.insert(diag());
        } else {
            debug_assert!(false, "{}", diag().message);
        }
    }

    pub(crate) fn merge_into(&self, report: &mut Report) {
        for d in &self.violations {
            report.push(d.clone());
        }
    }
}

/// Formats a tile location the way every SoC-level diagnostic does.
pub(crate) fn tile_location(coord: Coord) -> String {
    format!("tile({},{})", coord.x, coord.y)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocked(x: u8, y: u8, waits_on: Option<(u8, u8)>) -> BlockedTile {
        BlockedTile {
            x,
            y,
            device: format!("dev{x}{y}"),
            state: "load_wait".into(),
            waits_on,
            plane: "dma-rsp".into(),
            reason: "waiting".into(),
        }
    }

    #[test]
    fn two_tile_wait_cycle_is_found() {
        let tiles = vec![blocked(0, 1, Some((1, 1))), blocked(1, 1, Some((0, 1)))];
        let cycle = wait_cycle(&tiles).expect("cycle");
        assert_eq!(cycle, vec![(0, 1), (1, 1)]);
    }

    #[test]
    fn chain_without_cycle_yields_none() {
        let tiles = vec![blocked(0, 1, Some((1, 1))), blocked(1, 1, None)];
        assert!(wait_cycle(&tiles).is_none());
    }

    #[test]
    fn cycle_start_is_normalized() {
        // Same cycle regardless of which tile the walk starts from.
        let a = vec![blocked(2, 0, Some((0, 2))), blocked(0, 2, Some((2, 0)))];
        let b = vec![blocked(0, 2, Some((2, 0))), blocked(2, 0, Some((0, 2)))];
        assert_eq!(wait_cycle(&a), wait_cycle(&b));
        assert_eq!(wait_cycle(&a).unwrap()[0], (0, 2));
    }

    #[test]
    fn diagnosis_renders_tiles_and_cycle() {
        let diag = DeadlockDiagnosis {
            blocked: vec![blocked(0, 1, Some((1, 1))), blocked(1, 1, Some((0, 1)))],
            cycle: Some(vec![(0, 1), (1, 1)]),
        };
        let text = diag.to_string();
        assert!(text.contains("wait-for cycle tile(0,1) -> tile(1,1)"));
        assert!(text.contains("dev01"));
        let d = diag.diagnostic();
        assert_eq!(d.code, codes::DEADLOCK);
        assert_eq!(d.location, "tile(0,1) -> tile(1,1)");
    }
}
