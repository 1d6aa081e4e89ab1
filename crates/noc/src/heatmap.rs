//! Per-router, per-link NoC occupancy heatmaps.
//!
//! Snapshotted from the mesh's routers ([`crate::Mesh::link_heatmap`]):
//! every router contributes, per plane, the flits it moved through each
//! output port plus the cycles its selected wormholes stalled on
//! downstream credits. The snapshot renders as an ASCII mesh grid, one
//! per active plane.

use crate::router::Port;
use crate::Plane;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Flits moved through each output port of one router on one plane.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkLoad {
    /// Flits sent towards row `y - 1`.
    pub north: u64,
    /// Flits sent towards row `y + 1`.
    pub south: u64,
    /// Flits sent towards column `x + 1`.
    pub east: u64,
    /// Flits sent towards column `x - 1`.
    pub west: u64,
    /// Flits ejected into the local tile.
    pub local: u64,
}

impl LinkLoad {
    /// Flits moved through mesh links (excludes local ejections).
    pub fn link_total(&self) -> u64 {
        self.north + self.south + self.east + self.west
    }

    /// All flits moved by this router on this plane.
    pub fn total(&self) -> u64 {
        self.link_total() + self.local
    }

    /// Reads one port's counter.
    pub fn port(&self, port: Port) -> u64 {
        match port {
            Port::North => self.north,
            Port::South => self.south,
            Port::East => self.east,
            Port::West => self.west,
            Port::Local => self.local,
        }
    }

    /// Writes one port's counter.
    pub fn set_port(&mut self, port: Port, flits: u64) {
        match port {
            Port::North => self.north = flits,
            Port::South => self.south = flits,
            Port::East => self.east = flits,
            Port::West => self.west = flits,
            Port::Local => self.local = flits,
        }
    }
}

/// One plane's heatmap across the mesh.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlaneHeatmap {
    /// Plane name (e.g. `dma-req`).
    pub plane: String,
    /// Per-router link loads, indexed `[row][col]`.
    pub links: Vec<Vec<LinkLoad>>,
    /// Per-router credit-stall cycles, indexed `[row][col]`.
    pub credit_stalls: Vec<Vec<u64>>,
}

impl PlaneHeatmap {
    /// Total flits moved on this plane (links + ejections).
    pub fn total_flits(&self) -> u64 {
        self.links.iter().flatten().map(LinkLoad::total).sum()
    }

    /// Total credit-stall cycles on this plane.
    pub fn total_stalls(&self) -> u64 {
        self.credit_stalls.iter().flatten().sum()
    }

    /// True when the plane carried no traffic and saw no stalls.
    pub fn is_quiet(&self) -> bool {
        self.total_flits() == 0 && self.total_stalls() == 0
    }
}

/// A snapshot of link occupancy and credit stalls for every router,
/// keyed by plane.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NocHeatmap {
    /// Mesh columns.
    pub cols: usize,
    /// Mesh rows.
    pub rows: usize,
    /// Cycles the mesh has simulated (for occupancy normalization).
    pub cycles: u64,
    /// One heatmap per plane, in [`Plane::ALL`] order.
    pub planes: Vec<PlaneHeatmap>,
}

impl NocHeatmap {
    /// The heatmap of one plane.
    pub fn plane(&self, plane: Plane) -> &PlaneHeatmap {
        &self.planes[plane.index()]
    }

    /// Total flits moved across all planes.
    pub fn total_flits(&self) -> u64 {
        self.planes.iter().map(PlaneHeatmap::total_flits).sum()
    }

    /// The busiest router: `(plane name, x, y, flits)` of the cell with
    /// the highest total, or `None` when the mesh is silent.
    pub fn busiest_router(&self) -> Option<(String, u8, u8, u64)> {
        let mut best: Option<(String, u8, u8, u64)> = None;
        for ph in &self.planes {
            for (y, row) in ph.links.iter().enumerate() {
                for (x, load) in row.iter().enumerate() {
                    let total = load.total();
                    if total > 0 && best.as_ref().is_none_or(|b| total > b.3) {
                        best = Some((ph.plane.clone(), x as u8, y as u8, total));
                    }
                }
            }
        }
        best
    }

    /// Renders per-plane ASCII grids (quiet planes are skipped). Each
    /// cell shows the router's total flits and, when non-zero, its
    /// credit-stall cycles as `+N`.
    pub fn render_ascii(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "NoC link heatmap ({}x{} mesh, {} cycles, flits per router; +N = credit-stall cycles)",
            self.cols, self.rows, self.cycles
        );
        let mut any = false;
        for ph in &self.planes {
            if ph.is_quiet() {
                continue;
            }
            any = true;
            let _ = writeln!(
                out,
                "plane {}: {} flits, {} stall cycles",
                ph.plane,
                ph.total_flits(),
                ph.total_stalls()
            );
            for (y, row) in ph.links.iter().enumerate() {
                let cells: Vec<String> = row
                    .iter()
                    .enumerate()
                    .map(|(x, load)| {
                        let stalls = ph.credit_stalls[y][x];
                        if stalls > 0 {
                            format!("{:>6}+{:<4}", load.total(), stalls)
                        } else {
                            format!("{:>6}     ", load.total())
                        }
                    })
                    .collect();
                let _ = writeln!(out, "  {}", cells.join(" "));
            }
        }
        if !any {
            out.push_str("  (no traffic)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> NocHeatmap {
        let mut planes: Vec<PlaneHeatmap> = Plane::ALL
            .iter()
            .map(|p| PlaneHeatmap {
                plane: p.to_string(),
                links: vec![vec![LinkLoad::default(); 2]; 2],
                credit_stalls: vec![vec![0; 2]; 2],
            })
            .collect();
        planes[Plane::DmaReq.index()].links[0][1].east = 7;
        planes[Plane::DmaReq.index()].links[1][0].local = 3;
        planes[Plane::DmaReq.index()].credit_stalls[0][1] = 5;
        NocHeatmap {
            cols: 2,
            rows: 2,
            cycles: 100,
            planes,
        }
    }

    #[test]
    fn totals_and_busiest() {
        let h = sample();
        assert_eq!(h.total_flits(), 10);
        assert_eq!(h.plane(Plane::DmaReq).total_flits(), 10);
        assert_eq!(h.plane(Plane::DmaReq).total_stalls(), 5);
        assert!(h.plane(Plane::CohReq).is_quiet());
        assert_eq!(h.busiest_router(), Some(("dma-req".to_string(), 1, 0, 7)));
    }

    #[test]
    fn ascii_skips_quiet_planes() {
        let text = sample().render_ascii();
        assert!(text.contains("plane dma-req"));
        assert!(!text.contains("plane coh-req"));
        assert!(text.contains("+5"));
    }

    #[test]
    fn silent_mesh_renders_placeholder() {
        let mut h = sample();
        for ph in &mut h.planes {
            ph.links = vec![vec![LinkLoad::default(); 2]; 2];
            ph.credit_stalls = vec![vec![0; 2]; 2];
        }
        assert!(h.render_ascii().contains("(no traffic)"));
        assert_eq!(h.busiest_router(), None);
    }
}
