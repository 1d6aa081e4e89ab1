//! Channel-dependency-graph (CDG) deadlock analysis for wormhole routes.
//!
//! Dally & Seitz: a wormhole network is deadlock-free iff its channel
//! dependency graph is acyclic. The nodes of the CDG are the directed
//! physical links of one NoC plane; each route contributes a dependency
//! edge between every pair of consecutive links it traverses (a worm
//! holding link *a* while waiting for link *b*).
//!
//! The mesh simulator routes in dimension order (XY), which is provably
//! acyclic on a mesh (pinned by `xy_flows_are_deadlock_free` for every
//! mesh up to 8×8), so a single routing discipline needs no check. The
//! analysis earns its keep when a deployment mixes disciplines across
//! tenants (`E0703`): it is purely geometric, so `espcheck` can flag a
//! deadlocking route set without simulating a single cycle.
//!
//! Everything here is pure: coordinates are `(x, y)` tuples, a link is a
//! directed coordinate pair, a route is the link sequence a packet
//! occupies in order.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// A mesh coordinate as a plain `(x, y)` tuple.
pub type Node = (u8, u8);

/// A directed physical channel from one router to a neighbor.
pub type Link = (Node, Node);

/// A dimension-order routing discipline. Each discipline is acyclic on
/// its own; *mixing* them in one deployment is what can close a
/// cross-tenant channel-dependency cycle (`E0703`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Routing {
    /// X first, then Y — what the mesh simulator implements.
    #[default]
    Xy,
    /// Y first, then X — analyzer-only (see `W0706`).
    Yx,
}

impl Routing {
    /// The link sequence of this discipline's route from `src` to `dst`.
    pub fn route(self, src: Node, dst: Node) -> Vec<Link> {
        match self {
            Routing::Xy => xy_route(src, dst),
            Routing::Yx => yx_route(src, dst),
        }
    }

    /// Lower-case display name (`"xy"` / `"yx"`).
    pub fn label(self) -> &'static str {
        match self {
            Routing::Xy => "xy",
            Routing::Yx => "yx",
        }
    }
}

/// The link sequence of a dimension-order (XY) route from `src` to
/// `dst`: first along x, then along y. Empty when `src == dst`.
pub fn xy_route(src: Node, dst: Node) -> Vec<Link> {
    let mut links = Vec::new();
    let (mut x, mut y) = src;
    while x != dst.0 {
        let nx = if dst.0 > x { x + 1 } else { x - 1 };
        links.push(((x, y), (nx, y)));
        x = nx;
    }
    while y != dst.1 {
        let ny = if dst.1 > y { y + 1 } else { y - 1 };
        links.push(((x, y), (x, ny)));
        y = ny;
    }
    links
}

/// The link sequence of the transposed dimension-order (YX) route from
/// `src` to `dst`: first along y, then along x. Empty when `src == dst`.
pub fn yx_route(src: Node, dst: Node) -> Vec<Link> {
    let mut links = Vec::new();
    let (mut x, mut y) = src;
    while y != dst.1 {
        let ny = if dst.1 > y { y + 1 } else { y - 1 };
        links.push(((x, y), (x, ny)));
        y = ny;
    }
    while x != dst.0 {
        let nx = if dst.0 > x { x + 1 } else { x - 1 };
        links.push(((x, y), (nx, y)));
        x = nx;
    }
    links
}

/// Searches the channel dependency graph of `routes` for a cycle.
///
/// Returns the links of one cycle (each waiting on the next, the last
/// waiting on the first), or `None` when the CDG is acyclic and the
/// route set is wormhole-deadlock-free.
pub fn find_cycle(routes: &[Vec<Link>]) -> Option<Vec<Link>> {
    let mut deps: BTreeMap<Link, BTreeSet<Link>> = BTreeMap::new();
    for route in routes {
        for pair in route.windows(2) {
            deps.entry(pair[0]).or_default().insert(pair[1]);
            deps.entry(pair[1]).or_default();
        }
    }
    // Iterative DFS with an explicit on-stack path for cycle recovery.
    let mut state: BTreeMap<Link, u8> = BTreeMap::new(); // 1 = on stack, 2 = done
    for &start in deps.keys() {
        if state.contains_key(&start) {
            continue;
        }
        let mut path: Vec<(Link, Vec<Link>)> = Vec::new();
        let succs = deps[&start].iter().rev().copied().collect();
        path.push((start, succs));
        state.insert(start, 1);
        while let Some((node, succs)) = path.last_mut() {
            let node = *node;
            match succs.pop() {
                Some(next) => match state.get(&next) {
                    Some(1) => {
                        // Found: unwind the explicit stack from `next`.
                        let pos = path.iter().position(|(n, _)| *n == next).expect("on stack");
                        return Some(path[pos..].iter().map(|(n, _)| *n).collect());
                    }
                    Some(_) => {}
                    None => {
                        let nsuccs = deps[&next].iter().rev().copied().collect();
                        path.push((next, nsuccs));
                        state.insert(next, 1);
                    }
                },
                None => {
                    state.insert(node, 2);
                    path.pop();
                }
            }
        }
    }
    None
}

/// The union route set of flows that each carry their own routing
/// discipline, ready for [`find_cycle`]. The
/// CDG of the union is what decides cross-tenant deadlock freedom:
/// analyzing each tenant alone misses cycles that only composition
/// closes.
pub fn union_routes(flows: &[(Node, Node, Routing)]) -> Vec<Vec<Link>> {
    flows.iter().map(|&(s, d, r)| r.route(s, d)).collect()
}

/// Renders a link as `(x,y)->(x,y)` for diagnostics.
pub fn render_link(link: &Link) -> String {
    format!(
        "({},{})->({},{})",
        link.0 .0, link.0 .1, link.1 .0, link.1 .1
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xy_route_goes_x_then_y() {
        let r = xy_route((0, 0), (2, 1));
        assert_eq!(
            r,
            vec![((0, 0), (1, 0)), ((1, 0), (2, 0)), ((2, 0), (2, 1)),]
        );
        assert!(xy_route((3, 3), (3, 3)).is_empty());
    }

    /// Every tile of a `cols`×`rows` mesh sending to every other tile.
    fn all_to_all(cols: u8, rows: u8) -> Vec<(Node, Node)> {
        let tiles: Vec<Node> = (0..cols)
            .flat_map(|x| (0..rows).map(move |y| (x, y)))
            .collect();
        let mut flows = Vec::new();
        for &src in &tiles {
            for &dst in &tiles {
                if src != dst {
                    flows.push((src, dst));
                }
            }
        }
        flows
    }

    /// Why no single-dataflow route check exists (`E0302` is retired):
    /// all-to-all XY traffic is acyclic on every mesh from 1×1 to 8×8.
    #[test]
    fn xy_flows_are_deadlock_free() {
        for cols in 1..=8u8 {
            for rows in 1..=8u8 {
                let routes: Vec<Vec<Link>> = all_to_all(cols, rows)
                    .into_iter()
                    .map(|(s, d)| xy_route(s, d))
                    .collect();
                assert!(find_cycle(&routes).is_none(), "{cols}x{rows} mesh");
            }
        }
    }

    #[test]
    fn turn_cycle_is_detected() {
        // Four YX-ish routes chasing each other around the unit square —
        // the canonical four-turn cycle XY routing forbids.
        let routes = vec![
            vec![((0, 0), (1, 0)), ((1, 0), (1, 1))],
            vec![((1, 0), (1, 1)), ((1, 1), (0, 1))],
            vec![((1, 1), (0, 1)), ((0, 1), (0, 0))],
            vec![((0, 1), (0, 0)), ((0, 0), (1, 0))],
        ];
        let cycle = find_cycle(&routes).expect("cycle");
        assert_eq!(cycle.len(), 4);
        // Every link in the reported cycle depends on its successor.
        for w in cycle.windows(2) {
            assert_eq!(w[0].1, w[1].0, "links must chain through a router");
        }
    }

    #[test]
    fn single_route_has_no_cycle() {
        let routes = vec![xy_route((0, 0), (3, 2))];
        assert!(find_cycle(&routes).is_none());
    }

    #[test]
    fn yx_route_goes_y_then_x() {
        let r = yx_route((0, 0), (2, 1));
        assert_eq!(
            r,
            vec![((0, 0), (0, 1)), ((0, 1), (1, 1)), ((1, 1), (2, 1)),]
        );
        assert!(yx_route((3, 3), (3, 3)).is_empty());
    }

    #[test]
    fn yx_flows_alone_are_deadlock_free() {
        // Dense all-to-all YX on a 4x4 mesh: one discipline is acyclic.
        let mut flows = Vec::new();
        for sx in 0..4u8 {
            for sy in 0..4u8 {
                for dx in 0..4u8 {
                    for dy in 0..4u8 {
                        if (sx, sy) != (dx, dy) {
                            flows.push(((sx, sy), (dx, dy), Routing::Yx));
                        }
                    }
                }
            }
        }
        assert!(find_cycle(&union_routes(&flows)).is_none());
    }

    #[test]
    fn mixed_disciplines_close_a_union_cycle() {
        // Each tenant alone is acyclic (pure XY / pure YX); the union
        // closes the canonical four-turn cycle around the unit square.
        let xy_flows = vec![((0, 0), (1, 1), Routing::Xy), ((1, 1), (0, 0), Routing::Xy)];
        let yx_flows = vec![((1, 0), (0, 1), Routing::Yx), ((0, 1), (1, 0), Routing::Yx)];
        assert!(find_cycle(&union_routes(&xy_flows)).is_none());
        assert!(find_cycle(&union_routes(&yx_flows)).is_none());
        let union: Vec<_> = xy_flows.iter().chain(&yx_flows).copied().collect();
        let cycle = find_cycle(&union_routes(&union)).expect("composition closes a cycle");
        assert_eq!(cycle.len(), 4);
    }
}
