//! Routing-table computation.
//!
//! Every algorithm fills the full `switches × nodes` table on each call;
//! the cost of one call, for `A` attachments, `S` switches and `E`
//! directed edges, is:
//!
//! - [`RouteAlgorithm::XyMesh`]: O(A × S). Each entry is one lookup in
//!   the switch's out-edge list, as long as its degree (four on a mesh).
//! - [`RouteAlgorithm::ShortestPath`] and [`RouteAlgorithm::UpDown`]:
//!   O(A × (S + E)), one reverse breadth-first search per attachment
//!   (up*/down* adds one O(S + E) search for the spanning-tree levels).
//!
//! Adjacency lists are built and sorted once per call, never per visited
//! switch, so the costs above hold on any graph.

use crate::{Topology, TopologyError};
use std::collections::VecDeque;

/// Routing algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteAlgorithm {
    /// Breadth-first shortest path with deterministic tie-breaking
    /// (lowest next-switch index wins). Minimal, but may form channel
    /// cycles on cyclic topologies — check with
    /// [`Topology::deadlock_report`].
    ShortestPath,
    /// Dimension-order (X then Y) routing for a row-major mesh built by
    /// [`Topology::mesh`]. Deadlock-free by construction.
    XyMesh {
        /// Mesh width.
        width: usize,
        /// Mesh height.
        height: usize,
    },
    /// Up*/down* routing on a BFS spanning tree rooted at switch 0:
    /// routes climb toward the root ("up", to lower BFS level) zero or
    /// more hops, then descend ("down") — never down-then-up, which makes
    /// the channel dependency graph acyclic on any connected topology.
    UpDown,
}

/// Computed per-switch routing tables: `tables[switch][dst_node]` is the
/// output port, if reachable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchTables {
    tables: Vec<Vec<Option<u8>>>,
}

impl SwitchTables {
    /// Output port on `switch` towards destination `node`.
    pub fn port(&self, switch: usize, node: u16) -> Option<u8> {
        self.tables
            .get(switch)
            .and_then(|t| t.get(node as usize))
            .copied()
            .flatten()
    }

    /// The raw table of one switch (indexed by destination node).
    pub fn switch_table(&self, switch: usize) -> &[Option<u8>] {
        &self.tables[switch]
    }

    /// Number of switches covered.
    pub fn num_switches(&self) -> usize {
        self.tables.len()
    }
}

impl Topology {
    /// Computes per-switch routing tables with the chosen algorithm.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::Disconnected`] when some destination is
    /// unreachable from some switch, or
    /// [`TopologyError::AlgorithmMismatch`] when the algorithm does not
    /// apply (e.g. XY on a non-mesh).
    pub fn compute_routes(&self, algo: RouteAlgorithm) -> Result<SwitchTables, TopologyError> {
        match algo {
            RouteAlgorithm::ShortestPath => self.routes_bfs(None),
            RouteAlgorithm::UpDown => {
                let levels = self.bfs_levels(0)?;
                self.routes_bfs(Some(&levels))
            }
            RouteAlgorithm::XyMesh { width, height } => self.routes_xy(width, height),
        }
    }

    /// BFS levels from `root` (hop distance), erroring on disconnection.
    /// Neighbours are visited in ascending switch order, sorted once up
    /// front rather than per queue pop.
    fn bfs_levels(&self, root: usize) -> Result<Vec<usize>, TopologyError> {
        let nbrs: Vec<Vec<usize>> = self
            .adjacency()
            .into_iter()
            .map(|out| {
                let mut to: Vec<usize> = out.into_iter().map(|(_, t)| t).collect();
                to.sort_unstable();
                to
            })
            .collect();
        let mut level = vec![usize::MAX; self.num_switches];
        level[root] = 0;
        let mut q = VecDeque::from([root]);
        while let Some(s) = q.pop_front() {
            for &t in &nbrs[s] {
                if level[t] == usize::MAX {
                    level[t] = level[s] + 1;
                    q.push_back(t);
                }
            }
        }
        if let Some(to) = level.iter().position(|&l| l == usize::MAX) {
            return Err(TopologyError::Disconnected { from: root, to });
        }
        Ok(level)
    }

    /// Reverse-BFS routing towards each destination. With `levels`
    /// provided, hops are restricted to the up*/down* rule relative to the
    /// spanning-tree levels.
    fn routes_bfs(&self, levels: Option<&Vec<usize>>) -> Result<SwitchTables, TopologyError> {
        // Reverse adjacency: incoming edges per switch as `(from,
        // from_port, up)`, ordered by source switch, where `up` marks a
        // forward edge toward a lower spanning-tree level (never set
        // without levels). The sort is stable, so parallel links keep
        // edge-index order among themselves.
        let mut radj: Vec<Vec<(usize, u8, bool)>> = vec![Vec::new(); self.num_switches];
        for e in &self.edges {
            let up = levels.is_some_and(|lv| lv[e.to] < lv[e.from]);
            radj[e.to].push((e.from, e.from_port, up));
        }
        for preds in &mut radj {
            preds.sort_by_key(|&(from, _, _)| from);
        }
        let num_nodes = self
            .attachments
            .iter()
            .map(|a| a.node as usize + 1)
            .max()
            .unwrap_or(0);
        let mut tables = vec![vec![None; num_nodes]; self.num_switches];
        // seen[switch][phase], reset per destination.
        let mut seen = vec![[false; 2]; self.num_switches];
        let mut q: VecDeque<(usize, usize)> = VecDeque::new();
        for a in &self.attachments {
            // BFS outward from the destination switch along reverse edges.
            // A forward up*/down* route is up...up, down...down, so the
            // backward walk from the destination first crosses "down"
            // edges (phase 0), then "up" edges (phase 1), and once in
            // phase 1 never crosses a down edge again. Without levels
            // every edge is a down edge and the walk stays in phase 0.
            seen.fill([false; 2]);
            seen[a.switch][0] = true;
            q.push_back((a.switch, 0));
            tables[a.switch][a.node as usize] = Some(a.out_port);
            while let Some((s, phase)) = q.pop_front() {
                for &(from, port, up) in &radj[s] {
                    if phase == 1 && !up {
                        continue; // down edge after up edge (backward) is illegal
                    }
                    let next_phase = usize::from(up);
                    if seen[from][next_phase] {
                        continue;
                    }
                    seen[from][next_phase] = true;
                    // First writer wins → BFS shortest, deterministic.
                    if tables[from][a.node as usize].is_none() {
                        tables[from][a.node as usize] = Some(port);
                    }
                    q.push_back((from, next_phase));
                }
            }
            // Connectivity check for this destination.
            if let Some(s) = seen.iter().position(|&p| p == [false; 2]) {
                return Err(TopologyError::Disconnected {
                    from: s,
                    to: a.switch,
                });
            }
        }
        Ok(SwitchTables { tables })
    }

    /// Dimension-order routing for a row-major mesh (as built by
    /// [`Topology::mesh`]).
    fn routes_xy(&self, width: usize, height: usize) -> Result<SwitchTables, TopologyError> {
        if width * height != self.num_switches {
            return Err(TopologyError::AlgorithmMismatch {
                reason: format!(
                    "mesh {}x{} has {} switches, topology has {}",
                    width,
                    height,
                    width * height,
                    self.num_switches
                ),
            });
        }
        let num_nodes = self
            .attachments
            .iter()
            .map(|a| a.node as usize + 1)
            .max()
            .unwrap_or(0);
        // Map (from, to) switch pairs to output ports through each
        // switch's out-edges (edge-index order, so the first of parallel
        // links wins): O(degree) per lookup, not O(edges).
        let out = self.adjacency();
        let port_towards = |from: usize, to: usize| -> Option<u8> {
            out[from]
                .iter()
                .find(|&&(_, t)| t == to)
                .map(|&(i, _)| self.edges[i].from_port)
        };
        let mut tables = vec![vec![None; num_nodes]; self.num_switches];
        for a in &self.attachments {
            let (dx, dy) = (a.switch % width, a.switch / width);
            #[allow(clippy::needless_range_loop)] // s is also arithmetic, not just an index
            for s in 0..self.num_switches {
                let (sx, sy) = (s % width, s / width);
                let entry = if s == a.switch {
                    Some(a.out_port)
                } else if sx != dx {
                    // X first
                    let nxt = if dx > sx { s + 1 } else { s - 1 };
                    port_towards(s, nxt)
                } else {
                    let nxt = if dy > sy { s + width } else { s - width };
                    port_towards(s, nxt)
                };
                let port = entry.ok_or_else(|| TopologyError::AlgorithmMismatch {
                    reason: format!("missing mesh link at switch {s}"),
                })?;
                tables[s][a.node as usize] = Some(port);
            }
        }
        Ok(SwitchTables { tables })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RouteAlgorithm as RA;

    /// Walks a route from `start` switch to destination node, returning
    /// the switch sequence (panics after too many hops → routing loop).
    fn walk(topo: &Topology, tables: &SwitchTables, start: usize, node: u16) -> Vec<usize> {
        let dst_attach = topo.attachment_of(node).unwrap();
        let mut path = vec![start];
        let mut s = start;
        for _ in 0..100 {
            let port = tables.port(s, node).expect("route exists");
            if s == dst_attach.switch && port == dst_attach.out_port {
                return path;
            }
            let edge = topo
                .edges()
                .iter()
                .find(|e| e.from == s && e.from_port == port)
                .expect("port maps to an edge");
            s = edge.to;
            path.push(s);
        }
        panic!("routing loop from {start} to node {node}: {path:?}");
    }

    #[test]
    fn shortest_path_on_mesh_is_minimal() {
        let t = Topology::mesh(3, 3);
        let tables = t.compute_routes(RA::ShortestPath).unwrap();
        // corner (sw 0) to opposite corner (node 8 on sw 8): 4 hops
        let path = walk(&t, &tables, 0, 8);
        assert_eq!(path.len(), 5);
    }

    #[test]
    fn xy_routes_x_first() {
        let t = Topology::mesh(3, 3);
        let tables = t
            .compute_routes(RA::XyMesh {
                width: 3,
                height: 3,
            })
            .unwrap();
        let path = walk(&t, &tables, 0, 8);
        assert_eq!(path, vec![0, 1, 2, 5, 8], "X first, then Y");
    }

    #[test]
    fn all_pairs_reach_destination_on_mesh() {
        let t = Topology::mesh(3, 2);
        for algo in [
            RA::ShortestPath,
            RA::XyMesh {
                width: 3,
                height: 2,
            },
            RA::UpDown,
        ] {
            let tables = t.compute_routes(algo).unwrap();
            for start in 0..t.num_switches() {
                for node in 0..6u16 {
                    let path = walk(&t, &tables, start, node);
                    assert!(!path.is_empty());
                }
            }
        }
    }

    #[test]
    fn ring_routes_follow_direction() {
        let t = Topology::ring(4);
        let tables = t.compute_routes(RA::ShortestPath).unwrap();
        // Unidirectional ring: 3 → 0 wraps via the single direction
        let path = walk(&t, &tables, 3, 0);
        assert_eq!(path, vec![3, 0]);
        let path = walk(&t, &tables, 0, 3);
        assert_eq!(path, vec![0, 1, 2, 3]);
    }

    #[test]
    fn updown_reaches_everything_on_tree() {
        let t = Topology::tree(2, 3);
        let tables = t.compute_routes(RA::UpDown).unwrap();
        for start in 0..t.num_switches() {
            for node in 0..8u16 {
                walk(&t, &tables, start, node);
            }
        }
    }

    #[test]
    fn updown_reaches_everything_on_double_ring() {
        let t = Topology::double_ring(6);
        let tables = t.compute_routes(RA::UpDown).unwrap();
        for start in 0..6 {
            for node in 0..6u16 {
                walk(&t, &tables, start, node);
            }
        }
    }

    #[test]
    fn xy_on_non_mesh_rejected() {
        let t = Topology::ring(4);
        assert!(matches!(
            t.compute_routes(RA::XyMesh {
                width: 2,
                height: 3
            }),
            Err(TopologyError::AlgorithmMismatch { .. })
        ));
    }

    #[test]
    fn crossbar_routes_directly() {
        let t = Topology::crossbar(3);
        let tables = t.compute_routes(RA::ShortestPath).unwrap();
        for node in 0..3u16 {
            let a = t.attachment_of(node).unwrap();
            assert_eq!(tables.port(0, node), Some(a.out_port));
        }
    }

    #[test]
    fn table_accessors() {
        let t = Topology::crossbar(2);
        let tables = t.compute_routes(RA::ShortestPath).unwrap();
        assert_eq!(tables.num_switches(), 1);
        assert_eq!(tables.switch_table(0).len(), 2);
        assert_eq!(tables.port(0, 99), None);
    }
}
