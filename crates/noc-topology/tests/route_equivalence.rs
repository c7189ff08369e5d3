//! Route-table equivalence: the indexed routing in `noc-topology` must
//! produce exactly the tables (and errors) of the straightforward
//! implementations kept here as references — a full edge-list scan per
//! XY hop, and a reverse BFS that clones and sorts each switch's
//! predecessor list on every queue pop.

use noc_topology::{RouteAlgorithm, Topology, TopologyBuilder, TopologyError};
use std::collections::VecDeque;

type Tables = Vec<Vec<Option<u8>>>;

fn num_nodes(topo: &Topology) -> usize {
    topo.attachments()
        .iter()
        .map(|a| a.node as usize + 1)
        .max()
        .unwrap_or(0)
}

/// Reference XY: every hop scans the whole edge list for its link.
fn reference_xy(topo: &Topology, width: usize, height: usize) -> Result<Tables, TopologyError> {
    let n = topo.num_switches();
    if width * height != n {
        return Err(TopologyError::AlgorithmMismatch {
            reason: format!(
                "mesh {}x{} has {} switches, topology has {}",
                width,
                height,
                width * height,
                n
            ),
        });
    }
    let port_towards = |from: usize, to: usize| -> Option<u8> {
        topo.edges()
            .iter()
            .find(|e| e.from == from && e.to == to)
            .map(|e| e.from_port)
    };
    let mut tables = vec![vec![None; num_nodes(topo)]; n];
    for a in topo.attachments() {
        let (dx, dy) = (a.switch % width, a.switch / width);
        for (s, table) in tables.iter_mut().enumerate() {
            let (sx, sy) = (s % width, s / width);
            let entry = if s == a.switch {
                Some(a.out_port)
            } else if sx != dx {
                port_towards(s, if dx > sx { s + 1 } else { s - 1 })
            } else {
                port_towards(s, if dy > sy { s + width } else { s - width })
            };
            let port = entry.ok_or_else(|| TopologyError::AlgorithmMismatch {
                reason: format!("missing mesh link at switch {s}"),
            })?;
            table[a.node as usize] = Some(port);
        }
    }
    Ok(tables)
}

/// Reference BFS levels: neighbours collected and sorted per pop.
fn reference_levels(topo: &Topology) -> Result<Vec<usize>, TopologyError> {
    let n = topo.num_switches();
    let mut level = vec![usize::MAX; n];
    level[0] = 0;
    let mut q = VecDeque::from([0]);
    while let Some(s) = q.pop_front() {
        let mut nbrs: Vec<usize> = topo
            .edges()
            .iter()
            .filter(|e| e.from == s)
            .map(|e| e.to)
            .collect();
        nbrs.sort_unstable();
        for t in nbrs {
            if level[t] == usize::MAX {
                level[t] = level[s] + 1;
                q.push_back(t);
            }
        }
    }
    if let Some(to) = level.iter().position(|&l| l == usize::MAX) {
        return Err(TopologyError::Disconnected { from: 0, to });
    }
    Ok(level)
}

/// Reference reverse BFS (shortest path, or up*/down* given levels):
/// predecessors cloned and sorted on every pop.
fn reference_bfs(topo: &Topology, levels: Option<&[usize]>) -> Result<Tables, TopologyError> {
    let n = topo.num_switches();
    let edges = topo.edges();
    let mut radj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for (i, e) in edges.iter().enumerate() {
        radj[e.to].push((i, e.from));
    }
    let mut tables = vec![vec![None; num_nodes(topo)]; n];
    for a in topo.attachments() {
        let mut dist = vec![[usize::MAX; 2]; n];
        let mut q = VecDeque::new();
        dist[a.switch][0] = 0;
        q.push_back((a.switch, 0usize));
        tables[a.switch][a.node as usize] = Some(a.out_port);
        while let Some((s, phase)) = q.pop_front() {
            let mut preds = radj[s].clone();
            preds.sort_by_key(|&(_, from)| from);
            for (edge_idx, from) in preds {
                let e = &edges[edge_idx];
                let p_edge = match levels {
                    Some(lv) if lv[e.to] < lv[e.from] => 1,
                    _ => 0,
                };
                if levels.is_some() && phase == 1 && p_edge == 0 {
                    continue;
                }
                let next_phase = p_edge.max(phase);
                if dist[from][next_phase] != usize::MAX {
                    continue;
                }
                dist[from][next_phase] = dist[s][phase] + 1;
                if tables[from][a.node as usize].is_none() {
                    tables[from][a.node as usize] = Some(e.from_port);
                }
                q.push_back((from, next_phase));
            }
        }
        if let Some(s) = (0..n).find(|&s| dist[s] == [usize::MAX; 2]) {
            return Err(TopologyError::Disconnected {
                from: s,
                to: a.switch,
            });
        }
    }
    Ok(tables)
}

fn reference(topo: &Topology, algo: RouteAlgorithm) -> Result<Tables, TopologyError> {
    match algo {
        RouteAlgorithm::ShortestPath => reference_bfs(topo, None),
        RouteAlgorithm::UpDown => reference_bfs(topo, Some(&reference_levels(topo)?)),
        RouteAlgorithm::XyMesh { width, height } => reference_xy(topo, width, height),
    }
}

/// Asserts `compute_routes` equals the reference for every algorithm in
/// `algos`, tables and errors alike; returns how many succeeded.
fn assert_equivalent(label: &str, topo: &Topology, algos: &[RouteAlgorithm]) -> usize {
    let mut ok = 0;
    for &algo in algos {
        let got = topo.compute_routes(algo).map(|t| {
            (0..t.num_switches())
                .map(|s| t.switch_table(s).to_vec())
                .collect::<Tables>()
        });
        assert_eq!(got, reference(topo, algo), "{label}: {algo:?}");
        ok += usize::from(got.is_ok());
    }
    ok
}

fn all_algorithms(width: usize, height: usize) -> [RouteAlgorithm; 3] {
    [
        RouteAlgorithm::ShortestPath,
        RouteAlgorithm::UpDown,
        RouteAlgorithm::XyMesh { width, height },
    ]
}

/// A mesh declared link by link in row-major `[s, s+1]`, `[s, s+w]`
/// order (the order scenario files list custom mesh links in), with
/// endpoints on the given switches.
fn custom_mesh(width: usize, height: usize, placement: &[usize]) -> TopologyBuilder {
    let mut b = TopologyBuilder::new(width * height);
    for y in 0..height {
        for x in 0..width {
            let s = y * width + x;
            if x + 1 < width {
                b.connect_bidir(s, s + 1);
            }
            if y + 1 < height {
                b.connect_bidir(s, s + width);
            }
        }
    }
    for (node, &switch) in placement.iter().enumerate() {
        b.attach(node as u16, switch).unwrap();
    }
    b
}

#[test]
fn meshes_match_reference() {
    for (w, h) in [(2, 2), (3, 5), (8, 8), (16, 16)] {
        let topo = Topology::mesh(w, h);
        let ok = assert_equivalent(&format!("mesh {w}x{h}"), &topo, &all_algorithms(w, h));
        assert_eq!(ok, 3, "every algorithm routes a mesh");
    }
}

#[test]
fn custom_meshes_match_reference() {
    // Sparse placement: a 4x4 sub-grid of endpoints spread over the mesh.
    let sparse: Vec<usize> = (0..16).map(|i| (i / 4) * 2 * 8 + (i % 4) * 2).collect();
    let full: Vec<usize> = (0..15).collect();
    for (label, topo, w, h) in [
        ("sparse 8x8", custom_mesh(8, 8, &sparse).build(), 8, 8),
        ("full 5x3", custom_mesh(5, 3, &full).build(), 5, 3),
    ] {
        let ok = assert_equivalent(label, &topo, &all_algorithms(w, h));
        assert_eq!(ok, 3, "{label}: every algorithm routes a mesh");
    }
    // A doubled link: XY must keep picking the first of the parallel
    // edges (lowest edge index), as the scan did.
    let mut b = custom_mesh(3, 3, &full[..9]);
    b.connect(4, 5).connect(1, 4);
    let ok = assert_equivalent("3x3 doubled links", &b.build(), &all_algorithms(3, 3));
    assert_eq!(ok, 3);
}

#[test]
fn regular_topologies_match_reference() {
    let cases = [
        ("ring 5", Topology::ring(5)),
        ("ring 6", Topology::ring(6)),
        ("double ring 6", Topology::double_ring(6)),
        ("tree 2x3", Topology::tree(2, 3)),
        ("tree 3x3", Topology::tree(3, 3)),
        ("crossbar 4", Topology::crossbar(4)),
    ];
    for (label, topo) in &cases {
        let n = topo.num_switches();
        // XY applies to none of these; the mismatch (wrong switch count,
        // or a missing mesh link when the count fits) must agree too.
        let mut algos = all_algorithms(n, 1).to_vec();
        algos.push(RouteAlgorithm::XyMesh {
            width: n + 1,
            height: 1,
        });
        if n % 2 == 0 {
            algos.push(RouteAlgorithm::XyMesh {
                width: 2,
                height: n / 2,
            });
        }
        // Up*/down* cannot route a unidirectional ring; shortest path
        // routes them all.
        let ok = assert_equivalent(label, topo, &algos);
        assert!(ok >= 1, "{label}: shortest path routes it");
    }
}

#[test]
fn irregular_graph_with_doubled_link_matches_reference() {
    let mut b = TopologyBuilder::new(6);
    b.connect_bidir(0, 1)
        .connect(0, 1) // parallel to the first 0 -> 1 link
        .connect_bidir(1, 2)
        .connect_bidir(2, 3)
        .connect(3, 4)
        .connect(4, 0)
        .connect_bidir(1, 3)
        .connect_bidir(5, 2)
        .connect(5, 4);
    for (node, switch) in [(0, 0), (1, 2), (2, 2), (3, 4), (4, 5), (7, 3)] {
        b.attach(node, switch).unwrap();
    }
    let topo = b.build();
    let ok = assert_equivalent("irregular", &topo, &all_algorithms(3, 2));
    assert!(ok >= 2);
}

#[test]
fn disconnected_graph_errors_match_reference() {
    let mut b = TopologyBuilder::new(3);
    b.connect_bidir(0, 1).connect(2, 1);
    b.attach(0, 0).unwrap();
    b.attach(1, 2).unwrap();
    let ok = assert_equivalent("one-way island", &b.build(), &all_algorithms(3, 1));
    assert_eq!(ok, 0, "switch 2 is unreachable, so no algorithm routes");
}

#[test]
fn xy_with_a_removed_mesh_link_is_a_mismatch() {
    // A 3x3 mesh without the 5 -> 4 link: XY from switch 5 towards the
    // west column has no port.
    let mut b = TopologyBuilder::new(9);
    for y in 0..3 {
        for x in 0..3 {
            let s = y * 3 + x;
            if x + 1 < 3 {
                b.connect(s, s + 1);
                if s != 4 {
                    b.connect(s + 1, s);
                }
            }
            if y + 1 < 3 {
                b.connect_bidir(s, s + 3);
            }
        }
    }
    for s in 0..9 {
        b.attach(s as u16, s).unwrap();
    }
    let topo = b.build();
    let xy = RouteAlgorithm::XyMesh {
        width: 3,
        height: 3,
    };
    assert_eq!(
        topo.compute_routes(xy),
        Err(TopologyError::AlgorithmMismatch {
            reason: "missing mesh link at switch 5".into()
        })
    );
    assert_equivalent("3x3 minus 5 -> 4", &topo, &all_algorithms(3, 3));
}
