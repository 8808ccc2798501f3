//! The bit-parallel diameter kernel behind [`Graph::diameter`] and
//! [`Graph::residual_diameter`] against a naive reference that runs one
//! BFS per node. Graph sizes straddle the kernel's 64-source word
//! boundaries (63/64/65, 127/128/129), and removed sets include the root
//! and cuts that split the residual graph.

use netsim::{topology, Graph, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Reference: the largest BFS distance between two nodes of the root's
/// live component, one BFS per component node.
fn naive_residual(g: &Graph, root: NodeId, removed: &[NodeId]) -> Option<u32> {
    let from_root = g.bfs_distances_avoiding(root, removed);
    from_root[root.index()]?;
    let component = g.nodes().filter(|v| from_root[v.index()].is_some());
    let ecc = |v: NodeId| g.bfs_distances_avoiding(v, removed).into_iter().flatten().max();
    Some(component.filter_map(ecc).max().unwrap_or(0))
}

/// A random connected graph: a sparse or dense G(n, p), a random tree, or
/// a grid cut to about `n` nodes.
fn random_graph(rng: &mut StdRng, n: usize) -> Graph {
    match rng.gen_range(0..4u32) {
        0 => topology::connected_gnp(n, (2.0 / n as f64).min(1.0), rng),
        1 => topology::connected_gnp(n, 0.2, rng),
        2 => topology::random_tree(n, rng),
        _ => topology::grid(n.div_ceil(8), 8.min(n)),
    }
}

/// Sizes on both sides of each word boundary, then anything up to 200.
fn size(pick: usize, rng: &mut StdRng) -> usize {
    const EDGES: [usize; 8] = [1, 2, 63, 64, 65, 127, 128, 129];
    EDGES.get(pick).copied().unwrap_or_else(|| rng.gen_range(1..=200))
}

fn check(g: &Graph, rng: &mut StdRng) {
    let want = naive_residual(g, NodeId(0), &[]).expect("node 0 is live");
    assert_eq!(g.diameter(), want, "diameter of {} nodes", g.len());
    for _ in 0..4 {
        let n = g.len() as u32;
        let k = rng.gen_range(0..=n.min(6));
        let removed: Vec<NodeId> = (0..k).map(|_| NodeId(rng.gen_range(0..n))).collect();
        let root = NodeId(rng.gen_range(0..n));
        assert_eq!(
            g.residual_diameter(root, &removed),
            naive_residual(g, root, &removed),
            "residual diameter of {} nodes from {root:?} without {removed:?}",
            g.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Both entry points equal the naive reference on random connected
    /// graphs and random removed sets (the root among them at times).
    #[test]
    fn kernel_matches_naive_bfs(seed in 0u64..1_000_000, pick in 0usize..16) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = size(pick, &mut rng);
        let g = random_graph(&mut rng, n);
        check(&g, &mut rng);
    }
}

#[test]
fn single_node_graph_has_diameter_zero() {
    let g = topology::path(1);
    assert_eq!(g.diameter(), 0);
    assert_eq!(g.residual_diameter(NodeId(0), &[]), Some(0));
    assert_eq!(g.residual_diameter(NodeId(0), &[NodeId(0)]), None);
}

#[test]
fn removed_root_and_disconnecting_cuts() {
    // A 130-node path: removing node 65 leaves two halves, and the root's
    // half is all the residual diameter sees.
    let g = topology::path(130);
    assert_eq!(g.diameter(), 129);
    assert_eq!(g.residual_diameter(NodeId(0), &[NodeId(65)]), Some(64));
    assert_eq!(g.residual_diameter(NodeId(129), &[NodeId(65)]), Some(63));
    assert_eq!(g.residual_diameter(NodeId(3), &[NodeId(3), NodeId(65)]), None);
    // Removing the hub isolates every leaf; removing a leaf leaves the
    // hub's component wider than one word.
    let star = topology::star(200);
    assert_eq!(star.residual_diameter(NodeId(1), &[NodeId(0)]), Some(0));
    assert_eq!(star.residual_diameter(NodeId(0), &[NodeId(5)]), Some(2));
    for (n, removed) in [(129usize, vec![NodeId(64)]), (200, vec![NodeId(1), NodeId(100)])] {
        let g = topology::path(n);
        for root in [NodeId(0), NodeId(n as u32 - 1)] {
            assert_eq!(g.residual_diameter(root, &removed), naive_residual(&g, root, &removed));
        }
    }
}
