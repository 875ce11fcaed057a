//! Property-based tests for graph construction and union.

use proptest::prelude::*;
use std::collections::HashMap;
use thicket_graph::{Frame, Graph, GraphUnion, NodeId};

/// Build a random tree from a parent-pointer vector: node i's parent is
/// `parents[i] % i` (node 0 is the root). Names are drawn from a small
/// alphabet so unions overlap.
fn tree_from(parents: &[usize], names: &[u8]) -> Graph {
    let mut g = Graph::new();
    let mut ids = Vec::new();
    for (i, &p) in parents.iter().enumerate() {
        let name = format!("f{}", names[i % names.len()] % 8);
        let id = if i == 0 {
            g.add_root(Frame::named(&name))
        } else {
            g.add_child(ids[p % i], Frame::named(&name))
        };
        ids.push(id);
    }
    g
}

fn tree_strategy() -> impl Strategy<Value = Graph> {
    (
        proptest::collection::vec(any::<usize>(), 1..30),
        proptest::collection::vec(any::<u8>(), 1..8),
    )
        .prop_map(|(parents, names)| tree_from(&parents, &names))
}

/// Canonical multiset of (path-of-names) for structural comparison.
fn path_signature(g: &Graph) -> Vec<Vec<String>> {
    let mut sigs: Vec<Vec<String>> = g
        .preorder()
        .into_iter()
        .map(|id| {
            g.path_to(id)
                .into_iter()
                .map(|n| g.node(n).name().to_string())
                .collect()
        })
        .collect();
    sigs.sort();
    sigs
}

/// Exact structure by node id: roots, then each node's frame, parents
/// and children in order.
type Shape = (Vec<NodeId>, Vec<(Frame, Vec<NodeId>, Vec<NodeId>)>);

fn shape(g: &Graph) -> Shape {
    let nodes = g
        .ids()
        .map(|id| {
            let n = g.node(id);
            (
                n.frame().clone(),
                n.parents().to_vec(),
                n.children().to_vec(),
            )
        })
        .collect();
    (g.roots().to_vec(), nodes)
}

/// `outer ∘ inner`: where a node of an input graph lands after two
/// successive unions.
fn compose(
    inner: &HashMap<NodeId, NodeId>,
    outer: &HashMap<NodeId, NodeId>,
) -> HashMap<NodeId, NodeId> {
    inner.iter().map(|(old, mid)| (*old, outer[mid])).collect()
}

proptest! {
    /// Random trees are valid trees with a full pre-order.
    #[test]
    fn generated_trees_are_trees(g in tree_strategy()) {
        prop_assert!(g.is_tree());
        prop_assert_eq!(g.preorder().len(), g.len());
    }

    /// depth(node) == path_to(node).len() - 1 everywhere.
    #[test]
    fn depth_matches_path(g in tree_strategy()) {
        for id in g.preorder() {
            prop_assert_eq!(g.depth(id) + 1, g.path_to(id).len());
        }
    }

    /// Union with self changes nothing (idempotence).
    #[test]
    fn union_idempotent(g in tree_strategy()) {
        let u = GraphUnion::build(&[&g, &g]);
        prop_assert_eq!(u.graph.len(), GraphUnion::build(&[&g]).graph.len());
        prop_assert_eq!(path_signature(&u.graph), path_signature(&GraphUnion::build(&[&g]).graph));
    }

    /// Union is commutative up to structure (path signatures match).
    #[test]
    fn union_commutative(a in tree_strategy(), b in tree_strategy()) {
        let ab = GraphUnion::build(&[&a, &b]);
        let ba = GraphUnion::build(&[&b, &a]);
        prop_assert_eq!(path_signature(&ab.graph), path_signature(&ba.graph));
    }

    /// The indexed matcher agrees with the naive reference implementation.
    #[test]
    fn union_indexed_matches_naive(a in tree_strategy(), b in tree_strategy()) {
        let fast = GraphUnion::build(&[&a, &b]);
        let slow = GraphUnion::build_naive(&[&a, &b]);
        prop_assert_eq!(path_signature(&fast.graph), path_signature(&slow.graph));
        prop_assert_eq!(fast.intersection().len(), slow.intersection().len());
    }

    /// Every input node maps to a unified node with the same frame and the
    /// same root-to-node name path.
    #[test]
    fn union_preserves_paths(a in tree_strategy(), b in tree_strategy()) {
        let u = GraphUnion::build(&[&a, &b]);
        for (g, map) in [(&a, &u.mappings[0]), (&b, &u.mappings[1])] {
            for id in g.preorder() {
                let new = map[&id];
                let old_path: Vec<&str> =
                    g.path_to(id).into_iter().map(|n| g.node(n).name()).collect();
                let new_path: Vec<&str> =
                    u.graph.path_to(new).into_iter().map(|n| u.graph.node(n).name()).collect();
                prop_assert_eq!(old_path, new_path);
            }
        }
    }

    /// The intersection of [g, g] is all of g's unified nodes; for [a, b]
    /// it is no larger than the smaller graph.
    #[test]
    fn intersection_bounds(a in tree_strategy(), b in tree_strategy()) {
        let self_u = GraphUnion::build(&[&a, &a]);
        prop_assert_eq!(self_u.intersection().len(), self_u.graph.len());
        let u = GraphUnion::build(&[&a, &b]);
        prop_assert!(u.intersection().len() <= a.len().min(b.len()));
    }

    /// Induced subgraph over all nodes reproduces the structure.
    #[test]
    fn induced_full_subgraph_is_identity(g in tree_strategy()) {
        let keep: std::collections::HashSet<_> = g.preorder().into_iter().collect();
        let (sub, _) = g.induced_subgraph(&keep);
        prop_assert_eq!(path_signature(&sub), path_signature(&g));
    }

    /// Union is associative: unioning the unions of a split input list
    /// gives exactly the graph (ids, frames, child order) and the
    /// composed mappings of one union over the whole list.
    #[test]
    fn union_is_associative(
        graphs in proptest::collection::vec(tree_strategy(), 2..6),
        cut in any::<usize>(),
    ) {
        let k = 1 + cut % (graphs.len() - 1);
        let all: Vec<&Graph> = graphs.iter().collect();
        let flat = GraphUnion::build(&all);
        let left = GraphUnion::build(&all[..k]);
        let right = GraphUnion::build(&all[k..]);
        let nested = GraphUnion::build(&[&left.graph, &right.graph]);
        prop_assert_eq!(shape(&nested.graph), shape(&flat.graph));
        for (i, want) in flat.mappings.iter().enumerate() {
            let got = if i < k {
                compose(&left.mappings[i], &nested.mappings[0])
            } else {
                compose(&right.mappings[i - k], &nested.mappings[1])
            };
            prop_assert_eq!(&got, want);
        }
    }
}
