//! Structural union of call graphs.
//!
//! Composing an ensemble requires matching "the same" node across profiles
//! (the paper's call-tree matching, §3.2: executions with different build
//! settings or inputs yield similar or identical call trees). Two nodes
//! match when their frames are equal *and* their call paths match — i.e.
//! the union walks both graphs top-down, pairing children by frame.
//!
//! [`GraphUnion::build`] produces the unified graph plus, for every input
//! graph, a mapping from its node ids to unified ids; the thicket
//! constructor uses those mappings to re-key every profile's metric rows.
//!
//! Each input is walked in node-id order. Nodes are only ever made by
//! `add_root`/`add_child`, so a node's first parent always has a lower
//! id than the node, and the unified graph numbers its nodes in order of
//! first appearance across the inputs. That makes the union associative
//! on trees: `union(union(G1..Gk), union(Gk+1..Gn))` yields the same
//! graph and (composed) mappings as `union(G1..Gn)`, which is what lets
//! a chunked load pool per-chunk thickets into exactly the thicket a
//! whole-input build produces.

use crate::frame::Frame;
use crate::graph::{Graph, NodeId};
use std::collections::HashMap;

/// Result of unioning a sequence of graphs.
#[derive(Debug, Clone)]
pub struct GraphUnion {
    /// The unified graph (superset of every input's structure).
    pub graph: Graph,
    /// `mappings[i][old_id] = unified_id` for input graph `i`.
    pub mappings: Vec<HashMap<NodeId, NodeId>>,
}

impl GraphUnion {
    /// Union all `graphs` (hash-indexed child matching).
    pub fn build(graphs: &[&Graph]) -> GraphUnion {
        Self::build_impl(graphs, true)
    }

    /// Reference implementation using a linear sibling scan instead of a
    /// hash index. Same result, asymptotically slower for wide sibling
    /// sets; kept for the `ablate_union` benchmark and as an oracle in
    /// property tests.
    pub fn build_naive(graphs: &[&Graph]) -> GraphUnion {
        Self::build_impl(graphs, false)
    }

    fn build_impl(graphs: &[&Graph], indexed: bool) -> GraphUnion {
        let mut out = Graph::new();
        let mut mappings = Vec::with_capacity(graphs.len());
        // Index: (unified parent or None-for-root, frame) -> unified node.
        let mut index: HashMap<(Option<NodeId>, Frame), NodeId> = HashMap::new();
        for g in graphs {
            let mut map: HashMap<NodeId, NodeId> = HashMap::new();
            // Id order maps every node's first parent before the node.
            for id in g.ids() {
                let frame = g.node(id).frame().clone();
                let parent_new = g
                    .node(id)
                    .parents()
                    .first()
                    .map(|p| *map.get(p).expect("parent mapped before child"));
                let existing = if indexed {
                    index.get(&(parent_new, frame.clone())).copied()
                } else {
                    match parent_new {
                        Some(p) => out.child_with_frame(p, &frame),
                        None => out.root_with_frame(&frame),
                    }
                };
                let new_id = match existing {
                    Some(n) => n,
                    None => {
                        let n = match parent_new {
                            Some(p) => out.add_child(p, frame.clone()),
                            None => out.add_root(frame.clone()),
                        };
                        if indexed {
                            index.insert((parent_new, frame), n);
                        }
                        n
                    }
                };
                map.insert(id, new_id);
            }
            // Extra parents (DAG input) become extra edges. Deferred to a
            // second pass: id order only guarantees the *first* parent
            // is mapped before a node, not every parent.
            for id in g.ids() {
                let new_id = map[&id];
                for p_old in g.node(id).parents().iter().skip(1) {
                    let p_new = map[p_old];
                    if p_new != new_id {
                        out.add_edge(p_new, new_id);
                    }
                }
            }
            mappings.push(map);
        }
        GraphUnion {
            graph: out,
            mappings,
        }
    }

    /// Unified node ids present in **every** input graph — the call-tree
    /// intersection the paper solves for hierarchical composition.
    pub fn intersection(&self) -> Vec<NodeId> {
        let mut counts: HashMap<NodeId, usize> = HashMap::new();
        for map in &self.mappings {
            let mut uniq: Vec<NodeId> = map.values().copied().collect();
            uniq.sort_unstable();
            uniq.dedup();
            for id in uniq {
                *counts.entry(id).or_insert(0) += 1;
            }
        }
        let n = self.mappings.len();
        let mut out: Vec<NodeId> = counts
            .into_iter()
            .filter(|&(_, c)| c == n)
            .map(|(id, _)| id)
            .collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(names: &[&str]) -> Graph {
        let mut g = Graph::new();
        let mut cur = g.add_root(Frame::named(names[0]));
        for n in &names[1..] {
            cur = g.add_child(cur, Frame::named(*n));
        }
        g
    }

    #[test]
    fn identical_trees_collapse() {
        let a = chain(&["MAIN", "FOO", "BAZ"]);
        let b = chain(&["MAIN", "FOO", "BAZ"]);
        let u = GraphUnion::build(&[&a, &b]);
        assert_eq!(u.graph.len(), 3);
        assert_eq!(u.intersection().len(), 3);
    }

    #[test]
    fn divergent_subtrees_union() {
        let mut a = Graph::new();
        let m = a.add_root(Frame::named("MAIN"));
        a.add_child(m, Frame::named("FOO"));
        let mut b = Graph::new();
        let m2 = b.add_root(Frame::named("MAIN"));
        b.add_child(m2, Frame::named("BAR"));
        let u = GraphUnion::build(&[&a, &b]);
        assert_eq!(u.graph.len(), 3); // MAIN, FOO, BAR
        assert_eq!(u.intersection().len(), 1); // only MAIN shared
    }

    #[test]
    fn same_name_different_paths_stay_distinct() {
        // MPI_Send under FOO vs under BAR must remain two nodes.
        let a = chain(&["MAIN", "FOO", "MPI_Send"]);
        let b = chain(&["MAIN", "BAR", "MPI_Send"]);
        let u = GraphUnion::build(&[&a, &b]);
        assert_eq!(u.graph.len(), 5);
    }

    #[test]
    fn mapping_points_to_matching_frames() {
        let a = chain(&["MAIN", "FOO"]);
        let b = chain(&["MAIN", "FOO", "BAZ"]);
        let u = GraphUnion::build(&[&a, &b]);
        for (g, map) in [(&a, &u.mappings[0]), (&b, &u.mappings[1])] {
            for id in g.preorder() {
                let new = map[&id];
                assert_eq!(g.node(id).frame(), u.graph.node(new).frame());
            }
        }
    }

    #[test]
    fn union_is_idempotent() {
        let a = chain(&["MAIN", "FOO", "BAZ"]);
        let once = GraphUnion::build(&[&a]);
        let twice = GraphUnion::build(&[&once.graph, &a]);
        assert_eq!(once.graph.len(), twice.graph.len());
    }

    #[test]
    fn naive_matches_indexed() {
        let mut a = Graph::new();
        let m = a.add_root(Frame::named("MAIN"));
        for i in 0..20 {
            let c = a.add_child(m, Frame::named(format!("k{i}")));
            a.add_child(c, Frame::named("leaf"));
        }
        let mut b = Graph::new();
        let m2 = b.add_root(Frame::named("MAIN"));
        for i in 10..30 {
            b.add_child(m2, Frame::named(format!("k{i}")));
        }
        let fast = GraphUnion::build(&[&a, &b]);
        let slow = GraphUnion::build_naive(&[&a, &b]);
        assert_eq!(fast.graph.len(), slow.graph.len());
        assert_eq!(fast.intersection(), slow.intersection());
    }

    #[test]
    fn dag_inputs_preserve_extra_edges() {
        let mut a = Graph::new();
        let m = a.add_root(Frame::named("MAIN"));
        let f = a.add_child(m, Frame::named("FOO"));
        let b_ = a.add_child(m, Frame::named("BAR"));
        let shared = a.add_child(f, Frame::named("SHARED"));
        a.add_edge(b_, shared);
        let u = GraphUnion::build(&[&a]);
        assert_eq!(u.graph.len(), 4);
        let new_shared = u.mappings[0][&shared];
        assert_eq!(u.graph.node(new_shared).parents().len(), 2);
    }

    #[test]
    fn empty_input() {
        let u = GraphUnion::build(&[]);
        assert!(u.graph.is_empty());
        assert!(u.intersection().is_empty());
        let e = Graph::new();
        let u2 = GraphUnion::build(&[&e]);
        assert!(u2.graph.is_empty());
        assert_eq!(u2.intersection().len(), 0);
    }

    #[test]
    fn multi_root_union() {
        let a = chain(&["A"]);
        let b = chain(&["B"]);
        let u = GraphUnion::build(&[&a, &b]);
        assert_eq!(u.graph.roots().len(), 2);
        assert!(u.intersection().is_empty());
    }
}
