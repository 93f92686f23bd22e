//! Paths (walks) through a property graph.
//!
//! The paper (footnote 1, §2) uses *path* for what graph theory calls a
//! *walk*: an alternating sequence of nodes and edges that starts and ends
//! with a node, where consecutive nodes are connected by the edge between
//! them. Nodes and edges may repeat — restrictors (`TRAIL`, `ACYCLIC`,
//! `SIMPLE`) are what rule repetitions out, and they live in the matching
//! engine, not in this type.

use std::fmt;

use crate::graph::PropertyGraph;
use crate::ids::{EdgeId, NodeId};

/// An alternating node/edge sequence `n0, e1, n1, ..., ek, nk`.
///
/// Stored as `k+1` nodes and `k` edges. A zero-length path is a single node.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Path {
    nodes: Vec<NodeId>,
    edges: Vec<EdgeId>,
}

impl Path {
    /// The zero-length path sitting on `start`.
    pub fn single(start: NodeId) -> Path {
        Path {
            nodes: vec![start],
            edges: Vec::new(),
        }
    }

    /// Builds a path from explicit sequences.
    ///
    /// # Panics
    /// Panics unless `nodes.len() == edges.len() + 1` and `nodes` is
    /// non-empty.
    pub fn new(nodes: Vec<NodeId>, edges: Vec<EdgeId>) -> Path {
        assert!(!nodes.is_empty(), "a path contains at least one node");
        assert_eq!(
            nodes.len(),
            edges.len() + 1,
            "a path alternates nodes and edges"
        );
        Path { nodes, edges }
    }

    /// Number of edges (the paper's path length).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True for single-node paths.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// First node.
    pub fn start(&self) -> NodeId {
        self.nodes[0]
    }

    /// Last node.
    pub fn end(&self) -> NodeId {
        *self.nodes.last().expect("non-empty")
    }

    /// The node sequence.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The edge sequence.
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// Extends the walk by one step, in place.
    pub fn push(&mut self, edge: EdgeId, to: NodeId) {
        self.edges.push(edge);
        self.nodes.push(to);
    }

    /// Undoes the last [`Path::push`], in place, returning the dropped
    /// step; a zero-length path is left as it is.
    pub fn pop(&mut self) -> Option<(EdgeId, NodeId)> {
        let edge = self.edges.pop()?;
        let to = self.nodes.pop()?;
        Some((edge, to))
    }

    /// A copy of the walk extended by one step.
    pub fn extended(&self, edge: EdgeId, to: NodeId) -> Path {
        let mut p = self.clone();
        p.push(edge, to);
        p
    }

    /// Concatenates two walks sharing an endpoint (`self.end() == other.start()`).
    ///
    /// # Panics
    /// Panics if the endpoints do not meet.
    pub fn concat(&self, other: &Path) -> Path {
        assert_eq!(self.end(), other.start(), "paths must share an endpoint");
        let mut nodes = self.nodes.clone();
        nodes.extend_from_slice(&other.nodes[1..]);
        let mut edges = self.edges.clone();
        edges.extend_from_slice(&other.edges);
        Path { nodes, edges }
    }

    /// True if no edge occurs twice (the `TRAIL` condition).
    pub fn is_trail(&self) -> bool {
        let mut seen = std::collections::HashSet::with_capacity(self.edges.len());
        self.edges.iter().all(|e| seen.insert(*e))
    }

    /// True if no node occurs twice (the `ACYCLIC` condition).
    pub fn is_acyclic(&self) -> bool {
        let mut seen = std::collections::HashSet::with_capacity(self.nodes.len());
        self.nodes.iter().all(|n| seen.insert(*n))
    }

    /// True if no node occurs twice except that the first and last may be
    /// equal (the `SIMPLE` condition).
    pub fn is_simple(&self) -> bool {
        if self.is_acyclic() {
            return true;
        }
        if self.start() != self.end() || self.is_empty() {
            return false;
        }
        let mut seen = std::collections::HashSet::with_capacity(self.nodes.len());
        self.nodes[..self.nodes.len() - 1]
            .iter()
            .all(|n| seen.insert(*n))
    }

    /// Checks that every edge of the walk actually connects its neighbouring
    /// nodes in `g`, honouring that a directed edge may be traversed in
    /// either direction (the paper's `path(c1, li1, a1, ...)` follows `li1`
    /// in reverse).
    pub fn is_valid_in(&self, g: &PropertyGraph) -> bool {
        self.edges.iter().enumerate().all(|(i, &e)| {
            let ep = g.edge(e).endpoints;
            let (from, to) = (self.nodes[i], self.nodes[i + 1]);
            ep.touches(from) && ep.other(from) == Some(to)
        })
    }

    /// Renders as the paper writes paths: `path(a6,t5,a3,t2,a2)`, using the
    /// external element names in `g`.
    pub fn display<'a>(&'a self, g: &'a PropertyGraph) -> PathDisplay<'a> {
        PathDisplay {
            path: self,
            graph: g,
        }
    }
}

/// Helper returned by [`Path::display`].
pub struct PathDisplay<'a> {
    path: &'a Path,
    graph: &'a PropertyGraph,
}

impl fmt::Display for PathDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "path(")?;
        for (i, n) in self.path.nodes.iter().enumerate() {
            if i > 0 {
                write!(f, ",{}", self.graph.edge(self.path.edges[i - 1]).name)?;
                write!(f, ",")?;
            }
            write!(f, "{}", self.graph.node(*n).name)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Endpoints;

    fn triangle() -> (PropertyGraph, [NodeId; 3], [EdgeId; 3]) {
        let mut g = PropertyGraph::new();
        let a = g.add_node("a", ["N"], []);
        let b = g.add_node("b", ["N"], []);
        let c = g.add_node("c", ["N"], []);
        let ab = g.add_edge("ab", Endpoints::directed(a, b), ["T"], []);
        let bc = g.add_edge("bc", Endpoints::directed(b, c), ["T"], []);
        let ca = g.add_edge("ca", Endpoints::directed(c, a), ["T"], []);
        (g, [a, b, c], [ab, bc, ca])
    }

    #[test]
    fn construction_and_accessors() {
        let (_, [a, b, c], [ab, bc, _]) = triangle();
        let p = Path::new(vec![a, b, c], vec![ab, bc]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.start(), a);
        assert_eq!(p.end(), c);
        assert!(!p.is_empty());
        assert!(Path::single(a).is_empty());
    }

    #[test]
    #[should_panic(expected = "alternates")]
    fn malformed_paths_rejected() {
        let (_, [a, b, _], [ab, bc, _]) = triangle();
        Path::new(vec![a, b], vec![ab, bc]);
    }

    #[test]
    fn validity_allows_reverse_traversal() {
        let (g, [a, b, _], [ab, ..]) = triangle();
        // Forward traversal.
        assert!(Path::new(vec![a, b], vec![ab]).is_valid_in(&g));
        // Reverse traversal of a directed edge is still a valid walk.
        assert!(Path::new(vec![b, a], vec![ab]).is_valid_in(&g));
        // But an edge must touch its preceding node.
        let (_, [_, _, c], _) = triangle();
        assert!(!Path::new(vec![c, a], vec![ab]).is_valid_in(&g));
    }

    #[test]
    fn trail_acyclic_simple() {
        let (_, [a, b, c], [ab, bc, ca]) = triangle();
        let cycle = Path::new(vec![a, b, c, a], vec![ab, bc, ca]);
        assert!(cycle.is_trail());
        assert!(!cycle.is_acyclic());
        assert!(cycle.is_simple());

        let repeat_edge = Path::new(vec![a, b, a, b], vec![ab, ab, ab]);
        assert!(!repeat_edge.is_trail());
        assert!(!repeat_edge.is_simple());

        let straight = Path::new(vec![a, b, c], vec![ab, bc]);
        assert!(straight.is_trail());
        assert!(straight.is_acyclic());
        assert!(straight.is_simple());

        // Revisiting an interior node breaks SIMPLE even when ends differ.
        let lollipop = Path::new(vec![a, b, c, a, b], vec![ab, bc, ca, ab]);
        assert!(!lollipop.is_acyclic());
        assert!(!lollipop.is_simple());
    }

    #[test]
    fn zero_length_paths_are_simple_and_acyclic() {
        let (_, [a, ..], _) = triangle();
        let p = Path::single(a);
        assert!(p.is_trail() && p.is_acyclic() && p.is_simple());
    }

    #[test]
    fn concat_and_extend() {
        let (_, [a, b, c], [ab, bc, _]) = triangle();
        let p1 = Path::new(vec![a, b], vec![ab]);
        let p2 = Path::new(vec![b, c], vec![bc]);
        let joined = p1.concat(&p2);
        assert_eq!(joined, Path::new(vec![a, b, c], vec![ab, bc]));
        assert_eq!(p1.extended(bc, c), joined);
    }

    #[test]
    fn display_matches_paper_notation() {
        let (g, [a, b, c], [ab, bc, _]) = triangle();
        let p = Path::new(vec![a, b, c], vec![ab, bc]);
        assert_eq!(p.display(&g).to_string(), "path(a,ab,b,bc,c)");
        assert_eq!(Path::single(a).display(&g).to_string(), "path(a)");
    }
}
