//! The [`PropertyGraph`] container and its adjacency structure.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, OnceLock};

use crate::ids::{EdgeId, ElementId, NodeId};
use crate::index::NodeIndex;
use crate::stats::GraphStats;
use crate::value::Value;

/// A rejected graph mutation. The graph is unchanged when any variant is
/// returned — mutations are all-or-nothing at the single-element level.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// The external name is already used by another element.
    DuplicateName(String),
    /// An edge endpoint does not name an existing node.
    UnknownNode(String),
    /// The named element does not exist.
    UnknownElement(String),
    /// A node cannot be removed while edges are still incident to it.
    NodeHasEdges(String),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::DuplicateName(name) => write!(f, "duplicate element name {name:?}"),
            GraphError::UnknownNode(name) => write!(f, "unknown node {name:?}"),
            GraphError::UnknownElement(name) => write!(f, "unknown element {name:?}"),
            GraphError::NodeHasEdges(name) => {
                write!(f, "node {name:?} still has incident edges")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Endpoint specification of an edge: `ρ(e)` in Definition 2.1.
///
/// Directed edges are *ordered* pairs `(src, dst)`; undirected edges are
/// *unordered* pairs, which this type normalizes so that structural equality
/// matches the mathematical definition (`{u, v} = {v, u}`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Endpoints {
    /// An ordered pair: the edge points from `src` to `dst`.
    Directed {
        /// The edge's source node.
        src: NodeId,
        /// The edge's target node.
        dst: NodeId,
    },
    /// An unordered pair (normalized: smaller id first).
    Undirected(NodeId, NodeId),
}

impl Endpoints {
    /// An ordered pair: the edge points from `src` to `dst`.
    pub fn directed(src: NodeId, dst: NodeId) -> Endpoints {
        Endpoints::Directed { src, dst }
    }

    /// An unordered pair, normalized so `{u,v}` and `{v,u}` compare equal.
    pub fn undirected(u: NodeId, v: NodeId) -> Endpoints {
        if u <= v {
            Endpoints::Undirected(u, v)
        } else {
            Endpoints::Undirected(v, u)
        }
    }

    /// True for ordered pairs.
    pub fn is_directed(&self) -> bool {
        matches!(self, Endpoints::Directed { .. })
    }

    /// The two endpoints, in storage order.
    pub fn pair(&self) -> (NodeId, NodeId) {
        match *self {
            Endpoints::Directed { src, dst } => (src, dst),
            Endpoints::Undirected(u, v) => (u, v),
        }
    }

    /// True if the edge connects `u` (at either end).
    pub fn touches(&self, n: NodeId) -> bool {
        let (a, b) = self.pair();
        a == n || b == n
    }

    /// Given one endpoint, the node at the opposite end (for self loops,
    /// the same node).
    pub fn other(&self, n: NodeId) -> Option<NodeId> {
        let (a, b) = self.pair();
        if a == n {
            Some(b)
        } else if b == n {
            Some(a)
        } else {
            None
        }
    }
}

/// How an incident edge is traversed when leaving a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Traversal {
    /// A directed edge followed source → target.
    Forward,
    /// A directed edge followed target → source (i.e. in reverse).
    Backward,
    /// An undirected edge (no inherent orientation).
    Undirected,
}

/// One entry of a node's adjacency list: take `edge` to reach `to`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Step {
    /// The edge traversed by this step.
    pub edge: EdgeId,
    /// The node the step arrives at.
    pub to: NodeId,
    /// How the edge is traversed (forward, backward, or undirected).
    pub traversal: Traversal,
}

/// Stored record for one node: its external name (e.g. `a1`), `λ` labels,
/// and `π` properties.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeData {
    /// The unique external name (the paper's node identifier).
    pub name: String,
    /// The node's label set `λ(n)`.
    pub labels: BTreeSet<String>,
    /// The node's property map `π(n, ·)`.
    pub properties: BTreeMap<String, Value>,
}

/// Stored record for one edge: endpoints (`ρ`), labels (`λ`), properties (`π`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeData {
    /// The unique external name (the paper's edge identifier).
    pub name: String,
    /// The edge's endpoint pair `ρ(e)`.
    pub endpoints: Endpoints,
    /// The edge's label set `λ(e)`.
    pub labels: BTreeSet<String>,
    /// The edge's property map `π(e, ·)`.
    pub properties: BTreeMap<String, Value>,
}

impl NodeData {
    /// `π(self, key)`, or `Null` when the property is absent (partiality of π).
    pub fn property(&self, key: &str) -> &Value {
        self.properties.get(key).unwrap_or(&Value::Null)
    }

    /// True if `label ∈ λ(self)`.
    pub fn has_label(&self, label: &str) -> bool {
        self.labels.contains(label)
    }
}

impl EdgeData {
    /// `π(self, key)`, or `Null` when the property is absent.
    pub fn property(&self, key: &str) -> &Value {
        self.properties.get(key).unwrap_or(&Value::Null)
    }

    /// True if `label ∈ λ(self)`.
    pub fn has_label(&self, label: &str) -> bool {
        self.labels.contains(label)
    }
}

/// An in-memory property graph.
///
/// Elements have dense ids and unique external names; adjacency lists are
/// kept per node for O(degree) neighbourhood scans in the matcher.
#[derive(Clone, Debug, Default)]
pub struct PropertyGraph {
    nodes: Vec<NodeData>,
    edges: Vec<EdgeData>,
    /// Outgoing steps per node: every incident edge appears once per
    /// traversable direction (directed edges appear Forward at their source
    /// and Backward at their target; undirected edges appear at both ends —
    /// and only once for undirected self loops).
    adjacency: Vec<Vec<Step>>,
    names: HashMap<String, ElementId>,
    /// Lazily computed statistics catalog (see [`GraphStats`]); reset by
    /// every mutation so planners always see numbers for the current graph.
    stats: OnceLock<GraphStats>,
    /// Lazily built label and equality index over the nodes. Shared by
    /// clones (an `Arc`), so it is dropped by node mutations rather than
    /// maintained: edge mutations leave every node id, label and
    /// property in place and keep it.
    index: OnceLock<Arc<NodeIndex>>,
}

impl PropertyGraph {
    /// An empty graph.
    pub fn new() -> PropertyGraph {
        PropertyGraph::default()
    }

    /// Number of nodes `|N|`.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges `|E|`.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds a node with a unique external `name`.
    ///
    /// # Panics
    /// Panics if the name is already used by another element — external
    /// names play the role of the paper's identifiers, which are unique.
    pub fn add_node<L, P>(&mut self, name: &str, labels: L, properties: P) -> NodeId
    where
        L: IntoIterator,
        L::Item: Into<String>,
        P: IntoIterator<Item = (&'static str, Value)>,
    {
        match self.try_add_node(
            name,
            labels.into_iter().map(Into::into),
            properties.into_iter().map(|(k, v)| (k.to_owned(), v)),
        ) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        }
    }

    /// Adds a node, returning [`GraphError::DuplicateName`] instead of
    /// panicking when the external name is already taken.
    pub fn try_add_node(
        &mut self,
        name: &str,
        labels: impl IntoIterator<Item = String>,
        properties: impl IntoIterator<Item = (String, Value)>,
    ) -> Result<NodeId, GraphError> {
        if self.names.contains_key(name) {
            return Err(GraphError::DuplicateName(name.to_owned()));
        }
        // An already-computed catalog is maintained in place (tallies for
        // one node are O(labels + properties)); a never-computed one
        // stays lazy.
        let cached = self.stats.take();
        let _ = self.index.take();
        let id = NodeId(self.nodes.len() as u32);
        self.names.insert(name.to_owned(), id.into());
        self.nodes.push(NodeData {
            name: name.to_owned(),
            labels: labels.into_iter().collect(),
            properties: properties.into_iter().collect(),
        });
        self.adjacency.push(Vec::new());
        if let Some(mut s) = cached {
            s.apply_add_node(self.nodes.last().expect("just pushed"));
            debug_assert_eq!(
                s,
                GraphStats::compute(self),
                "incremental node stats diverged from full recompute"
            );
            let _ = self.stats.set(s);
        }
        Ok(id)
    }

    /// Adds an edge with a unique external `name`.
    ///
    /// # Panics
    /// Panics if the name is duplicated or an endpoint id is out of range.
    pub fn add_edge<L, P>(
        &mut self,
        name: &str,
        endpoints: Endpoints,
        labels: L,
        properties: P,
    ) -> EdgeId
    where
        L: IntoIterator,
        L::Item: Into<String>,
        P: IntoIterator<Item = (&'static str, Value)>,
    {
        let (a, b) = endpoints.pair();
        assert!(a.index() < self.nodes.len(), "endpoint {a:?} out of range");
        assert!(b.index() < self.nodes.len(), "endpoint {b:?} out of range");
        match self.try_add_edge(
            name,
            endpoints,
            labels.into_iter().map(Into::into),
            properties.into_iter().map(|(k, v)| (k.to_owned(), v)),
        ) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        }
    }

    /// Adds an edge, returning a [`GraphError`] instead of panicking on a
    /// duplicate name or an out-of-range endpoint.
    pub fn try_add_edge(
        &mut self,
        name: &str,
        endpoints: Endpoints,
        labels: impl IntoIterator<Item = String>,
        properties: impl IntoIterator<Item = (String, Value)>,
    ) -> Result<EdgeId, GraphError> {
        let (a, b) = endpoints.pair();
        if a.index() >= self.nodes.len() {
            return Err(GraphError::UnknownNode(format!("{a:?}")));
        }
        if b.index() >= self.nodes.len() {
            return Err(GraphError::UnknownNode(format!("{b:?}")));
        }
        if self.names.contains_key(name) {
            return Err(GraphError::DuplicateName(name.to_owned()));
        }
        // Maintained in place like in `try_add_node`; the degree refresh
        // only touches the two endpoints.
        let cached = self.stats.take();
        let id = EdgeId(self.edges.len() as u32);
        self.names.insert(name.to_owned(), id.into());
        self.edges.push(EdgeData {
            name: name.to_owned(),
            endpoints,
            labels: labels.into_iter().collect(),
            properties: properties.into_iter().collect(),
        });
        match endpoints {
            Endpoints::Directed { src, dst } => {
                self.adjacency[src.index()].push(Step {
                    edge: id,
                    to: dst,
                    traversal: Traversal::Forward,
                });
                self.adjacency[dst.index()].push(Step {
                    edge: id,
                    to: src,
                    traversal: Traversal::Backward,
                });
            }
            Endpoints::Undirected(u, v) => {
                self.adjacency[u.index()].push(Step {
                    edge: id,
                    to: v,
                    traversal: Traversal::Undirected,
                });
                if u != v {
                    self.adjacency[v.index()].push(Step {
                        edge: id,
                        to: u,
                        traversal: Traversal::Undirected,
                    });
                }
            }
        }
        if let Some(mut s) = cached {
            s.apply_add_edge(self, &self.edges[id.index()]);
            debug_assert_eq!(
                s,
                GraphStats::compute(self),
                "incremental edge stats diverged from full recompute"
            );
            let _ = self.stats.set(s);
        }
        Ok(id)
    }

    /// Sets `π(el, key) = value`; a [`Value::Null`] removes the property
    /// (restoring π's partiality at that key). The cached statistics
    /// catalog is invalidated and recomputed lazily on next use, and so
    /// is the node index when `el` is a node.
    pub fn set_property(&mut self, el: ElementId, key: &str, value: Value) {
        // Property edits can retarget planner-visible selectivities in
        // ways the incremental add path never models, so drop the cache.
        let _ = self.stats.take();
        let props = match el {
            ElementId::Node(n) => {
                let _ = self.index.take();
                &mut self.nodes[n.index()].properties
            }
            ElementId::Edge(e) => &mut self.edges[e.index()].properties,
        };
        if value == Value::Null {
            props.remove(key);
        } else {
            props.insert(key.to_owned(), value);
        }
    }

    /// Removes an element. Edges are always removable; a node is removable
    /// only once no edges are incident to it ([`GraphError::NodeHasEdges`]
    /// otherwise). Ids stay dense: every element with a higher id of the
    /// same kind is shifted down by one, in adjacency and the name index
    /// alike. The cached statistics catalog is invalidated, and removing
    /// a node also drops the node index.
    pub fn remove_element(&mut self, el: ElementId) -> Result<(), GraphError> {
        match el {
            ElementId::Edge(e) => {
                if e.index() >= self.edges.len() {
                    return Err(GraphError::UnknownElement(format!("{e:?}")));
                }
                let _ = self.stats.take();
                let data = self.edges.remove(e.index());
                self.names.remove(&data.name);
                for adj in &mut self.adjacency {
                    adj.retain(|s| s.edge != e);
                    for s in adj.iter_mut() {
                        if s.edge.0 > e.0 {
                            s.edge.0 -= 1;
                        }
                    }
                }
                for (i, ed) in self.edges.iter().enumerate().skip(e.index()) {
                    self.names.insert(ed.name.clone(), EdgeId(i as u32).into());
                }
                Ok(())
            }
            ElementId::Node(n) => {
                if n.index() >= self.nodes.len() {
                    return Err(GraphError::UnknownElement(format!("{n:?}")));
                }
                if !self.adjacency[n.index()].is_empty() {
                    return Err(GraphError::NodeHasEdges(self.nodes[n.index()].name.clone()));
                }
                let _ = self.stats.take();
                let _ = self.index.take();
                let data = self.nodes.remove(n.index());
                self.adjacency.remove(n.index());
                self.names.remove(&data.name);
                // The removed node had degree 0, so no endpoint equals `n`;
                // only higher ids shift (which preserves the normalized
                // order of undirected pairs).
                for ed in &mut self.edges {
                    ed.endpoints = match ed.endpoints {
                        Endpoints::Directed { mut src, mut dst } => {
                            if src.0 > n.0 {
                                src.0 -= 1;
                            }
                            if dst.0 > n.0 {
                                dst.0 -= 1;
                            }
                            Endpoints::Directed { src, dst }
                        }
                        Endpoints::Undirected(mut u, mut v) => {
                            if u.0 > n.0 {
                                u.0 -= 1;
                            }
                            if v.0 > n.0 {
                                v.0 -= 1;
                            }
                            Endpoints::Undirected(u, v)
                        }
                    };
                }
                for adj in &mut self.adjacency {
                    for s in adj.iter_mut() {
                        if s.to.0 > n.0 {
                            s.to.0 -= 1;
                        }
                    }
                }
                for (i, nd) in self.nodes.iter().enumerate().skip(n.index()) {
                    self.names.insert(nd.name.clone(), NodeId(i as u32).into());
                }
                Ok(())
            }
        }
    }

    /// The full-recompute statistics oracle, promoted from the
    /// `debug_assert` inside the add paths: compares the cached
    /// incrementally-maintained catalog (if any) against
    /// [`GraphStats::compute`]. `Ok` when no catalog is cached — there is
    /// nothing stale to diverge.
    pub fn verify_stats(&self) -> Result<(), String> {
        let Some(cached) = self.stats.get() else {
            return Ok(());
        };
        let full = GraphStats::compute(self);
        if *cached == full {
            Ok(())
        } else {
            Err(format!(
                "cached stats diverged from full recompute:\n cached: {cached:?}\n   full: {full:?}"
            ))
        }
    }

    /// The index oracle, next to [`PropertyGraph::verify_stats`]:
    /// compares the cached node index (if any) against one rebuilt from
    /// a scan of the nodes. `Ok` when no index is cached.
    pub fn verify_index(&self) -> Result<(), String> {
        let Some(cached) = self.index.get() else {
            return Ok(());
        };
        let full = NodeIndex::build(&self.nodes);
        if **cached == full {
            Ok(())
        } else {
            Err(format!(
                "cached node index diverged from a full scan:\n cached: {cached:?}\n   full: {full:?}"
            ))
        }
    }

    fn index(&self) -> &NodeIndex {
        self.index
            .get_or_init(|| Arc::new(NodeIndex::build(&self.nodes)))
    }

    /// The nodes carrying `label`, in ascending id order. The index
    /// behind it is built on first use and dropped by node mutations.
    pub fn nodes_with_label(&self, label: &str) -> &[NodeId] {
        self.index().label(label)
    }

    /// The nodes carrying `label` whose property `key` equals `value`, in
    /// ascending id order — exactly the nodes for which
    /// `value.sql_eq(π(n, key)) == Some(true)` among those labeled
    /// `label`. `None` when `value` is neither a string nor a boolean:
    /// only those types are indexed, because only for them is query
    /// equality structural equality (`Int(2) = Float(2.0)`, and `NULL`
    /// equals nothing).
    pub fn nodes_with_prop(&self, label: &str, key: &str, value: &Value) -> Option<&[NodeId]> {
        self.index().prop(label, key, value)
    }

    /// The record of node `n`.
    pub fn node(&self, n: NodeId) -> &NodeData {
        &self.nodes[n.index()]
    }

    /// The record of edge `e`.
    pub fn edge(&self, e: EdgeId) -> &EdgeData {
        &self.edges[e.index()]
    }

    /// Labels of either kind of element.
    pub fn labels(&self, el: ElementId) -> &BTreeSet<String> {
        match el {
            ElementId::Node(n) => &self.node(n).labels,
            ElementId::Edge(e) => &self.edge(e).labels,
        }
    }

    /// `π(el, key)` with `Null` for absent properties.
    pub fn property(&self, el: ElementId, key: &str) -> &Value {
        match el {
            ElementId::Node(n) => self.node(n).property(key),
            ElementId::Edge(e) => self.edge(e).property(key),
        }
    }

    /// External name of an element (`a1`, `t4`, ...).
    pub fn name(&self, el: ElementId) -> &str {
        match el {
            ElementId::Node(n) => &self.node(n).name,
            ElementId::Edge(e) => &self.edge(e).name,
        }
    }

    /// Looks an element up by external name.
    pub fn by_name(&self, name: &str) -> Option<ElementId> {
        self.names.get(name).copied()
    }

    /// Looks a node up by external name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.by_name(name).and_then(ElementId::as_node)
    }

    /// Looks an edge up by external name.
    pub fn edge_by_name(&self, name: &str) -> Option<EdgeId> {
        self.by_name(name).and_then(ElementId::as_edge)
    }

    /// All node ids in insertion order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// All edge ids in insertion order.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Every traversable step out of `n` (directed out-edges forward,
    /// directed in-edges backward, undirected edges once per distinct end).
    pub fn steps(&self, n: NodeId) -> &[Step] {
        &self.adjacency[n.index()]
    }

    /// Number of directed edges whose source is `n`.
    pub fn out_degree(&self, n: NodeId) -> usize {
        self.adjacency[n.index()]
            .iter()
            .filter(|s| s.traversal == Traversal::Forward)
            .count()
    }

    /// Total number of incident traversal directions at `n`.
    pub fn degree(&self, n: NodeId) -> usize {
        self.adjacency[n.index()].len()
    }

    /// The statistics catalog for this graph, computed on first use and
    /// cached until the next mutation. See [`GraphStats`].
    pub fn stats(&self) -> &GraphStats {
        self.stats.get_or_init(|| GraphStats::compute(self))
    }

    /// Checks internal consistency: adjacency mirrors `ρ`, names are unique
    /// and resolvable. Used by tests and debug assertions.
    pub fn validate(&self) -> Result<(), String> {
        for e in self.edges() {
            let ep = self.edge(e).endpoints;
            let (a, b) = ep.pair();
            if a.index() >= self.nodes.len() || b.index() >= self.nodes.len() {
                return Err(format!("edge {e:?} has dangling endpoint"));
            }
        }
        for n in self.nodes() {
            for s in self.steps(n) {
                let ep = self.edge(s.edge).endpoints;
                if !ep.touches(n) || ep.other(n) != Some(s.to) {
                    return Err(format!("adjacency of {n:?} disagrees with ρ"));
                }
                match (s.traversal, ep) {
                    (Traversal::Forward, Endpoints::Directed { src, .. }) if src == n => {}
                    (Traversal::Backward, Endpoints::Directed { dst, .. }) if dst == n => {}
                    (Traversal::Undirected, Endpoints::Undirected(..)) => {}
                    _ => return Err(format!("bad traversal kind at {n:?}")),
                }
            }
        }
        if self.names.len() != self.nodes.len() + self.edges.len() {
            return Err("name index size mismatch".to_owned());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (PropertyGraph, [NodeId; 3], [EdgeId; 4]) {
        let mut g = PropertyGraph::new();
        let a = g.add_node("a", ["L"], [("x", Value::Int(1))]);
        let b = g.add_node("b", ["L", "M"], []);
        let c = g.add_node("c", Vec::<String>::new(), []);
        let e1 = g.add_edge("e1", Endpoints::directed(a, b), ["T"], []);
        let e2 = g.add_edge("e2", Endpoints::directed(a, b), ["T"], []);
        let e3 = g.add_edge("e3", Endpoints::undirected(b, c), ["U"], []);
        let e4 = g.add_edge("e4", Endpoints::directed(c, c), ["T"], []);
        (g, [a, b, c], [e1, e2, e3, e4])
    }

    #[test]
    fn multigraph_and_self_loops_are_allowed() {
        let (g, [a, b, c], [e1, e2, _, e4]) = diamond();
        assert_eq!(g.edge(e1).endpoints, g.edge(e2).endpoints);
        assert_ne!(e1, e2);
        assert_eq!(g.edge(e4).endpoints, Endpoints::directed(c, c));
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.degree(b), 3); // two backward + one undirected
        g.validate().unwrap();
    }

    #[test]
    fn undirected_endpoints_are_unordered() {
        assert_eq!(
            Endpoints::undirected(NodeId(5), NodeId(2)),
            Endpoints::undirected(NodeId(2), NodeId(5))
        );
        assert_ne!(
            Endpoints::directed(NodeId(5), NodeId(2)),
            Endpoints::directed(NodeId(2), NodeId(5))
        );
    }

    #[test]
    fn adjacency_directions() {
        let (g, [a, b, c], [_, _, e3, e4]) = diamond();
        let back_at_b: Vec<_> = g
            .steps(b)
            .iter()
            .filter(|s| s.traversal == Traversal::Backward)
            .collect();
        assert_eq!(back_at_b.len(), 2);
        assert!(back_at_b.iter().all(|s| s.to == a));
        let undirected_at_c: Vec<_> = g.steps(c).iter().filter(|s| s.edge == e3).collect();
        assert_eq!(undirected_at_c.len(), 1);
        assert_eq!(undirected_at_c[0].to, b);
        // A directed self loop is traversable both ways from its node.
        let loops: Vec<_> = g.steps(c).iter().filter(|s| s.edge == e4).collect();
        assert_eq!(loops.len(), 2);
    }

    #[test]
    fn undirected_self_loop_listed_once() {
        let mut g = PropertyGraph::new();
        let a = g.add_node("a", ["L"], []);
        let e = g.add_edge("e", Endpoints::undirected(a, a), ["U"], []);
        let entries: Vec<_> = g.steps(a).iter().filter(|s| s.edge == e).collect();
        assert_eq!(entries.len(), 1);
        g.validate().unwrap();
    }

    #[test]
    fn properties_default_to_null() {
        let (g, [a, ..], _) = diamond();
        assert_eq!(g.node(a).property("x"), &Value::Int(1));
        assert_eq!(g.node(a).property("missing"), &Value::Null);
        assert_eq!(g.property(a.into(), "missing"), &Value::Null);
    }

    #[test]
    fn name_lookup() {
        let (g, [a, ..], [e1, ..]) = diamond();
        assert_eq!(g.node_by_name("a"), Some(a));
        assert_eq!(g.edge_by_name("e1"), Some(e1));
        assert_eq!(g.node_by_name("e1"), None);
        assert_eq!(g.by_name("zzz"), None);
        assert_eq!(g.name(a.into()), "a");
    }

    #[test]
    #[should_panic(expected = "duplicate element name")]
    fn duplicate_names_rejected() {
        let mut g = PropertyGraph::new();
        g.add_node("a", ["L"], []);
        g.add_node("a", ["L"], []);
    }

    #[test]
    fn try_variants_report_typed_errors() {
        let (mut g, [a, ..], _) = diamond();
        assert_eq!(
            g.try_add_node("a", [], []),
            Err(GraphError::DuplicateName("a".to_owned()))
        );
        assert_eq!(
            g.try_add_edge("zz", Endpoints::directed(a, NodeId(99)), [], []),
            Err(GraphError::UnknownNode(format!("{:?}", NodeId(99))))
        );
        assert_eq!(
            g.try_add_edge("e1", Endpoints::directed(a, a), [], []),
            Err(GraphError::DuplicateName("e1".to_owned()))
        );
        g.validate().unwrap();
    }

    #[test]
    fn set_property_inserts_updates_and_null_removes() {
        let (mut g, [a, ..], [e1, ..]) = diamond();
        g.stats(); // prime the cache so invalidation is exercised
        g.set_property(a.into(), "x", Value::Int(7));
        assert_eq!(g.node(a).property("x"), &Value::Int(7));
        g.set_property(a.into(), "x", Value::Null);
        assert_eq!(g.node(a).property("x"), &Value::Null);
        g.set_property(e1.into(), "w", Value::str("hi"));
        assert_eq!(g.edge(e1).property("w"), &Value::str("hi"));
        g.verify_stats().unwrap();
        g.stats();
        g.verify_stats().unwrap();
    }

    #[test]
    fn remove_edge_shifts_higher_ids_densely() {
        let (mut g, [a, b, c], [e1, _, e3, e4]) = diamond();
        g.remove_element(ElementId::Edge(EdgeId(1))).unwrap(); // e2
        assert_eq!(g.edge_count(), 3);
        // e3/e4 shifted down by one; names still resolve.
        assert_eq!(g.edge_by_name("e1"), Some(e1));
        assert_eq!(g.edge_by_name("e3"), Some(EdgeId(1)));
        assert_eq!(g.edge_by_name("e4"), Some(EdgeId(2)));
        assert_eq!(g.edge_by_name("e2"), None);
        assert_eq!(g.out_degree(a), 1);
        assert_eq!(
            g.edge(g.edge_by_name("e3").unwrap()).endpoints,
            g.edge(EdgeId(1)).endpoints
        );
        let _ = (b, c, e3, e4);
        g.validate().unwrap();
    }

    #[test]
    fn remove_node_requires_degree_zero_and_compacts() {
        let (mut g, [_, b, _], _) = diamond();
        assert_eq!(
            g.remove_element(ElementId::Node(b)),
            Err(GraphError::NodeHasEdges("b".to_owned()))
        );
        let d = g.add_node("d", ["L"], []);
        let e = g.add_node("e", Vec::<String>::new(), []);
        g.remove_element(ElementId::Node(d)).unwrap();
        // `e` shifted into d's slot; adjacency and names stay coherent.
        assert_eq!(g.node_by_name("e"), Some(d));
        assert_eq!(g.node_by_name("d"), None);
        assert_eq!(g.node_count(), 4);
        let _ = e;
        g.validate().unwrap();
    }

    #[test]
    fn labels_of_elements() {
        let (g, [_, b, _], [e1, ..]) = diamond();
        assert!(g.node(b).has_label("M"));
        assert!(!g.node(b).has_label("T"));
        assert!(g.edge(e1).has_label("T"));
        assert_eq!(g.labels(b.into()).len(), 2);
    }

    #[test]
    fn index_probes_labels_and_structural_values() {
        let mut g = PropertyGraph::new();
        let a = g.add_node(
            "a",
            ["L"],
            [("k", Value::str("x")), ("b", Value::Bool(true))],
        );
        let b = g.add_node(
            "b",
            ["L", "M"],
            [("k", Value::str("x")), ("n", Value::Int(2))],
        );
        let c = g.add_node("c", ["M"], [("k", Value::str("y"))]);
        assert_eq!(g.nodes_with_label("L"), [a, b]);
        assert_eq!(g.nodes_with_label("M"), [b, c]);
        assert!(g.nodes_with_label("Nope").is_empty());
        assert_eq!(
            g.nodes_with_prop("L", "k", &Value::str("x")),
            Some(&[a, b][..])
        );
        assert_eq!(
            g.nodes_with_prop("M", "k", &Value::str("x")),
            Some(&[b][..])
        );
        assert_eq!(
            g.nodes_with_prop("L", "b", &Value::Bool(true)),
            Some(&[a][..])
        );
        assert_eq!(
            g.nodes_with_prop("L", "b", &Value::Bool(false)),
            Some(&[][..])
        );
        assert_eq!(
            g.nodes_with_prop("Nope", "k", &Value::str("x")),
            Some(&[][..])
        );
        // Numbers and NULL are not indexed: `Int(2) = Float(2.0)` under
        // query equality, and NULL equals nothing.
        assert_eq!(g.nodes_with_prop("L", "n", &Value::Int(2)), None);
        assert_eq!(g.nodes_with_prop("L", "n", &Value::Float(2.0)), None);
        assert_eq!(g.nodes_with_prop("L", "k", &Value::Null), None);
        g.verify_index().unwrap();
    }

    #[test]
    fn node_mutations_drop_the_index_and_clones_keep_theirs() {
        let (mut g, [a, b, c], [e1, ..]) = diamond();
        assert_eq!(g.nodes_with_label("L"), [a, b]);
        let before = g.clone();
        // Edge mutations keep the index: no node id, label or property moved.
        g.add_edge("e5", Endpoints::directed(a, c), ["T"], []);
        g.set_property(e1.into(), "w", Value::Int(1));
        g.remove_element(ElementId::Edge(e1)).unwrap();
        assert!(g.index.get().is_some());
        g.verify_index().unwrap();
        // Node mutations drop it.
        g.set_property(c.into(), "k", Value::str("z"));
        assert!(g.index.get().is_none());
        assert_eq!(g.nodes_with_prop("U", "k", &Value::str("z")), Some(&[][..]));
        let d = g.add_node("d", ["L"], [("k", Value::str("z"))]);
        assert_eq!(
            g.nodes_with_prop("L", "k", &Value::str("z")),
            Some(&[d][..])
        );
        g.remove_element(ElementId::Node(d)).unwrap();
        assert_eq!(g.nodes_with_label("L"), [a, b]);
        g.verify_index().unwrap();
        // The clone taken before any of it still answers for its own graph.
        assert_eq!(before.nodes_with_label("L"), [a, b]);
        assert_eq!(
            before.nodes_with_prop("L", "k", &Value::str("z")),
            Some(&[][..])
        );
        before.verify_index().unwrap();
    }
}
