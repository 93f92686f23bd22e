//! The [`PropertyGraph`] container and its adjacency structure.
//!
//! # Layout
//!
//! Labels are interned per graph: the symbol table maps each label name
//! to a [`LabelSym`], and each distinct label set is stored once, as its
//! names (shared by every element carrying it) and as a [`LabelSet`] over
//! the symbols, so a matcher resolves a label expression once and then
//! tests integers. Each node has one adjacency array whose steps are
//! grouped by (traversal, edge label set), one contiguous run per group,
//! with a small directory of group ends. A pattern step reads only the
//! groups its orientation and label admit
//! ([`PropertyGraph::typed_steps`]); [`PropertyGraph::steps`] still
//! returns the whole array. Every mutator maintains symbols, sets and
//! groups in place, and [`PropertyGraph::verify_layout`] rebuilds them
//! from the element records to check it.

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

/// An interned label name: an index into the graph's label symbol table.
/// Symbols are only meaningful for the graph that issued them
/// ([`PropertyGraph::label_sym`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LabelSym(u32);

/// An element's label set over the graph's symbols: a bitmask of the
/// first 64 symbols and a sorted list of any others, so a membership test
/// is a bit test while the graph has at most 64 labels.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LabelSet {
    low: u64,
    high: Box<[u32]>,
}

impl LabelSet {
    /// True if the set holds `label`.
    #[inline]
    pub fn contains(&self, label: LabelSym) -> bool {
        match label.0 {
            s @ 0..64 => self.low >> s & 1 != 0,
            s => self.high.binary_search(&s).is_ok(),
        }
    }

    /// True for the empty label set.
    pub fn is_empty(&self) -> bool {
        self.low == 0 && self.high.is_empty()
    }
}

/// The id of a distinct label set in the graph's [`Labels`] table.
type SetId = u32;

/// The per-graph label tables: label symbols, and every distinct label
/// set any element has carried, by [`SetId`]. An element holds the shared
/// name set of its label set and the set's id, so elements with equal
/// labels share one allocation. Symbols and sets are never dropped: a
/// label whose last element is removed keeps its symbol and matches
/// nothing.
#[derive(Clone, Debug, Default)]
struct Labels {
    syms: HashMap<String, LabelSym>,
    /// Per set id: the label names and their symbols.
    sets: Vec<(Arc<BTreeSet<String>>, LabelSet)>,
    set_ids: HashMap<Arc<BTreeSet<String>>, SetId>,
}

impl Labels {
    fn sym(&self, name: &str) -> Option<LabelSym> {
        self.syms.get(name).copied()
    }

    /// The id and shared names of `labels`, interning the set and its
    /// labels on first sight.
    fn intern(&mut self, labels: BTreeSet<String>) -> (SetId, Arc<BTreeSet<String>>) {
        if let Some(&id) = self.set_ids.get(&labels) {
            return (id, Arc::clone(&self.sets[id as usize].0));
        }
        for l in &labels {
            if !self.syms.contains_key(l) {
                let sym = LabelSym(self.syms.len() as u32);
                self.syms.insert(l.clone(), sym);
            }
        }
        let syms = self.symbols_of(&labels).unwrap_or_default();
        let id = self.sets.len() as SetId;
        let names = Arc::new(labels);
        self.sets.push((Arc::clone(&names), syms));
        self.set_ids.insert(Arc::clone(&names), id);
        (id, names)
    }

    /// The symbol set of `labels`; `None` when one of them has no symbol.
    fn symbols_of(&self, labels: &BTreeSet<String>) -> Option<LabelSet> {
        let mut set = LabelSet::default();
        let mut high = Vec::new();
        for l in labels {
            match self.sym(l)?.0 {
                s @ 0..64 => set.low |= 1 << s,
                s => high.push(s),
            }
        }
        high.sort_unstable();
        set.high = high.into();
        Some(set)
    }
}

/// The steps edge `id` with `endpoints` adds, each with the node it
/// leaves from: forward at the source and backward at the target of a
/// directed edge, one step per distinct end of an undirected one.
fn steps_of(id: EdgeId, endpoints: Endpoints) -> impl Iterator<Item = (NodeId, Step)> {
    let step = |to, traversal| Step {
        edge: id,
        to,
        traversal,
    };
    let (first, second) = match endpoints {
        Endpoints::Directed { src, dst } => (
            (src, step(dst, Traversal::Forward)),
            Some((dst, step(src, Traversal::Backward))),
        ),
        Endpoints::Undirected(u, v) => (
            (u, step(v, Traversal::Undirected)),
            (u != v).then(|| (v, step(u, Traversal::Undirected))),
        ),
    };
    std::iter::once(first).chain(second)
}

/// One run of a node's adjacency: the steps of one traversal kind over
/// edges with one label set.
#[derive(Clone, Copy, Debug)]
struct Group {
    traversal: Traversal,
    set: SetId,
    /// One past the run's last step; the run starts where the previous
    /// group ends.
    end: u32,
}

/// One node's adjacency: every step, grouped by (traversal, edge label
/// set) into contiguous runs, and the directory of those runs. Groups are
/// never empty, and no two share a key.
#[derive(Clone, Debug, Default)]
struct Adjacency {
    steps: Vec<Step>,
    groups: Vec<Group>,
}

impl Adjacency {
    /// Adds `step`, over an edge with label set `set`, to the group of
    /// its key, opening a new group at the end when there is none.
    fn insert(&mut self, step: Step, set: SetId) {
        let key = |g: &Group| (g.traversal, g.set) == (step.traversal, set);
        match self.groups.iter().position(key) {
            Some(i) => {
                self.steps.insert(self.groups[i].end as usize, step);
                for later in &mut self.groups[i..] {
                    later.end += 1;
                }
            }
            None => {
                self.steps.push(step);
                self.groups.push(Group {
                    traversal: step.traversal,
                    set,
                    end: self.steps.len() as u32,
                });
            }
        }
    }

    /// Drops every step over edge `e`, and any group left empty.
    fn remove_edge(&mut self, e: EdgeId) {
        let steps = &mut self.steps;
        let (mut kept, mut start) = (0usize, 0usize);
        self.groups.retain_mut(|g| {
            let before = kept;
            for j in start..g.end as usize {
                if steps[j].edge != e {
                    steps[kept] = steps[j];
                    kept += 1;
                }
            }
            start = g.end as usize;
            g.end = kept as u32;
            kept > before
        });
        steps.truncate(kept);
    }
}

/// Stored record for one node: its external name (e.g. `a1`), `λ` labels,
/// and `π` properties.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeData {
    /// The unique external name (the paper's node identifier).
    pub name: String,
    /// The node's label set `λ(n)`, shared by every element with the
    /// same labels.
    pub labels: Arc<BTreeSet<String>>,
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
    /// The edge's label set `λ(e)`, shared by every element with the
    /// same labels.
    pub labels: Arc<BTreeSet<String>>,
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
/// Elements have dense ids and unique external names; adjacency is kept
/// per node, grouped by traversal and edge label set (see the module
/// docs), for neighbourhood scans that read only the steps a pattern can
/// take.
#[derive(Clone, Debug, Default)]
pub struct PropertyGraph {
    nodes: Vec<NodeData>,
    edges: Vec<EdgeData>,
    /// Label symbols and sets, and each element's label set id.
    labels: Labels,
    node_sets: Vec<SetId>,
    edge_sets: Vec<SetId>,
    /// Steps per node: every incident edge appears once per traversable
    /// direction (directed edges appear Forward at their source and
    /// Backward at their target; undirected edges appear at both ends —
    /// and only once for undirected self loops).
    adjacency: Vec<Adjacency>,
    names: HashMap<String, ElementId>,
    /// Lazily computed statistics catalog (see [`GraphStats`]). Shared
    /// by clones (an `Arc`) and dropped, never patched, by every
    /// mutation: no mutation may leave a catalog stale.
    stats: OnceLock<Arc<GraphStats>>,
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
        let _ = self.stats.take();
        let _ = self.index.take();
        let id = NodeId(self.nodes.len() as u32);
        self.names.insert(name.to_owned(), id.into());
        let (set, labels) = self.labels.intern(labels.into_iter().collect());
        self.node_sets.push(set);
        self.nodes.push(NodeData {
            name: name.to_owned(),
            labels,
            properties: properties.into_iter().collect(),
        });
        self.adjacency.push(Adjacency::default());
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
        let _ = self.stats.take();
        let id = EdgeId(self.edges.len() as u32);
        self.names.insert(name.to_owned(), id.into());
        let (set, labels) = self.labels.intern(labels.into_iter().collect());
        self.edge_sets.push(set);
        self.edges.push(EdgeData {
            name: name.to_owned(),
            endpoints,
            labels,
            properties: properties.into_iter().collect(),
        });
        for (at, step) in steps_of(id, endpoints) {
            self.adjacency[at.index()].insert(step, set);
        }
        Ok(id)
    }

    /// Sets `π(el, key) = value`; a [`Value::Null`] removes the property
    /// (restoring π's partiality at that key). The cached statistics
    /// catalog is invalidated and recomputed lazily on next use, and so
    /// is the node index when `el` is a node.
    pub fn set_property(&mut self, el: ElementId, key: &str, value: Value) {
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
                self.edge_sets.remove(e.index());
                self.names.remove(&data.name);
                let (a, b) = data.endpoints.pair();
                self.adjacency[a.index()].remove_edge(e);
                self.adjacency[b.index()].remove_edge(e);
                for adj in &mut self.adjacency {
                    for s in &mut adj.steps {
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
                if !self.adjacency[n.index()].steps.is_empty() {
                    return Err(GraphError::NodeHasEdges(self.nodes[n.index()].name.clone()));
                }
                let _ = self.stats.take();
                let _ = self.index.take();
                let data = self.nodes.remove(n.index());
                self.node_sets.remove(n.index());
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
                    for s in &mut adj.steps {
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

    /// The statistics oracle: compares the cached catalog (if any) against
    /// [`GraphStats::compute`]. Every mutation drops the catalog, so a
    /// difference means a mutation left a stale one behind. `Ok` when no
    /// catalog is cached — there is nothing stale to diverge.
    pub fn verify_stats(&self) -> Result<(), String> {
        let Some(cached) = self.stats.get() else {
            return Ok(());
        };
        let full = GraphStats::compute(self);
        if **cached == full {
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
    /// directed in-edges backward, undirected edges once per distinct
    /// end), grouped by traversal and edge label set.
    pub fn steps(&self, n: NodeId) -> &[Step] {
        &self.adjacency[n.index()].steps
    }

    /// The steps out of `n` whose traversal `traversal` admits and, when
    /// `label` is given, whose edge carries it: only the groups of `n`'s
    /// adjacency that match are read. An edge with several labels is
    /// found under each of them.
    #[inline]
    pub fn typed_steps<F: Fn(Traversal) -> bool>(
        &self,
        n: NodeId,
        traversal: F,
        label: Option<LabelSym>,
    ) -> TypedSteps<'_, F> {
        let adj = &self.adjacency[n.index()];
        TypedSteps {
            graph: self,
            steps: &adj.steps,
            groups: adj.groups.iter(),
            start: 0,
            run: [].iter(),
            traversal,
            label,
        }
    }

    /// The symbol of label `name`, or `None` when no element of this
    /// graph has ever carried it (so no element carries it now).
    pub fn label_sym(&self, name: &str) -> Option<LabelSym> {
        self.labels.sym(name)
    }

    /// Node `n`'s labels as symbols.
    #[inline]
    pub fn node_label_syms(&self, n: NodeId) -> &LabelSet {
        &self.labels.sets[self.node_sets[n.index()] as usize].1
    }

    /// Edge `e`'s labels as symbols.
    #[inline]
    pub fn edge_label_syms(&self, e: EdgeId) -> &LabelSet {
        &self.labels.sets[self.edge_sets[e.index()] as usize].1
    }

    /// Number of directed edges whose source is `n`.
    pub fn out_degree(&self, n: NodeId) -> usize {
        self.typed_steps(n, |t| t == Traversal::Forward, None)
            .count()
    }

    /// Total number of incident traversal directions at `n`.
    pub fn degree(&self, n: NodeId) -> usize {
        self.steps(n).len()
    }

    /// The statistics catalog for this graph, computed on first use,
    /// shared by clones and dropped by the next mutation. See
    /// [`GraphStats`].
    pub fn stats(&self) -> &GraphStats {
        self.stats
            .get_or_init(|| Arc::new(GraphStats::compute(self)))
    }

    /// The layout oracle, next to [`PropertyGraph::verify_index`]:
    /// rebuilds the label tables' symbol sets and every node's steps from
    /// the element records and compares them with the maintained ones,
    /// and checks the group directory — groups non-empty, one per
    /// (traversal, edge label set), every step in the group of its key.
    pub fn verify_layout(&self) -> Result<(), String> {
        let labels = &self.labels;
        let mut ids: Vec<u32> = labels.syms.values().map(|s| s.0).collect();
        ids.sort_unstable();
        let bijective = ids.iter().copied().eq(0..ids.len() as u32)
            && labels.set_ids.len() == labels.sets.len()
            && (labels.sets.iter().enumerate()).all(|(i, (names, syms))| {
                labels.set_ids.get(names) == Some(&(i as SetId))
                    && labels.symbols_of(names).as_ref() == Some(syms)
            });
        if !bijective {
            return Err("label tables are not bijections".to_owned());
        }
        if self.node_sets.len() != self.nodes.len()
            || self.edge_sets.len() != self.edges.len()
            || self.adjacency.len() != self.nodes.len()
        {
            return Err("layout vectors and element records differ in length".to_owned());
        }
        let set_of = |names: &Arc<BTreeSet<String>>, id: SetId| {
            labels
                .sets
                .get(id as usize)
                .is_some_and(|(n, _)| n == names)
        };
        for n in self.nodes() {
            if !set_of(&self.node(n).labels, self.node_sets[n.index()]) {
                return Err(format!("label set of {n:?} diverged from its labels"));
            }
        }
        let mut rebuilt: Vec<Vec<Step>> = vec![Vec::new(); self.nodes.len()];
        for e in self.edges() {
            let data = self.edge(e);
            if !set_of(&data.labels, self.edge_sets[e.index()]) {
                return Err(format!("label set of {e:?} diverged from its labels"));
            }
            let (a, b) = data.endpoints.pair();
            if a.index() >= self.nodes.len() || b.index() >= self.nodes.len() {
                return Err(format!("edge {e:?} has dangling endpoint"));
            }
            for (at, step) in steps_of(e, data.endpoints) {
                rebuilt[at.index()].push(step);
            }
        }
        let key = |s: &Step| (s.edge, s.to, s.traversal as u8);
        for (n, (adj, mut want)) in self.adjacency.iter().zip(rebuilt).enumerate() {
            let n = NodeId(n as u32);
            let mut have = adj.steps.clone();
            have.sort_by_key(key);
            want.sort_by_key(key);
            if have != want {
                return Err(format!("steps of {n:?} disagree with ρ"));
            }
            let mut start = 0usize;
            for (i, g) in adj.groups.iter().enumerate() {
                let end = g.end as usize;
                let run = adj.steps.get(start..end).unwrap_or_default();
                let grouped = !run.is_empty()
                    && run.iter().all(|s| {
                        s.traversal == g.traversal && self.edge_sets[s.edge.index()] == g.set
                    })
                    && !adj.groups[..i]
                        .iter()
                        .any(|h| (h.traversal, h.set) == (g.traversal, g.set));
                if !grouped {
                    return Err(format!("bad step grouping at {n:?}"));
                }
                start = end;
            }
            if start != adj.steps.len() {
                return Err(format!("ungrouped steps at {n:?}"));
            }
        }
        Ok(())
    }

    /// Checks internal consistency: the layout mirrors the element
    /// records ([`PropertyGraph::verify_layout`]), names are unique and
    /// resolvable. Used by tests and debug assertions.
    pub fn validate(&self) -> Result<(), String> {
        self.verify_layout()?;
        if self.names.len() != self.nodes.len() + self.edges.len() {
            return Err("name index size mismatch".to_owned());
        }
        Ok(())
    }
}

/// The iterator of [`PropertyGraph::typed_steps`]: the steps of one
/// node's matching groups, group by group.
pub struct TypedSteps<'g, F> {
    graph: &'g PropertyGraph,
    steps: &'g [Step],
    groups: std::slice::Iter<'g, Group>,
    /// Where the next group's run starts.
    start: usize,
    run: std::slice::Iter<'g, Step>,
    traversal: F,
    label: Option<LabelSym>,
}

impl<'g, F: Fn(Traversal) -> bool> Iterator for TypedSteps<'g, F> {
    type Item = &'g Step;

    #[inline]
    fn next(&mut self) -> Option<&'g Step> {
        loop {
            if let Some(step) = self.run.next() {
                return Some(step);
            }
            let g = self.groups.next()?;
            let (start, end) = (self.start, g.end as usize);
            self.start = end;
            let sets = &self.graph.labels.sets;
            if (self.traversal)(g.traversal)
                && self
                    .label
                    .is_none_or(|l| sets[g.set as usize].1.contains(l))
            {
                self.run = self.steps[start..end].iter();
            }
        }
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
