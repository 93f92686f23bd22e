//! The search semantics every step of a path-stage search shares.
//!
//! A normalized path pattern compiles to a [`super::flat::FlatProgram`]
//! whose ε-instructions carry the bookkeeping (test a node pattern,
//! open/close a parenthesized scope, enter/exit a quantifier iteration,
//! record an alternation branch) and whose `step` instructions traverse
//! one graph edge under an edge pattern. The flat interpreter owns the
//! ε-closure and the frontier; what lives here is the rest:
//!
//! * the run state of one search branch ([`RunState`]) and its binding
//!   discipline (implicit equi-joins, group accumulation at `IterEnd`);
//! * **restrictors prune during search** (§5.1): each active `TRAIL` /
//!   `ACYCLIC` / `SIMPLE` scope carries the boundary of its sub-walk and
//!   [`try_step`] rejects extensions that would repeat an edge or node;
//! * **selectors drive the search for unbounded quantifiers**
//!   ([`resolve_prune`]): when an unbounded quantifier is covered only by a
//!   selector, the interpreter runs a levelized breadth-first search with
//!   *dominance pruning* — a state whose key (program counter, current
//!   node, capped loop counters, singleton bindings) has already been
//!   reached at `k` strictly shorter lengths is discarded, where `k` is the
//!   number of length groups the selector can keep. Group-variable
//!   accumulations are deliberately excluded from the key: they never
//!   affect future matchability, only outputs, and longer arrivals are
//!   exactly the outputs the selector throws away.
//!
//! Selector-driven search has two executors over the same program. The
//! interpreter's dominance-pruned BFS above serves every selector; a
//! kernel-eligible `ANY` / `ANY SHORTEST` stage runs on the shortest-path
//! kernel ([`super::kernel`]) instead, which picks each partition's
//! canonical walk during its BFS rather than listing every shortest walk
//! for the selector to discard.
//!
//! The search yields raw [`PathBinding`]s; reduction, deduplication, and
//! selector application happen in [`crate::plan`].

use std::collections::{BTreeMap, BTreeSet};

use property_graph::{NodeId, Path, PropertyGraph, Step};

use crate::ast::{EdgePattern, Expr, PathPattern, Restrictor};
use crate::binding::{BoundValue, PathBinding};
use crate::error::{Error, Result};
use crate::eval::filter;
use crate::normalize::is_anonymous;
use crate::params::Params;

/// The join's node sets for one stage (sideways information passing):
/// for each node-typed join key the stage shares with the stages merged
/// before it, the distinct nodes the accumulated rows bind it to. The
/// start variable's set is the stage's start set; the search checks the
/// other entries at `NodeTest`, where a node outside its set can never
/// join and is cut immediately.
pub(crate) type JoinKeyNodes = BTreeMap<String, BTreeSet<NodeId>>;

// ---------------------------------------------------------------------------
// Runtime state
// ---------------------------------------------------------------------------

/// One iteration's variable frame.
#[derive(Clone, Debug)]
pub(crate) struct Frame {
    pub(crate) qid: usize,
    pub(crate) locals: BTreeMap<String, BoundValue>,
    pub(crate) edges_at_start: usize,
}

/// A live restrictor scope over a suffix of the walk.
#[derive(Clone, Debug)]
pub(crate) struct Scope {
    pub(crate) paren: usize,
    pub(crate) restrictor: Restrictor,
    pub(crate) node_start: usize,
    pub(crate) edge_start: usize,
    /// SIMPLE scope that has returned to its start node: no further steps.
    pub(crate) closed: bool,
}

/// Loop bookkeeping for one active quantifier.
#[derive(Clone, Debug)]
pub(crate) struct Loop {
    pub(crate) qid: usize,
    pub(crate) count: u32,
    /// The previous iteration consumed no edges; further iterations cannot
    /// make progress (bodies are homogeneous), so only run them while the
    /// minimum has not been met.
    pub(crate) stalled: bool,
}

#[derive(Clone, Debug)]
pub(crate) struct RunState {
    pub(crate) at: usize,
    pub(crate) path: Path,
    pub(crate) globals: BTreeMap<String, BoundValue>,
    pub(crate) frames: Vec<Frame>,
    pub(crate) scopes: Vec<Scope>,
    pub(crate) loops: Vec<Loop>,
    pub(crate) alt_marks: Vec<u32>,
    /// Prefilters whose variables were not yet bound when encountered;
    /// re-checked when the match completes.
    pub(crate) deferred: Vec<Expr>,
}

/// Where [`RunState::bind_where`] landed a successful binding — the flat
/// engine records this on its undo trail to reverse the bind exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BindSite {
    /// Joined against an existing binding; nothing was inserted.
    Existing,
    /// Inserted fresh into the global map.
    Globals,
    /// Inserted fresh into the innermost frame's locals.
    Frame,
}

impl RunState {
    pub(crate) fn current(&self) -> NodeId {
        self.path.end()
    }

    /// The innermost visible binding of `var`.
    pub(crate) fn lookup(&self, var: &str) -> Option<&BoundValue> {
        for f in self.frames.iter().rev() {
            if let Some(v) = f.locals.get(var) {
                return Some(v);
            }
        }
        self.globals.get(var)
    }

    /// Binds `var` to `value`, enforcing the implicit equi-join when the
    /// variable is already visible. Returns false if the join fails.
    ///
    /// A *group accumulation* visible outside the innermost frame is not a
    /// join partner: each quantifier iteration binds the variable afresh
    /// and the accumulation only collects the per-iteration values.
    fn bind(&mut self, var: &str, value: BoundValue) -> bool {
        self.bind_where(var, value).is_some()
    }

    /// [`RunState::bind`] that additionally reports *where* a successful
    /// bind landed, so callers that must undo the mutation (the flat
    /// interpreter's trail) can reverse exactly what happened. `None`
    /// means the implicit equi-join rejected the binding; rejection never
    /// mutates the state.
    pub(crate) fn bind_where(&mut self, var: &str, value: BoundValue) -> Option<BindSite> {
        if is_anonymous(var) {
            return Some(BindSite::Existing);
        }
        let innermost = self.frames.len().wrapping_sub(1);
        for (i, f) in self.frames.iter().enumerate().rev() {
            if let Some(existing) = f.locals.get(var) {
                if existing.is_singleton() || matches!(existing, BoundValue::Path(_)) {
                    return (*existing == value).then_some(BindSite::Existing);
                }
                // A group in the innermost frame means the variable was
                // already consumed by an inner quantifier this iteration —
                // re-binding it is a (rejected) cross-scope join.
                if i == innermost {
                    return None;
                }
                break; // outer accumulation: shadow with a fresh local
            }
        }
        if self.frames.is_empty() {
            if let Some(existing) = self.globals.get(var) {
                return (*existing == value).then_some(BindSite::Existing);
            }
        } else if let Some(existing) = self.globals.get(var) {
            if existing.is_singleton() {
                // An outer singleton joins with inner references... but a
                // singleton visible from inside a quantifier is the
                // group/singleton conflict analysis rejects; treat as join.
                return (*existing == value).then_some(BindSite::Existing);
            }
            // Outer group accumulation: shadow below.
        }
        let (target, site) = match self.frames.last_mut() {
            Some(f) => (&mut f.locals, BindSite::Frame),
            None => (&mut self.globals, BindSite::Globals),
        };
        target.insert(var.to_owned(), value);
        Some(site)
    }
}

struct StateEnv<'a> {
    state: &'a RunState,
    params: &'a Params,
}

impl filter::Env for StateEnv<'_> {
    fn lookup(&self, var: &str) -> Option<BoundValue> {
        self.state.lookup(var).cloned()
    }

    fn param(&self, name: &str) -> Option<property_graph::Value> {
        self.params.get(name).cloned()
    }
}

// ---------------------------------------------------------------------------
// Search semantics
// ---------------------------------------------------------------------------

/// How aggressively dominated states may be pruned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PruneMode {
    /// Keep everything (restrictors and bounds already make the search
    /// finite).
    Exhaustive,
    /// Keep states reachable within the first `k` distinct arrival
    /// lengths per key (selector-driven search).
    ShortestGroups(usize),
}

/// Decides — graph-independently, so it can run at prepare time — how a
/// stage's search must prune, rejecting patterns whose unbounded
/// quantifiers are covered by neither a restrictor nor a selector (§5).
/// `unrestricted_unbounded` says whether the pattern has an unbounded
/// quantifier outside every restrictor paren (`plan::has_unbounded`).
pub(crate) fn resolve_prune(
    unrestricted_unbounded: bool,
    path_restrictor: Option<Restrictor>,
    selector_groups: Option<usize>,
) -> Result<PruneMode> {
    if unrestricted_unbounded && path_restrictor.is_none() {
        match selector_groups {
            Some(k) => Ok(PruneMode::ShortestGroups(k)),
            None => Err(Error::UnboundedQuantifier {
                quantifier: "*".to_owned(),
            }),
        }
    } else {
        Ok(PruneMode::Exhaustive)
    }
}

/// Attempts one graph step under an edge pattern, returning the successor
/// state if restrictors, bindings, and prefilters all admit it. The step
/// comes from the pattern's [`super::labels::EdgeScan`], which has
/// already checked its orientation and labels.
pub(crate) fn try_step(
    graph: &PropertyGraph,
    params: &Params,
    state: &RunState,
    target: usize,
    ep: &EdgePattern,
    step: Step,
) -> Option<RunState> {
    // Restrictor scopes prune during the search (§5.1).
    for scope in &state.scopes {
        if scope.closed {
            return None;
        }
        match scope.restrictor {
            Restrictor::Trail => {
                if state.path.edges()[scope.edge_start..].contains(&step.edge) {
                    return None;
                }
            }
            Restrictor::Acyclic => {
                if state.path.nodes()[scope.node_start..].contains(&step.to) {
                    return None;
                }
            }
            Restrictor::Simple => {
                let nodes = &state.path.nodes()[scope.node_start..];
                if nodes.contains(&step.to) && step.to != nodes[0] {
                    return None;
                }
            }
        }
    }

    let mut next = state.clone();
    next.at = target;
    next.path.push(step.edge, step.to);
    // Close SIMPLE scopes that returned to their start node.
    for scope in &mut next.scopes {
        if scope.restrictor == Restrictor::Simple && step.to == state.path.nodes()[scope.node_start]
        {
            scope.closed = true;
        }
    }
    if let Some(v) = &ep.var {
        if !next.bind(v, BoundValue::Edge(step.edge)) {
            return None;
        }
    }
    if let Some(pred) = &ep.predicate {
        if !check_prefilter(graph, params, &mut next, pred) {
            return None;
        }
    }
    Some(next)
}

/// Evaluates a prefilter, deferring it when it references variables that
/// are not bound yet.
pub(crate) fn check_prefilter(
    graph: &PropertyGraph,
    params: &Params,
    state: &mut RunState,
    pred: &Expr,
) -> bool {
    let mut unbound = false;
    pred.visit_vars(&mut |v, _| {
        if !is_anonymous(v) && state.lookup(v).is_none() {
            unbound = true;
        }
    });
    if unbound {
        state.deferred.push(pred.clone());
        return true;
    }
    let env = StateEnv { state, params };
    filter::truth(graph, &env, pred) == Some(true)
}

/// Turns an accepting state into a path binding, re-checking deferred
/// prefilters against the complete variable map.
pub(crate) fn finalize(
    graph: &PropertyGraph,
    params: &Params,
    state: &RunState,
) -> Option<PathBinding> {
    debug_assert!(state.frames.is_empty());
    for pred in &state.deferred {
        let env = StateEnv { state, params };
        if filter::truth(graph, &env, pred) != Some(true) {
            return None;
        }
    }
    Some(PathBinding {
        path: state.path.clone(),
        bindings: state.globals.clone(),
        alt_marks: state.alt_marks.clone(),
    })
}

/// What [`merge_binding`] did to the merge target — reported even
/// when the merge *rejects*, because a rejected merge may already have
/// inserted a fresh (empty) group that the flat interpreter's trail must
/// still undo.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MergeEffect {
    /// Target map untouched.
    None,
    /// A fresh entry for the variable was inserted.
    Inserted {
        /// Whether the target map was the globals (vs. a frame's locals).
        global: bool,
    },
    /// An existing group entry was extended from `old_len` elements.
    Extended {
        /// Whether the target map was the globals (vs. a frame's locals).
        global: bool,
        /// Group length before the merge.
        old_len: usize,
    },
}

/// Merges one iteration-local binding outward at `IterEnd`: group
/// accumulation, or conditional-singleton exposure for `?`. Also reports
/// the mutation it performed, so the flat interpreter can record an exact
/// undo entry; the effect is meaningful even when the merge rejects.
pub(crate) fn merge_binding(
    state: &mut RunState,
    var: &str,
    val: BoundValue,
    expose_conditional: bool,
) -> (MergeEffect, bool) {
    let global = state.frames.is_empty();
    let target = match state.frames.last_mut() {
        Some(f) => &mut f.locals,
        None => &mut state.globals,
    };
    if expose_conditional {
        // `?` exposes singletons as conditional singletons (§4.6).
        return match target.get(var) {
            Some(existing) => (MergeEffect::None, *existing == val),
            None => {
                target.insert(var.to_owned(), val);
                (MergeEffect::Inserted { global }, true)
            }
        };
    }
    let inserted = !target.contains_key(var);
    let entry = target.entry(var.to_owned()).or_insert_with(|| match val {
        BoundValue::Node(_) | BoundValue::NodeGroup(_) => BoundValue::NodeGroup(Vec::new()),
        BoundValue::Edge(_) | BoundValue::EdgeGroup(_) => BoundValue::EdgeGroup(Vec::new()),
        BoundValue::Path(_) => BoundValue::NodeGroup(Vec::new()),
    });
    let old_len = match entry {
        BoundValue::NodeGroup(g) => g.len(),
        BoundValue::EdgeGroup(g) => g.len(),
        _ => 0,
    };
    let effect = if inserted {
        MergeEffect::Inserted { global }
    } else {
        MergeEffect::Extended { global, old_len }
    };
    let ok = match (entry, val) {
        (BoundValue::NodeGroup(g), BoundValue::Node(n)) => {
            g.push(n);
            true
        }
        (BoundValue::NodeGroup(g), BoundValue::NodeGroup(ns)) => {
            g.extend(ns);
            true
        }
        (BoundValue::EdgeGroup(g), BoundValue::Edge(e)) => {
            g.push(e);
            true
        }
        (BoundValue::EdgeGroup(g), BoundValue::EdgeGroup(es)) => {
            g.extend(es);
            true
        }
        _ => false,
    };
    (effect, ok)
}

/// A conservative static bound on the number of edges any match can use;
/// `usize::MAX / 4` stands for "unbounded" (then selector pruning bounds
/// the search instead).
pub(crate) fn static_edge_bound(
    pattern: &PathPattern,
    graph: &PropertyGraph,
    path_restrictor: Option<Restrictor>,
) -> usize {
    const INF: usize = usize::MAX / 4;
    fn walk(p: &PathPattern, graph: &PropertyGraph) -> usize {
        match p {
            PathPattern::Node(_) => 0,
            PathPattern::Edge(_) => 1,
            PathPattern::Concat(parts) => parts
                .iter()
                .map(|x| walk(x, graph))
                .fold(0usize, |a, b| a.saturating_add(b)),
            PathPattern::Paren {
                restrictor, inner, ..
            } => {
                let inner = walk(inner, graph);
                match restrictor {
                    Some(r) => inner.min(restrictor_bound(*r, graph)),
                    None => inner,
                }
            }
            PathPattern::Quantified { inner, quantifier } => {
                let body = walk(inner, graph);
                match quantifier.max {
                    Some(m) => body.saturating_mul(m as usize),
                    None => INF,
                }
            }
            PathPattern::Questioned(inner) => walk(inner, graph),
            PathPattern::Union(bs) | PathPattern::Alternation(bs) => {
                bs.iter().map(|x| walk(x, graph)).max().unwrap_or(0)
            }
        }
    }
    let raw = walk(pattern, graph);
    match path_restrictor {
        Some(r) => raw.min(restrictor_bound(r, graph)),
        None => raw,
    }
}

fn restrictor_bound(r: Restrictor, graph: &PropertyGraph) -> usize {
    match r {
        // A trail uses each edge at most once.
        Restrictor::Trail => graph.edge_count(),
        // An acyclic path visits each node at most once.
        Restrictor::Acyclic => graph.node_count().saturating_sub(1).max(1),
        // A simple path may additionally close back to its start.
        Restrictor::Simple => graph.node_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::ast::{Direction, GraphPattern, LabelExpr, NodePattern, Quantifier};
    use crate::eval::flat::{FlatMatcher, FlatProgram};
    use crate::eval::EvalOptions;
    use crate::normalize::normalize;
    use crate::plan::has_unbounded;
    use property_graph::{EdgeId, Endpoints, Value};

    /// Compiles `pattern` and runs the flat interpreter from every node —
    /// the raw search, before reduce/dedup/select.
    fn run(
        graph: &PropertyGraph,
        pattern: PathPattern,
        restrictor: Option<Restrictor>,
        selector_groups: Option<usize>,
    ) -> Vec<PathBinding> {
        let gp = GraphPattern {
            paths: vec![crate::ast::PathPatternExpr {
                // A selector stands in for the termination cover when the
                // test drives dominance pruning directly.
                selector: selector_groups.map(|_| crate::ast::Selector::AnyShortest),
                restrictor,
                path_var: None,
                pattern,
            }],
            where_clause: None,
        };
        let normalized = normalize(&gp);
        analyze(&normalized).unwrap();
        let opts = EvalOptions::default();
        let pattern = &normalized.paths[0].pattern;
        let prune = resolve_prune(has_unbounded(pattern), restrictor, selector_groups).unwrap();
        let prog = FlatProgram::compile(pattern);
        let params = Params::new();
        let m = FlatMatcher::over(graph, &prog, pattern, restrictor, prune, &opts, &params);
        let starts: Vec<NodeId> = graph.nodes().collect();
        m.run_from(&starts).unwrap()
    }

    fn node(v: &str) -> PathPattern {
        PathPattern::Node(NodePattern::var(v))
    }

    fn labeled(v: &str, l: &str) -> PathPattern {
        PathPattern::Node(NodePattern::var(v).with_label(LabelExpr::label(l)))
    }

    fn edge_r(v: &str) -> PathPattern {
        PathPattern::Edge(EdgePattern::any(Direction::Right).with_var(v))
    }

    fn chain3() -> (PropertyGraph, [NodeId; 3], [EdgeId; 2]) {
        let mut g = PropertyGraph::new();
        let a = g.add_node("a", ["N"], [("x", Value::Int(1))]);
        let b = g.add_node("b", ["N"], [("x", Value::Int(2))]);
        let c = g.add_node("c", ["M"], [("x", Value::Int(3))]);
        let e1 = g.add_edge("e1", Endpoints::directed(a, b), ["T"], []);
        let e2 = g.add_edge("e2", Endpoints::directed(b, c), ["T"], []);
        (g, [a, b, c], [e1, e2])
    }

    #[test]
    fn single_node_pattern_matches_every_node() {
        let (g, ..) = chain3();
        let ms = run(&g, node("x"), None, None);
        assert_eq!(ms.len(), 3);
        assert!(ms.iter().all(|m| m.path.is_empty()));
    }

    #[test]
    fn label_filters_nodes() {
        let (g, [_, _, c], _) = chain3();
        let ms = run(&g, labeled("x", "M"), None, None);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].get("x"), Some(&BoundValue::Node(c)));
    }

    #[test]
    fn edge_pattern_binds_endpoints() {
        let (g, [a, b, _], [e1, _]) = chain3();
        let p = PathPattern::concat(vec![node("s"), edge_r("e"), node("t")]);
        let ms = run(&g, p, None, None);
        assert_eq!(ms.len(), 2);
        let first = ms
            .iter()
            .find(|m| m.get("e") == Some(&BoundValue::Edge(e1)))
            .unwrap();
        assert_eq!(first.get("s"), Some(&BoundValue::Node(a)));
        assert_eq!(first.get("t"), Some(&BoundValue::Node(b)));
    }

    #[test]
    fn undirected_pattern_traverses_both_ways() {
        let mut g = PropertyGraph::new();
        let a = g.add_node("a", ["N"], []);
        let b = g.add_node("b", ["N"], []);
        g.add_edge("u", Endpoints::undirected(a, b), ["U"], []);
        let p = PathPattern::concat(vec![
            node("s"),
            PathPattern::Edge(EdgePattern::any(Direction::Undirected).with_var("e")),
            node("t"),
        ]);
        let ms = run(&g, p, None, None);
        // Once from each endpoint.
        assert_eq!(ms.len(), 2);
    }

    #[test]
    fn any_direction_matches_directed_twice() {
        // (x)-[e]-(y): each directed edge returns twice, once per
        // traversal direction (§4.2).
        let mut g = PropertyGraph::new();
        let a = g.add_node("a", ["N"], []);
        let b = g.add_node("b", ["N"], []);
        g.add_edge("d", Endpoints::directed(a, b), ["T"], []);
        let p = PathPattern::concat(vec![
            node("x"),
            PathPattern::Edge(EdgePattern::any(Direction::Any).with_var("e")),
            node("y"),
        ]);
        let ms = run(&g, p, None, None);
        assert_eq!(ms.len(), 2);
    }

    #[test]
    fn repeated_variable_is_equi_join() {
        // (s)-[e1]->(m)-[e2]->(s): no triangle in a chain.
        let (g, ..) = chain3();
        let p = PathPattern::concat(vec![
            node("s"),
            edge_r("e1"),
            node("m"),
            edge_r("e2"),
            node("s"),
        ]);
        assert!(run(&g, p, None, None).is_empty());

        // Add the closing edge: the triangle appears.
        let mut g = g;
        let (a, c) = (g.node_by_name("a").unwrap(), g.node_by_name("c").unwrap());
        g.add_edge("e3", Endpoints::directed(c, a), ["T"], []);
        let p = PathPattern::concat(vec![
            node("s"),
            edge_r("e1"),
            node("m"),
            edge_r("e2"),
            node("n"),
            edge_r("e3"),
            node("s"),
        ]);
        let ms = run(&g, p, None, None);
        assert_eq!(ms.len(), 3); // one per rotation
    }

    #[test]
    fn bounded_quantifier_lengths() {
        let (g, [a, _, c], _) = chain3();
        // (s)[()-[t]->()]{1,2}(d): paths of length 1 or 2.
        let body = PathPattern::concat(vec![
            PathPattern::Node(NodePattern::any()),
            edge_r("t"),
            PathPattern::Node(NodePattern::any()),
        ])
        .paren();
        let p = PathPattern::concat(vec![
            node("s"),
            body.quantified(Quantifier::range(1, Some(2))),
            node("d"),
        ]);
        let ms = run(&g, p, None, None);
        // length 1: a→b, b→c; length 2: a→b→c.
        assert_eq!(ms.len(), 3);
        let two = ms.iter().find(|m| m.path.len() == 2).unwrap();
        assert_eq!(two.get("s"), Some(&BoundValue::Node(a)));
        assert_eq!(two.get("d"), Some(&BoundValue::Node(c)));
        assert_eq!(
            two.get("t"),
            Some(&BoundValue::EdgeGroup(vec![EdgeId(0), EdgeId(1)]))
        );
    }

    #[test]
    fn zero_iterations_bind_empty_groups() {
        let (g, ..) = chain3();
        let body = PathPattern::concat(vec![
            PathPattern::Node(NodePattern::any()),
            edge_r("t"),
            PathPattern::Node(NodePattern::any()),
        ])
        .paren();
        let p = PathPattern::concat(vec![
            node("s"),
            body.quantified(Quantifier::range(0, Some(1))),
        ]);
        let ms = run(&g, p, None, None);
        // 3 zero-iteration matches + 2 one-iteration matches.
        assert_eq!(ms.len(), 5);
        let zero = ms.iter().filter(|m| m.path.is_empty()).count();
        assert_eq!(zero, 3);
        for m in ms.iter().filter(|m| m.path.is_empty()) {
            assert_eq!(m.get("t"), Some(&BoundValue::EdgeGroup(vec![])));
        }
    }

    #[test]
    fn trail_restrictor_prunes_repeated_edges() {
        // Two-node cycle: a→b→a→b... TRAIL caps at 2 edges.
        let mut g = PropertyGraph::new();
        let a = g.add_node("a", ["N"], []);
        let b = g.add_node("b", ["N"], []);
        g.add_edge("ab", Endpoints::directed(a, b), ["T"], []);
        g.add_edge("ba", Endpoints::directed(b, a), ["T"], []);
        let body = PathPattern::concat(vec![
            PathPattern::Node(NodePattern::any()),
            edge_r("t"),
            PathPattern::Node(NodePattern::any()),
        ])
        .paren();
        let p = PathPattern::concat(vec![
            node("s"),
            body.quantified(Quantifier::plus()),
            node("d"),
        ]);
        let ms = run(&g, p, Some(Restrictor::Trail), None);
        // From a: a→b, a→b→a; from b: b→a, b→a→b. All trails.
        assert_eq!(ms.len(), 4);
        assert!(ms.iter().all(|m| m.path.is_trail()));
    }

    #[test]
    fn acyclic_restrictor_prunes_repeated_nodes() {
        let mut g = PropertyGraph::new();
        let a = g.add_node("a", ["N"], []);
        let b = g.add_node("b", ["N"], []);
        g.add_edge("ab", Endpoints::directed(a, b), ["T"], []);
        g.add_edge("ba", Endpoints::directed(b, a), ["T"], []);
        let body = PathPattern::concat(vec![
            PathPattern::Node(NodePattern::any()),
            edge_r("t"),
            PathPattern::Node(NodePattern::any()),
        ])
        .paren();
        let p = PathPattern::concat(vec![
            node("s"),
            body.quantified(Quantifier::plus()),
            node("d"),
        ]);
        let ms = run(&g, p, Some(Restrictor::Acyclic), None);
        // Only the two single-edge paths are acyclic.
        assert_eq!(ms.len(), 2);
    }

    #[test]
    fn simple_restrictor_allows_closing_cycle() {
        // Triangle: SIMPLE admits the full cycle, ACYCLIC does not.
        let mut g = PropertyGraph::new();
        let a = g.add_node("a", ["N"], []);
        let b = g.add_node("b", ["N"], []);
        let c = g.add_node("c", ["N"], []);
        g.add_edge("ab", Endpoints::directed(a, b), ["T"], []);
        g.add_edge("bc", Endpoints::directed(b, c), ["T"], []);
        g.add_edge("ca", Endpoints::directed(c, a), ["T"], []);
        let body = PathPattern::concat(vec![
            PathPattern::Node(NodePattern::any()),
            edge_r("t"),
            PathPattern::Node(NodePattern::any()),
        ])
        .paren();
        let p = PathPattern::concat(vec![
            node("s"),
            body.clone().quantified(Quantifier::range(3, Some(3))),
            node("s"),
        ]);
        let simple = run(&g, p.clone(), Some(Restrictor::Simple), None);
        assert_eq!(simple.len(), 3); // one rotation per start
        let acyclic = run(&g, p, Some(Restrictor::Acyclic), None);
        assert!(acyclic.is_empty());
    }

    #[test]
    fn selector_pruning_terminates_on_cycles() {
        // a→b→a cycle with an unbounded star and no restrictor: selector
        // pruning must terminate and find the shortest paths.
        let mut g = PropertyGraph::new();
        let a = g.add_node("a", ["N"], []);
        let b = g.add_node("b", ["N"], []);
        g.add_edge("ab", Endpoints::directed(a, b), ["T"], []);
        g.add_edge("ba", Endpoints::directed(b, a), ["T"], []);
        let body = PathPattern::concat(vec![
            PathPattern::Node(NodePattern::any()),
            edge_r("t"),
            PathPattern::Node(NodePattern::any()),
        ])
        .paren();
        let p = PathPattern::concat(vec![
            node("s"),
            body.quantified(Quantifier::star()),
            node("d"),
        ]);
        let ms = run(&g, p, None, Some(1));
        // Shortest per partition: (a,a) len 0, (b,b) len 0, (a,b) len 1,
        // (b,a) len 1. Dominance pruning may keep a few extras; at minimum
        // the shortest ones exist and the search terminated.
        assert!(ms.iter().any(|m| m.path.is_empty()));
        assert!(ms
            .iter()
            .any(|m| m.path.len() == 1 && m.path.start() == a && m.path.end() == b));
        assert!(ms
            .iter()
            .any(|m| m.path.len() == 1 && m.path.start() == b && m.path.end() == a));
        // Nothing longer than |N| per partition survives pruning at k=1.
        assert!(ms.iter().all(|m| m.path.len() <= 2));
    }

    #[test]
    fn question_mark_exposes_conditional_singletons() {
        let (g, [_, b, c], [_, e2]) = chain3();
        // (x) [-[e]->(y)]?
        let opt = PathPattern::Questioned(Box::new(
            PathPattern::concat(vec![edge_r("e"), node("y")]).paren(),
        ));
        let p = PathPattern::concat(vec![labeled("x", "N"), opt]);
        let ms = run(&g, p, None, None);
        // x∈{a,b} each with: no match, plus one extension. a→b, b→c.
        assert_eq!(ms.len(), 4);
        let with_edge: Vec<_> = ms.iter().filter(|m| m.path.len() == 1).collect();
        assert_eq!(with_edge.len(), 2);
        // Bound as singletons, not groups.
        let m = with_edge
            .iter()
            .find(|m| m.get("x") == Some(&BoundValue::Node(b)))
            .unwrap();
        assert_eq!(m.get("e"), Some(&BoundValue::Edge(e2)));
        assert_eq!(m.get("y"), Some(&BoundValue::Node(c)));
        // Unmatched option leaves variables unbound.
        let without: Vec<_> = ms.iter().filter(|m| m.path.is_empty()).collect();
        assert!(without.iter().all(|m| m.get("e").is_none()));
    }

    #[test]
    fn union_and_alternation_marks() {
        let (g, ..) = chain3();
        // (x:N) | (x:N): same matches; marks only differ for |+|.
        let u = PathPattern::Union(vec![labeled("x", "N"), labeled("x", "N")]);
        let ms = run(&g, u, None, None);
        assert!(ms.iter().all(|m| m.alt_marks.is_empty()));

        let alt = PathPattern::Alternation(vec![labeled("x", "N"), labeled("x", "N")]);
        let ms = run(&g, alt, None, None);
        assert_eq!(ms.len(), 4); // 2 nodes × 2 branches
        assert!(ms.iter().all(|m| m.alt_marks.len() == 1));
    }

    #[test]
    fn per_iteration_predicate() {
        // [()-[t]->() WHERE t.w>1]{1,2} — only heavy edges.
        let mut g = PropertyGraph::new();
        let a = g.add_node("a", ["N"], []);
        let b = g.add_node("b", ["N"], []);
        let c = g.add_node("c", ["N"], []);
        g.add_edge(
            "ab",
            Endpoints::directed(a, b),
            ["T"],
            [("w", Value::Int(5))],
        );
        g.add_edge(
            "bc",
            Endpoints::directed(b, c),
            ["T"],
            [("w", Value::Int(0))],
        );
        let body = PathPattern::Paren {
            restrictor: None,
            inner: Box::new(PathPattern::concat(vec![
                PathPattern::Node(NodePattern::any()),
                edge_r("t"),
                PathPattern::Node(NodePattern::any()),
            ])),
            predicate: Some(Expr::cmp(
                crate::ast::CmpOp::Gt,
                Expr::prop("t", "w"),
                Expr::lit(1),
            )),
        };
        let p = PathPattern::concat(vec![
            node("s"),
            PathPattern::Quantified {
                inner: Box::new(body),
                quantifier: Quantifier::range(1, Some(2)),
            },
            node("d"),
        ]);
        let ms = run(&g, p, None, None);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].path.len(), 1);
        assert_eq!(ms[0].get("s"), Some(&BoundValue::Node(a)));
    }

    #[test]
    fn question_mark_nested_in_quantifier_groups_outward() {
        // (s) [ (□)-[e]->(□) [~[u]~(p)]? ]{1,2} : the `?` exposes u/p as
        // singletons within each iteration, and the enclosing quantifier
        // then collects them into groups.
        let mut g = PropertyGraph::new();
        let a = g.add_node("a", ["N"], []);
        let b = g.add_node("b", ["N"], []);
        let c = g.add_node("c", ["N"], []);
        let p1 = g.add_node("p1", ["P"], []);
        g.add_edge("ab", Endpoints::directed(a, b), ["T"], []);
        g.add_edge("bc", Endpoints::directed(b, c), ["T"], []);
        g.add_edge("u1", Endpoints::undirected(b, p1), ["U"], []);
        let opt = PathPattern::Questioned(Box::new(
            PathPattern::concat(vec![
                PathPattern::Edge(EdgePattern::any(Direction::Undirected).with_var("u")),
                PathPattern::Node(NodePattern::var("p").with_label(LabelExpr::label("P"))),
            ])
            .paren(),
        ));
        let body = PathPattern::concat(vec![
            PathPattern::Node(NodePattern::any()),
            PathPattern::Edge(
                EdgePattern::any(Direction::Right)
                    .with_var("e")
                    .with_label(LabelExpr::label("T")),
            ),
            PathPattern::Node(NodePattern::any()),
            opt,
        ])
        .paren();
        let pattern = PathPattern::concat(vec![
            node("s"),
            PathPattern::Quantified {
                inner: Box::new(body),
                quantifier: Quantifier::range(1, Some(2)),
            },
        ]);
        let ms = run(&g, pattern, None, None);
        // Walks from a: a→b (±u1 detour), a→b~p1; a→b→c combinations; from
        // b: b→c (no detour possible at c). Check the group classification:
        // u and p become groups at the top level.
        assert!(!ms.is_empty());
        for m in &ms {
            if let Some(v) = m.get("u") {
                assert!(
                    matches!(v, BoundValue::EdgeGroup(_)),
                    "u must be grouped outward, got {v:?}"
                );
            }
            if let Some(v) = m.get("p") {
                assert!(matches!(v, BoundValue::NodeGroup(_)), "{v:?}");
            }
        }
        // At least one match took the optional detour.
        assert!(ms.iter().any(|m| matches!(
            m.get("u"),
            Some(BoundValue::EdgeGroup(es)) if !es.is_empty()
        )));
    }

    #[test]
    fn deferred_prefilter_on_later_variable() {
        // (a WHERE a.x = d.x) -[e]-> (d): the prefilter mentions d before
        // it is bound and must be re-checked at completion.
        let mut g = PropertyGraph::new();
        let a = g.add_node("a", ["N"], [("x", Value::Int(7))]);
        let b = g.add_node("b", ["N"], [("x", Value::Int(7))]);
        let c = g.add_node("c", ["N"], [("x", Value::Int(9))]);
        g.add_edge("ab", Endpoints::directed(a, b), ["T"], []);
        g.add_edge("ac", Endpoints::directed(a, c), ["T"], []);
        let p = PathPattern::concat(vec![
            PathPattern::Node(
                NodePattern::var("a").with_predicate(Expr::prop("a", "x").eq(Expr::prop("d", "x"))),
            ),
            edge_r("e"),
            node("d"),
        ]);
        let ms = run(&g, p, None, None);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].get("d"), Some(&BoundValue::Node(b)));
    }
}
