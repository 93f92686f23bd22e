//! The reference engine: a literal implementation of the §6 execution
//! model.
//!
//! Where the production matcher interleaves quantifier unrolling with the
//! graph walk, this engine follows the specification text step by step:
//!
//! 1. **Normalization** (§6.2) — shared with the production engine.
//! 2. **Expansion** (§6.3) — the pattern is expanded into a set of *rigid
//!    patterns* `π_{n,ℓ}`: one per choice of iteration count for every
//!    quantifier and branch for every union/alternation. Variables under a
//!    quantifier receive iteration superscripts (here rendered `b·1`,
//!    `b·2`, ...), exactly like the paper's `b¹, b²`.
//! 3. **Rigid-pattern matching** (§6.4) — every node-edge-node part of a
//!    rigid pattern is computed *independently* against the graph, and the
//!    parts are then concatenated by an implicit equi-join on variables
//!    with the same name.
//! 4. **Reduction and deduplication** (§6.5) — annotations are stripped
//!    (superscripted instances collapse into group bindings, anonymous
//!    variables disappear), equal reduced bindings are merged, and
//!    selectors are applied per endpoint partition.
//!
//! The expansion set is infinite for unbounded quantifiers; the §5
//! machinery makes evaluation feasible by bounding the useful expansion
//! depth — `TRAIL` can never use more than `|E|` edges, `ACYCLIC`/`SIMPLE`
//! more than `|N|`, and a selector never keeps a path longer than the
//! shortest few per partition (bounded by `|N| ·` pattern width).
//!
//! This engine is deliberately simple and slow but independent: it is the
//! one differential oracle, and property tests assert the production
//! engine agrees with it on random graphs and patterns.

use std::collections::{BTreeMap, BTreeSet};

use property_graph::{NodeId, Path, PropertyGraph};

use crate::analysis::analyze;
use crate::ast::{
    EdgePattern, Expr, GraphPattern, NodePattern, PathPattern, PathPatternExpr, Restrictor,
};
use crate::binding::{BoundValue, MatchSet, PathBinding};
use crate::error::{Error, Result};
use crate::eval::{filter, join_and_filter, selector, EvalOptions};
use crate::normalize::{is_anonymous, normalize};

/// Separator between a variable base name and its iteration superscripts.
const ITER_SEP: char = '\u{00B7}'; // ·

/// One expanded rigid pattern: a strict alternation of node positions and
/// edge patterns, with all disjunction resolved and all quantifiers
/// unrolled.
#[derive(Clone, Debug, Default)]
struct Rigid {
    /// Node positions; several node patterns may constrain one position
    /// (the paper's clean-up step merges adjacent anonymous patterns).
    nodes: Vec<Vec<NodePattern>>,
    edges: Vec<EdgePattern>,
    /// All prefilters, with singleton references renamed to instances;
    /// evaluated after the equi-join.
    preds: Vec<Expr>,
    /// Restrictor scopes as `(restrictor, first node pos, last node pos)`.
    scopes: Vec<(Restrictor, usize, usize)>,
    /// Multiset-alternation provenance (§4.5).
    alt_marks: Vec<u32>,
    /// Instance name → (base name, iteration indices outermost-first).
    instances: BTreeMap<String, (String, Vec<u32>)>,
    /// Group variables whose quantifier was expanded zero times; they bind
    /// to the empty group (`COUNT(e.*) = 0`, §5.3).
    zero_groups: Vec<(String, bool)>,
}

/// A fragment produced during expansion: a partial rigid pattern that
/// still concatenates with its neighbours.
#[derive(Clone, Debug, Default)]
struct Frag {
    items: Vec<Item>,
    preds: Vec<Expr>,
    /// Scope ranges as item-index pairs (inclusive).
    scopes: Vec<(Restrictor, usize, usize)>,
    alt_marks: Vec<u32>,
    instances: BTreeMap<String, (String, Vec<u32>)>,
    zero_groups: Vec<(String, bool)>,
}

#[derive(Clone, Debug)]
enum Item {
    Node(NodePattern),
    Edge(EdgePattern),
}

impl Frag {
    fn concat(mut self, mut other: Frag) -> Frag {
        let shift = self.items.len();
        self.items.append(&mut other.items);
        self.preds.append(&mut other.preds);
        self.scopes.extend(
            other
                .scopes
                .into_iter()
                .map(|(r, s, e)| (r, s + shift, e + shift)),
        );
        self.alt_marks.append(&mut other.alt_marks);
        self.instances.append(&mut other.instances);
        self.zero_groups.append(&mut other.zero_groups);
        self
    }

    /// Applies one quantifier-iteration renaming: every variable declared
    /// in this fragment gains the iteration index `k`.
    fn renamed(mut self, k: u32) -> Frag {
        let mut mapping: BTreeMap<String, String> = BTreeMap::new();
        let mut new_instances = BTreeMap::new();
        for item in &mut self.items {
            let var = match item {
                Item::Node(n) => &mut n.var,
                Item::Edge(e) => &mut e.var,
            };
            if let Some(v) = var {
                let renamed = format!("{v}{ITER_SEP}{k}");
                let (base, mut idxs) = self
                    .instances
                    .remove(v)
                    .unwrap_or_else(|| (v.clone(), Vec::new()));
                idxs.insert(0, k);
                new_instances.insert(renamed.clone(), (base, idxs));
                mapping.insert(v.clone(), renamed.clone());
                *var = Some(renamed);
            }
        }
        self.instances = new_instances;
        for pred in &mut self.preds {
            rename_refs(pred, &mapping);
        }
        self
    }
}

/// Renames non-aggregate variable references (aggregate arguments keep
/// their base name: they range over the whole group, §4.4).
fn rename_refs(e: &mut Expr, mapping: &BTreeMap<String, String>) {
    let rn = |v: &mut String| {
        if let Some(new) = mapping.get(v.as_str()) {
            *v = new.clone();
        }
    };
    match e {
        // EXISTS only occurs in postfilters (analysis guarantees it), so
        // it never needs iteration renaming; parameters reference no
        // variables at all.
        Expr::Literal(_) | Expr::Parameter(_) | Expr::Aggregate { .. } | Expr::Exists(_) => {}
        Expr::Var(v) => rn(v),
        Expr::Property(v, _) => rn(v),
        Expr::Not(i) | Expr::IsNull(i, _) => rename_refs(i, mapping),
        Expr::And(a, b) | Expr::Or(a, b) | Expr::Cmp(_, a, b) | Expr::Arith(_, a, b) => {
            rename_refs(a, mapping);
            rename_refs(b, mapping);
        }
        Expr::IsDirected(v) => rn(v),
        Expr::IsSourceOf { node, edge } | Expr::IsDestinationOf { node, edge } => {
            rn(node);
            rn(edge);
        }
        Expr::Same(vs) | Expr::AllDifferent(vs) => vs.iter_mut().for_each(rn),
    }
}

/// Collects named variables declared in a subtree (for zero-iteration
/// empty groups).
fn body_vars(p: &PathPattern, out: &mut Vec<(String, bool)>) {
    match p {
        PathPattern::Node(n) => {
            if let Some(v) = &n.var {
                if !is_anonymous(v) && !out.iter().any(|(x, _)| x == v) {
                    out.push((v.clone(), false));
                }
            }
        }
        PathPattern::Edge(e) => {
            if let Some(v) = &e.var {
                if !is_anonymous(v) && !out.iter().any(|(x, _)| x == v) {
                    out.push((v.clone(), true));
                }
            }
        }
        PathPattern::Concat(ps) => ps.iter().for_each(|p| body_vars(p, out)),
        PathPattern::Paren { inner, .. }
        | PathPattern::Quantified { inner, .. }
        | PathPattern::Questioned(inner) => body_vars(inner, out),
        PathPattern::Union(bs) | PathPattern::Alternation(bs) => {
            bs.iter().for_each(|p| body_vars(p, out))
        }
    }
}

/// Counts edge positions in a subtree (to derive expansion caps).
fn edge_positions(p: &PathPattern) -> usize {
    match p {
        PathPattern::Node(_) => 0,
        PathPattern::Edge(_) => 1,
        PathPattern::Concat(ps) => ps.iter().map(edge_positions).sum(),
        PathPattern::Paren { inner, .. } | PathPattern::Questioned(inner) => edge_positions(inner),
        PathPattern::Quantified { inner, quantifier } => {
            edge_positions(inner) * quantifier.max.unwrap_or(1) as usize
        }
        PathPattern::Union(bs) | PathPattern::Alternation(bs) => {
            bs.iter().map(edge_positions).max().unwrap_or(0)
        }
    }
}

struct Expander<'g> {
    graph: &'g PropertyGraph,
    /// Path-head restrictor (covers the whole pattern).
    restrictor: Option<Restrictor>,
    /// Length groups the selector can keep (1 when none) — the k-th
    /// shortest length can exceed the shortest by up to a cycle length
    /// per group, so the selector-only expansion budget scales with it.
    selector_groups: usize,
    /// Hard cap on the number of rigid patterns, to keep the oracle total.
    budget: usize,
}

impl Expander<'_> {
    /// The maximum useful iteration count for an unbounded quantifier.
    fn unbounded_cap(&self, body_edges: usize, restricted: Option<Restrictor>) -> u32 {
        let per_iter = body_edges.max(1);
        let edge_budget = match restricted.or(self.restrictor) {
            Some(Restrictor::Trail) => self.graph.edge_count(),
            Some(Restrictor::Acyclic) | Some(Restrictor::Simple) => self.graph.node_count(),
            // Selector-only: a shortest walk never revisits a
            // (node, phase) product state, so |N| · width edges suffice
            // for the first length group; each further group can add at
            // most one more cycle (≤ |N| · width edges).
            None => self.graph.node_count() * (body_edges + 1) * self.selector_groups,
        };
        (edge_budget / per_iter) as u32
    }

    fn expand(&self, p: &PathPattern, restricted: Option<Restrictor>) -> Result<Vec<Frag>> {
        let frags = match p {
            PathPattern::Node(n) => {
                let mut frag = Frag::default();
                let mut n = n.clone();
                if let Some(pred) = n.predicate.take() {
                    frag.preds.push(pred);
                }
                frag.items.push(Item::Node(n));
                vec![frag]
            }
            PathPattern::Edge(e) => {
                let mut frag = Frag::default();
                let mut e = e.clone();
                if let Some(pred) = e.predicate.take() {
                    frag.preds.push(pred);
                }
                frag.items.push(Item::Edge(e));
                vec![frag]
            }
            PathPattern::Concat(parts) => {
                let mut acc = vec![Frag::default()];
                for part in parts {
                    let expansions = self.expand(part, restricted)?;
                    let mut next = Vec::new();
                    for a in &acc {
                        for b in &expansions {
                            next.push(a.clone().concat(b.clone()));
                            if next.len().saturating_mul(acc.len()) > self.budget {
                                return Err(Error::LimitExceeded {
                                    what: "rigid patterns",
                                    limit: self.budget,
                                });
                            }
                        }
                    }
                    acc = next;
                }
                acc
            }
            PathPattern::Paren {
                restrictor,
                inner,
                predicate,
            } => {
                let inner_restricted = restrictor.or(restricted);
                let mut out = Vec::new();
                for mut frag in self.expand(inner, inner_restricted)? {
                    if let Some(r) = restrictor {
                        let end = frag.items.len().saturating_sub(1);
                        frag.scopes.push((*r, 0, end));
                    }
                    if let Some(pred) = predicate {
                        frag.preds.push(pred.clone());
                    }
                    out.push(frag);
                }
                out
            }
            PathPattern::Quantified { inner, quantifier } => {
                let cap = match quantifier.max {
                    Some(m) => m,
                    None => self
                        .unbounded_cap(edge_positions(inner), restricted)
                        .max(quantifier.min),
                };
                // A body with no edge positions cannot make progress, so
                // expansions beyond `min` repeat the same bindings.
                let cap = if edge_positions(inner) == 0 {
                    quantifier.min.max(1)
                } else {
                    cap
                };
                let body = self.expand(inner, restricted)?;
                let mut out = Vec::new();
                for n in quantifier.min..=cap {
                    if n == 0 {
                        let mut frag = Frag::default();
                        body_vars(inner, &mut frag.zero_groups);
                        out.push(frag);
                        continue;
                    }
                    // Cartesian product of n body expansions, each with
                    // iteration superscript k.
                    let mut acc = vec![Frag::default()];
                    for k in 1..=n {
                        let mut next = Vec::new();
                        for a in &acc {
                            for b in &body {
                                next.push(a.clone().concat(b.clone().renamed(k)));
                            }
                        }
                        acc = next;
                        if acc.len() > self.budget {
                            return Err(Error::LimitExceeded {
                                what: "rigid patterns",
                                limit: self.budget,
                            });
                        }
                    }
                    out.extend(acc);
                    if out.len() > self.budget {
                        return Err(Error::LimitExceeded {
                            what: "rigid patterns",
                            limit: self.budget,
                        });
                    }
                }
                out
            }
            PathPattern::Questioned(inner) => {
                // `?` is {0,1} without renaming: variables stay
                // conditional singletons (§4.6).
                let mut out = vec![Frag::default()];
                out.extend(self.expand(inner, restricted)?);
                out
            }
            PathPattern::Union(branches) => {
                let mut out = Vec::new();
                for b in branches {
                    out.extend(self.expand(b, restricted)?);
                }
                out
            }
            PathPattern::Alternation(branches) => {
                let mut out = Vec::new();
                for (i, b) in branches.iter().enumerate() {
                    for mut frag in self.expand(b, restricted)? {
                        frag.alt_marks.insert(0, i as u32);
                        out.push(frag);
                    }
                }
                out
            }
        };
        Ok(frags)
    }
}

/// Converts a fragment into a rigid pattern by merging adjacent node
/// positions (the paper's clean-up step) and mapping scope indices to
/// node positions.
fn to_rigid(frag: Frag) -> Rigid {
    let mut rigid = Rigid {
        preds: frag.preds,
        alt_marks: frag.alt_marks,
        instances: frag.instances,
        zero_groups: frag.zero_groups,
        ..Rigid::default()
    };
    // item index → node position (for scope translation).
    let mut item_pos: Vec<usize> = Vec::with_capacity(frag.items.len());
    for item in frag.items {
        match item {
            Item::Node(n) => {
                let at_node_boundary = rigid.nodes.len() == rigid.edges.len();
                if at_node_boundary {
                    rigid.nodes.push(vec![n]);
                } else {
                    // Two adjacent node patterns constrain one position.
                    rigid.nodes.last_mut().expect("non-empty").push(n);
                }
                item_pos.push(rigid.nodes.len() - 1);
            }
            Item::Edge(e) => {
                if rigid.nodes.len() == rigid.edges.len() {
                    // An edge with no preceding node position (can happen
                    // at fragment boundaries before normalization): frame
                    // it with an anonymous position.
                    rigid.nodes.push(vec![NodePattern::any()]);
                }
                rigid.edges.push(e);
                item_pos.push(rigid.nodes.len() - 1);
            }
        }
    }
    if rigid.nodes.len() == rigid.edges.len() {
        rigid.nodes.push(vec![NodePattern::any()]);
    }
    for (r, s, e) in frag.scopes {
        let sp = item_pos.get(s).copied().unwrap_or(0);
        let ep = item_pos.get(e).copied().unwrap_or(rigid.nodes.len() - 1);
        // An edge item's node position is its left endpoint; the scope
        // extends one further right.
        let ep = ep.min(rigid.nodes.len() - 1);
        rigid.scopes.push((r, sp, ep.max(sp)));
    }
    rigid
}

/// One partial solution while joining parts.
#[derive(Clone, Debug)]
struct Partial {
    nodes: Vec<NodeId>,
    edges: Vec<property_graph::EdgeId>,
    binding: BTreeMap<String, BoundValue>,
}

/// Matches one rigid pattern (§6.4): each node-edge-node part is computed
/// independently, then parts are concatenated by an equi-join.
fn match_rigid(
    graph: &PropertyGraph,
    rigid: &Rigid,
    opts: &EvalOptions,
) -> Result<Vec<PathBinding>> {
    // -- Per-part independent computation. ---------------------------------
    // Part i connects node positions i and i+1 via edge i.
    let node_ok = |pos: usize, n: NodeId| -> bool {
        rigid.nodes[pos].iter().all(|np| {
            np.label
                .as_ref()
                .is_none_or(|l| l.matches(&graph.node(n).labels))
        })
    };
    let mut parts: Vec<Vec<(NodeId, property_graph::EdgeId, NodeId)>> = Vec::new();
    for (i, ep) in rigid.edges.iter().enumerate() {
        let mut rows = Vec::new();
        for e in graph.edges() {
            let data = graph.edge(e);
            if let Some(l) = &ep.label {
                if !l.matches(&data.labels) {
                    continue;
                }
            }
            let (u, v) = data.endpoints.pair();
            let candidates: &[(NodeId, NodeId, property_graph::Traversal)] = &match data.endpoints {
                property_graph::Endpoints::Directed { src, dst } => [
                    (src, dst, property_graph::Traversal::Forward),
                    (dst, src, property_graph::Traversal::Backward),
                ],
                property_graph::Endpoints::Undirected(..) => [
                    (u, v, property_graph::Traversal::Undirected),
                    (v, u, property_graph::Traversal::Undirected),
                ],
            };
            let mut seen_pairs: Vec<(NodeId, NodeId)> = Vec::new();
            for &(from, to, t) in candidates {
                if !ep.direction.permits(t) {
                    continue;
                }
                // An undirected self loop or symmetric listing must not
                // produce the same (from,to) row twice.
                if seen_pairs.contains(&(from, to)) {
                    continue;
                }
                seen_pairs.push((from, to));
                if node_ok(i, from) && node_ok(i + 1, to) {
                    rows.push((from, e, to));
                }
            }
        }
        parts.push(rows);
    }

    // -- Equi-join (shared variables + walk adjacency). ---------------------
    let bind_node = |partial: &mut Partial, pos: usize, n: NodeId| -> bool {
        for np in &rigid.nodes[pos] {
            if let Some(v) = &np.var {
                match partial.binding.get(v) {
                    Some(BoundValue::Node(existing)) if *existing != n => return false,
                    Some(BoundValue::Node(_)) => {}
                    Some(_) => return false,
                    None => {
                        partial.binding.insert(v.clone(), BoundValue::Node(n));
                    }
                }
            }
        }
        true
    };

    let mut partials: Vec<Partial> = Vec::new();
    if rigid.edges.is_empty() {
        for n in graph.nodes() {
            if node_ok(0, n) {
                let mut p = Partial {
                    nodes: vec![n],
                    edges: vec![],
                    binding: BTreeMap::new(),
                };
                if bind_node(&mut p, 0, n) {
                    partials.push(p);
                }
            }
        }
    } else {
        for &(from, e, to) in &parts[0] {
            let mut p = Partial {
                nodes: vec![from, to],
                edges: vec![e],
                binding: BTreeMap::new(),
            };
            if !bind_node(&mut p, 0, from) || !bind_node(&mut p, 1, to) {
                continue;
            }
            if let Some(v) = &rigid.edges[0].var {
                p.binding.insert(v.clone(), BoundValue::Edge(e));
            }
            partials.push(p);
        }
        for (i, rows) in parts.iter().enumerate().skip(1) {
            let mut next = Vec::new();
            for p in &partials {
                for &(from, e, to) in rows {
                    if *p.nodes.last().expect("non-empty") != from {
                        continue;
                    }
                    let mut q = p.clone();
                    q.nodes.push(to);
                    q.edges.push(e);
                    if !bind_node(&mut q, i + 1, to) {
                        continue;
                    }
                    if let Some(v) = &rigid.edges[i].var {
                        match q.binding.get(v) {
                            Some(BoundValue::Edge(existing)) if *existing != e => continue,
                            Some(BoundValue::Edge(_)) => {}
                            Some(_) => continue,
                            None => {
                                q.binding.insert(v.clone(), BoundValue::Edge(e));
                            }
                        }
                    }
                    next.push(q);
                }
            }
            partials = next;
            if partials.len() > opts.max_matches {
                return Err(Error::LimitExceeded {
                    what: "join rows",
                    limit: opts.max_matches,
                });
            }
        }
    }

    // -- Restrictors (§5.1: checked "at this point"). -----------------------
    partials.retain(|p| {
        rigid.scopes.iter().all(|(r, s, e)| {
            let sub_nodes = &p.nodes[*s..=(*e).min(p.nodes.len() - 1)];
            let sub_edges = &p.edges[*s..(*e).min(p.edges.len())];
            let path = Path::new(sub_nodes.to_vec(), sub_edges.to_vec());
            match r {
                Restrictor::Trail => path.is_trail(),
                Restrictor::Acyclic => path.is_acyclic(),
                Restrictor::Simple => path.is_simple(),
            }
        })
    });

    // -- Predicates & reduction. --------------------------------------------
    let no_params = crate::params::Params::new();
    let mut out = Vec::new();
    for p in partials {
        // Build group bindings from superscripted instances.
        let mut group_members: BTreeMap<String, Vec<(Vec<u32>, BoundValue)>> = BTreeMap::new();
        for (inst, (base, idxs)) in &rigid.instances {
            if let Some(v) = p.binding.get(inst) {
                group_members
                    .entry(base.clone())
                    .or_default()
                    .push((idxs.clone(), v.clone()));
            }
        }
        let mut groups: BTreeMap<String, BoundValue> = BTreeMap::new();
        for (base, mut members) in group_members {
            if is_anonymous(&base) {
                continue;
            }
            members.sort_by(|a, b| a.0.cmp(&b.0));
            let is_edge = matches!(members[0].1, BoundValue::Edge(_));
            let group = if is_edge {
                BoundValue::EdgeGroup(
                    members
                        .iter()
                        .filter_map(|(_, v)| v.as_element().and_then(|e| e.as_edge()))
                        .collect(),
                )
            } else {
                BoundValue::NodeGroup(
                    members
                        .iter()
                        .filter_map(|(_, v)| v.as_element().and_then(|e| e.as_node()))
                        .collect(),
                )
            };
            groups.insert(base, group);
        }
        for (base, is_edge) in &rigid.zero_groups {
            groups.entry(base.clone()).or_insert_with(|| {
                if *is_edge {
                    BoundValue::EdgeGroup(vec![])
                } else {
                    BoundValue::NodeGroup(vec![])
                }
            });
        }

        // Rigid-pattern predicates: instance names resolve directly; base
        // names of superscripted instances resolve to the collected group
        // (iteration order). The baseline binds no parameters.
        let vars = |v: &str| p.binding.get(v).or_else(|| groups.get(v));
        let scope = filter::Scope::new(&vars, &no_params);
        if !rigid
            .preds
            .iter()
            .all(|pred| filter::truth(graph, &scope, pred) == Some(true))
        {
            continue;
        }

        // Reduction: strip instance annotations, drop anonymous variables.
        let mut bindings: BTreeMap<String, BoundValue> = BTreeMap::new();
        for (name, v) in &p.binding {
            if rigid.instances.contains_key(name) || is_anonymous(name) {
                continue;
            }
            bindings.insert(name.clone(), v.clone());
        }
        bindings.extend(groups);
        out.push(PathBinding {
            path: Path::new(p.nodes, p.edges),
            bindings,
            alt_marks: rigid.alt_marks.clone(),
        });
    }
    Ok(out)
}

/// Evaluates a graph pattern with the literal §6 model. Produces exactly
/// the same reduced, deduplicated, selected binding sets as
/// [`crate::eval::evaluate`].
pub fn evaluate(
    graph: &PropertyGraph,
    pattern: &GraphPattern,
    opts: &EvalOptions,
) -> Result<MatchSet> {
    let normalized = normalize(pattern);
    analyze(&normalized)?;

    // The baseline takes no parameter bindings, so a `$name` placeholder
    // can never be satisfied here: reject it up front instead of letting
    // it evaluate as NULL and silently empty every predicate. (The plan
    // layer is the parameter-aware path; the oracle stays literal-only.)
    let mut slots = crate::plan::ParamSlots::new();
    crate::plan::collect_graph_params(&normalized, &mut slots);
    if let Some(name) = slots.into_keys().next() {
        return Err(Error::UnboundParameter { name });
    }

    // The postfilter's `EXISTS` subqueries run as subplans prepared up
    // front, exactly as the plan layer prepares them.
    let exists = crate::plan::prepare_exists(&normalized, opts)?;
    let mut per_path = Vec::with_capacity(normalized.paths.len());
    for expr in &normalized.paths {
        per_path.push(match_one_path(graph, expr, opts)?);
    }
    Ok(join_and_filter(
        graph,
        &normalized,
        &per_path,
        opts,
        &exists,
    ))
}

fn match_one_path(
    graph: &PropertyGraph,
    expr: &PathPatternExpr,
    opts: &EvalOptions,
) -> Result<Vec<PathBinding>> {
    let expander = Expander {
        graph,
        restrictor: expr.restrictor,
        selector_groups: expr
            .selector
            .as_ref()
            .and_then(selector::length_groups)
            .unwrap_or(1),
        budget: opts.max_matches.min(2_000_000),
    };
    let frags = expander.expand(&expr.pattern, expr.restrictor)?;

    // Rigid matching + reduction (§6.4).
    let mut reduced: BTreeSet<PathBinding> = BTreeSet::new();
    for frag in frags {
        let mut rigid = to_rigid(frag);
        if let Some(r) = expr.restrictor {
            rigid.scopes.push((r, 0, rigid.nodes.len() - 1));
        }
        for b in match_rigid(graph, &rigid, opts)? {
            reduced.insert(b);
        }
    }

    // Deduplication happened via the set; selectors come last (§5.1).
    let mut bindings: Vec<PathBinding> = reduced.into_iter().collect();
    if let Some(sel) = &expr.selector {
        bindings = selector::apply(graph, sel, bindings);
    }
    Ok(bindings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Direction, LabelExpr, Quantifier, Selector};
    use property_graph::Endpoints;

    fn node(v: &str) -> PathPattern {
        PathPattern::Node(NodePattern::var(v))
    }

    fn edge_r(v: &str) -> PathPattern {
        PathPattern::Edge(EdgePattern::any(Direction::Right).with_var(v))
    }

    fn chain(n: usize) -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let ids: Vec<NodeId> = (0..n)
            .map(|i| g.add_node(&format!("n{i}"), ["N"], []))
            .collect();
        for i in 0..n - 1 {
            g.add_edge(
                &format!("e{i}"),
                Endpoints::directed(ids[i], ids[i + 1]),
                ["T"],
                [],
            );
        }
        g
    }

    #[test]
    fn agrees_with_engine_on_fixed_patterns() {
        let g = chain(4);
        let gp = GraphPattern::single(PathPattern::concat(vec![
            node("s"),
            edge_r("e"),
            node("m"),
            edge_r("f"),
            node("t"),
        ]));
        let opts = EvalOptions::default();
        let a = evaluate(&g, &gp, &opts).unwrap();
        let b = crate::eval::evaluate(&g, &gp, &opts).unwrap();
        assert_eq!(a.len(), 2);
        assert_eq!(sorted(a), sorted(b));
    }

    #[test]
    fn agrees_on_quantified_patterns() {
        let g = chain(5);
        let body = PathPattern::concat(vec![
            PathPattern::Node(NodePattern::any()),
            edge_r("t"),
            PathPattern::Node(NodePattern::any()),
        ])
        .paren();
        let gp = GraphPattern::single(PathPattern::concat(vec![
            node("a"),
            body.quantified(Quantifier::range(1, Some(3))),
            node("b"),
        ]));
        let opts = EvalOptions::default();
        let a = evaluate(&g, &gp, &opts).unwrap();
        let b = crate::eval::evaluate(&g, &gp, &opts).unwrap();
        // Chains of length 1..3 in a 4-edge path graph: 4 + 3 + 2.
        assert_eq!(a.len(), 9);
        assert_eq!(sorted(a), sorted(b));
    }

    #[test]
    fn agrees_on_trail_restricted_cycles() {
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
        let gp = GraphPattern {
            paths: vec![PathPatternExpr {
                selector: None,
                restrictor: Some(Restrictor::Trail),
                path_var: None,
                pattern: PathPattern::concat(vec![
                    node("s"),
                    body.quantified(Quantifier::plus()),
                    node("d"),
                ]),
            }],
            where_clause: None,
        };
        let opts = EvalOptions::default();
        let x = evaluate(&g, &gp, &opts).unwrap();
        let y = crate::eval::evaluate(&g, &gp, &opts).unwrap();
        assert_eq!(x.len(), 4);
        assert_eq!(sorted(x), sorted(y));
    }

    #[test]
    fn agrees_on_selector_covered_star() {
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
        let gp = GraphPattern {
            paths: vec![PathPatternExpr {
                selector: Some(Selector::AllShortest),
                restrictor: None,
                path_var: None,
                pattern: PathPattern::concat(vec![
                    node("s"),
                    body.quantified(Quantifier::star()),
                    node("d"),
                ]),
            }],
            where_clause: None,
        };
        let opts = EvalOptions::default();
        let x = evaluate(&g, &gp, &opts).unwrap();
        let y = crate::eval::evaluate(&g, &gp, &opts).unwrap();
        assert_eq!(x.len(), 9); // every ordered pair on a 3-cycle
        assert_eq!(sorted(x), sorted(y));
    }

    #[test]
    fn union_dedup_matches_engine() {
        let g = chain(3);
        let branch =
            |l: &str| PathPattern::Node(NodePattern::var("c").with_label(LabelExpr::label(l)));
        let gp = GraphPattern::single(PathPattern::Union(vec![branch("N"), branch("N")]));
        let opts = EvalOptions::default();
        let x = evaluate(&g, &gp, &opts).unwrap();
        assert_eq!(x.len(), 3);
        let gp = GraphPattern::single(PathPattern::Alternation(vec![branch("N"), branch("N")]));
        let x = evaluate(&g, &gp, &opts).unwrap();
        assert_eq!(x.len(), 6);
    }

    #[test]
    fn baseline_rejects_parameterized_patterns() {
        // The oracle takes no bindings; a `$name` must be a typed error,
        // never a silent NULL that empties every predicate.
        let g = chain(3);
        let gp = GraphPattern::single(PathPattern::Node(NodePattern::var("x").with_predicate(
            Expr::cmp(
                crate::ast::CmpOp::Ge,
                Expr::prop("x", "w"),
                Expr::Parameter("min".into()),
            ),
        )));
        assert_eq!(
            evaluate(&g, &gp, &EvalOptions::default()),
            Err(Error::UnboundParameter { name: "min".into() })
        );
    }

    fn sorted(ms: MatchSet) -> Vec<crate::binding::MatchRow> {
        let mut rows = ms.rows;
        rows.sort();
        rows
    }
}
