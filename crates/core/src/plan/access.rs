//! Access paths: the nodes a stage's search starts from.
//!
//! A stage whose pattern opens with a node pattern — a `Node`, or a
//! `Concat` whose first factor is a `Node` — need not start from every
//! node of the graph. Its first `NodeTest` runs the full label and
//! predicate check anyway, so any *superset* of the nodes that pass that
//! test yields exactly the same raw matches. This module picks the
//! smallest such superset the graph can name cheaply:
//!
//! 1. an **index probe** when the node pattern has a plain label and a
//!    top-level `AND` conjunct `var.key = literal` or `var.key = $param`
//!    (with the parameter bound) whose value the graph indexes;
//! 2. a **label scan** when it has a plain label;
//! 3. **all nodes** otherwise.
//!
//! Seeding from the accumulated join (the preferred option, when
//! admissible) is decided by the cost model, which knows the placed
//! stages; see `cost::plan_order`.

use std::borrow::Cow;

use property_graph::{NodeId, PropertyGraph};

use crate::ast::{CmpOp, Expr, LabelExpr, PathPattern};
use crate::params::Params;

/// The graph-independent half of a stage's start-set choice, read off
/// its pattern once at prepare time.
#[derive(Clone, Debug, Default)]
pub(crate) struct StartPattern {
    /// The variable the first node pattern binds (normalization names
    /// every node pattern, so it is `None` only for edge-first stages).
    pub(crate) var: Option<String>,
    /// The first node pattern's plain label.
    label: Option<String>,
    /// Equality conjuncts `var.key = value` of its prefilter, in
    /// declaration order; `value` is a literal or a parameter.
    probes: Vec<(String, Expr)>,
}

/// The access path chosen for one stage against one graph, with the
/// nodes it names (ascending ids).
#[derive(Debug)]
pub(crate) enum AccessPath<'a> {
    /// The nodes labeled `label` whose `key` equals `value`.
    Index {
        label: &'a str,
        key: &'a str,
        value: &'a Expr,
        nodes: &'a [NodeId],
    },
    /// The nodes labeled `label`.
    Label { label: &'a str, nodes: &'a [NodeId] },
    /// Every node.
    All,
}

impl<'a> AccessPath<'a> {
    /// How many start nodes the path names over `graph`.
    pub(crate) fn len(&self, graph: &PropertyGraph) -> usize {
        match self {
            AccessPath::Index { nodes, .. } | AccessPath::Label { nodes, .. } => nodes.len(),
            AccessPath::All => graph.node_count(),
        }
    }

    /// The start nodes themselves (only `All` allocates).
    pub(crate) fn nodes(&self, graph: &PropertyGraph) -> Cow<'a, [NodeId]> {
        match self {
            AccessPath::Index { nodes, .. } | AccessPath::Label { nodes, .. } => {
                Cow::Borrowed(nodes)
            }
            AccessPath::All => Cow::Owned(graph.nodes().collect()),
        }
    }
}

impl StartPattern {
    /// Reads the start node pattern of a normalized stage pattern.
    pub(crate) fn of(pattern: &PathPattern) -> StartPattern {
        let first = match pattern {
            PathPattern::Node(np) => np,
            PathPattern::Concat(parts) => match parts.first() {
                Some(PathPattern::Node(np)) => np,
                _ => return StartPattern::default(),
            },
            _ => return StartPattern::default(),
        };
        let label = match &first.label {
            Some(LabelExpr::Label(name)) => Some(name.clone()),
            _ => None,
        };
        let mut probes = Vec::new();
        if let (Some(var), Some(pred)) = (&first.var, &first.predicate) {
            collect_probes(pred, var, &mut probes);
        }
        StartPattern {
            var: first.var.clone(),
            label,
            probes,
        }
    }

    /// The access path this pattern admits over `graph` under `params`.
    pub(crate) fn resolve<'a>(
        &'a self,
        graph: &'a PropertyGraph,
        params: &Params,
    ) -> AccessPath<'a> {
        let Some(label) = &self.label else {
            return AccessPath::All;
        };
        for (key, value) in &self.probes {
            let bound = match value {
                Expr::Literal(v) => Some(v),
                Expr::Parameter(name) => params.get(name),
                _ => None,
            };
            if let Some(nodes) = bound.and_then(|v| graph.nodes_with_prop(label, key, v)) {
                return AccessPath::Index {
                    label,
                    key,
                    value,
                    nodes,
                };
            }
        }
        AccessPath::Label {
            label,
            nodes: graph.nodes_with_label(label),
        }
    }
}

/// Collects the top-level `AND` conjuncts of `pred` of the form
/// `var.key = literal|$param` (either side).
fn collect_probes(pred: &Expr, var: &str, out: &mut Vec<(String, Expr)>) {
    match pred {
        Expr::And(a, b) => {
            collect_probes(a, var, out);
            collect_probes(b, var, out);
        }
        Expr::Cmp(CmpOp::Eq, a, b) => match (a.as_ref(), b.as_ref()) {
            (Expr::Property(v, key), value @ (Expr::Literal(_) | Expr::Parameter(_)))
            | (value @ (Expr::Literal(_) | Expr::Parameter(_)), Expr::Property(v, key))
                if v == var =>
            {
                out.push((key.clone(), value.clone()));
            }
            _ => {}
        },
        _ => {}
    }
}
