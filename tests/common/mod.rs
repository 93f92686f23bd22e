//! Shared random-pattern generators for the integration suites.
//!
//! `engines_agree.rs` drives these straight into the evaluators;
//! `server_wire.rs` renders them to concrete syntax (the AST printer
//! round-trips through the parser) and replays them over the gpmld wire
//! protocol. One generator set, two consumers — so the wire corpus is
//! exactly the corpus the engine-agreement suite already trusts.

// Each integration-test crate compiles this module independently and
// uses a different subset of it.
#![allow(dead_code)]

pub mod abuse;

use proptest::prelude::*;

use gpml_suite::core::ast::*;
use gpml_suite::graph::Value;

pub fn var() -> impl Strategy<Value = Option<String>> {
    proptest::option::of(proptest::sample::select(vec![
        "x".to_owned(),
        "y".to_owned(),
        "z".to_owned(),
        "e".to_owned(),
        "f".to_owned(),
    ]))
}

pub fn label() -> impl Strategy<Value = Option<LabelExpr>> {
    proptest::option::of(prop_oneof![
        Just(LabelExpr::label("A")),
        Just(LabelExpr::label("B")),
        Just(LabelExpr::label("T")),
        Just(LabelExpr::label("U")),
        Just(LabelExpr::label("A").or(LabelExpr::label("B"))),
    ])
}

pub fn node_pat(node_vars: bool) -> impl Strategy<Value = NodePattern> {
    (
        if node_vars {
            var().boxed()
        } else {
            Just(None).boxed()
        },
        label(),
    )
        .prop_map(|(var, label)| {
            let var = var.filter(|v| !v.starts_with('e') && !v.starts_with('f'));
            NodePattern {
                var,
                label,
                predicate: None,
            }
        })
}

pub fn edge_pat() -> impl Strategy<Value = EdgePattern> {
    (
        proptest::option::of(proptest::sample::select(vec![
            "e".to_owned(),
            "f".to_owned(),
        ])),
        label(),
        proptest::sample::select(Direction::ALL.to_vec()),
        proptest::option::of(0i64..4),
    )
        .prop_map(|(var, label, direction, weight)| {
            // Per-edge weight prefilter exercises predicate paths; it
            // references only the edge's own variable.
            let predicate = match (&var, weight) {
                (Some(v), Some(w)) => Some(Expr::cmp(
                    CmpOp::Ge,
                    Expr::prop(v.clone(), "w"),
                    Expr::lit(w),
                )),
                _ => None,
            };
            EdgePattern {
                var,
                label,
                predicate,
                direction,
            }
        })
}

/// A step: edge or edge+node.
pub fn step() -> impl Strategy<Value = Vec<PathPattern>> {
    (edge_pat(), node_pat(true)).prop_map(|(e, n)| vec![PathPattern::Edge(e), PathPattern::Node(n)])
}

/// An equality prefilter on an indexed property of `small_mixed` nodes:
/// `var.k = 'k0'|'k1'|'k2'` (string) or `var.b = true|false` (boolean).
/// The parameterized suites lift its literal into a `$param`.
pub fn probe_predicate(var: &str) -> impl Strategy<Value = Expr> {
    let var = var.to_owned();
    prop_oneof![
        (0u8..3).prop_map(|i| ("k", Value::str(format!("k{i}")))),
        proptest::bool::ANY.prop_map(|b| ("b", Value::Bool(b))),
    ]
    .prop_map(move |(key, value)| Expr::prop(var.clone(), key).eq(Expr::Literal(value)))
}

/// The first node of a chain: biased toward the start variable `x`, so
/// chains of one graph pattern often share their start variable (the
/// seeded-start case), and, when named, sometimes carrying an index
/// probe (the access-path case).
pub fn start_node_pat() -> impl Strategy<Value = NodePattern> {
    let node = prop_oneof![
        node_pat(true),
        label().prop_map(|label| NodePattern {
            var: Some("x".to_owned()),
            label,
            predicate: None,
        }),
    ];
    node.prop_flat_map(|np| match np.var.clone() {
        Some(v) => proptest::option::of(probe_predicate(&v))
            .prop_map(move |predicate| NodePattern {
                predicate,
                ..np.clone()
            })
            .boxed(),
        None => Just(np).boxed(),
    })
}

/// A linear chain pattern `(n) (step)*`.
pub fn chain_pattern() -> impl Strategy<Value = PathPattern> {
    (start_node_pat(), proptest::collection::vec(step(), 0..3)).prop_map(|(first, steps)| {
        let mut parts = vec![PathPattern::Node(first)];
        for s in steps {
            parts.extend(s);
        }
        PathPattern::concat(parts)
    })
}

/// A pattern with one (bounded or restrictor-covered unbounded)
/// quantifier in the middle.
pub fn quantified_pattern(
) -> impl Strategy<Value = (Option<Restrictor>, Option<Selector>, PathPattern)> {
    let body = (edge_pat(), node_pat(false)).prop_map(|(e, n)| {
        PathPattern::concat(vec![
            PathPattern::Node(NodePattern::any()),
            PathPattern::Edge(e),
            PathPattern::Node(n),
        ])
        .paren()
    });
    (
        node_pat(true),
        body,
        prop_oneof![
            // Bounded quantifiers need no cover.
            (0u32..2, 1u32..3).prop_map(|(m, s)| (Quantifier::range(m, Some(m + s)), false)),
            // Unbounded ones get one from the caller.
            Just((Quantifier::plus(), true)),
            Just((Quantifier::star(), true)),
        ],
        node_pat(true),
        proptest::sample::select(vec![
            Some(Restrictor::Trail),
            Some(Restrictor::Acyclic),
            Some(Restrictor::Simple),
        ]),
        proptest::option::of(proptest::sample::select(vec![
            Selector::AnyShortest,
            Selector::AllShortest,
            Selector::ShortestK(2),
            Selector::ShortestKGroup(2),
            Selector::AnyK(2),
            Selector::Any,
        ])),
    )
        .prop_map(
            |(first, body, (q, unbounded), last, restrictor, selector)| {
                let pattern = PathPattern::concat(vec![
                    PathPattern::Node(first),
                    body.quantified(q),
                    PathPattern::Node(last),
                ]);
                let restrictor = if unbounded { restrictor } else { None };
                (restrictor, selector, pattern)
            },
        )
}

pub fn union_pattern() -> impl Strategy<Value = PathPattern> {
    (
        proptest::collection::vec(chain_pattern(), 2..4),
        proptest::bool::ANY,
    )
        .prop_map(|(branches, multiset)| {
            if multiset {
                PathPattern::Alternation(branches)
            } else {
                PathPattern::Union(branches)
            }
        })
}
