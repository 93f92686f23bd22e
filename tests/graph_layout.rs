//! The label-typed graph layout under mutation, and the engine reading
//! it.
//!
//! Graphs here are built by random batches of adds, removals and property
//! sets, with multi-label, unlabelled and undirected edges, self loops
//! and node removal. Half of them first intern 70 throwaway labels, so
//! every label they use sits past the 64-symbol bitmask. After each batch
//! the layout oracle ([`PropertyGraph::validate`]) must hold and every
//! typed adjacency read must return exactly the steps a full scan keeps;
//! on the finished graphs the engine must agree with the §6 baseline for
//! every label expression shape and orientation, on the kernel and on the
//! interpreter, sequentially and in parallel.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use gpml_suite::core::ast::*;
use gpml_suite::core::binding::MatchRow;
use gpml_suite::core::eval::{evaluate, EvalOptions};
use gpml_suite::core::plan::prepare;
use gpml_suite::core::{baseline, Error, GraphPattern};
use property_graph::{ElementId, Endpoints, NodeId, PropertyGraph, Step, Traversal, Value};

const NODE_LABELS: [&[&str]; 4] = [&[], &["A"], &["B"], &["A", "B"]];
const EDGE_LABELS: [&[&str]; 5] = [&[], &["T"], &["U"], &["T", "U"], &["T", "A"]];

/// A graph grown by `batches` random mutation batches from `seed`;
/// `check` runs after every batch.
fn mutated(
    seed: u64,
    batches: usize,
    size: usize,
    check: impl Fn(&PropertyGraph),
) -> PropertyGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = PropertyGraph::new();
    if seed % 2 == 1 {
        let padding: Vec<String> = (0..70).map(|i| format!("P{i}")).collect();
        let n = g.add_node("padding", padding, []);
        g.remove_element(n.into()).unwrap();
    }
    let mut fresh = 0usize;
    for _ in 0..batches {
        for _ in 0..size {
            fresh += 1;
            let nodes: Vec<NodeId> = g.nodes().collect();
            match rng.gen_range(0..10) {
                0..=2 => {
                    let labels = NODE_LABELS[rng.gen_range(0..NODE_LABELS.len())];
                    g.add_node(&format!("n{fresh}"), labels.iter().copied(), []);
                }
                3..=6 if !nodes.is_empty() => {
                    let u = nodes[rng.gen_range(0..nodes.len())];
                    let v = match rng.gen_bool(0.2) {
                        true => u,
                        false => nodes[rng.gen_range(0..nodes.len())],
                    };
                    let ends = match rng.gen_bool(0.3) {
                        true => Endpoints::undirected(u, v),
                        false => Endpoints::directed(u, v),
                    };
                    let labels = EDGE_LABELS[rng.gen_range(0..EDGE_LABELS.len())];
                    let w = Value::Int(rng.gen_range(0..3));
                    g.add_edge(
                        &format!("e{fresh}"),
                        ends,
                        labels.iter().copied(),
                        [("w", w)],
                    );
                }
                7 if g.edge_count() > 0 => {
                    let e = g.edges().nth(rng.gen_range(0..g.edge_count())).unwrap();
                    g.remove_element(e.into()).unwrap();
                }
                8 if !nodes.is_empty() => {
                    // Drop a node with everything incident to it.
                    let n = nodes[rng.gen_range(0..nodes.len())];
                    while let Some(s) = g.steps(n).first() {
                        g.remove_element(s.edge.into()).unwrap();
                    }
                    g.remove_element(n.into()).unwrap();
                }
                _ if !nodes.is_empty() => {
                    let el: ElementId = match g.edge_count() > 0 && rng.gen_bool(0.5) {
                        true => g
                            .edges()
                            .nth(rng.gen_range(0..g.edge_count()))
                            .unwrap()
                            .into(),
                        false => nodes[rng.gen_range(0..nodes.len())].into(),
                    };
                    let v = match rng.gen_bool(0.3) {
                        true => Value::Null,
                        false => Value::Int(rng.gen_range(0..3)),
                    };
                    g.set_property(el, "w", v);
                }
                _ => {}
            }
        }
        check(&g);
    }
    g
}

/// Sorts steps into a comparable multiset.
fn sorted_steps<'a>(steps: impl Iterator<Item = &'a Step>) -> Vec<(u32, u32, u8)> {
    let mut out: Vec<_> = steps
        .map(|s| (s.edge.0, s.to.0, s.traversal as u8))
        .collect();
    out.sort_unstable();
    out
}

/// The layout oracle, plus every typed read against a filtered full scan.
fn check_layout(g: &PropertyGraph) {
    g.validate().unwrap();
    let labels = [
        None,
        Some("A"),
        Some("T"),
        Some("U"),
        Some("P3"),
        Some("Nope"),
    ];
    for n in g.nodes() {
        for tr in [
            Traversal::Forward,
            Traversal::Backward,
            Traversal::Undirected,
        ] {
            for label in labels {
                let want = sorted_steps(g.steps(n).iter().filter(|s| {
                    s.traversal == tr && label.is_none_or(|l| g.edge(s.edge).has_label(l))
                }));
                let got = match label.map(|l| g.label_sym(l)) {
                    Some(None) => Vec::new(),
                    Some(sym) => sorted_steps(g.typed_steps(n, |t| t == tr, sym)),
                    None => sorted_steps(g.typed_steps(n, |t| t == tr, None)),
                };
                assert_eq!(got, want, "{n:?} {tr:?} {label:?}");
            }
        }
    }
}

fn rows(result: gpml_suite::core::MatchSet) -> Vec<MatchRow> {
    let mut rows = result.rows;
    rows.sort();
    rows
}

/// The engine at `threads` against the baseline on one pattern.
fn check_against_baseline(g: &PropertyGraph, gp: &GraphPattern, threads: usize) {
    let opts = EvalOptions {
        threads,
        max_matches: 200_000,
        ..EvalOptions::default()
    };
    match (evaluate(g, gp, &opts), baseline::evaluate(g, gp, &opts)) {
        (Ok(a), Ok(b)) => assert_eq!(rows(a), rows(b), "{gp} at threads {threads}"),
        // The baseline may exhaust its budget where the engine does not.
        (Ok(_), Err(Error::LimitExceeded { .. })) => {}
        (a, b) => panic!("{gp} at threads {threads}: {:?} vs {:?}", a.err(), b.err()),
    }
}

fn label_exprs() -> Vec<Option<LabelExpr>> {
    let (t, u) = (LabelExpr::label("T"), LabelExpr::label("U"));
    vec![
        None,
        Some(t.clone()),
        Some(t.clone().or(u.clone())),
        Some(t.clone().and(u)),
        Some(t.not()),
        Some(LabelExpr::Wildcard),
        Some(LabelExpr::label("A")),
        Some(LabelExpr::label("Nope")),
    ]
}

/// `(a) -[e:L? d]- (b:NL?)` on the interpreter, and
/// `ANY SHORTEST p = (a) [()-[e:L? d]-()]{1,3} (b:NL?)` on the kernel
/// (bounded, so the baseline enumerates few walks).
fn patterns(d: Direction, edge: Option<LabelExpr>, node: Option<LabelExpr>) -> [GraphPattern; 2] {
    let with = |p: NodePattern| match &node {
        Some(l) => p.with_label(l.clone()),
        None => p,
    };
    let mut ep = EdgePattern::any(d).with_var("e");
    ep.label = edge;
    let single = PathPattern::concat(vec![
        PathPattern::Node(NodePattern::var("a")),
        PathPattern::Edge(ep.clone()),
        PathPattern::Node(with(NodePattern::var("b"))),
    ]);
    let body = PathPattern::concat(vec![
        PathPattern::Node(NodePattern::any()),
        PathPattern::Edge(ep),
        PathPattern::Node(NodePattern::any()),
    ]);
    let walk = PathPatternExpr {
        selector: Some(Selector::AnyShortest),
        restrictor: None,
        path_var: Some("p".into()),
        pattern: PathPattern::concat(vec![
            PathPattern::Node(NodePattern::var("a")),
            body.paren().quantified(Quantifier::range(1, Some(3))),
            PathPattern::Node(with(NodePattern::var("b"))),
        ]),
    };
    [
        GraphPattern::single(single),
        GraphPattern {
            paths: vec![walk],
            where_clause: None,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Symbols, label sets and adjacency groups stay equal to a rebuild
    /// from the element records through every mutation batch.
    #[test]
    fn layout_survives_random_mutation_batches(seed in 0u64..10_000) {
        mutated(seed, 6, 12, check_layout);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Typed reads and integer label tests agree with the baseline's
    /// label-name tests for every label shape and orientation.
    #[test]
    fn typed_reads_agree_with_the_baseline(seed in 0u64..10_000) {
        let g = mutated(seed, 3, 6, check_layout);
        for d in Direction::ALL {
            for label in label_exprs() {
                let shapes = [(label.clone(), None), (None, label)];
                for (edge, node) in shapes {
                    let [single, walk] = patterns(d, edge, node);
                    let explain = |gp: &GraphPattern| {
                        prepare(gp, &EvalOptions::default()).unwrap().explain()
                    };
                    assert!(!explain(&single).contains("shortest-path kernel"));
                    assert!(explain(&walk).contains("shortest-path kernel"));
                    for threads in [1, 2] {
                        check_against_baseline(&g, &single, threads);
                        check_against_baseline(&g, &walk, threads);
                    }
                }
            }
        }
    }
}
