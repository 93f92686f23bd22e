//! Property tests of the §5 semantic invariants on random graphs:
//! restrictors really restrict, selectors really select, deduplication is
//! idempotent, and the SPARQL/GSQL comparison modes behave as §3 says.

use std::collections::BTreeMap;

use proptest::prelude::*;

use gpml_suite::core::ast::*;
use gpml_suite::core::binding::BoundValue;
use gpml_suite::core::eval::{evaluate, EvalOptions, MatchMode};
use gpml_suite::core::GraphPattern;
use gpml_suite::datagen::small_mixed;
use property_graph::{NodeId, Path};

/// `(a) [()-[t]->()]<quant> (b)` with a path variable.
fn star_query(selector: Option<Selector>, restrictor: Option<Restrictor>) -> GraphPattern {
    let body = PathPattern::concat(vec![
        PathPattern::Node(NodePattern::any()),
        PathPattern::Edge(EdgePattern::any(Direction::Right).with_var("t")),
        PathPattern::Node(NodePattern::any()),
    ])
    .paren();
    GraphPattern {
        paths: vec![PathPatternExpr {
            selector,
            restrictor,
            path_var: Some("p".into()),
            pattern: PathPattern::concat(vec![
                PathPattern::Node(NodePattern::var("a")),
                body.quantified(Quantifier::star()),
                PathPattern::Node(NodePattern::var("b")),
            ]),
        }],
        where_clause: None,
    }
}

fn paths(rs: &gpml_suite::core::MatchSet) -> Vec<Path> {
    rs.iter()
        .map(|r| r.get("p").unwrap().as_path().unwrap().clone())
        .collect()
}

/// A row of [`star_query`] in `PathBinding` order: the walk, then the
/// remaining variables.
type BindingKey = (Path, BTreeMap<String, BoundValue>);

fn binding_key(row: &gpml_suite::core::binding::MatchRow) -> BindingKey {
    let mut vars = row.values.clone();
    let walk = vars.remove("p").unwrap().as_path().unwrap().clone();
    (walk, vars)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// TRAIL: no returned walk repeats an edge.
    #[test]
    fn trail_never_repeats_edges(seed in 0u64..300) {
        let g = small_mixed(seed, 5, 9);
        let rs = evaluate(&g, &star_query(None, Some(Restrictor::Trail)),
                          &EvalOptions::default()).unwrap();
        for p in paths(&rs) {
            prop_assert!(p.is_trail());
            prop_assert!(p.is_valid_in(&g));
        }
    }

    /// ACYCLIC: no returned walk repeats a node.
    #[test]
    fn acyclic_never_repeats_nodes(seed in 0u64..300) {
        let g = small_mixed(seed, 5, 9);
        let rs = evaluate(&g, &star_query(None, Some(Restrictor::Acyclic)),
                          &EvalOptions::default()).unwrap();
        for p in paths(&rs) {
            prop_assert!(p.is_acyclic());
        }
    }

    /// SIMPLE: no repeated node except possibly first == last.
    #[test]
    fn simple_allows_only_closing_cycles(seed in 0u64..300) {
        let g = small_mixed(seed, 5, 9);
        let rs = evaluate(&g, &star_query(None, Some(Restrictor::Simple)),
                          &EvalOptions::default()).unwrap();
        for p in paths(&rs) {
            prop_assert!(p.is_simple());
        }
    }

    /// ALL SHORTEST: within each endpoint partition all kept paths share
    /// the minimal length, and every kept path is at most as long as any
    /// TRAIL path between the same endpoints.
    #[test]
    fn all_shortest_is_minimal_per_partition(seed in 0u64..300) {
        let g = small_mixed(seed, 5, 9);
        let shortest = evaluate(&g, &star_query(Some(Selector::AllShortest), None),
                                &EvalOptions::default()).unwrap();
        let mut by_partition: BTreeMap<(NodeId, NodeId), Vec<usize>> = BTreeMap::new();
        for p in paths(&shortest) {
            by_partition.entry((p.start(), p.end())).or_default().push(p.len());
        }
        for lens in by_partition.values() {
            prop_assert!(lens.iter().all(|l| l == &lens[0]));
        }
        // Cross-check against exhaustive TRAIL enumeration.
        let trails = evaluate(&g, &star_query(None, Some(Restrictor::Trail)),
                              &EvalOptions::default()).unwrap();
        let mut trail_min: BTreeMap<(NodeId, NodeId), usize> = BTreeMap::new();
        for p in paths(&trails) {
            let e = trail_min.entry((p.start(), p.end())).or_insert(usize::MAX);
            *e = (*e).min(p.len());
        }
        for (part, lens) in &by_partition {
            // A shortest walk is never longer than the shortest trail
            // (the shortest walk never repeats an edge).
            if let Some(min_trail) = trail_min.get(part) {
                prop_assert!(lens[0] <= *min_trail, "partition {part:?}");
            }
        }
    }

    /// ANY SHORTEST keeps exactly one path per nonempty partition of
    /// ALL SHORTEST, with the same (minimal) length — and it is the
    /// canonical one: the least binding of the partition, ordered by walk
    /// (node sequence, then edge sequence) and then by the other
    /// variables, as `PathBinding` orders.
    #[test]
    fn any_shortest_picks_one_of_all_shortest(seed in 0u64..300) {
        let g = small_mixed(seed, 5, 9);
        let all = evaluate(&g, &star_query(Some(Selector::AllShortest), None),
                           &EvalOptions::default()).unwrap();
        let any = evaluate(&g, &star_query(Some(Selector::AnyShortest), None),
                           &EvalOptions::default()).unwrap();
        let mut all_parts: BTreeMap<(NodeId, NodeId), usize> = BTreeMap::new();
        for p in paths(&all) {
            all_parts.insert((p.start(), p.end()), p.len());
        }
        let any_paths = paths(&any);
        prop_assert_eq!(any_paths.len(), all_parts.len());
        for p in any_paths {
            prop_assert_eq!(all_parts.get(&(p.start(), p.end())), Some(&p.len()));
        }
        let mut least: BTreeMap<(NodeId, NodeId), BindingKey> = BTreeMap::new();
        for row in all.iter() {
            let key = binding_key(row);
            let part = (key.0.start(), key.0.end());
            match least.get(&part) {
                Some(kept) if *kept <= key => {}
                _ => {
                    least.insert(part, key);
                }
            }
        }
        for row in any.iter() {
            let key = binding_key(row);
            prop_assert_eq!(least.get(&(key.0.start(), key.0.end())), Some(&key));
        }
    }

    /// SHORTEST k GROUP: per partition, at most k distinct lengths, and
    /// they are the k smallest among TRAIL-reachable lengths ∪ shortest.
    #[test]
    fn shortest_k_group_keeps_k_length_groups(seed in 0u64..300, k in 1u32..3) {
        let g = small_mixed(seed, 4, 7);
        let rs = evaluate(&g, &star_query(Some(Selector::ShortestKGroup(k)), None),
                          &EvalOptions::default()).unwrap();
        let mut by_partition: BTreeMap<(NodeId, NodeId), Vec<usize>> = BTreeMap::new();
        for p in paths(&rs) {
            by_partition.entry((p.start(), p.end())).or_default().push(p.len());
        }
        for lens in by_partition.values() {
            let mut distinct = lens.clone();
            distinct.sort();
            distinct.dedup();
            prop_assert!(distinct.len() <= k as usize);
        }
    }

    /// Deduplication is idempotent: evaluating twice gives identical rows.
    #[test]
    fn evaluation_is_deterministic(seed in 0u64..300) {
        let g = small_mixed(seed, 5, 8);
        let q = star_query(Some(Selector::ShortestK(2)), None);
        let a = evaluate(&g, &q, &EvalOptions::default()).unwrap();
        let b = evaluate(&g, &q, &EvalOptions::default()).unwrap();
        prop_assert_eq!(a, b);
    }

    /// SPARQL endpoint-only mode returns at most one row per endpoint
    /// pair, and exactly the reachable pairs of the GPML result.
    #[test]
    fn endpoint_mode_collapses_to_reachability(seed in 0u64..300) {
        let g = small_mixed(seed, 5, 8);
        let gpml = evaluate(&g, &star_query(Some(Selector::AllShortest), None),
                            &EvalOptions::default()).unwrap();
        let sparql = evaluate(
            &g,
            &star_query(Some(Selector::AllShortest), None),
            &EvalOptions { mode: MatchMode::EndpointOnly, ..EvalOptions::default() },
        ).unwrap();
        let mut gpml_pairs: Vec<(BoundValue, BoundValue)> = gpml
            .iter()
            .map(|r| (r.get("a").unwrap().clone(), r.get("b").unwrap().clone()))
            .collect();
        gpml_pairs.sort();
        gpml_pairs.dedup();
        let mut sparql_pairs: Vec<(BoundValue, BoundValue)> = sparql
            .iter()
            .map(|r| (r.get("a").unwrap().clone(), r.get("b").unwrap().clone()))
            .collect();
        sparql_pairs.sort();
        let deduped = {
            let mut d = sparql_pairs.clone();
            d.dedup();
            d
        };
        prop_assert_eq!(&sparql_pairs, &deduped, "endpoint mode must not duplicate pairs");
        prop_assert_eq!(sparql_pairs, gpml_pairs);
    }

    /// GSQL default mode equals explicitly writing ALL SHORTEST.
    #[test]
    fn gsql_mode_equals_explicit_all_shortest(seed in 0u64..300) {
        let g = small_mixed(seed, 5, 8);
        let explicit = evaluate(&g, &star_query(Some(Selector::AllShortest), None),
                                &EvalOptions::default()).unwrap();
        let implicit = evaluate(
            &g,
            &star_query(None, None),
            &EvalOptions { mode: MatchMode::GsqlDefault, ..EvalOptions::default() },
        ).unwrap();
        let mut a = explicit.rows;
        let mut b = implicit.rows;
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    /// Adding a selector to a query with matches always leaves at least
    /// one match; adding a restrictor may empty it but never invents
    /// matches (§5.1).
    #[test]
    fn selector_preserves_nonemptiness(seed in 0u64..300) {
        let g = small_mixed(seed, 5, 8);
        let bounded = GraphPattern::single(PathPattern::concat(vec![
            PathPattern::Node(NodePattern::var("a")),
            PathPattern::Edge(EdgePattern::any(Direction::Right).with_var("t"))
                .quantified(Quantifier::range(1, Some(3))),
            PathPattern::Node(NodePattern::var("b")),
        ]));
        let plain = evaluate(&g, &bounded, &EvalOptions::default()).unwrap();
        let mut with_sel = bounded.clone();
        with_sel.paths[0].selector = Some(Selector::AnyShortest);
        let selected = evaluate(&g, &with_sel, &EvalOptions::default()).unwrap();
        if !plain.is_empty() {
            prop_assert!(!selected.is_empty());
        }
        prop_assert!(selected.len() <= plain.len());
        let mut with_restr = bounded.clone();
        with_restr.paths[0].restrictor = Some(Restrictor::Acyclic);
        let restricted = evaluate(&g, &with_restr, &EvalOptions::default()).unwrap();
        prop_assert!(restricted.len() <= plain.len());
    }
}
