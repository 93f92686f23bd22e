//! Label expressions resolved against one graph's label symbols.
//!
//! A [`super::flat::FlatProgram`] is graph-independent and cached across
//! executions, so its patterns keep label *names*. Each search resolves
//! them once against the graph it runs on ([`PropertyGraph::label_sym`]):
//! node and edge label tests then compare integers, and an edge pattern
//! with one label reads only the adjacency groups of that label
//! ([`EdgeScan::steps`]). A label no element of the graph carries
//! resolves to a test that matches nothing.

use property_graph::{LabelSet, LabelSym, NodeId, PropertyGraph, Step};

use crate::ast::{Direction, EdgePattern, LabelExpr};
use crate::eval::flat::FlatProgram;

/// A program's node and edge patterns resolved against one graph,
/// indexed like the program's operand tables.
pub(crate) struct ProgramLabels {
    pub(crate) nodes: Vec<LabelTest>,
    pub(crate) edges: Vec<EdgeScan>,
}

impl ProgramLabels {
    pub(crate) fn resolve(prog: &FlatProgram, graph: &PropertyGraph) -> ProgramLabels {
        ProgramLabels {
            nodes: (prog.node_pats.iter())
                .map(|np| LabelTest::resolve(np.label.as_ref(), graph))
                .collect(),
            edges: (prog.edge_pats.iter())
                .map(|ep| EdgeScan::resolve(ep, graph))
                .collect(),
        }
    }
}

/// A [`LabelExpr`] over one graph's symbols, with constant parts folded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum LabelTest {
    /// Matches every element (no label expression, or one that folds to
    /// true, like `!Unknown`).
    True,
    /// Matches no element (a label the graph does not have).
    False,
    /// `%`: the element has at least one label.
    Wildcard,
    /// The element carries this label.
    Has(LabelSym),
    Not(Box<LabelTest>),
    And(Box<LabelTest>, Box<LabelTest>),
    Or(Box<LabelTest>, Box<LabelTest>),
}

impl LabelTest {
    /// Resolves an optional label expression against `graph`'s symbols.
    pub(crate) fn resolve(expr: Option<&LabelExpr>, graph: &PropertyGraph) -> LabelTest {
        use LabelTest::*;
        let Some(expr) = expr else {
            return True;
        };
        let sub = |e: &LabelExpr| LabelTest::resolve(Some(e), graph);
        match expr {
            LabelExpr::Wildcard => Wildcard,
            LabelExpr::Label(name) => graph.label_sym(name).map_or(False, Has),
            LabelExpr::Not(e) => match sub(e) {
                True => False,
                False => True,
                t => Not(Box::new(t)),
            },
            LabelExpr::And(a, b) => match (sub(a), sub(b)) {
                (False, _) | (_, False) => False,
                (True, t) | (t, True) => t,
                (a, b) => And(Box::new(a), Box::new(b)),
            },
            LabelExpr::Or(a, b) => match (sub(a), sub(b)) {
                (True, _) | (_, True) => True,
                (False, t) | (t, False) => t,
                (a, b) => Or(Box::new(a), Box::new(b)),
            },
        }
    }

    /// Evaluates the test against an element's label set.
    #[inline]
    pub(crate) fn matches(&self, labels: &LabelSet) -> bool {
        match self {
            LabelTest::True => true,
            LabelTest::False => false,
            LabelTest::Wildcard => !labels.is_empty(),
            LabelTest::Has(l) => labels.contains(*l),
            LabelTest::Not(t) => !t.matches(labels),
            LabelTest::And(a, b) => a.matches(labels) && b.matches(labels),
            LabelTest::Or(a, b) => a.matches(labels) || b.matches(labels),
        }
    }

    /// The node pattern test: `n`'s labels against this test.
    #[inline]
    pub(crate) fn node(&self, graph: &PropertyGraph, n: NodeId) -> bool {
        self.matches(graph.node_label_syms(n))
    }
}

/// One edge pattern's orientation and label, resolved against a graph:
/// the typed adjacency read of a `Consume` and the label test left over
/// after it.
#[derive(Clone, Debug)]
pub(crate) struct EdgeScan {
    direction: Direction,
    label: LabelTest,
}

impl EdgeScan {
    pub(crate) fn resolve(ep: &EdgePattern, graph: &PropertyGraph) -> EdgeScan {
        EdgeScan {
            direction: ep.direction,
            label: LabelTest::resolve(ep.label.as_ref(), graph),
        }
    }

    /// The steps out of `n` that the pattern's orientation admits, read
    /// only from the matching adjacency groups. With a single label the
    /// groups are that label's, and [`EdgeScan::admits`] has nothing left
    /// to test; a label the graph lacks reads nothing.
    #[inline]
    pub(crate) fn steps<'g>(
        &self,
        graph: &'g PropertyGraph,
        n: NodeId,
    ) -> impl Iterator<Item = &'g Step> + 'g {
        let (direction, live) = (self.direction, !matches!(self.label, LabelTest::False));
        let label = match self.label {
            LabelTest::Has(l) => Some(l),
            _ => None,
        };
        graph.typed_steps(n, move |t| live && direction.permits(t), label)
    }

    /// The label test a step from [`EdgeScan::steps`] must still pass.
    #[inline]
    pub(crate) fn admits(&self, graph: &PropertyGraph, step: &Step) -> bool {
        match &self.label {
            LabelTest::True | LabelTest::Has(_) => true,
            test => test.matches(graph.edge_label_syms(step.edge)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use property_graph::{Endpoints, Traversal};

    /// Every label expression over `{A, B, Z}` (Z absent from the graph)
    /// up to depth two agrees with [`LabelExpr::matches`] on every
    /// element, and every scan reads exactly the steps a full scan with
    /// the orientation and string label test keeps.
    #[test]
    fn resolved_tests_agree_with_label_names() {
        let mut g = PropertyGraph::new();
        let kinds: [&[&str]; 4] = [&[], &["A"], &["B"], &["A", "B"]];
        let ns: Vec<NodeId> = (0..4)
            .map(|i| g.add_node(&format!("n{i}"), kinds[i].iter().copied(), []))
            .collect();
        for (i, labels) in kinds.iter().enumerate() {
            let (u, v) = (ns[i], ns[(i + 1) % 4]);
            g.add_edge(
                &format!("d{i}"),
                Endpoints::directed(u, v),
                labels.iter().copied(),
                [],
            );
            g.add_edge(
                &format!("u{i}"),
                Endpoints::undirected(u, u),
                labels.iter().copied(),
                [],
            );
        }
        let atoms = [
            LabelExpr::Wildcard,
            LabelExpr::label("A"),
            LabelExpr::label("B"),
            LabelExpr::label("Z"),
        ];
        let mut exprs: Vec<LabelExpr> = atoms.to_vec();
        for a in &atoms {
            exprs.push(a.clone().not());
            for b in &atoms {
                exprs.push(a.clone().and(b.clone()));
                exprs.push(a.clone().or(b.clone().not()));
            }
        }
        for expr in &exprs {
            let test = LabelTest::resolve(Some(expr), &g);
            for &n in &ns {
                assert_eq!(
                    test.node(&g, n),
                    expr.matches(&g.node(n).labels),
                    "{expr} at {n:?}"
                );
            }
            for d in Direction::ALL {
                let ep = EdgePattern::any(d).with_label(expr.clone());
                let scan = EdgeScan::resolve(&ep, &g);
                for &n in &ns {
                    let mut got: Vec<Step> = scan
                        .steps(&g, n)
                        .filter(|s| scan.admits(&g, s))
                        .copied()
                        .collect();
                    let mut want: Vec<Step> = g
                        .steps(n)
                        .iter()
                        .filter(|s| d.permits(s.traversal) && expr.matches(&g.edge(s.edge).labels))
                        .copied()
                        .collect();
                    let key = |s: &Step| (s.edge, s.traversal == Traversal::Backward);
                    got.sort_by_key(key);
                    want.sort_by_key(key);
                    assert_eq!(got, want, "{d:?} {expr} at {n:?}");
                }
            }
        }
        assert_eq!(LabelTest::resolve(None, &g), LabelTest::True);
        assert_eq!(
            LabelTest::resolve(Some(&LabelExpr::label("Z").not()), &g),
            LabelTest::True
        );
    }
}
