//! Normalization — the first step of the §6 execution model.
//!
//! Normalization (§6.2) does three things:
//!
//! 1. makes every concatenation *consistent*: each sequence of node and edge
//!    patterns starts and ends with a node pattern and alternates between
//!    node and edge patterns (anonymous node patterns are inserted where
//!    needed, and quantified bare edge patterns receive anonymous node
//!    patterns on both sides);
//! 2. expands syntactic sugar (`+` → `{1,}`, `*` → `{0,}` — already encoded
//!    numerically in [`Quantifier`](crate::ast::Quantifier)); and
//! 3. introduces a fresh variable into every anonymous node and edge
//!    pattern. Fresh node variables are named `□1, □2, ...` and fresh edge
//!    variables `−1, −2, ...`, following the paper's notation; the `□`/`−`
//!    prefix is what marks a variable as anonymous throughout the engine.

use crate::ast::{GraphPattern, NodePattern, PathPattern, PathPatternExpr};

/// Prefix of fresh anonymous node variables.
pub const ANON_NODE_PREFIX: &str = "\u{25A1}"; // □
/// Prefix of fresh anonymous edge variables.
pub const ANON_EDGE_PREFIX: &str = "\u{2212}"; // −

/// True if `name` was generated for an anonymous node or edge pattern.
pub fn is_anonymous(name: &str) -> bool {
    name.starts_with(ANON_NODE_PREFIX) || name.starts_with(ANON_EDGE_PREFIX)
}

/// True if `name` was generated for an anonymous *node* pattern.
pub fn is_anonymous_node(name: &str) -> bool {
    name.starts_with(ANON_NODE_PREFIX)
}

/// Normalizes a whole graph pattern. Fresh-variable numbering is global
/// across all path patterns so anonymous variables never collide (and hence
/// never join).
pub fn normalize(pattern: &GraphPattern) -> GraphPattern {
    let mut n = Normalizer::default();
    GraphPattern {
        paths: pattern
            .paths
            .iter()
            .map(|p| PathPatternExpr {
                selector: p.selector.clone(),
                restrictor: p.restrictor,
                path_var: p.path_var.clone(),
                pattern: n.normalize_path(&p.pattern),
            })
            .collect(),
        where_clause: pattern.where_clause.clone(),
    }
}

/// Normalizes a single path pattern in isolation (used by tests and by the
/// baseline engine).
pub fn normalize_path(pattern: &PathPattern) -> PathPattern {
    Normalizer::default().normalize_path(pattern)
}

#[derive(Default)]
struct Normalizer {
    next_node: u32,
    next_edge: u32,
}

impl Normalizer {
    fn fresh_node(&mut self) -> String {
        self.next_node += 1;
        format!("{ANON_NODE_PREFIX}{}", self.next_node)
    }

    fn fresh_edge(&mut self) -> String {
        self.next_edge += 1;
        format!("{ANON_EDGE_PREFIX}{}", self.next_edge)
    }

    fn anon_node(&mut self) -> PathPattern {
        PathPattern::Node(NodePattern {
            var: Some(self.fresh_node()),
            label: None,
            predicate: None,
        })
    }

    fn normalize_path(&mut self, p: &PathPattern) -> PathPattern {
        let items = self.normalize_seq(p);
        PathPattern::concat(items)
    }

    /// Normalizes `p` into a consistent sequence of factors.
    fn normalize_seq(&mut self, p: &PathPattern) -> Vec<PathPattern> {
        let mut items = Vec::new();
        self.flatten(p, &mut items);
        // Insert anonymous node patterns so that edges are always framed by
        // node positions: before an edge at the start of the sequence, after
        // an edge at the end, and between two consecutive edges.
        let mut out = Vec::with_capacity(items.len() + 2);
        let mut prev_was_edge = true; // sequence start behaves like "after an edge"
        for item in items {
            let is_edge = matches!(item, PathPattern::Edge(_));
            if is_edge && prev_was_edge {
                out.push(self.anon_node());
            }
            prev_was_edge = is_edge;
            out.push(item);
        }
        if prev_was_edge {
            out.push(self.anon_node());
        }
        out
    }

    /// Recursively normalizes one factor and flattens nested concatenations.
    fn flatten(&mut self, p: &PathPattern, out: &mut Vec<PathPattern>) {
        match p {
            PathPattern::Concat(parts) => {
                for part in parts {
                    self.flatten(part, out);
                }
            }
            PathPattern::Node(n) => {
                let mut n = n.clone();
                if n.var.is_none() {
                    n.var = Some(self.fresh_node());
                }
                out.push(PathPattern::Node(n));
            }
            PathPattern::Edge(e) => {
                let mut e = e.clone();
                if e.var.is_none() {
                    e.var = Some(self.fresh_edge());
                }
                out.push(PathPattern::Edge(e));
            }
            PathPattern::Paren {
                restrictor,
                inner,
                predicate,
            } => {
                out.push(PathPattern::Paren {
                    restrictor: *restrictor,
                    inner: Box::new(self.normalize_path(inner)),
                    predicate: predicate.clone(),
                });
            }
            PathPattern::Quantified { inner, quantifier } => {
                out.push(PathPattern::Quantified {
                    inner: Box::new(self.normalize_quantifiable(inner)),
                    quantifier: *quantifier,
                });
            }
            PathPattern::Questioned(inner) => {
                out.push(PathPattern::Questioned(Box::new(
                    self.normalize_quantifiable(inner),
                )));
            }
            PathPattern::Union(branches) => {
                out.push(PathPattern::Union(
                    branches.iter().map(|b| self.normalize_path(b)).collect(),
                ));
            }
            PathPattern::Alternation(branches) => {
                out.push(PathPattern::Alternation(
                    branches.iter().map(|b| self.normalize_path(b)).collect(),
                ));
            }
        }
    }

    /// The body of a quantifier or `?` must be a parenthesized consistent
    /// path pattern; a quantified bare edge pattern receives anonymous node
    /// patterns on both sides (§4.4, §6.2).
    fn normalize_quantifiable(&mut self, inner: &PathPattern) -> PathPattern {
        match inner {
            PathPattern::Paren {
                restrictor,
                inner,
                predicate,
            } => PathPattern::Paren {
                restrictor: *restrictor,
                inner: Box::new(self.normalize_path(inner)),
                predicate: predicate.clone(),
            },
            other => PathPattern::Paren {
                restrictor: None,
                inner: Box::new(self.normalize_path(other)),
                predicate: None,
            },
        }
    }
}

// Re-export for convenience in doc examples.
#[allow(unused_imports)]
use crate::ast::Direction;
#[allow(unused_imports)]
use crate::ast::LabelExpr;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Direction, EdgePattern, LabelExpr, NodePattern, PathPattern, Quantifier};

    fn edge(dir: Direction) -> PathPattern {
        PathPattern::Edge(EdgePattern::any(dir))
    }

    fn node(v: &str) -> PathPattern {
        PathPattern::Node(NodePattern::var(v))
    }

    #[test]
    fn bare_edge_gets_framed_by_anonymous_nodes() {
        // MATCH -[e]->  ⇒  (□1)-[e]->(□2)
        let p = PathPattern::Edge(EdgePattern::any(Direction::Right).with_var("e"));
        let n = normalize_path(&p);
        assert_eq!(n.to_string(), "(□1)-[e]->(□2)");
    }

    #[test]
    fn consecutive_edges_get_separated() {
        // (x)->->(y) ⇒ (x)->(□1)->(y); anonymous edges also get variables.
        let p = PathPattern::concat(vec![
            node("x"),
            edge(Direction::Right),
            edge(Direction::Right),
            node("y"),
        ]);
        let n = normalize_path(&p);
        assert_eq!(n.to_string(), "(x)-[−1]->(□1)-[−2]->(y)");
    }

    #[test]
    fn quantified_bare_edge_is_wrapped() {
        // -[b:Transfer]->{1,}  ⇒  [(□1)-[b:Transfer]->(□2)]{1,}
        let p = PathPattern::Edge(
            EdgePattern::any(Direction::Right)
                .with_var("b")
                .with_label(LabelExpr::label("Transfer")),
        )
        .quantified(Quantifier::plus());
        let n = normalize_path(&p);
        assert_eq!(n.to_string(), "[(□1)-[b:Transfer]->(□2)]+");
    }

    #[test]
    fn section_6_2_shape() {
        // (a)[-[b]->]+(a)[->(c) | ->(c)] gets the paper's normalized shape:
        // anonymous nodes inside the quantifier, fresh edge vars in branches.
        let quant = PathPattern::Edge(EdgePattern::any(Direction::Right).with_var("b"))
            .quantified(Quantifier::plus());
        let branch = |lbl: &str| {
            PathPattern::concat(vec![
                edge(Direction::Right),
                PathPattern::Node(NodePattern::var("c").with_label(LabelExpr::label(lbl))),
            ])
        };
        let p = PathPattern::concat(vec![
            node("a"),
            quant,
            node("a"),
            PathPattern::Union(vec![branch("City"), branch("Country")]),
        ]);
        let n = normalize_path(&p);
        assert_eq!(
            n.to_string(),
            "(a)[(□1)-[b]->(□2)]+(a)[(□3)-[−1]->(c:City) | (□4)-[−2]->(c:Country)]"
        );
    }

    #[test]
    fn union_branches_are_normalized_independently() {
        let p = PathPattern::Union(vec![edge(Direction::Right), edge(Direction::Left)]);
        let n = normalize_path(&p);
        assert_eq!(n.to_string(), "(□1)-[−1]->(□2) | (□3)<-[−2]-(□4)");
    }

    #[test]
    fn anonymity_predicates() {
        assert!(is_anonymous("□12"));
        assert!(is_anonymous("−3"));
        assert!(is_anonymous_node("□12"));
        assert!(!is_anonymous_node("−3"));
        assert!(!is_anonymous("x"));
        assert!(!is_anonymous("box"));
    }

    #[test]
    fn normalization_is_idempotent() {
        let p = PathPattern::concat(vec![
            node("x"),
            edge(Direction::Any),
            PathPattern::Edge(EdgePattern::any(Direction::Right)).quantified(Quantifier::star()),
            node("y"),
        ]);
        let once = normalize_path(&p);
        let twice = normalize_path(&once);
        assert_eq!(once, twice);
    }

    #[test]
    fn fresh_names_are_global_across_path_patterns() {
        let g = GraphPattern {
            paths: vec![
                PathPatternExpr::plain(edge(Direction::Right)),
                PathPatternExpr::plain(edge(Direction::Right)),
            ],
            where_clause: None,
        };
        let n = normalize(&g);
        let s0 = n.paths[0].pattern.to_string();
        let s1 = n.paths[1].pattern.to_string();
        assert_eq!(s0, "(□1)-[−1]->(□2)");
        assert_eq!(s1, "(□3)-[−2]->(□4)");
    }
}
