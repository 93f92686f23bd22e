//! GPML — the Graph Pattern Matching Language shared by ISO GQL and
//! SQL/PGQ, as presented in *Graph Pattern Matching in GQL and SQL/PGQ*
//! (Deutsch et al., SIGMOD 2022).
//!
//! This crate is the paper's primary contribution: the pattern language
//! (AST + concrete-syntax printer), the static analysis that guarantees
//! termination (§5) and enforces the variable discipline (§4.4, §4.6), a
//! compiled query-plan layer, and two interchangeable evaluation engines:
//!
//! * [`plan`] — the prepare-once/execute-many layer: [`plan::prepare`]
//!   lowers a pattern (normalize → analyze → compile flat programs →
//!   join/select/filter stages) into a graph-independent
//!   [`plan::PreparedQuery`] that serves any number of executions;
//! * [`eval`] — the production engine: a single-pass matcher with
//!   restrictor pruning carried on the search frontier and selector-driven
//!   breadth-first search with dominance pruning for unbounded
//!   quantifiers. [`eval::evaluate`] is a thin one-shot wrapper over the
//!   plan layer;
//! * [`baseline`] — the literal §6 execution model (normalization →
//!   expansion into rigid patterns → per-part matching → equi-join →
//!   reduction and deduplication), used as a test oracle and benchmark
//!   baseline.
//!
//! Both engines produce the same *set of reduced path bindings* for every
//! valid query; property tests in the workspace assert this equivalence on
//! random graphs and patterns.
//!
//! # Quick example
//!
//! ```
//! use gpml_core::ast::*;
//! use gpml_core::eval::{evaluate, EvalOptions};
//! use property_graph::{Endpoints, PropertyGraph, Value};
//!
//! let mut g = PropertyGraph::new();
//! let a = g.add_node("a1", ["Account"], [("isBlocked", Value::str("no"))]);
//! let b = g.add_node("a2", ["Account"], [("isBlocked", Value::str("yes"))]);
//! g.add_edge("t1", Endpoints::directed(a, b), ["Transfer"], []);
//!
//! // MATCH (x:Account WHERE x.isBlocked='no')-[t:Transfer]->(y)
//! let pattern = GraphPattern::single(PathPattern::concat(vec![
//!     PathPattern::Node(
//!         NodePattern::var("x")
//!             .with_label(LabelExpr::label("Account"))
//!             .with_predicate(Expr::prop("x", "isBlocked").eq(Expr::lit("no"))),
//!     ),
//!     PathPattern::Edge(
//!         EdgePattern::any(Direction::Right)
//!             .with_var("t")
//!             .with_label(LabelExpr::label("Transfer")),
//!     ),
//!     PathPattern::Node(NodePattern::var("y")),
//! ]));
//!
//! let result = evaluate(&g, &pattern, &EvalOptions::default()).unwrap();
//! assert_eq!(result.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod ast;
pub mod baseline;
pub mod binding;
pub mod error;
pub mod eval;
pub mod normalize;
pub mod params;
pub mod plan;

pub use analysis::{analyze, Analysis, VarClass, VarKind};
pub use ast::{
    AggArg, AggFunc, ArithOp, CmpOp, Direction, EdgePattern, Expr, GraphPattern, LabelExpr,
    NodePattern, PathPattern, PathPatternExpr, Quantifier, Restrictor, Selector,
};
pub use binding::{BoundValue, MatchRow, MatchSet, PathBinding};
pub use error::{Error, Result};
pub use eval::flat::FlatProgram;
pub use eval::{evaluate, EvalOptions, MatchMode};
pub use params::{ParamType, Params};
pub use plan::{prepare, ExecutablePlan, PreparedQuery, Projection, Statement};
