//! Property graph data model, as defined in Definition 2.1 of
//! *Graph Pattern Matching in GQL and SQL/PGQ* (Deutsch et al., SIGMOD 2022).
//!
//! A property graph is a tuple `G = (N, E, ρ, λ, π)` where
//!
//! * `N` is a finite set of node identifiers,
//! * `E` is a finite set of edge identifiers disjoint from `N`,
//! * `ρ` maps every edge to an ordered (directed) or unordered (undirected)
//!   pair of nodes,
//! * `λ` maps every element (node or edge) to a finite set of labels,
//! * `π` partially maps `(element, property-name)` pairs to values.
//!
//! The model is a *mixed pseudo-multigraph*: edges may be directed or
//! undirected, self loops are allowed, and several edges may connect the same
//! endpoints. Both nodes and edges carry labels and property/value pairs.
//!
//! The crate also provides [`Path`], the alternating node/edge sequences
//! ("walks" in graph-theoretic terminology) that GPML path patterns bind to.
//!
//! # Example
//!
//! ```
//! use property_graph::{PropertyGraph, Value, Endpoints};
//!
//! let mut g = PropertyGraph::new();
//! let a1 = g.add_node("a1", ["Account"], [("owner", Value::str("Scott"))]);
//! let a2 = g.add_node("a2", ["Account"], [("owner", Value::str("Aretha"))]);
//! let t1 = g.add_edge("t1", Endpoints::directed(a1, a2), ["Transfer"],
//!                     [("amount", Value::Int(8_000_000))]);
//! assert!(g.edge(t1).endpoints.is_directed());
//! assert_eq!(g.node(a1).property("owner"), &Value::str("Scott"));
//! assert_eq!(g.out_degree(a1), 1);
//! ```

#![warn(missing_docs)]

pub mod graph;
pub mod ids;
mod index;
pub mod path;
pub mod stats;
pub mod value;

pub use graph::{EdgeData, Endpoints, GraphError, NodeData, PropertyGraph, Step, Traversal};
pub use ids::{EdgeId, ElementId, NodeId};
pub use path::Path;
pub use stats::{DegreeHistogram, DegreeStats, EdgeLabelStats, GraphStats};
pub use value::Value;
