//! The mutation vocabulary: what a write batch is made of.
//!
//! Mutations reference elements by their external *names*, never by dense
//! ids — replaying a WAL on a freshly decoded snapshot must not depend on
//! how ids happened to be assigned in the writing process.

use property_graph::{Endpoints, GraphError, PropertyGraph, Value};

use crate::codec::{put_props, put_str, put_strs, put_value, DecodeError, Reader};

/// One atomic change to the graph. Batches of these form a commit.
#[derive(Clone, Debug, PartialEq)]
pub enum Mutation {
    /// Add a node with a fresh unique name.
    AddNode {
        /// External name of the new node.
        name: String,
        /// Label set `λ`.
        labels: Vec<String>,
        /// Property map `π`.
        properties: Vec<(String, Value)>,
    },
    /// Add an edge between two existing nodes, referenced by name.
    AddEdge {
        /// External name of the new edge.
        name: String,
        /// Name of the source node (first endpoint when undirected).
        src: String,
        /// Name of the target node (second endpoint when undirected).
        dst: String,
        /// Ordered pair when true, unordered otherwise.
        directed: bool,
        /// Label set `λ`.
        labels: Vec<String>,
        /// Property map `π`.
        properties: Vec<(String, Value)>,
    },
    /// Set (or, with [`Value::Null`], remove) one property of an element.
    SetProperty {
        /// Name of the node or edge.
        element: String,
        /// Property key.
        key: String,
        /// New value; `Null` removes the key.
        value: Value,
    },
    /// Remove an element. Nodes must have no incident edges.
    Delete {
        /// Name of the node or edge to remove.
        element: String,
    },
}

impl Mutation {
    /// Applies this mutation to `g`. On `Err` the graph is unchanged.
    pub fn apply(&self, g: &mut PropertyGraph) -> Result<(), GraphError> {
        match self {
            Mutation::AddNode {
                name,
                labels,
                properties,
            } => {
                g.try_add_node(name, labels.iter().cloned(), properties.iter().cloned())?;
                Ok(())
            }
            Mutation::AddEdge {
                name,
                src,
                dst,
                directed,
                labels,
                properties,
            } => {
                let s = g
                    .node_by_name(src)
                    .ok_or_else(|| GraphError::UnknownNode(src.clone()))?;
                let d = g
                    .node_by_name(dst)
                    .ok_or_else(|| GraphError::UnknownNode(dst.clone()))?;
                let ep = if *directed {
                    Endpoints::directed(s, d)
                } else {
                    Endpoints::undirected(s, d)
                };
                g.try_add_edge(name, ep, labels.iter().cloned(), properties.iter().cloned())?;
                Ok(())
            }
            Mutation::SetProperty {
                element,
                key,
                value,
            } => {
                let el = g
                    .by_name(element)
                    .ok_or_else(|| GraphError::UnknownElement(element.clone()))?;
                g.set_property(el, key, value.clone());
                Ok(())
            }
            Mutation::Delete { element } => {
                let el = g
                    .by_name(element)
                    .ok_or_else(|| GraphError::UnknownElement(element.clone()))?;
                g.remove_element(el)
            }
        }
    }

    /// Appends the wire/WAL encoding of this mutation to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Mutation::AddNode {
                name,
                labels,
                properties,
            } => {
                buf.push(1);
                put_str(buf, name);
                put_strs(buf, labels.iter());
                put_props(buf, properties.iter().map(|(k, v)| (k, v)));
            }
            Mutation::AddEdge {
                name,
                src,
                dst,
                directed,
                labels,
                properties,
            } => {
                buf.push(2);
                put_str(buf, name);
                put_str(buf, src);
                put_str(buf, dst);
                buf.push(u8::from(*directed));
                put_strs(buf, labels.iter());
                put_props(buf, properties.iter().map(|(k, v)| (k, v)));
            }
            Mutation::SetProperty {
                element,
                key,
                value,
            } => {
                buf.push(3);
                put_str(buf, element);
                put_str(buf, key);
                put_value(buf, value);
            }
            Mutation::Delete { element } => {
                buf.push(4);
                put_str(buf, element);
            }
        }
    }

    /// Decodes one mutation from `r`.
    pub fn decode(r: &mut Reader<'_>) -> Result<Mutation, DecodeError> {
        match r.u8()? {
            1 => Ok(Mutation::AddNode {
                name: r.str()?,
                labels: r.strs()?,
                properties: r.props()?,
            }),
            2 => Ok(Mutation::AddEdge {
                name: r.str()?,
                src: r.str()?,
                dst: r.str()?,
                directed: r.u8()? != 0,
                labels: r.strs()?,
                properties: r.props()?,
            }),
            3 => Ok(Mutation::SetProperty {
                element: r.str()?,
                key: r.str()?,
                value: r.value()?,
            }),
            4 => Ok(Mutation::Delete { element: r.str()? }),
            t => Err(DecodeError::Tag(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<Mutation> {
        vec![
            Mutation::AddNode {
                name: "n1".into(),
                labels: vec!["Account".into(), "VIP".into()],
                properties: vec![("owner".into(), Value::str("Scott"))],
            },
            Mutation::AddEdge {
                name: "e1".into(),
                src: "n1".into(),
                dst: "n1".into(),
                directed: true,
                labels: vec!["Transfer".into()],
                properties: vec![("amount".into(), Value::Int(8_000_000))],
            },
            Mutation::AddEdge {
                name: "e2".into(),
                src: "n1".into(),
                dst: "n1".into(),
                directed: false,
                labels: vec![],
                properties: vec![],
            },
            Mutation::SetProperty {
                element: "n1".into(),
                key: "owner".into(),
                value: Value::Null,
            },
            Mutation::Delete {
                element: "e1".into(),
            },
        ]
    }

    #[test]
    fn mutation_roundtrip() {
        for m in corpus() {
            let mut buf = Vec::new();
            m.encode(&mut buf);
            let mut r = Reader::new(&buf);
            assert_eq!(Mutation::decode(&mut r).unwrap(), m);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn apply_is_name_based_and_typed() {
        let mut g = PropertyGraph::new();
        for m in corpus() {
            m.apply(&mut g).unwrap();
        }
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 1);
        assert!(g.edge_by_name("e2").is_some());
        let n = g.node_by_name("n1").unwrap();
        assert_eq!(g.node(n).property("owner"), &Value::Null);
        assert_eq!(
            Mutation::Delete {
                element: "ghost".into()
            }
            .apply(&mut g),
            Err(GraphError::UnknownElement("ghost".into()))
        );
        assert_eq!(
            Mutation::Delete {
                element: "n1".into()
            }
            .apply(&mut g),
            Err(GraphError::NodeHasEdges("n1".into()))
        );
    }
}
