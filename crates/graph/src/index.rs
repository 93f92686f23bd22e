//! The node access-path index behind [`PropertyGraph::nodes_with_label`]
//! and [`PropertyGraph::nodes_with_prop`].
//!
//! One structure answers both probes: label → nodes, and (label, key,
//! value) → nodes for the value types whose query equality
//! ([`Value::sql_eq`]) is structural equality — strings and booleans.
//! Numbers are left out on purpose: `Int(2) = Float(2.0)` holds under
//! `sql_eq`, so a structural key would miss matches. The maps are nested
//! so a probe borrows its `&str` arguments instead of building an owned
//! composite key.
//!
//! [`PropertyGraph::nodes_with_label`]: crate::PropertyGraph::nodes_with_label
//! [`PropertyGraph::nodes_with_prop`]: crate::PropertyGraph::nodes_with_prop

use std::collections::HashMap;

use crate::graph::NodeData;
use crate::ids::NodeId;
use crate::value::Value;

/// Label and equality index over a graph's nodes. Every id list is in
/// ascending id order.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct NodeIndex {
    labels: HashMap<String, LabelIndex>,
}

/// The nodes carrying one label, and their indexable properties.
#[derive(Debug, Default, PartialEq)]
struct LabelIndex {
    nodes: Vec<NodeId>,
    props: HashMap<String, ValueIndex>,
}

/// One property key's postings under one label.
#[derive(Debug, Default, PartialEq)]
struct ValueIndex {
    strs: HashMap<String, Vec<NodeId>>,
    /// `[false, true]`.
    bools: [Vec<NodeId>; 2],
}

impl NodeIndex {
    /// Indexes `nodes`, where position `i` holds node `NodeId(i)`.
    pub(crate) fn build(nodes: &[NodeData]) -> NodeIndex {
        let mut index = NodeIndex::default();
        for (i, node) in nodes.iter().enumerate() {
            let id = NodeId(i as u32);
            for label in node.labels.iter() {
                let entry = index.labels.entry(label.clone()).or_default();
                entry.nodes.push(id);
                for (key, value) in &node.properties {
                    let postings = match value {
                        Value::Str(s) => {
                            let by_key = entry.props.entry(key.clone()).or_default();
                            by_key.strs.entry(s.clone()).or_default()
                        }
                        Value::Bool(b) => {
                            let by_key = entry.props.entry(key.clone()).or_default();
                            &mut by_key.bools[usize::from(*b)]
                        }
                        _ => continue,
                    };
                    postings.push(id);
                }
            }
        }
        index
    }

    /// The nodes carrying `label`.
    pub(crate) fn label(&self, label: &str) -> &[NodeId] {
        self.labels.get(label).map_or(&[], |l| &l.nodes)
    }

    /// The nodes carrying `label` whose `key` equals `value`, or `None`
    /// when `value`'s type is not indexed.
    pub(crate) fn prop(&self, label: &str, key: &str, value: &Value) -> Option<&[NodeId]> {
        let by_key = self.labels.get(label).and_then(|l| l.props.get(key));
        let postings = match value {
            Value::Str(s) => by_key.and_then(|v| v.strs.get(s.as_str())),
            Value::Bool(b) => by_key.map(|v| &v.bools[usize::from(*b)]),
            _ => return None,
        };
        Some(postings.map_or(&[], Vec::as_slice))
    }
}
