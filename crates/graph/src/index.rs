//! The node access-path index behind [`PropertyGraph::nodes_with_label`]
//! and [`PropertyGraph::nodes_with_prop`].
//!
//! One structure answers both probes: label → nodes, and (label, key,
//! value) → nodes for the value types whose query equality
//! ([`Value::sql_eq`]) is structural equality — strings and booleans.
//! Numbers are left out on purpose: `Int(2) = Float(2.0)` holds under
//! `sql_eq`, so a structural key would miss matches. Labels are the
//! graph's interned symbols, read from each node's label set; key and
//! value maps are nested so a probe borrows its `&str` arguments, and a
//! build owns each key and string value once per label, not once per
//! node.
//!
//! [`PropertyGraph::nodes_with_label`]: crate::PropertyGraph::nodes_with_label
//! [`PropertyGraph::nodes_with_prop`]: crate::PropertyGraph::nodes_with_prop

use std::collections::HashMap;

use crate::graph::{LabelSym, PropertyGraph};
use crate::ids::NodeId;
use crate::value::Value;

/// Label and equality index over a graph's nodes. Every id list is in
/// ascending id order.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct NodeIndex {
    /// By label symbol.
    labels: Vec<LabelIndex>,
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

/// Applies `f` to `map[key]`, first inserting a default under an owned
/// copy of `key` when the map has none: a key is copied once, on first
/// sight.
fn with_entry<V: Default>(map: &mut HashMap<String, V>, key: &str, f: impl FnOnce(&mut V)) {
    match map.get_mut(key) {
        Some(v) => f(v),
        None => f(map.entry(key.to_owned()).or_default()),
    }
}

impl NodeIndex {
    /// Indexes the nodes of `g`.
    pub(crate) fn build(g: &PropertyGraph) -> NodeIndex {
        let mut index = NodeIndex::default();
        for n in g.nodes() {
            for sym in g.node_label_syms(n).iter() {
                let at = sym.0 as usize;
                if index.labels.len() <= at {
                    index.labels.resize_with(at + 1, LabelIndex::default);
                }
                let entry = &mut index.labels[at];
                entry.nodes.push(n);
                for (key, value) in &g.node(n).properties {
                    match value {
                        Value::Str(s) => with_entry(&mut entry.props, key, |by_key| {
                            with_entry(&mut by_key.strs, s, |postings| postings.push(n));
                        }),
                        Value::Bool(b) => with_entry(&mut entry.props, key, |by_key| {
                            by_key.bools[usize::from(*b)].push(n);
                        }),
                        _ => {}
                    }
                }
            }
        }
        index
    }

    /// The nodes carrying `label` (`None`: a label the graph never saw).
    pub(crate) fn label(&self, label: Option<LabelSym>) -> &[NodeId] {
        self.of(label).map_or(&[], |l| &l.nodes)
    }

    /// The nodes carrying `label` whose `key` equals `value`, or `None`
    /// when `value`'s type is not indexed.
    pub(crate) fn prop(
        &self,
        label: Option<LabelSym>,
        key: &str,
        value: &Value,
    ) -> Option<&[NodeId]> {
        let by_key = self.of(label).and_then(|l| l.props.get(key));
        let postings = match value {
            Value::Str(s) => by_key.and_then(|v| v.strs.get(s.as_str())),
            Value::Bool(b) => by_key.map(|v| &v.bools[usize::from(*b)]),
            _ => return None,
        };
        Some(postings.map_or(&[], Vec::as_slice))
    }

    fn of(&self, label: Option<LabelSym>) -> Option<&LabelIndex> {
        self.labels.get(label?.0 as usize)
    }
}
