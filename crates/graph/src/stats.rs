//! The graph statistics catalog.
//!
//! [`GraphStats`] summarizes a [`PropertyGraph`] for cost-based query
//! planning: element counts per label, the directed/undirected split of
//! every edge label, average degrees, and distinct-value hints per
//! property key. The catalog is computed on first use
//! ([`PropertyGraph::stats`]), cached inside the graph, shared by its
//! clones, and dropped by every mutation, so a planner pays one pointer
//! read per execution once it exists.
//!
//! The numbers are *estimator inputs*, not exact query answers: a planner
//! combines them under independence assumptions (e.g. label distribution
//! independent of edge orientation), which is the classic trade-off of
//! one-pass statistics catalogs.
//!
//! A mutation never patches the catalog: it drops it, in O(1), and the
//! next reader rebuilds it in O(|N| + |E|). Only a plan with two or more
//! stages to order, and EXPLAIN, reads it, so a write never pays for the
//! catalog and a one-stage plan never builds one.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::graph::{PropertyGraph, Traversal};

/// Per-edge-label tallies: how many matching edges are directed vs
/// undirected.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EdgeLabelStats {
    /// Directed edges carrying the label.
    pub directed: usize,
    /// Undirected edges carrying the label.
    pub undirected: usize,
}

impl EdgeLabelStats {
    /// Total edges carrying the label.
    pub fn total(&self) -> usize {
        self.directed + self.undirected
    }
}

/// Per-node degree maxima, split by how an incident edge is traversable.
///
/// Averages alone mis-price skewed graphs: a hub with a thousand
/// incident edges disappears inside an average of one. The maxima are
/// exact bounds on any single node's fan-out, which lets an estimator
/// cap its expansion factor when it suspects edges concentrate on a
/// small candidate set (see `gpml_core`'s cost model).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DegreeStats {
    /// Largest number of matching directed edges leaving any one node.
    pub max_out: usize,
    /// Largest number of matching directed edges entering any one node.
    pub max_in: usize,
    /// Largest number of matching undirected incidences at any one node.
    pub max_undirected: usize,
}

impl DegreeStats {
    /// Bound on a single node's fan-out under an orientation that admits
    /// the given traversal kinds.
    pub fn bound(&self, forward: bool, backward: bool, undirected: bool) -> usize {
        let mut b = 0;
        if forward {
            b += self.max_out;
        }
        if backward {
            b += self.max_in;
        }
        if undirected {
            b += self.max_undirected;
        }
        b
    }

    /// Raises the maxima to one node's `[out, in, undirected]` tallies.
    fn absorb(&mut self, [out, inc, und]: [usize; 3]) {
        self.max_out = self.max_out.max(out);
        self.max_in = self.max_in.max(inc);
        self.max_undirected = self.max_undirected.max(und);
    }
}

/// A log₂-bucketed histogram of per-node degrees.
///
/// Bucket `i` counts the nodes whose degree `d` (traversable steps,
/// optionally restricted to one edge label) satisfies `2^i ≤ d < 2^(i+1)`;
/// zero-degree nodes are not recorded. Where [`DegreeStats`] keeps only
/// the maxima, the histogram shows how the mass is distributed between
/// the average and the maximum — the signal an estimator needs to tell
/// "one hub" from "everything is a hub".
///
/// # Examples
///
/// ```
/// use property_graph::DegreeHistogram;
///
/// let mut h = DegreeHistogram::default();
/// h.record(1);
/// h.record(5);
/// h.record(6);
/// assert_eq!(h.nodes(), 3);
/// assert_eq!(h.to_string(), "1: 1, 4..7: 2");
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DegreeHistogram {
    /// `buckets[i]` counts nodes with `2^i ≤ degree < 2^(i+1)`; there are
    /// no trailing zero buckets.
    buckets: Vec<usize>,
}

impl DegreeHistogram {
    fn bucket_of(degree: usize) -> usize {
        debug_assert!(degree > 0);
        degree.ilog2() as usize
    }

    /// Records one node observed at `degree` (no-op for degree zero).
    pub fn record(&mut self, degree: usize) {
        if degree == 0 {
            return;
        }
        let b = DegreeHistogram::bucket_of(degree);
        if self.buckets.len() <= b {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
    }

    /// Total nodes recorded (i.e. nodes with degree ≥ 1).
    pub fn nodes(&self) -> usize {
        self.buckets.iter().sum()
    }

    /// Non-empty buckets as `(low, high_inclusive, count)` degree ranges,
    /// in increasing degree order.
    pub fn ranges(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| (1 << i, (1 << (i + 1)) - 1, *c))
    }
}

impl fmt::Display for DegreeHistogram {
    /// Renders non-empty buckets as `low..high: count` (or `d: count` for
    /// single-degree buckets), comma-separated; `(none)` when empty.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut any = false;
        for (lo, hi, count) in self.ranges() {
            if any {
                write!(f, ", ")?;
            }
            any = true;
            if lo == hi {
                write!(f, "{lo}: {count}")?;
            } else {
                write!(f, "{lo}..{hi}: {count}")?;
            }
        }
        if !any {
            write!(f, "(none)")?;
        }
        Ok(())
    }
}

/// The shared empty histogram [`GraphStats::histogram`] hands out for
/// labels it has never observed.
static EMPTY_HISTOGRAM: DegreeHistogram = DegreeHistogram {
    buckets: Vec::new(),
};

/// A one-pass statistical summary of a property graph.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GraphStats {
    /// `|N|`.
    pub node_count: usize,
    /// `|E|`.
    pub edge_count: usize,
    /// Directed edges overall.
    pub directed_edge_count: usize,
    /// Undirected edges overall.
    pub undirected_edge_count: usize,
    /// Nodes carrying at least one label (the `%` wildcard's domain).
    pub labeled_node_count: usize,
    /// Edges carrying at least one label.
    pub labeled_edge_count: usize,
    /// Nodes per label.
    pub node_labels: BTreeMap<String, usize>,
    /// Edges per label, split by orientation.
    pub edge_labels: BTreeMap<String, EdgeLabelStats>,
    /// Distinct values observed per property key, across nodes and edges —
    /// the equality-predicate selectivity hint (`1 / distinct`).
    pub distinct_property_values: BTreeMap<String, usize>,
    /// Degree maxima over all edges regardless of label.
    pub max_degree: DegreeStats,
    /// Degree maxima counting only edges carrying each label — the
    /// skewed-hub signal for per-label traversal estimates.
    pub max_degree_per_label: BTreeMap<String, DegreeStats>,
    /// Degree histogram over all edges regardless of label: how node
    /// fan-out is *distributed*, not just its maximum.
    pub degree_histogram: DegreeHistogram,
    /// Degree histograms counting only steps over edges carrying each
    /// label — the distinct-endpoint signal behind the join key
    /// estimates.
    pub degree_histogram_per_label: BTreeMap<String, DegreeHistogram>,
}

impl GraphStats {
    /// Computes the catalog in linear passes over the elements' label
    /// set ids, their properties and the nodes' adjacency groups. Counts
    /// are taken per label set and per group, then expanded to the
    /// set's labels, so a label name is copied once per map that keys
    /// it, not once per occurrence.
    pub fn compute(g: &PropertyGraph) -> GraphStats {
        let mut stats = GraphStats {
            node_count: g.node_count(),
            edge_count: g.edge_count(),
            ..GraphStats::default()
        };
        let sets: Vec<&BTreeSet<String>> = g.label_sets().collect();
        // Elements per label set: `[nodes, undirected edges, directed
        // edges]`. A set no element carries any more counts zero and
        // names no label.
        let (node_sets, edge_sets) = g.set_ids();
        let mut counts = vec![[0usize; 3]; sets.len()];
        for &set in node_sets {
            counts[set as usize][0] += 1;
        }
        for (e, &set) in g.edges().zip(edge_sets) {
            counts[set as usize][1 + usize::from(g.edge(e).endpoints.is_directed())] += 1;
        }
        let mut node_labels: BTreeMap<&str, usize> = BTreeMap::new();
        let mut edge_labels: BTreeMap<&str, EdgeLabelStats> = BTreeMap::new();
        for (names, &[n, undirected, directed]) in sets.iter().zip(&counts) {
            stats.directed_edge_count += directed;
            stats.undirected_edge_count += undirected;
            if !names.is_empty() {
                stats.labeled_node_count += n;
                stats.labeled_edge_count += directed + undirected;
            }
            for l in names.iter() {
                if n > 0 {
                    *node_labels.entry(l).or_default() += n;
                }
                if directed + undirected > 0 {
                    let entry = edge_labels.entry(l).or_default();
                    entry.directed += directed;
                    entry.undirected += undirected;
                }
            }
        }
        stats.node_labels = owned(node_labels);
        stats.edge_labels = owned(edge_labels);
        // Distinct values are counted by hash, at 8 bytes per distinct
        // value instead of a clone of each. Distinctness is exact up to
        // hash collisions; the estimator reads the count as a selectivity
        // hint, so a collision only nudges an estimate.
        let mut seen_hashes: BTreeMap<&str, HashSet<u64>> = BTreeMap::new();
        let properties = (g.nodes().map(|n| &g.node(n).properties))
            .chain(g.edges().map(|e| &g.edge(e).properties));
        for (k, v) in properties.flatten() {
            // `DefaultHasher::new()` uses fixed keys, so counts repeat
            // exactly from run to run.
            let mut h = std::collections::hash_map::DefaultHasher::new();
            v.hash(&mut h);
            seen_hashes.entry(k).or_default().insert(h.finish());
        }
        stats.distinct_property_values = seen_hashes
            .into_iter()
            .map(|(k, hashes)| (k.to_owned(), hashes.len()))
            .collect();
        // Degree maxima and histograms: each node's adjacency groups give
        // its `[out, in, undirected]` step counts overall and, expanded
        // to each group's labels, per edge label; both summaries read
        // the same tallies.
        let mut per_label: BTreeMap<&str, (DegreeStats, DegreeHistogram)> = BTreeMap::new();
        let mut node_tally: Vec<(&str, [usize; 3])> = Vec::new();
        for n in g.nodes() {
            let mut all = [0usize; 3];
            for (traversal, set, len) in g.groups(n) {
                let slot = match traversal {
                    Traversal::Forward => 0,
                    Traversal::Backward => 1,
                    Traversal::Undirected => 2,
                };
                all[slot] += len;
                for l in sets[set as usize].iter() {
                    if !node_tally.iter().any(|(k, _)| k == l) {
                        node_tally.push((l, [0; 3]));
                    }
                    for (_, tally) in node_tally.iter_mut().filter(|(k, _)| k == l) {
                        tally[slot] += len;
                    }
                }
            }
            stats.max_degree.absorb(all);
            stats.degree_histogram.record(all.iter().sum());
            for (l, tally) in node_tally.drain(..) {
                let (max, histogram) = per_label.entry(l).or_default();
                max.absorb(tally);
                histogram.record(tally.iter().sum());
            }
        }
        for (l, (max, histogram)) in owned(per_label) {
            stats.max_degree_per_label.insert(l.clone(), max);
            stats.degree_histogram_per_label.insert(l, histogram);
        }
        stats
    }

    /// Degree maxima for edges carrying `label` (or all edges for
    /// `None`). Labels never observed report zero maxima.
    pub fn max_degrees(&self, label: Option<&str>) -> DegreeStats {
        match label {
            None => self.max_degree,
            Some(l) => self
                .max_degree_per_label
                .get(l)
                .copied()
                .unwrap_or_default(),
        }
    }

    /// Degree histogram for edges carrying `label` (or all edges for
    /// `None`). Labels never observed report the empty histogram.
    pub fn histogram(&self, label: Option<&str>) -> &DegreeHistogram {
        match label {
            None => &self.degree_histogram,
            Some(l) => self
                .degree_histogram_per_label
                .get(l)
                .unwrap_or(&EMPTY_HISTOGRAM),
        }
    }

    /// Nodes carrying `label`.
    pub fn nodes_with_label(&self, label: &str) -> usize {
        self.node_labels.get(label).copied().unwrap_or(0)
    }

    /// Edge tallies for `label`.
    pub fn edges_with_label(&self, label: &str) -> EdgeLabelStats {
        self.edge_labels.get(label).copied().unwrap_or_default()
    }

    /// Average out-degree over all nodes, counting only directed edges
    /// with `label` (or all directed edges when `None`). By symmetry this
    /// is also the average in-degree.
    pub fn avg_out_degree(&self, label: Option<&str>) -> f64 {
        if self.node_count == 0 {
            return 0.0;
        }
        let edges = match label {
            Some(l) => self.edges_with_label(l).directed,
            None => self.directed_edge_count,
        };
        edges as f64 / self.node_count as f64
    }

    /// Distinct values observed for property `key`, if any element has it.
    pub fn distinct_values(&self, key: &str) -> Option<usize> {
        self.distinct_property_values.get(key).copied()
    }
}

/// `map` with its borrowed label or key names copied, once each.
fn owned<V>(map: BTreeMap<&str, V>) -> BTreeMap<String, V> {
    map.into_iter().map(|(k, v)| (k.to_owned(), v)).collect()
}

impl fmt::Display for GraphStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "graph statistics: {} nodes ({} labeled), {} edges ({} directed, {} undirected)",
            self.node_count,
            self.labeled_node_count,
            self.edge_count,
            self.directed_edge_count,
            self.undirected_edge_count,
        )?;
        writeln!(f, "  node labels:")?;
        if self.node_labels.is_empty() {
            writeln!(f, "    (none)")?;
        }
        for (label, count) in &self.node_labels {
            writeln!(f, "    :{label} \u{2192} {count}")?;
        }
        writeln!(f, "  edge labels:")?;
        if self.edge_labels.is_empty() {
            writeln!(f, "    (none)")?;
        }
        for (label, s) in &self.edge_labels {
            let d = self.max_degrees(Some(label));
            writeln!(
                f,
                "    :{label} \u{2192} {} ({} directed, {} undirected, avg out-degree {:.3}, \
                 max out/in/undir {}/{}/{})",
                s.total(),
                s.directed,
                s.undirected,
                self.avg_out_degree(Some(label)),
                d.max_out,
                d.max_in,
                d.max_undirected,
            )?;
        }
        writeln!(f, "  degree histograms (bucket: nodes):")?;
        writeln!(f, "    (all) \u{2192} {}", self.degree_histogram)?;
        for (label, h) in &self.degree_histogram_per_label {
            writeln!(f, "    :{label} \u{2192} {h}")?;
        }
        writeln!(f, "  distinct property values:")?;
        if self.distinct_property_values.is_empty() {
            writeln!(f, "    (none)")?;
        }
        for (key, distinct) in &self.distinct_property_values {
            writeln!(f, "    .{key} \u{2192} {distinct}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Endpoints;
    use crate::value::Value;

    fn sample() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let a = g.add_node("a", ["Account"], [("owner", Value::str("x"))]);
        let b = g.add_node("b", ["Account"], [("owner", Value::str("y"))]);
        let c = g.add_node("c", Vec::<String>::new(), []);
        g.add_edge(
            "t1",
            Endpoints::directed(a, b),
            ["Transfer"],
            [("amount", Value::Int(1))],
        );
        g.add_edge(
            "t2",
            Endpoints::directed(b, a),
            ["Transfer"],
            [("amount", Value::Int(1))],
        );
        g.add_edge("u1", Endpoints::undirected(a, c), ["Knows"], []);
        g
    }

    #[test]
    fn counts_labels_and_orientations() {
        let g = sample();
        let s = g.stats();
        assert_eq!(s.node_count, 3);
        assert_eq!(s.edge_count, 3);
        assert_eq!(s.labeled_node_count, 2);
        assert_eq!(s.nodes_with_label("Account"), 2);
        assert_eq!(s.nodes_with_label("Nope"), 0);
        let t = s.edges_with_label("Transfer");
        assert_eq!((t.directed, t.undirected, t.total()), (2, 0, 2));
        let k = s.edges_with_label("Knows");
        assert_eq!((k.directed, k.undirected), (0, 1));
        assert_eq!(s.directed_edge_count, 2);
        assert_eq!(s.undirected_edge_count, 1);
    }

    #[test]
    fn degrees_and_distinct_hints() {
        let g = sample();
        let s = g.stats();
        assert!((s.avg_out_degree(Some("Transfer")) - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(s.distinct_values("owner"), Some(2));
        assert_eq!(s.distinct_values("amount"), Some(1));
        assert_eq!(s.distinct_values("missing"), None);
    }

    #[test]
    fn max_degrees_track_hubs() {
        // A hub with 3 outgoing :T spokes, one incoming :T, one
        // undirected :U — maxima must see the hub, not the average.
        let mut g = PropertyGraph::new();
        let hub = g.add_node("hub", ["H"], []);
        for i in 0..3 {
            let s = g.add_node(&format!("s{i}"), ["S"], []);
            g.add_edge(&format!("out{i}"), Endpoints::directed(hub, s), ["T"], []);
        }
        let p = g.add_node("p", ["S"], []);
        g.add_edge("in0", Endpoints::directed(p, hub), ["T"], []);
        g.add_edge("u0", Endpoints::undirected(p, hub), ["U"], []);
        let s = g.stats();

        let t = s.max_degrees(Some("T"));
        assert_eq!((t.max_out, t.max_in, t.max_undirected), (3, 1, 0));
        let u = s.max_degrees(Some("U"));
        assert_eq!((u.max_out, u.max_in, u.max_undirected), (0, 0, 1));
        assert_eq!(s.max_degrees(None).max_out, 3);
        assert_eq!(s.max_degrees(Some("Nope")), DegreeStats::default());
        // Orientation bounds compose additively.
        assert_eq!(t.bound(true, true, false), 4);
        assert_eq!(t.bound(true, true, true), 4);
        assert_eq!(u.bound(false, false, true), 1);
    }

    #[test]
    fn max_degrees_count_self_loops_per_traversal() {
        let mut g = PropertyGraph::new();
        let a = g.add_node("a", ["N"], []);
        g.add_edge("loop", Endpoints::directed(a, a), ["T"], []);
        let d = g.stats().max_degrees(Some("T"));
        // A directed self loop is one forward and one backward step.
        assert_eq!((d.max_out, d.max_in), (1, 1));
    }

    #[test]
    fn histograms_bucket_by_log2_degree() {
        // Hub with 3 out + 1 in + 1 undirected = 5 steps → bucket 4..7;
        // spokes s0..s2 have 1 step, p has 2 (in0 + u0).
        let mut g = PropertyGraph::new();
        let hub = g.add_node("hub", ["H"], []);
        for i in 0..3 {
            let s = g.add_node(&format!("s{i}"), ["S"], []);
            g.add_edge(&format!("out{i}"), Endpoints::directed(hub, s), ["T"], []);
        }
        let p = g.add_node("p", ["S"], []);
        g.add_edge("in0", Endpoints::directed(p, hub), ["T"], []);
        g.add_edge("u0", Endpoints::undirected(p, hub), ["U"], []);
        let s = g.stats();

        let all = s.histogram(None);
        assert_eq!(all.nodes(), 5);
        assert_eq!(
            all.ranges().collect::<Vec<_>>(),
            vec![(1, 1, 3), (2, 3, 1), (4, 7, 1)]
        );
        // Per-label: only :T steps count toward the :T histogram — the
        // spokes and `p` each take one, the hub 3 out + 1 in = 4.
        let t = s.histogram(Some("T"));
        assert_eq!(t.ranges().collect::<Vec<_>>(), vec![(1, 1, 4), (4, 7, 1)]);
        assert_eq!(s.histogram(Some("U")).nodes(), 2);
        assert_eq!(s.histogram(Some("Nope")).nodes(), 0);
        assert_eq!(s.histogram(Some("Nope")).to_string(), "(none)");
        // The REPL `:stats` dump renders per-label buckets.
        let text = s.to_string();
        assert!(text.contains("degree histograms"), "{text}");
        assert!(text.contains(":T \u{2192} 1: 4, 4..7: 1"), "{text}");
    }

    #[test]
    fn incremental_maintenance_matches_full_recompute() {
        // Force the catalog into existence, then add labeled/unlabeled
        // nodes, directed/undirected edges, self loops, repeated and
        // fresh property values. After each mutation the catalog read
        // back (rebuilt, since the mutation dropped it) must equal a
        // from-scratch recompute.
        let mut g = sample();
        let _ = g.stats();
        let d = g.add_node("d", ["Account"], [("owner", Value::str("x"))]);
        assert_eq!(*g.stats(), GraphStats::compute(&g));
        // Repeated value "x" must not bump the distinct count.
        assert_eq!(g.stats().distinct_values("owner"), Some(2));
        let e = g.add_node("e", Vec::<String>::new(), [("owner", Value::str("z"))]);
        assert_eq!(g.stats().distinct_values("owner"), Some(3));
        g.add_edge(
            "t3",
            Endpoints::directed(d, e),
            ["Transfer"],
            [("amount", Value::Int(7))],
        );
        assert_eq!(*g.stats(), GraphStats::compute(&g));
        g.add_edge("loop", Endpoints::directed(d, d), ["Transfer"], []);
        assert_eq!(*g.stats(), GraphStats::compute(&g));
        g.add_edge("uloop", Endpoints::undirected(e, e), ["Knows"], []);
        assert_eq!(*g.stats(), GraphStats::compute(&g));
        // Degree maxima tracked the new hub: d has 2 out (t3 + loop),
        // 1 in (loop backward) on Transfer edges.
        let t = g.stats().max_degrees(Some("Transfer"));
        assert_eq!((t.max_out, t.max_in), (2, 1));
    }

    #[test]
    fn incremental_maintenance_interleaves_with_reads() {
        // Reads between mutations re-cache; further mutations drop the
        // cached catalog again.
        let mut g = PropertyGraph::new();
        let mut prev = None;
        for i in 0..20 {
            let n = g.add_node(&format!("n{i}"), ["N"], [("k", Value::Int(i % 4))]);
            if let Some(p) = prev {
                g.add_edge(&format!("e{i}"), Endpoints::directed(p, n), ["T"], []);
            }
            prev = Some(n);
            if i % 3 == 0 {
                assert_eq!(g.stats().node_count, i as usize + 1);
            }
        }
        assert_eq!(*g.stats(), GraphStats::compute(&g));
        assert_eq!(g.stats().distinct_values("k"), Some(4));
        assert_eq!(g.stats().edges_with_label("T").directed, 19);
    }

    #[test]
    fn cache_is_invalidated_on_mutation() {
        let mut g = sample();
        assert_eq!(g.stats().node_count, 3);
        let d = g.add_node("d", ["Account"], []);
        let a = g.node_by_name("a").unwrap();
        assert_eq!(g.stats().node_count, 4, "add_node must refresh stats");
        assert_eq!(g.stats().nodes_with_label("Account"), 3);
        g.add_edge("t3", Endpoints::directed(a, d), ["Transfer"], []);
        assert_eq!(g.stats().edges_with_label("Transfer").directed, 3);
        g.set_property(a.into(), "owner", Value::str("y"));
        assert_eq!(g.stats().distinct_values("owner"), Some(1));
        assert_eq!(*g.stats(), GraphStats::compute(&g));
        let t3 = g.edge_by_name("t3").unwrap();
        g.remove_element(t3.into()).unwrap();
        assert_eq!(g.stats().edges_with_label("Transfer").directed, 2);
        assert_eq!(*g.stats(), GraphStats::compute(&g));
        g.remove_element(d.into()).unwrap();
        assert_eq!(g.stats().nodes_with_label("Account"), 2);
        assert_eq!(*g.stats(), GraphStats::compute(&g));
    }

    #[test]
    fn clone_keeps_valid_stats() {
        let g = sample();
        let _ = g.stats();
        let mut h = g.clone();
        assert!(
            std::ptr::eq(h.stats(), g.stats()),
            "clones share the catalog"
        );
        h.add_node("z", ["Z"], []);
        assert_eq!(h.stats().nodes_with_label("Z"), 1);
        assert_eq!(g.stats().nodes_with_label("Z"), 0);
    }

    #[test]
    fn empty_graph_stats() {
        let g = PropertyGraph::new();
        let s = g.stats();
        assert_eq!(s.node_count, 0);
        assert_eq!(s.avg_out_degree(None), 0.0);
        assert!(s.to_string().contains("(none)"));
    }

    #[test]
    fn display_mentions_labels() {
        let g = sample();
        let text = g.stats().to_string();
        assert!(text.contains(":Transfer"), "{text}");
        assert!(text.contains(".owner"), "{text}");
    }
}
